"""Every layer the benchmark times must still exist under the name it is
wrapped at: ``perfbench/spans.py`` replaces each target with ``setattr``, so
a renamed or deleted function would crash a traced run, which the regular
suite does not collect."""

import importlib.util
from pathlib import Path

import pytest

import rislink
import rislink.cli  # noqa: F401  (the CLI is not imported by the package)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_spans().span_targets(rislink)


@pytest.mark.parametrize("owner, attr, name", TARGETS, ids=[t[2] + ":" + t[1] for t in TARGETS])
def test_span_target_exists(owner, attr, name):
    assert attr in vars(owner)
