"""The CLI loads numpy and scipy.special only: ``scipy.stats`` (and the
``scipy.linalg`` it pulls in) was most of every run's start-up time."""

import os
import subprocess
import sys
from pathlib import Path

import rislink

SRC = str(Path(rislink.__file__).resolve().parents[1])


def test_cli_import_leaves_out_scipy_stats_and_linalg():
    code = ("import sys, rislink.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_harness_stats_alias_resolves_lazily():
    import scipy.stats

    import rislink.harness as harness

    assert harness.stats is scipy.stats
    assert "stats" not in vars(harness)
    assert not hasattr(harness, "no_such_name")
