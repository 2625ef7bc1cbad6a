"""Module layering of ``src/rislink``: the engine (``harness``) imports no
experiment, no experiment imports another, and only the CLI and the package
root import experiments.  Experiments reach the engine through the module,
as ``harness.<name>``, so a name replaced on ``harness`` is the one they
call."""

import ast
import importlib
from pathlib import Path

import pytest

import rislink
from rislink import cli
from rislink.downlink_ber import SCHEMES

PACKAGE = Path(rislink.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
# the modules that define the runners cli.EXPERIMENTS calls
EXPERIMENTS = sorted({getattr(cli, name).__module__.rsplit(".", 1)[1]
                      for name in vars(cli) if name.startswith("run_")})


def imports(module):
    """(package module, names taken from it or None for the module itself)
    for every import of a rislink module in ``module``'s source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("rislink"):
                continue
            base = (node.module or "").removeprefix("rislink").lstrip(".")
            if base:
                found.append((base, tuple(alias.name for alias in node.names)))
            else:  # from . import a, b
                found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name.removeprefix("rislink."), None) for alias in node.names
                      if alias.name.startswith("rislink.")]
    return found


def test_one_experiment_module_per_subcommand():
    assert len(EXPERIMENTS) == len(cli.EXPERIMENTS)
    assert "harness" not in EXPERIMENTS
    assert set(EXPERIMENTS) <= set(MODULES)


def test_cli_and_package_root_import_every_experiment():
    for module in ("cli", "__init__"):
        assert {name for name, _ in imports(module)} >= set(EXPERIMENTS), module


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("cli", "__init__")])
def test_no_other_module_imports_an_experiment(module):
    # harness importing an experiment, or one experiment another
    imported = {name for name, _ in imports(module)} & set(EXPERIMENTS)
    assert not imported, f"{module} imports {sorted(imported)}"


@pytest.mark.parametrize("module", EXPERIMENTS)
def test_experiments_call_the_engine_through_the_module(module):
    engine = [names for name, names in imports(module) if name == "harness"]
    assert engine == [None], f"{module} imports {engine} from harness"


def test_experiment_stream_tags_are_distinct():
    tags = {}
    for module in EXPERIMENTS:
        values = vars(importlib.import_module(f"rislink.{module}"))
        tags.update({f"{module}.{name}": value for name, value in values.items()
                     if name.startswith("_TAG_")})
    assert len(tags) == len(EXPERIMENTS)
    assert len(set(tags.values())) == len(tags), tags


def test_downlink_runner_names_no_scheme():
    # a scheme's rules live in its SCHEMES entry, not in an arm of the runner
    tree = ast.parse((PACKAGE / "downlink_ber.py").read_text(encoding="utf-8"))
    runner = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "run_downlink_ber")
    named = {node.value for node in ast.walk(runner)
             if isinstance(node, ast.Constant) and node.value in SCHEMES}
    assert not named, f"run_downlink_ber names {sorted(named)}"
