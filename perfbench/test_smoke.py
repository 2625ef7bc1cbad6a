"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q

Every workload named in BENCHMARK.json must run in both modes and emit, as
its last stdout line, the result object with every metric of that mode,
each with its declared unit; a bad seed must be rejected without a result.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)


def test_spec_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_emits_every_metric_with_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("env ") for line in lines)
    assert any(line.startswith("ops_failed_frac = ") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, name
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("seed", ["-1", "abc", "1.5", str(run.MAX_SEED)])
def test_rejects_bad_seed(seed):
    proc = bench("--workload", "uplink-mc", "--seed", seed, "--seconds", "1",
                 "--trace", "0", "--smoke")
    assert proc.returncode != 0
    assert "seed" in proc.stderr
    assert not proc.stdout.strip()
