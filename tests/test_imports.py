"""Start-up imports: the CLI loads numpy and the standard library, and scipy
only where an experiment needs it.  ``scipy.stats`` (and the
``scipy.linalg`` it pulls in) was most of every run's start-up time, and
``scipy.special`` half of what was left; only pdf-fit loads the latter, when
it runs."""

import os
import subprocess
import sys
from pathlib import Path

import rislink

SRC = str(Path(rislink.__file__).resolve().parents[1])

TINY_CFG = """
n_users: 2
n_bs_antennas: 4
n_ris_elements: 4
mc_min_errors: 5
mc_min_trials: 20
mc_trial_ceiling: 40
mc_symbol_chunk: 500
mc_symbol_ceiling: 1000
snr_channel_draws: 5
pdf_fit_samples: 2000
"""

# runs each experiment through cli.main in one interpreter and prints, after
# each, its exit code and whether scipy.special has been imported so far
PROBE = """
import sys
from rislink import cli

cfg, out = sys.argv[1:]
runs = [
    ["downlink-ber", "--grid", "0,8", "--scheme", "linear_precoded",
     "--scheme", "linear_joint", "--scheme", "qam_ml_baseline"],
    ["output-snr", "--grid", "4,8"],
    ["uplink-ser", "--grid", "0,6", "--scheme", "both"],
    ["pdf-fit", "--grid", "12,4"],
]
for i, args in enumerate(runs):
    code = cli.main([*args, "--config", cfg, "--out", f"{out}/{i}.csv"])
    print(args[0], code, "scipy.special" in sys.modules)
"""


def fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_cli_import_leaves_out_scipy_stats_and_linalg():
    proc = fresh_python("-c", "import sys, rislink.cli; print(sorted(m for m in "
                              "('scipy.stats', 'scipy.linalg') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_only_pdf_fit_loads_scipy_special(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    proc = fresh_python("-c", PROBE, str(cfg), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if not line.startswith("wrote ")]
    assert lines == ["downlink-ber 0 False", "output-snr 0 False",
                     "uplink-ser 0 False", "pdf-fit 0 True"]


def test_harness_stats_alias_resolves_lazily():
    import scipy.stats

    import rislink.harness as harness

    assert harness.stats is scipy.stats
    assert "stats" not in vars(harness)
    assert not hasattr(harness, "no_such_name")
