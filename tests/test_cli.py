import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rislink import cli, harness
from rislink.config import ScenarioConfig
from rislink.harness import read_curve_csv

FAST_CFG = """
n_users: 4
n_bs_antennas: 32
n_ris_elements: 16
mc_min_errors: 20
mc_min_trials: 200
mc_trial_ceiling: 400
mc_symbol_chunk: 2000
mc_symbol_ceiling: 8000
snr_channel_draws: 25
pdf_fit_samples: 50000
ris_phase_mode: random
"""


def run_cli(*args):
    # a worker pool lives for a whole run: a hang fails the test, not the suite
    return subprocess.run([sys.executable, "-m", "rislink", *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture()
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return path


def test_downlink_ber_writes_csv(fast_cfg, tmp_path):
    out = tmp_path / "ber.csv"
    proc = run_cli("downlink-ber", "--config", str(fast_cfg), "--sweep", "ebn0",
                   "--grid", "0,8", "--scheme", "linear_precoded", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = read_curve_csv(out)
    assert result.x_name == "ebn0_db"
    assert "linear_precoded" in result.series
    assert result.x_values.tolist() == [0.0, 8.0]


def test_uplink_ser_and_output_snr(fast_cfg, tmp_path):
    out = tmp_path / "ser.csv"
    proc = run_cli("uplink-ser", "--config", str(fast_cfg), "--grid", "4,8",
                   "--scheme", "both", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = read_curve_csv(out)
    assert {"monte_carlo", "closed_form"} <= set(result.series)

    out2 = tmp_path / "snr.csv"
    proc = run_cli("output-snr", "--config", str(fast_cfg), "--grid", "16,32",
                   "--out", str(out2))
    assert proc.returncode == 0, proc.stderr
    assert "simulated" in read_curve_csv(out2).series


def test_pdf_fit(fast_cfg, tmp_path):
    out = tmp_path / "pdf.csv"
    proc = run_cli("pdf-fit", "--config", str(fast_cfg), "--grid", "12,4",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = read_curve_csv(out)
    assert any(name.startswith("empirical") for name in result.series)


@pytest.mark.parametrize("args", [
    ("downlink-ber", "--grid", "10,10.0"),
    ("uplink-ser", "--grid", "8,4,8.0000000001"),  # both rows would read x = 8
    ("output-snr", "--grid", "32,32"),
    ("pdf-fit", "--grid", "10,10.0000000001"),     # both column groups would read 10dB
    ("uplink-ser", "--grid=-0,0"),                 # -0 is 0
], ids=["downlink_ber", "uplink_ser", "output_snr", "pdf_fit", "negative_zero"])
def test_repeated_grid_value_is_refused(fast_cfg, tmp_path, args, monkeypatch, capsys):
    # a point run twice writes two rows (pdf-fit: two column groups) under one
    # name; refused before any work
    def no_work(*_args, **_kw):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "task_map", no_work)
    monkeypatch.setattr(harness, "build_uplink_instance", no_work)
    out = tmp_path / "x.csv"
    assert cli.main([*args, "--config", str(fast_cfg), "--out", str(out)]) == 2
    assert "config error: grid values must be distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", cli.EXPERIMENTS)
def test_main_calls_the_names_on_cli(command, tmp_path, monkeypatch):
    # perfbench/spans.py times a run by replacing these attributes of cli, so
    # every EXPERIMENTS entry must reach its runner under its name there
    calls = []
    result = harness.CurveResult("x", np.array([]))

    def spy(name, returns=None):
        def record(*args, **kwargs):
            calls.append((name, args))
            return returns
        return record

    runners = [name for name in vars(cli) if name.startswith("run_")]
    assert len(runners) == len(cli.EXPERIMENTS)
    for runner in runners:
        monkeypatch.setattr(cli, runner, spy(runner, result))
    monkeypatch.setattr(cli, "load_scenario", spy("load_scenario", ScenarioConfig()))
    monkeypatch.setattr(cli, "export_csv", spy("export_csv"))
    out = tmp_path / "x.csv"
    assert cli.main([command, "--config", "scenario.cfg", "--out", str(out)]) == 0
    runner = "run_" + command.replace("-", "_")
    assert [name for name, _ in calls] == ["load_scenario", runner, "export_csv"]
    assert calls[0][1] == ("scenario.cfg",)
    assert calls[2][1] == (result, str(out))


def test_pdf_fit_ignores_workers(fast_cfg, tmp_path, monkeypatch):
    # pdf-fit accepts --workers, as every subcommand does, and runs in one
    # process
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    out = tmp_path / "pdf.csv"
    assert cli.main(["pdf-fit", "--config", str(fast_cfg), "--grid", "12",
                     "--workers", "2", "--out", str(out)]) == 0
    assert out.exists()
    assert pools == []


def speed_csvs_at_1_and_8_workers(cfg_path, tmp_path):
    outs = []
    for tag, workers in (("a", "1"), ("b", "8")):
        out = tmp_path / f"{tag}.csv"
        proc = run_cli("downlink-ber", "--config", str(cfg_path), "--sweep", "speed",
                       "--grid", "10,50", "--scheme", "linear_precoded",
                       "--scheme", "qam_ml_baseline", "--seed", "77",
                       "--workers", workers, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    return outs


def test_seed_reproducibility_across_worker_counts(fast_cfg, tmp_path):
    outs = speed_csvs_at_1_and_8_workers(fast_cfg, tmp_path)
    assert outs[0] == outs[1]


def test_seed_reproducibility_across_worker_counts_direct_link(tmp_path):
    cfg = tmp_path / "direct.cfg"
    cfg.write_text(FAST_CFG + "direct_link: true\n")
    outs = speed_csvs_at_1_and_8_workers(cfg, tmp_path)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["uplink-ser", "pdf-fit"])
def test_uplink_refuses_direct_link(command, tmp_path):
    # the uplink model has no direct path; the key must not be ignored
    cfg = tmp_path / "direct.cfg"
    cfg.write_text(FAST_CFG + "direct_link: true\n")
    out = tmp_path / "out.csv"
    proc = run_cli(command, "--config", str(cfg), "--grid", "4", "--out", str(out))
    assert proc.returncode == 2
    assert "direct_link" in proc.stderr
    assert not out.exists()


def test_uplink_ser_over_search_cap_is_config_error(tmp_path):
    # 2^17 constellation points exceed the enumeration cap the uplink shares
    # with joint detection
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(FAST_CFG.replace("n_users: 4", "n_users: 17"))
    out = tmp_path / "out.csv"
    proc = run_cli("uplink-ser", "--config", str(cfg), "--grid", "4", "--out", str(out))
    assert proc.returncode == 2
    assert "search cap" in proc.stderr
    assert not out.exists()


def test_uplink_csv_identical_across_worker_counts(fast_cfg, tmp_path):
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"ser{workers}.csv"
        proc = run_cli("uplink-ser", "--config", str(fast_cfg), "--grid", "0,8",
                       "--scheme", "both", "--seed", "77", "--workers", workers,
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_bs_antennas: 0\n")
    proc = run_cli("downlink-ber", "--config", str(bad), "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


@pytest.mark.parametrize("line", [
    "noise_sigma2: nan",      # ran and wrote a CSV
    "speed: nan",             # failed inside an SVD (exit 3)
    "coverage_length: nan",   # uncaught OverflowError (exit 1)
])
def test_non_finite_config_exit_code(tmp_path, line):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(FAST_CFG + line + "\n")
    out = tmp_path / "x.csv"
    proc = run_cli("downlink-ber", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "must be finite [key: %s]" % line.split(":")[0] in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("grid, extra", [
    ("4", ""),                    # n_t <= n_k + 1 with 4 users
    ("16.7", ""),                 # array sizes are integers
    ("16", "noise_sigma2: 0\n"),  # the output SNR needs noise
    ("16", "snr_channel_draws: 1\n"),  # a half-width needs two draws
], ids=["small_array", "non_integer_array", "zero_noise", "one_draw"])
def test_output_snr_config_faults_exit_code(tmp_path, grid, extra):
    cfg = tmp_path / "snr.cfg"
    cfg.write_text(FAST_CFG + extra)
    proc = run_cli("output-snr", "--config", str(cfg), "--grid", grid,
                   "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr


@pytest.mark.parametrize("args, extra", [
    (("pdf-fit", "--grid", "4000"), ""),            # was OverflowError
    (("pdf-fit", "--grid=-4000"), ""),              # was ZeroDivisionError
    (("uplink-ser", "--grid=-4000"), ""),           # was OverflowError
    (("downlink-ber", "--sweep", "ebn0", "--grid=-4000"), ""),
    (("downlink-ber", "--grid=-2000"), ""),         # finite ratio whose square overflows:
    (("uplink-ser", "--grid=-2000"), ""),           # was ZeroDivisionError, OverflowError
    (("downlink-ber", "--sweep", "speed"), "ebn0_db: -4000\n"),
], ids=["pdf_fit_high", "pdf_fit_low", "uplink_low", "downlink_low", "downlink_square",
        "uplink_square", "config_ebn0"])
def test_extreme_db_exit_code(tmp_path, args, extra):
    cfg = tmp_path / "db.cfg"
    cfg.write_text(FAST_CFG + extra)
    out = tmp_path / "x.csv"
    proc = run_cli(*args, "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "dB is out of range" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("--sweep", "speed", "--grid=-5"),       # speed must be >= 0
    ("--sweep", "rician_k", "--grid=-1"),    # Rician factors must be >= 0
    ("--sweep", "speed", "--grid", "nan"),   # grid values must be finite
    ("--workers", "0"),                      # at least one worker
], ids=["negative_speed", "negative_rician_k", "nan_grid", "zero_workers"])
def test_downlink_sweep_faults_exit_code(fast_cfg, tmp_path, args):
    proc = run_cli("downlink-ber", "--config", str(fast_cfg), *args,
                   "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr


def test_uplink_runs_min_trials_above_ceiling(tmp_path):
    cfg = tmp_path / "min.cfg"
    cfg.write_text(FAST_CFG + "mc_min_trials: 3000\nmc_symbol_chunk: 500\n"
                   "mc_symbol_ceiling: 1000\n")
    out = tmp_path / "ser.csv"
    proc = run_cli("uplink-ser", "--config", str(cfg), "--scheme", "monte_carlo",
                   "--grid", "4,8", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert read_curve_csv(out).series["monte_carlo"].trials.tolist() == [3000, 3000]


def test_numerical_error_exit_code(fast_cfg, tmp_path):
    # joint detection above the exhaustive-search cap is a configuration
    # fault: the run is refused before any frame is built
    proc = run_cli("downlink-ber", "--config", str(fast_cfg), "--scheme", "linear_joint",
                   "--paper-scale", "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2


def test_search_cap_exit_code_just_above_cap(tmp_path):
    # 2**17 candidates: refused before any frame is built
    cfg = tmp_path / "n17.cfg"
    cfg.write_text(FAST_CFG + "n_bs_antennas: 17\n")
    proc = run_cli("downlink-ber", "--config", str(cfg), "--scheme", "linear_joint",
                   "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "search cap" in proc.stderr


def test_series_truncation_exit_code(fast_cfg, tmp_path):
    # 60 dB branch SNR pushes the density series far past the diagonal budget
    proc = run_cli("pdf-fit", "--config", str(fast_cfg), "--grid", "60",
                   "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 3
    assert "truncation" in proc.stderr


def test_rank_deficient_baseline_estimate_exit_code(tmp_path):
    # two RIS elements and no direct link give every user's row one 2-D span:
    # the noiseless 4-user baseline Gram is singular, never truncated
    cfg = tmp_path / "rank2.cfg"
    cfg.write_text(FAST_CFG + "n_ris_elements: 2\nnoise_sigma2: 0\nspeed: 0\n")
    proc = run_cli("downlink-ber", "--config", str(cfg), "--scheme", "qam_ml_baseline",
                   "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 3, proc.stderr
    assert "baseline estimate is rank deficient" in proc.stderr


def test_io_error_exit_code(fast_cfg, tmp_path):
    proc = run_cli("output-snr", "--config", str(fast_cfg), "--grid", "16",
                   "--out", str(tmp_path / "missing_dir" / "x.csv"))
    assert proc.returncode == 4


@pytest.mark.parametrize("body, flags, sizes", [
    ("seed: 3\n", (), (4, 32)),
    ("n_users: 2\nn_bs_antennas: 8\n", (), (2, 8)),
    ("n_users: 2\nn_bs_antennas: 8\n", ("--paper-scale",), (8, 128)),
], ids=["no_size_keys", "file_sizes", "paper_scale_over_file"])
def test_array_sizes_a_run_uses(tmp_path, body, flags, sizes):
    # desk sizes by default, the file's sizes where it sets them, and
    # --paper-scale over both
    cfg = tmp_path / "sizes.cfg"
    cfg.write_text(body)
    out = tmp_path / "ser.csv"
    proc = run_cli("uplink-ser", "--config", str(cfg), "--scheme", "closed_form",
                   "--grid", "10", *flags, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "users=%d antennas=%d " % sizes in read_curve_csv(out).notes[0]


def test_repeated_scheme_runs_once(fast_cfg, tmp_path):
    # a scheme named twice must not be simulated twice into one tally
    outs = []
    for tag, schemes in (("once", ("qam_ml_baseline",)),
                         ("twice", ("qam_ml_baseline", "qam_ml_baseline"))):
        out = tmp_path / f"{tag}.csv"
        proc = run_cli("downlink-ber", "--config", str(fast_cfg), "--grid", "10,20",
                       *(a for s in schemes for a in ("--scheme", s)), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_paper_scale_flag(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("mc_min_errors: 5\nmc_min_trials: 100\nmc_trial_ceiling: 100\n"
                     "noise_sigma2: 0\nspeed: 0\n")
    out = tmp_path / "ps.csv"
    proc = run_cli("downlink-ber", "--config", str(empty), "--sweep", "ebn0",
                   "--grid", "10", "--scheme", "linear_precoded", "--paper-scale",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    # full-scale run is noiseless/static: exact roundtrip
    assert read_curve_csv(out).series["linear_precoded"].values[0] == 0.0
