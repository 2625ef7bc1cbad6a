"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import subprocess
import sys
import time

import numpy as np
from scipy import integrate, stats

from rislink import analysis as an
from rislink import downlink as dl
from rislink import downlink_ber, output_snr, uplink_ser
from rislink import waveform as wf
from rislink.config import ScenarioConfig
from conftest import chi2_gof_pvalue, complex_gauss, rng


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def test_01_linear_model_exactness():
    start = time.perf_counter()
    g = rng(101)
    worst = 0.0
    for _ in range(10_000):
        n_t = int(g.integers(1, 9))
        n_k = int(g.integers(1, 5))
        h = complex_gauss(g, (n_k, n_t))
        s = g.integers(0, 2, n_t)
        h_bar = dl.equivalent_channel(h)
        z = np.abs(h @ s) ** 2 - np.abs(h @ (1 - s)) ** 2
        worst = max(worst, np.abs(z - h_bar @ (2 * s - 1)).max())
    elapsed = time.perf_counter() - start
    report(1, "linear-model exactness", worst < 1e-12,
           f"max |detect - linear form| = {worst:.2e} over 1e4 instances", elapsed, 10.0)


def test_02_doppler_invariance():
    start = time.perf_counter()
    g = rng(102)
    worst = 0.0
    for _ in range(10_000):
        h = complex_gauss(g, 6)
        s = g.integers(0, 2, 6)
        nu = g.uniform(0, 2 * np.pi)
        pair = wf.branch_outputs(h, s)
        rotated = wf.apply_doppler(pair, nu)
        worst = max(worst, abs(wf.magnitude_difference(pair)
                               - wf.magnitude_difference(rotated)))
    elapsed = time.perf_counter() - start
    report(2, "doppler invariance", worst < 1e-12,
           f"max rotation-induced deviation = {worst:.2e}", elapsed, 5.0)


def test_03_zf_identity_and_roundtrip():
    start = time.perf_counter()
    g = rng(103)
    n_k = 8
    worst_resid = worst_round = 0.0
    for n_t in (16, 64, 128):
        for _ in range(1000):
            h_bar = g.standard_normal((n_k, n_t))
            pre = dl.zf_precoder(h_bar)
            w = h_bar @ pre.p
            worst_resid = max(worst_resid, np.abs(w - np.eye(n_k)).max())
            bits = g.integers(0, 2, (n_k, 100)).astype(float)
            out = (w @ bits) ** 2 - (w @ (1.0 - bits)) ** 2
            worst_round = max(worst_round, np.abs(out - (2.0 * bits - 1.0)).max())
        # exercise the public single-symbol surface once per size
        s = g.integers(0, 2, n_k)
        out = dl.precoded_roundtrip(h_bar, pre, s)
        worst_round = max(worst_round, np.abs(out - (2 * s - 1)).max())
    elapsed = time.perf_counter() - start
    ok = worst_resid < 1e-9 and worst_round < 1e-8
    report(3, "zf identity and roundtrip", ok,
           f"max |HP-I| = {worst_resid:.2e}, max roundtrip err = {worst_round:.2e}",
           elapsed, 30.0)


def test_04_output_snr_closed_form():
    start = time.perf_counter()
    cfg = ScenarioConfig(n_users=8, snr_channel_draws=200, noise_sigma2=0.01)
    res = output_snr.run_output_snr(cfg, (32, 64, 128))
    sim = res.series["simulated"].values
    pred = res.series["closed_form"].values
    gaps = np.abs(10 * np.log10(sim / pred))
    elapsed = time.perf_counter() - start
    report(4, "output snr closed form", bool(np.all(gaps < 1.0)),
           "dB gaps = " + ", ".join(f"{v:.3f}" for v in gaps), elapsed, 120.0)


def test_05_distribution_stack():
    start = time.perf_counter()
    g = rng(105)
    n = 1_000_000
    checks = []

    for beta, gamma in ((0.5, 2.0), (0.2, 1.0), (1.0, 0.5)):
        total = integrate.quad(lambda x: an.generalized_gamma_pdf(x, gamma, beta), 0, np.inf,
                               limit=200)[0]
        v = complex_gauss(g, n, sigma2=beta)  # per-quadrature variance beta/2
        eps = np.abs(np.sqrt(gamma) + v) ** 2
        pval = chi2_gof_pvalue(eps, lambda x: an.generalized_gamma_pdf(x, gamma, beta),
                               lo=0.0, hi=eps.max() * 1.5)
        checks.append(("gamma", abs(total - 1.0) < 1e-6, pval > 0.01, total, pval))

    for r_bar, sv2 in ((1.5, 0.3), (0.5, 0.1), (2.0, 1.0)):
        total = integrate.quad(lambda t: an.rician_envelope_pdf(t, r_bar, sv2),
                               0, np.inf, limit=200)[0]
        a = np.abs(r_bar + complex_gauss(g, n, sigma2=2 * sv2))
        pval = chi2_gof_pvalue(a, lambda t: an.rician_envelope_pdf(t, r_bar, sv2),
                               lo=0.0, hi=a.max() * 1.5)
        checks.append(("rician", abs(total - 1.0) < 1e-6, pval > 0.01, total, pval))

    for beta, gamma, gamma_p in ((0.5, 1.0, 2.0), (0.4, 0.8, 0.3), (1.0, 2.0, 2.0)):
        mu = gamma - gamma_p
        sd = np.sqrt(2 * beta * (gamma + gamma_p) + 2 * beta ** 2)
        grid = np.linspace(mu - 18 * sd - 6 * beta, mu + 18 * sd + 6 * beta, 40_001)
        total = np.trapezoid(an.gamma_difference_pdf(grid, gamma, gamma_p, beta), grid)
        v1 = complex_gauss(g, n, sigma2=beta)
        v2 = complex_gauss(g, n, sigma2=beta)
        z = np.abs(np.sqrt(gamma) + v1) ** 2 - np.abs(np.sqrt(gamma_p) + v2) ** 2
        pval = chi2_gof_pvalue(z, lambda x: an.gamma_difference_pdf(x, gamma, gamma_p, beta),
                               lo=z.min() * 1.5, hi=z.max() * 1.5)
        checks.append(("diff", abs(total - 1.0) < 1e-6, pval > 0.01, total, pval))

    elapsed = time.perf_counter() - start
    ok = all(c[1] and c[2] for c in checks)
    worst_total = max(abs(c[3] - 1.0) for c in checks)
    worst_p = min(c[4] for c in checks)
    report(5, "distribution stack", ok,
           f"worst |integral-1| = {worst_total:.2e}, worst GOF p = {worst_p:.3f}",
           elapsed, 120.0)


def test_06_gaussian_approximation_ks():
    start = time.perf_counter()
    g = rng(106)
    n = 1_000_000
    ks_values = []
    for sv2 in (0.001, 0.01, 0.1):
        v1 = complex_gauss(g, n, sigma2=2 * sv2)
        v2 = complex_gauss(g, n, sigma2=2 * sv2)
        z = np.abs(1.0 + v1) ** 2 - np.abs(v2) ** 2  # |cs|^2 = 1, |c s_bar|^2 = 0
        mu, s2 = 1.0, 4 * sv2 * 1.0 + 8 * sv2 ** 2
        ks_values.append(stats.kstest(z, "norm", args=(mu, np.sqrt(s2))).statistic)
    elapsed = time.perf_counter() - start
    ok = ks_values[0] < 0.02 and ks_values[0] < ks_values[1] < ks_values[2]
    report(6, "gaussian approximation", ok,
           "KS over sigma_v2 {0.001,0.01,0.1} = "
           + ", ".join(f"{v:.4f}" for v in ks_values), elapsed, 60.0)


def test_07_closed_form_ser():
    start = time.perf_counter()
    cfg = ScenarioConfig(n_users=4, n_bs_antennas=64, n_ris_elements=16,
                         rician_factor=10.0, ris_phase_mode="random",
                         mc_min_errors=2000, mc_min_trials=100_000,
                         mc_symbol_chunk=100_000, mc_symbol_ceiling=2_000_000)
    grid = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0)
    res = uplink_ser.run_uplink_ser(cfg, "both", grid)
    mc = res.series["monte_carlo"].values
    cf = res.series["closed_form"].values
    high = slice(len(grid) // 2, None)
    rels = []
    for m, c in zip(mc[high], cf[high]):
        if m >= 1e-3:
            rels.append(abs(c - m) / m)
    elapsed = time.perf_counter() - start
    ok = len(rels) > 0 and max(rels) < 0.10
    report(7, "closed form ser", ok,
           f"{len(rels)} qualifying high-SNR points, worst rel gap = "
           f"{max(rels) if rels else float('nan'):.3f}", elapsed, 300.0)


def test_08_mobility_robustness():
    start = time.perf_counter()
    cfg = ScenarioConfig(n_users=4, n_bs_antennas=32, n_ris_elements=16,
                         rician_factor=10.0, ebn0_db=30.0,
                         mc_min_errors=300, mc_min_trials=2000, mc_trial_ceiling=4000)
    res = downlink_ber.run_downlink_ber(cfg, ["linear_precoded", "qam_ml_baseline"],
                              "speed", (10.0, 50.0))
    qam = res.series["qam_ml_baseline"].values
    lin = res.series["linear_precoded"].values
    qam_ratio = qam[1] / qam[0]
    lin_ratio = lin.max() / lin.min()
    elapsed = time.perf_counter() - start
    ok = qam_ratio >= 10.0 and lin_ratio < 3.0
    report(8, "mobility robustness", ok,
           f"baseline 50/10 ratio = {qam_ratio:.1f}, linear spread = {lin_ratio:.2f}",
           elapsed, 300.0)


def test_09_rician_trend():
    start = time.perf_counter()
    cfg = ScenarioConfig(n_users=4, n_bs_antennas=4, n_ris_elements=16,
                         speed=50.0, ebn0_db=28.0,
                         mc_min_errors=10_000, mc_min_trials=1000,
                         mc_trial_ceiling=6000)
    res = downlink_ber.run_downlink_ber(cfg, "linear_joint", "rician_k", (1.0, 10.0, 100.0))
    v = res.series["linear_joint"].values
    errors_seen = (res.series["linear_joint"].values
                   * res.series["linear_joint"].trials * cfg.symbols_per_block
                   * cfg.n_bs_antennas)
    elapsed = time.perf_counter() - start
    ok = bool(v[0] >= v[1] >= v[2])
    report(9, "rician trend", ok,
           "BER over K {1,10,100} = " + ", ".join(f"{x:.4f}" for x in v)
           + f", min errors per point = {int(errors_seen.min())}", elapsed, 300.0)


def test_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "n_users: 4\nn_bs_antennas: 32\nn_ris_elements: 16\n"
        "mc_min_errors: 50\nmc_min_trials: 1000\nmc_trial_ceiling: 1200\n"
        "mc_symbol_chunk: 5000\nmc_symbol_ceiling: 20000\nris_phase_mode: random\n")
    blobs = []
    for tag, workers in (("w1", "1"), ("w8", "8")):
        out = tmp_path / f"{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rislink", "downlink-ber",
             "--config", str(cfg_path), "--sweep", "ebn0", "--grid", "6,12",
             "--scheme", "linear_precoded", "--scheme", "qam_ml_baseline",
             "--seed", "4242", "--workers", workers, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    elapsed = time.perf_counter() - start
    report(10, "cli determinism", blobs[0] == blobs[1],
           f"{len(blobs[0])} bytes, identical across 1 and 8 workers", elapsed, 60.0)


def test_11_output_snr_exact_law():
    # acceptance 04's configuration at noise levels where the sigma^4 term
    # matters: the printed rho / (2 sigma^2 + 3 sigma^4 / 4) is 8-44% off here
    start = time.perf_counter()
    gaps = []
    for sigma2 in (0.3, 1.0, 3.0):
        cfg = ScenarioConfig(n_users=8, snr_channel_draws=200, noise_sigma2=sigma2)
        res = output_snr.run_output_snr(cfg, (32, 64, 128))
        sim = res.series["simulated"].values
        exact = res.series["exact"].values
        gaps.extend(np.abs(sim / exact - 1.0))
    elapsed = time.perf_counter() - start
    report(11, "output snr exact law", bool(np.max(gaps) < 0.02),
           "max |simulated/exact - 1| = %.4f over sigma2 {0.3, 1, 3}" % max(gaps),
           elapsed, 60.0)
