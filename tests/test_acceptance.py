"""Acceptance gate: thirteen end-to-end behavior checks at desk scale.

The two Monte Carlo sweeps dominate the runtime; they are computed once per
module and shared, each on up to two worker processes.  On a 2-core VM with
BLAS pinned to one thread they take about 24 s together (about 47 s on one
process).  Every test prints one ``[criterion NN] PASS/FAIL`` line with the
measured numbers so a failing run documents exactly what was observed.
"""

import math
import os

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from sparsechan.baseline import PilotCovariance, estimate_li_mmse, estimate_mmse_oracle
from sparsechan.channel import (
    ImpulseProfile,
    PowerDelayProfile,
    etu_profile,
    realize_channel,
    to_continuous_pdp,
)
from sparsechan.evaluation import (
    CapacityParams,
    SweepConfig,
    capacity_lower_bound,
    false_alarm_calibration,
    run_sweep,
)
from sparsechan.signal_model import (
    ObservationSet,
    PilotPattern,
    SystemConfig,
    partial_fourier_matrix,
    synthesize_observation,
)
from sparsechan.sparse_recovery import (
    DetectionConfig,
    chi2_inv_cdf,
    detect_support,
    ex_omp,
    omp,
    sample_pdp,
)

DESK = SystemConfig(d=600, n_pilots=200)
MASTER_SEED = 20260819
MAIN_SNRS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
# Sweep rows and per-trial errors do not depend on the worker count.
WORKERS = min(2, os.cpu_count() or 1)


def _check(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# ------------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def main_sweep():
    cfg = SweepConfig(
        system=DESK,
        profile=etu_profile(),
        snr_db=MAIN_SNRS,
        n_trials=500,
        estimators=("dft", "li", "mmse", "omp", "a1", "a2", "a3", "exomp"),
        n_prior_sets=8,
        master_seed=MASTER_SEED,
    )
    return run_sweep(cfg, n_workers=WORKERS, keep_trials=True)


@pytest.fixture(scope="module")
def capacity_sweep():
    cfg = SweepConfig(
        system=SystemConfig(d=600, n_pilots=100),
        profile=etu_profile(),
        snr_db=(0.0, 5.0, 10.0, 15.0, 20.0),
        n_trials=500,
        estimators=("ideal", "li", "exomp"),
        n_prior_sets=8,
        master_seed=MASTER_SEED,
    )
    return run_sweep(cfg, n_workers=WORKERS)


@pytest.fixture(scope="module")
def recovery_counts():
    """Noiseless 4-sparse draws: exact support + coefficient hits out of 500."""
    cfg = SystemConfig(d=64, n_pilots=32)
    rng = np.random.default_rng(MASTER_SEED)
    ok_omp = ok_ex = 0
    n_draws = 500
    for _ in range(n_draws):
        support = np.sort(rng.choice(64, size=4, replace=False))
        obs, thetas = [], []
        for _ in range(4):
            th = np.zeros(64, dtype=np.complex128)
            th[support] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            pat = PilotPattern.pseudo_random(cfg, int(rng.integers(0, 2**63)))
            obs.append(synthesize_observation(cfg, pat, th, 0.0))
            thetas.append(th)

        def exact(est, th) -> bool:
            return bool(
                est.support.tolist() == support.tolist()
                and np.linalg.norm(est.theta - th) <= 1e-9 * np.linalg.norm(th)
            )

        ok_omp += exact(omp(obs[0]), thetas[0])
        ests = ex_omp(ObservationSet(tuple(obs)), DetectionConfig(alpha=1e-6, noise_var=0.0))
        ok_ex += all(exact(e, th) for e, th in zip(ests, thetas))
    return ok_omp, ok_ex, n_draws


@pytest.fixture(scope="module")
def calibration_rows():
    return false_alarm_calibration(
        DESK,
        alphas=(1e-3, 1e-2, 5e-2),
        n_sets_list=(1, 5, 8),
        n_bins=200_000,
        master_seed=11,
    )


@pytest.fixture(scope="module")
def late_tap_counts():
    """How often the weakest, latest profile tap clears detection at 0 dB."""
    system = SystemConfig(d=600, n_pilots=80)
    pdp = to_continuous_pdp(etu_profile(), system, cluster_rms_s=1e-7, normalize=True)
    solo = ImpulseProfile(taps=(etu_profile().taps[-1],))
    window = np.flatnonzero(
        to_continuous_pdp(solo, system, cluster_rms_s=1e-7).variances > 0
    )
    det = DetectionConfig(alpha=1e-3, noise_var=1.0)
    hits = 0
    n_trials = 200
    for t in range(n_trials):
        rng = np.random.default_rng([77, t])
        obs = []
        for _ in range(5):
            th = realize_channel(pdp, rng)
            pat = PilotPattern.pseudo_random(system, int(rng.integers(0, 2**63)))
            obs.append(synthesize_observation(system, pat, th, 1.0, rng))
        sup = detect_support(sample_pdp(ObservationSet(tuple(obs))), det)
        hits += bool(np.intersect1d(sup, window).size)
    return hits, n_trials, window


# -------------------------------------------------------------- the criteria


def test_criterion_01_dft_error_tracks_snr(main_sweep):
    devs = {
        snr: main_sweep.row("dft", snr).nmse_db + snr for snr in MAIN_SNRS[:5]
    }
    detail = "dft nmse_db + snr: " + ", ".join(
        f"{snr:g}dB {dev:+.2f}" for snr, dev in devs.items()
    ) + " (|dev| <= 0.5)"
    _check(1, all(abs(dev) <= 0.5 for dev in devs.values()), detail)


def test_criterion_02_li_low_snr_gain_and_error_floor(main_sweep):
    gain = main_sweep.row("li", 0.0).nmse_db - main_sweep.row("dft", 0.0).nmse_db
    drop = main_sweep.row("li", 20.0).nmse_db - main_sweep.row("li", 30.0).nmse_db
    ok_gain = -3.5 <= gain <= -1.5
    ok_floor = drop < 3.0
    detail = (
        f"li-dft at 0 dB = {gain:+.2f} (need -2.5±1); "
        f"li improvement 20→30 dB = {drop:.2f} (need < 3)"
    )
    _check(2, ok_gain and ok_floor, detail)


def test_criterion_03_mmse_reference_gain(main_sweep):
    gaps = {
        snr: main_sweep.row("dft", snr).nmse_db - main_sweep.row("mmse", snr).nmse_db
        for snr in (0.0, 5.0)
    }
    detail = "dft-mmse: " + ", ".join(
        f"{snr:g}dB {gap:.2f}" for snr, gap in gaps.items()
    ) + " (need 9±2)"
    _check(3, all(7.0 <= gap <= 11.0 for gap in gaps.values()), detail)


def test_criterion_04_omp_gain(main_sweep):
    gaps = {
        snr: main_sweep.row("dft", snr).nmse_db - main_sweep.row("omp", snr).nmse_db
        for snr in (0.0, 5.0, 10.0)
    }
    detail = "dft-omp: " + ", ".join(
        f"{snr:g}dB {gap:.2f}" for snr, gap in gaps.items()
    ) + " (need 6±1.5)"
    _check(4, all(4.5 <= gap <= 7.5 for gap in gaps.values()), detail)


def test_criterion_05_a1_high_snr_saturation(main_sweep):
    levels = {snr: main_sweep.row("a1", snr).nmse_db for snr in (20.0, 25.0, 30.0)}
    detail = "a1 nmse_db: " + ", ".join(
        f"{snr:g}dB {v:.2f}" for snr, v in levels.items()
    ) + " (need within [-19, -15])"
    _check(5, all(-19.0 <= v <= -15.0 for v in levels.values()), detail)


def test_criterion_06_exomp_tracks_mmse(main_sweep):
    gaps = {
        snr: main_sweep.row("exomp", snr).nmse_db - main_sweep.row("mmse", snr).nmse_db
        for snr in MAIN_SNRS[:5]
    }
    detail = "exomp-mmse: " + ", ".join(
        f"{snr:g}dB {gap:+.2f}" for snr, gap in gaps.items()
    ) + " (need <= 1.5)"
    _check(6, all(gap <= 1.5 for gap in gaps.values()), detail)


def test_criterion_07_low_snr_ordering(main_sweep):
    links = (
        ("mmse", "exomp"),
        ("exomp", "a2"),
        ("exomp", "a3"),
        ("a2", "omp"),
        ("a3", "omp"),
        ("omp", "dft"),
    )
    bad, notes = [], []
    for snr in (0.0, 5.0, 10.0):
        for a, b in links:
            ea = main_sweep.trial_errors[(a, snr)]
            eb = main_sweep.trial_errors[(b, snr)]
            mask = np.isfinite(ea) & np.isfinite(eb) & (ea > 0) & (eb > 0)
            diffs = 10.0 * (np.log10(ea[mask]) - np.log10(eb[mask]))
            mean = float(diffs.mean())
            se = float(diffs.std(ddof=1) / math.sqrt(diffs.size))
            agg = main_sweep.row(a, snr).nmse_db - main_sweep.row(b, snr).nmse_db
            if agg <= -0.2:
                continue
            if abs(mean) <= 2.0 * se:
                notes.append(f"{a}<={b}@{snr:g}dB tie ({mean:+.2f}±{se:.2f})")
            else:
                bad.append(
                    f"{a}<={b}@{snr:g}dB violated: agg {agg:+.2f} dB, "
                    f"paired {mean:+.2f}±{se:.2f}"
                )
    detail = "; ".join(bad + notes) if (bad or notes) else (
        "all 18 link points hold with >= 0.2 dB margin"
    )
    _check(7, not bad, detail)


def test_criterion_08_noiseless_exact_recovery(recovery_counts):
    ok_omp, ok_ex, n = recovery_counts
    detail = (
        f"exact support+coefficients: omp {ok_omp}/{n}, exomp {ok_ex}/{n} "
        f"(need >= 99%)"
    )
    _check(8, ok_omp >= 0.99 * n and ok_ex >= 0.99 * n, detail)


def test_criterion_09_detector_calibration(calibration_rows):
    bad = []
    for row in calibration_rows:
        dev = abs(row["rate"] - row["alpha"]) / row["stderr"]
        if dev > 3.0:
            bad.append(
                f"alpha={row['alpha']:g} n_sets={row['n_sets']}: "
                f"rate {row['rate']:.5f} is {dev:.1f} sigma off"
            )
    worst = max(
        abs(r["rate"] - r["alpha"]) / r["stderr"] for r in calibration_rows
    )
    detail = "; ".join(bad) if bad else (
        f"all 9 (alpha, n_sets) combinations within 3 sigma (worst {worst:.2f})"
    )
    _check(9, not bad, detail)


def test_criterion_10_chi2_quantile_oracles():
    closed_err = max(
        abs(chi2_inv_cdf(1.0 - a, 2) - (-2.0 * math.log(a)))
        for a in (0.5, 0.01, 0.001)
    )

    def quadrature_quantile(prob: float, dof: int) -> float:
        norm = 2.0 ** (dof / 2.0) * math.gamma(dof / 2.0)

        def cdf(x: float) -> float:
            val, _ = scipy.integrate.quad(
                lambda t: t ** (dof / 2.0 - 1.0) * math.exp(-t / 2.0),
                0.0,
                x,
                limit=400,
            )
            return val / norm

        hi = float(dof)
        while cdf(hi) < prob:
            hi *= 2.0
        return scipy.optimize.brentq(
            lambda x: cdf(x) - prob, 0.0, hi, xtol=1e-12, rtol=8.9e-16
        )

    quad_err = max(
        abs(chi2_inv_cdf(p, dof) - quadrature_quantile(p, dof))
        for dof in (10, 16)
        for p in (0.5, 0.99, 0.999)
    )
    detail = (
        f"2-dof closed form max err {closed_err:.2e} (need <= 1e-10); "
        f"quadrature dof 10/16 max err {quad_err:.2e} (need <= 1e-8)"
    )
    _check(10, closed_err <= 1e-10 and quad_err <= 1e-8, detail)


def test_criterion_11_capacity_formula_and_ordering(capacity_sweep):
    rho, se = 4.0, 0.3
    norms = np.array([0.5, 1.0, 2.0])
    params = CapacityParams(rho=rho, sigma_e_sq=se, n_symbols=12, n_pilots=3)
    eff = rho * (1.0 - se) / (1.0 + rho * se)
    oracle = (1.0 - 3.0 / 12.0) * float(np.mean(np.log2(1.0 + eff * norms)))
    formula_err = abs(capacity_lower_bound(params, norms) - oracle)
    bad = []
    for snr in (0.0, 5.0, 10.0, 15.0, 20.0):
        f_ideal = capacity_sweep.row("ideal", snr).capacity_fraction
        f_ex = capacity_sweep.row("exomp", snr).capacity_fraction
        f_li = capacity_sweep.row("li", snr).capacity_fraction
        if not f_ideal >= f_ex >= f_li:
            bad.append(
                f"{snr:g}dB: ideal {f_ideal:.4f}, exomp {f_ex:.4f}, li {f_li:.4f}"
            )
    detail = (
        f"formula err {formula_err:.2e} (need <= 1e-12); "
        + ("; ".join(bad) if bad else "ideal >= exomp >= li at all 5 SNRs")
    )
    _check(11, formula_err <= 1e-12 and not bad, detail)


def test_criterion_12_weak_late_tap_mostly_missed(late_tap_counts):
    hits, n_trials, window = late_tap_counts
    detail = (
        f"latest tap (bins {window.min()}..{window.max()}) detected in "
        f"{hits}/{n_trials} trials at 0 dB (need < 50%)"
    )
    _check(12, hits < n_trials // 2, detail)


def test_criterion_13_linear_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    worst_mmse = worst_li = 0.0
    for _ in range(20):
        d = int(rng.choice([8, 10, 12, 14, 16]))
        config = SystemConfig(d=d, n_pilots=d // 2)
        pattern = PilotPattern.uniform(config, spacing=2)
        variances = rng.uniform(0.0, 1.0, d)
        variances[rng.uniform(size=d) < 0.3] = 0.0
        if not variances.any():
            variances[0] = 1.0
        pdp = PowerDelayProfile(variances=variances, bin_width_s=config.bin_width_s)
        theta = realize_channel(pdp, rng)
        nv = float(rng.uniform(0.1, 0.5))
        obs = synthesize_observation(config, pattern, theta, nv, rng)
        h = partial_fourier_matrix(config, pattern)

        got = estimate_mmse_oracle(obs, pdp, nv, config)
        cov = h @ np.diag(variances) @ h.conj().T + nv * np.eye(config.n_pilots)
        dense_theta = np.diag(variances) @ h.conj().T @ np.linalg.solve(cov, obs.y)
        worst_mmse = max(
            worst_mmse,
            float(np.max(np.abs(got.theta_hat - dense_theta))),
            float(np.max(np.abs(got.channel_freq - np.fft.fft(dense_theta)))),
        )

        pilot_cov = h @ np.diag(variances) @ h.conj().T
        factor = PilotCovariance(*np.linalg.eigh(pilot_cov)[::-1])
        got_li = estimate_li_mmse(obs, factor, nv, config)
        filt = pilot_cov @ np.linalg.inv(pilot_cov + nv * np.eye(config.n_pilots))
        smoothed = filt @ obs.y
        grid = np.arange(d, dtype=float)
        dense_li = np.interp(
            grid, pattern.indices.astype(float), smoothed.real
        ) + 1j * np.interp(grid, pattern.indices.astype(float), smoothed.imag)
        worst_li = max(
            worst_li, float(np.max(np.abs(got_li.channel_freq - dense_li)))
        )
    detail = (
        f"dense-formula deviation over 20 instances: mmse {worst_mmse:.2e}, "
        f"li-mmse {worst_li:.2e} (need <= 1e-9)"
    )
    _check(13, worst_mmse <= 1e-9 and worst_li <= 1e-9, detail)
