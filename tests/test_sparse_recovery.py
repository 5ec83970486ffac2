"""Detection and the greedy pursuit family, checked against small oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsechan.channel import etu_profile, realize_channel, to_continuous_pdp
from sparsechan.signal_model import (
    Observation,
    ObservationSet,
    PilotPattern,
    SystemConfig,
    _stack,
    gram_kernel,
    partial_fourier_matrix,
    support_solve,
    synthesize_observation,
)
from sparsechan.sparse_recovery import (
    DetectionConfig,
    OmpConfig,
    SamplePdp,
    _a2_rows,
    _omp_rows,
    _regularized_gamma,
    _seeded_rows,
    algorithm_a1,
    algorithm_a2,
    algorithm_a3,
    chi2_inv_cdf,
    detect_support,
    detection_threshold,
    ex_omp,
    omp,
    sample_pdp,
)


def _sparse_channel(rng, d, support, scale=1.0):
    theta = np.zeros(d, dtype=np.complex128)
    theta[list(support)] = scale * (
        rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    )
    return theta


# ---------------------------------------------------------------- chi-square


def test_chi2_inv_cdf_dof2_closed_form():
    for alpha in (0.5, 0.01, 0.001):
        got = chi2_inv_cdf(1.0 - alpha, 2)
        assert got == pytest.approx(-2.0 * np.log(alpha), rel=1e-10)


def test_chi2_inv_cdf_matches_scipy():
    for dof in (1, 4, 10, 16, 33):
        for prob in (0.1, 0.5, 0.95, 0.999):
            got = chi2_inv_cdf(prob, dof)
            assert got == pytest.approx(scipy.stats.chi2.ppf(prob, dof), rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 128), st.floats(1e-6, 1.0 - 1e-6))
def test_chi2_inv_cdf_round_trips_through_gammainc(dof, prob):
    assert scipy.special.gammainc(dof / 2, chi2_inv_cdf(prob, dof) / 2) == pytest.approx(
        prob, rel=1e-12
    )


def test_chi2_inv_cdf_matches_gammaincinv_over_the_full_range():
    # Both tails out to 1e-12, which the round trip above does not reach.
    tails = (1e-12, 1e-9, 1e-6, 1e-3)
    probs = (*tails, 0.5, *(1.0 - t for t in tails))
    for dof in (*range(1, 513), 1000):
        for prob in probs:
            want = 2.0 * scipy.special.gammaincinv(dof / 2, prob)
            assert chi2_inv_cdf(prob, dof) == pytest.approx(want, rel=1e-12), (dof, prob)


def test_upper_tail_finite_sum_matches_gammaincc():
    # x >= a + 1 is the finite-sum branch.  Its error is that of the prefactor
    # exp(a ln x - x - lgamma a): a few ulps of terms near 3000 at dof 1000,
    # which reach 1.06e-12 relative at dof 989 on this grid.
    for dof in range(1, 1001):
        a = dof / 2
        xs = a + 1.0 + np.array([0.0, 1e-6, 0.5, 1, 2, 4, 8, 16, 32, 64]) * (math.sqrt(a) + 1.0)
        want = scipy.special.gammaincc(a, xs)
        for x, q in zip(xs[want >= 1e-300].tolist(), want[want >= 1e-300].tolist()):
            assert _regularized_gamma(a, x)[1] == pytest.approx(q, rel=2e-12), (dof, x)


def test_chi2_inv_cdf_monotone_and_validated():
    assert chi2_inv_cdf(0.9, 6) < chi2_inv_cdf(0.99, 6) < chi2_inv_cdf(0.999, 6)
    assert chi2_inv_cdf(1e-300, 1) == 0.0  # the true quantile underflows
    for bad in (0.0, 1.0, -0.2, 1.5, float("nan")):
        with pytest.raises(ValueError):
            chi2_inv_cdf(bad, 2)
    for bad in (0, -2, 2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            chi2_inv_cdf(0.5, bad)


# ------------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(ValueError):
        DetectionConfig(alpha=0.0, noise_var=0.0)
    with pytest.raises(ValueError):
        DetectionConfig(alpha=1.0, noise_var=0.0)
    with pytest.raises(ValueError):
        DetectionConfig(alpha=0.1, noise_var=-1.0)
    # no default noise: zero would lower the threshold on noisy data unnoticed
    with pytest.raises(TypeError, match="noise_var"):
        DetectionConfig(alpha=1e-3)
    with pytest.raises(ValueError):
        OmpConfig(max_iters=0)
    with pytest.raises(ValueError, match="max_iters must be an integer, got 2.5"):
        OmpConfig(max_iters=2.5)
    for values in (np.array([-1.0]), np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            SamplePdp(values=values, n_sets=1, n_pilots=4)
    with pytest.raises(ValueError, match="sample PDP values must be finite and nonnegative"):
        SamplePdp(values=np.array([1.0, np.inf]), n_sets=1, n_pilots=4)
    with pytest.raises(ValueError):
        SamplePdp(values=np.ones(4), n_sets=0, n_pilots=4)
    with pytest.raises(ValueError, match="n_sets must be an integer, got 1.5"):
        SamplePdp(values=np.ones(4), n_sets=1.5, n_pilots=4)
    # more pilots than bins would push the leakage factor (d - N)/(d - 1) below 0
    with pytest.raises(ValueError, match="n_pilots = 8 exceeds the 4 bins"):
        SamplePdp(np.ones(4), 1, 8)


# ----------------------------------------------------------------- sample PDP


def test_sample_pdp_single_tap_full_pattern():
    cfg = SystemConfig(d=16, n_pilots=16)
    pat = PilotPattern.uniform(cfg, spacing=1)
    theta = np.zeros(16, dtype=np.complex128)
    theta[5] = 1.0
    obs = synthesize_observation(cfg, pat, theta, 0.0)
    spdp = sample_pdp(ObservationSet((obs,)))
    assert spdp.values[5] == pytest.approx(1.0, abs=1e-12)
    others = np.delete(spdp.values, 5)
    assert np.all(others < 1e-12)
    assert spdp.n_sets == 1
    assert spdp.scale == pytest.approx(1.0 / 16)


def test_sample_pdp_noise_only_mean():
    cfg = SystemConfig(d=600, n_pilots=150)
    zeros = np.zeros(600, dtype=np.complex128)
    rng = np.random.default_rng(12)
    values = []
    for t in range(20):
        pat = PilotPattern.pseudo_random(cfg, seed=t)
        obs = synthesize_observation(cfg, pat, zeros, 1.0, rng)
        values.append(sample_pdp(ObservationSet((obs,))).values)
    mean = float(np.mean(values))  # 12000 bins aggregated
    assert mean == pytest.approx(1.0 / 150, rel=0.03)


# ------------------------------------------------------------------ detection


def test_detect_support_trivial_and_monotone():
    spdp = SamplePdp(values=np.zeros(32), n_sets=2, n_pilots=8)
    det = DetectionConfig(alpha=1e-3, noise_var=1.0)
    assert detect_support(spdp, det).size == 0
    busy = SamplePdp(values=np.ones(32) * 0.02, n_sets=2, n_pilots=8)
    t_loose = detection_threshold(busy, DetectionConfig(alpha=0.05, noise_var=0.1))
    t_tight = detection_threshold(busy, DetectionConfig(alpha=0.001, noise_var=0.1))
    assert t_tight > t_loose > 0
    # With one pilot the signal-free level of an all-zero PDP is zero, so the
    # threshold falls back to the noise floor noise_var / N = 0.5; without it
    # the threshold would be 0 and every nonzero bin would count as detected.
    single = SamplePdp(values=np.zeros(8), n_sets=1, n_pilots=1)
    threshold = detection_threshold(single, DetectionConfig(alpha=1e-3, noise_var=0.5))
    assert threshold == pytest.approx(-0.5 * math.log(1e-3), rel=1e-12)  # 3.4539


def test_detect_support_strong_taps_always_found():
    # ETU at 10 dB with eight averaged sets: the strongest cluster bins are
    # far above threshold in every trial.
    cfg = SystemConfig(d=600, n_pilots=200)
    pdp = to_continuous_pdp(etu_profile(), cfg, cluster_rms_s=1e-7, normalize=True)
    nv = 0.1
    det = DetectionConfig(alpha=1e-3, noise_var=nv)
    strong = (2, 5)  # peak bins of the 200/230 ns and 500 ns clusters
    rng = np.random.default_rng(14)
    for _ in range(100):
        obs = []
        for _ in range(8):
            theta = realize_channel(pdp, rng)
            pat = PilotPattern.pseudo_random(cfg, int(rng.integers(0, 2**63)))
            obs.append(synthesize_observation(cfg, pat, theta, nv, rng))
        sup = detect_support(sample_pdp(ObservationSet(tuple(obs))), det)
        assert set(strong) <= set(sup.tolist())


# ------------------------------------------------------------------------ omp


def test_omp_zero_input():
    cfg = SystemConfig(d=16, n_pilots=8)
    pat = PilotPattern.pseudo_random(cfg, seed=1)
    est = omp(Observation(np.zeros(8), pat, 1.0))
    assert est.support.size == 0
    assert np.all(est.theta == 0)
    assert est.residual_sq_history == (0.0,)


def test_omp_matches_exhaustive_two_sparse_oracle():
    rng = np.random.default_rng(15)
    cfg = SystemConfig(d=16, n_pilots=8)
    for trial in range(10):
        pat = PilotPattern.pseudo_random(cfg, seed=100 + trial)
        support = sorted(rng.choice(16, size=2, replace=False).tolist())
        theta = _sparse_channel(rng, 16, support)
        obs = synthesize_observation(cfg, pat, theta, 0.0, rng)
        est = omp(obs)
        # brute force: the best two-column least squares over all pairs
        h = partial_fourier_matrix(cfg, pat)
        best, best_r = None, np.inf
        for pair in itertools.combinations(range(16), 2):
            sol, res, rank, _ = np.linalg.lstsq(h[:, pair], obs.y, rcond=None)
            if rank < 2:
                continue
            r = float(res[0]) if res.size else float(
                np.linalg.norm(obs.y - h[:, pair] @ sol) ** 2
            )
            if r < best_r:
                best, best_r = pair, r
        assert est.support.tolist() == list(best) == support
        np.testing.assert_allclose(est.theta, theta, atol=1e-9)


def test_omp_residual_strictly_decreases():
    rng = np.random.default_rng(16)
    cfg = SystemConfig(d=64, n_pilots=24)
    pat = PilotPattern.pseudo_random(cfg, seed=7)
    theta = _sparse_channel(rng, 64, (3, 17, 40, 55))
    obs = synthesize_observation(cfg, pat, theta, 0.2, rng)
    est = omp(obs)
    hist = np.array(est.residual_sq_history)
    assert np.all(np.diff(hist) < 0)
    assert len(set(est.selection_order)) == len(est.selection_order)
    assert est.support.size <= 24


def test_omp_iteration_cap_and_stop_rule():
    rng = np.random.default_rng(17)
    cfg = SystemConfig(d=64, n_pilots=24)
    pat = PilotPattern.pseudo_random(cfg, seed=8)
    theta = _sparse_channel(rng, 64, range(0, 60, 4))  # 15 active bins
    obs = synthesize_observation(cfg, pat, theta, 0.05, rng)
    capped = omp(obs, OmpConfig(max_iters=3))
    assert capped.support.size == 3
    # uncapped, it stops at the first residual energy at most N * noise_var
    history = np.array(omp(obs, OmpConfig(max_iters=20)).residual_sq_history)
    below = np.flatnonzero(history <= 24 * 0.05)
    assert below.size and below[0] == history.size - 1 < 20


# ------------------------------------------------------------------------- a1


def test_a1_noiseless_strong_channel_exact():
    rng = np.random.default_rng(18)
    cfg = SystemConfig(d=32, n_pilots=16)
    support = (3, 10)
    thetas = [_sparse_channel(rng, 32, support) for _ in range(2)]
    obs = tuple(
        synthesize_observation(
            cfg, PilotPattern.pseudo_random(cfg, seed=30 + i), th, 0.0, rng
        )
        for i, th in enumerate(thetas)
    )
    ests = algorithm_a1(ObservationSet(obs), DetectionConfig(alpha=1e-3, noise_var=0.0))
    assert len(ests) == 2
    for est, th in zip(ests, thetas):
        assert set(support) <= set(est.support.tolist())
        np.testing.assert_allclose(est.theta[list(support)], th[list(support)], atol=1e-9)


def test_a1_empty_detection_warns_and_returns_zeros():
    cfg = SystemConfig(d=32, n_pilots=8)
    pat = PilotPattern.pseudo_random(cfg, seed=2)
    obs = Observation(np.zeros(8), pat, 1.0)
    with pytest.warns(UserWarning, match="no delay bin") as caught:
        ests = algorithm_a1(ObservationSet((obs, obs)), DetectionConfig(alpha=1e-6, noise_var=1.0))
    assert all(w.filename == __file__ for w in caught)  # reported at the caller
    assert all(e.support.size == 0 for e in ests)
    assert all(np.all(e.theta == 0) for e in ests)


def test_a1_noise_only_support_size_tracks_alpha():
    cfg = SystemConfig(d=600, n_pilots=200)
    zeros = np.zeros(600, dtype=np.complex128)
    det = DetectionConfig(alpha=0.01, noise_var=1.0)
    rng = np.random.default_rng(19)
    total = 0
    trials = 50
    for _ in range(trials):
        obs = []
        for _ in range(8):
            pat = PilotPattern.pseudo_random(cfg, int(rng.integers(0, 2**63)))
            obs.append(synthesize_observation(cfg, pat, zeros, 1.0, rng))
        sup = detect_support(sample_pdp(ObservationSet(tuple(obs))), det)
        total += sup.size
    expect = 0.01 * 600 * trials
    assert 0.5 * expect <= total <= 1.5 * expect


# ------------------------------------------------------------------------- a2


def test_a2_flat_prior_reduces_to_omp():
    rng = np.random.default_rng(20)
    cfg = SystemConfig(d=48, n_pilots=20)
    pat = PilotPattern.pseudo_random(cfg, seed=9)
    theta = _sparse_channel(rng, 48, (1, 9, 25, 33))
    obs = synthesize_observation(cfg, pat, theta, 0.3, rng)
    flat = SamplePdp(values=np.full(48, 0.05), n_sets=4, n_pilots=20)
    got = algorithm_a2(obs, flat, DetectionConfig(alpha=1e-3, noise_var=0.3))
    plain = omp(obs)
    assert got.selection_order == plain.selection_order
    np.testing.assert_allclose(got.theta, plain.theta, atol=1e-12)


def test_a2_strong_prior_bin_selected_first():
    # Spacing-2 pilots on d=16 make bins k and k+8 identical columns, so a
    # tap at bin 2 correlates exactly equally with bins 2 and 10.  Plain
    # pursuit takes the lower index; a prior pointing at 10 flips the choice.
    cfg = SystemConfig(d=16, n_pilots=8)
    pat = PilotPattern.uniform(cfg, spacing=2)
    theta = np.zeros(16, dtype=np.complex128)
    theta[2] = 1.0
    clean = synthesize_observation(cfg, pat, theta, 0.0)
    obs = Observation(clean.y, pat, noise_var=0.1)  # declared level, no draw
    assert omp(obs).selection_order[0] == 2
    values = np.full(16, 1e-3)
    values[10] = 1.0
    prior = SamplePdp(values=values, n_sets=4, n_pilots=8)
    est = algorithm_a2(obs, prior, DetectionConfig(alpha=1e-3, noise_var=0.0))
    assert est.selection_order[0] == 10


def test_a2_validation():
    cfg = SystemConfig(d=16, n_pilots=8)
    pat = PilotPattern.pseudo_random(cfg, seed=3)
    obs = Observation(np.zeros(8), pat, 1.0)
    wrong = SamplePdp(values=np.ones(8), n_sets=1, n_pilots=8)
    with pytest.raises(ValueError):
        algorithm_a2(obs, wrong, DetectionConfig(alpha=1e-3, noise_var=0.0))


# ------------------------------------------------------------------------- a3


def test_a3_full_seed_terminates_exactly():
    rng = np.random.default_rng(21)
    cfg = SystemConfig(d=32, n_pilots=16)
    support = (4, 12, 20)
    thetas = [_sparse_channel(rng, 32, support) for _ in range(3)]
    obs = tuple(
        synthesize_observation(
            cfg, PilotPattern.pseudo_random(cfg, seed=50 + i), th, 0.0, rng
        )
        for i, th in enumerate(thetas)
    )
    ests = algorithm_a3(ObservationSet(obs), DetectionConfig(alpha=1e-3, noise_var=0.0))
    for est, th in zip(ests, thetas):
        assert set(support) <= set(est.support.tolist())
        np.testing.assert_allclose(est.theta[list(support)], th[list(support)], atol=1e-9)


def test_a3_empty_seed_degenerates_to_omp():
    rng = np.random.default_rng(22)
    cfg = SystemConfig(d=64, n_pilots=24)
    pats = [PilotPattern.pseudo_random(cfg, seed=60 + i) for i in range(2)]
    noise = [
        synthesize_observation(cfg, p, np.zeros(64, dtype=np.complex128), 1.0, rng)
        for p in pats
    ]
    det = DetectionConfig(alpha=1e-9, noise_var=1.0)  # threshold out of reach
    ests = algorithm_a3(ObservationSet(tuple(noise)), det)
    for est, o in zip(ests, noise):
        plain = omp(o)
        assert est.selection_order == plain.selection_order
        np.testing.assert_allclose(est.theta, plain.theta, atol=1e-12)


# --------------------------------------------------------------------- ex-omp


def test_ex_omp_single_set_reduces_to_omp():
    rng = np.random.default_rng(23)
    cfg = SystemConfig(d=48, n_pilots=20)
    pat = PilotPattern.pseudo_random(cfg, seed=11)
    theta = _sparse_channel(rng, 48, (2, 11, 30))
    obs = synthesize_observation(cfg, pat, theta, 0.2, rng)
    det = DetectionConfig(alpha=1e-12, noise_var=0.2)  # threshold never passes
    ests = ex_omp(ObservationSet((obs,)), det)
    plain = omp(obs)
    assert len(ests) == 1
    assert ests[0].selection_order == plain.selection_order
    np.testing.assert_allclose(ests[0].theta, plain.theta, atol=1e-12)


def test_ex_omp_shared_support_exact_recovery():
    # Four sets, one shared 3-sparse support, distinct coefficients per set.
    rng = np.random.default_rng(24)
    cfg = SystemConfig(d=32, n_pilots=16)
    support = sorted(rng.choice(32, size=3, replace=False).tolist())
    thetas = [_sparse_channel(rng, 32, support) for _ in range(4)]
    obs = tuple(
        synthesize_observation(
            cfg, PilotPattern.pseudo_random(cfg, seed=70 + i), th, 0.0, rng
        )
        for i, th in enumerate(thetas)
    )
    ests = ex_omp(ObservationSet(obs), DetectionConfig(alpha=1e-3, noise_var=0.0))
    supports = [e.support.tolist() for e in ests]
    assert all(s == support for s in supports)
    for est, th in zip(ests, thetas):
        np.testing.assert_allclose(est.theta, th, atol=1e-9)
    # exhaustive oracle: for every set the true support is the best 3-subset
    combos = np.array(list(itertools.combinations(range(32), 3)))
    for o in obs:
        h = partial_fourier_matrix(cfg, o.pattern)
        sub = h[:, combos]  # (n_pilots, C, 3)
        sub = np.moveaxis(sub, 1, 0)  # (C, n_pilots, 3)
        grams = np.einsum("cni,cnj->cij", sub.conj(), sub)
        rhs = np.einsum("cni,n->ci", sub.conj(), o.y)
        sols = np.linalg.solve(grams, rhs[..., None])[..., 0]
        residuals = np.linalg.norm(
            o.y[None, :] - np.einsum("cni,ci->cn", sub, sols), axis=1
        )
        assert combos[int(np.argmin(residuals))].tolist() == support


def test_ex_omp_noiseless_drops_rounding_level_bins():
    # Draw 250 of criterion 08's noiseless fixture (master seed 20260819):
    # multi-admission takes leakage bins 47 and 8 in the same rounds as the
    # taps 13, 15, 16 and 40.  Their least-squares coefficients come out at
    # rounding level in every set, so they must not stay in the support.
    cfg = SystemConfig(d=64, n_pilots=32)
    rng = np.random.default_rng(20260819)
    for _ in range(251):
        support = np.sort(rng.choice(64, size=4, replace=False))
        obs, thetas = [], []
        for _ in range(4):
            th = np.zeros(64, dtype=np.complex128)
            th[support] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            pat = PilotPattern.pseudo_random(cfg, int(rng.integers(0, 2**63)))
            obs.append(synthesize_observation(cfg, pat, th, 0.0))
            thetas.append(th)
    assert support.tolist() == [13, 15, 16, 40]
    ests = ex_omp(ObservationSet(tuple(obs)), DetectionConfig(alpha=1e-6, noise_var=0.0))
    for est, th in zip(ests, thetas):
        assert est.support.tolist() == support.tolist()
        assert est.selection_order == (15, 40, 16, 13)
        np.testing.assert_allclose(est.theta, th, atol=1e-9)


def test_ex_omp_multi_admission_happens():
    # Three well separated strong bins: the first round admits several at once,
    # so there are more selections than pursuit rounds.
    rng = np.random.default_rng(25)
    cfg = SystemConfig(d=64, n_pilots=32)
    support = (3, 20, 45)
    obs = tuple(
        synthesize_observation(
            cfg,
            PilotPattern.pseudo_random(cfg, seed=80 + i),
            _sparse_channel(rng, 64, support, scale=3.0),
            0.01,
            rng,
        )
        for i in range(4)
    )
    ests = ex_omp(ObservationSet(obs), DetectionConfig(alpha=1e-3, noise_var=0.01))
    rounds = len(ests[0].residual_sq_history) - 1
    assert len(ests[0].selection_order) > rounds


def test_ex_omp_residuals_decrease_and_support_is_shared():
    rng = np.random.default_rng(27)
    cfg = SystemConfig(d=64, n_pilots=24)
    support = (1, 9, 22, 40)
    obs = tuple(
        synthesize_observation(
            cfg,
            PilotPattern.pseudo_random(cfg, seed=90 + i),
            _sparse_channel(rng, 64, support),
            0.1,
            rng,
        )
        for i in range(3)
    )
    ests = ex_omp(ObservationSet(obs), DetectionConfig(alpha=1e-3, noise_var=0.1))
    ref = ests[0].support.tolist()
    for est in ests:
        assert est.support.tolist() == ref
        hist = np.array(est.residual_sq_history)
        assert np.all(np.diff(hist) <= 0)
        assert len(set(est.selection_order)) == len(est.selection_order)


def test_ex_omp_noisy_pure_noise_stops_when_nothing_is_admitted():
    # Four noisy sets of pure noise: round 0 takes its fallback bin, the next
    # round admits nothing above threshold, and that ends the pursuit even
    # though the residuals have not met the gamma * N * sigma^2 target.
    cfg = SystemConfig(d=64, n_pilots=24)
    rng = np.random.default_rng(29)
    obs = tuple(
        synthesize_observation(
            cfg,
            PilotPattern.pseudo_random(cfg, seed=100 + i),
            np.zeros(64, dtype=np.complex128),
            0.5,
            rng,
        )
        for i in range(4)
    )
    ests = ex_omp(ObservationSet(obs), DetectionConfig(alpha=1e-3, noise_var=0.5))
    for est in ests:
        assert est.support.size <= 1
        assert len(est.residual_sq_history) <= 2
        assert est.support.tolist() == ests[0].support.tolist()
    assert any(est.residual_sq_history[-1] > 24 * 0.5 for est in ests)


def test_ex_omp_noisy_coefficients_match_dense_wiener_formula():
    # Noisy multi-set pursuit: the final coefficients are the Wiener solution
    # on the shared support with bin variances estimated across the sets,
    # lambda_k = mean_s(|c_sk|^2 - sigma^2 [G_s^-1]_kk) from least squares,
    # and zero where lambda_k <= 0.  Checked with explicit Fourier matrices.
    cfg = SystemConfig(d=64, n_pilots=24)
    rng = np.random.default_rng(44)
    taps = (2, 13, 30, 41)
    amps = np.array([2.0, 1.0, 0.5, 0.15])
    nv = 0.1
    obs = []
    for i in range(5):
        theta = np.zeros(64, dtype=np.complex128)
        theta[list(taps)] = amps * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        theta /= np.sqrt(2.0)
        pattern = PilotPattern.pseudo_random(cfg, seed=110 + i)
        obs.append(synthesize_observation(cfg, pattern, theta, nv, rng))
    ests = ex_omp(ObservationSet(tuple(obs)), DetectionConfig(alpha=1e-2, noise_var=nv))
    support = ests[0].support
    hs = [partial_fourier_matrix(cfg, o.pattern, support) for o in obs]
    ls = [np.linalg.lstsq(h, o.y, rcond=None)[0] for h, o in zip(hs, obs)]
    inv_diags = [np.diag(np.linalg.inv(h.conj().T @ h)).real for h in hs]
    lam = np.mean([np.abs(c) ** 2 - nv * g for c, g in zip(ls, inv_diags)], axis=0)
    keep = lam > 0
    assert 0 < keep.sum() < support.size  # both the shrunk and the zeroed case
    for est, h, o in zip(ests, hs, obs):
        hk = h[:, keep]
        wiener = np.linalg.solve(
            hk.conj().T @ hk / nv + np.diag(1.0 / lam[keep]), hk.conj().T @ o.y / nv
        )
        expected = np.zeros(support.size, dtype=np.complex128)
        expected[keep] = wiener
        assert est.support.tolist() == support.tolist()
        np.testing.assert_allclose(est.theta[support], expected, atol=1e-10)


def test_oversized_detection_is_capped_with_warning():
    # At a huge false-alarm rate nearly every bin crosses; the a1 support must
    # be trimmed to the number of observations.
    cfg = SystemConfig(d=64, n_pilots=8)
    rng = np.random.default_rng(28)
    obs = tuple(
        synthesize_observation(
            cfg,
            PilotPattern.pseudo_random(cfg, seed=95 + i),
            np.zeros(64, dtype=np.complex128),
            1.0,
            rng,
        )
        for i in range(4)
    )
    det = DetectionConfig(alpha=0.9, noise_var=1.0)
    pdp = sample_pdp(ObservationSet(obs))
    detected = detect_support(pdp, det).size
    assert detected > 8
    for o in obs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = (*_stack((o,), 1), pdp.values[None], pdp.n_sets, pdp.n_pilots, det)
            est = _seeded_rows(*rows)[0]
        assert [str(w.message) for w in caught if "strongest" in str(w.message)] == [
            f"detected support of {detected} bins exceeds 8 observations; "
            "keeping the strongest bins"
        ]
        assert all(w.filename == __file__ for w in caught)  # reported at the caller
        assert est.support.size <= 8


# ------------------------------------------------------- one shared detector


def _etu_sets(seed, n_sets=9, nv=0.1):
    cfg = SystemConfig(d=600, n_pilots=200)
    pdp = to_continuous_pdp(etu_profile(), cfg, cluster_rms_s=1e-7, normalize=True)
    rng = np.random.default_rng(seed)
    obs = []
    for _ in range(n_sets):
        theta = realize_channel(pdp, rng)
        pat = PilotPattern.pseudo_random(cfg, int(rng.integers(0, 2**63)))
        obs.append(synthesize_observation(cfg, pat, theta, nv, rng))
    return ObservationSet(tuple(obs))


def test_ex_omp_first_round_admits_the_detected_support():
    # Round 0 sees the observations themselves, so it admits exactly what
    # detect_support finds in their sample PDP, strongest first.
    nv = 0.1
    sets = _etu_sets(32, nv=nv)
    det = DetectionConfig(alpha=1e-3, noise_var=nv)
    spdp = sample_pdp(sets)
    detected = detect_support(spdp, det)
    assert detected.size > 1
    strongest_first = detected[np.argsort(spdp.values[detected])[::-1]]
    for est in ex_omp(sets, det):
        assert est.selection_order[: detected.size] == tuple(strongest_first.tolist())


def test_ex_omp_first_round_follows_the_detection_noise_var():
    # ex_omp splits its null level with det.noise_var, as detect_support does,
    # so for every noise_var the first round (the whole pursuit at
    # max_iters=1) admits exactly the detected bins, strongest first.
    nv = 0.1
    sets = _etu_sets(32, nv=nv)
    spdp = sample_pdp(sets)
    sizes = []
    for noise_var in (0.0, nv, 10 * nv):
        det = DetectionConfig(alpha=1e-3, noise_var=noise_var)
        detected = detect_support(spdp, det)
        strongest_first = detected[np.argsort(spdp.values[detected])[::-1]]
        for est in ex_omp(sets, det, OmpConfig(max_iters=1)):
            assert est.selection_order == tuple(strongest_first.tolist())
        sizes.append(detected.size)
    assert sizes[0] > sizes[1] > sizes[2] > 0


def _shared_support_sets(d, n, n_sets, noise_var, seed, n_taps):
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(d=d, n_pilots=n)
    support = rng.choice(d, size=n_taps, replace=False)
    thetas = [_sparse_channel(rng, d, support) for _ in range(n_sets)]
    obs = tuple(
        synthesize_observation(
            cfg, PilotPattern.pseudo_random(cfg, int(rng.integers(2**32))), th, noise_var, rng
        )
        for th in thetas
    )
    return ObservationSet(obs), np.array(thetas)


@st.composite
def _first_round_draws(draw):
    d = draw(st.integers(2, 40))
    return (
        d,
        draw(st.integers(1, d)),
        draw(st.integers(1, 4)),
        draw(st.sampled_from([0.0, 0.01, 0.3])),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, d)),
    )


@settings(max_examples=80, deadline=None)
@given(_first_round_draws())
@example((32, 32, 3, 0.0, 7, 12))  # N = d and no noise: a zero null level
def test_ex_omp_first_round_is_detect_support(draw):
    # Round 0 admits what detect_support finds in the observations'
    # sample PDP, strongest first and cut to N, or the strongest bin when it
    # finds nothing; the noiseless refit may then drop only tapless bins.
    d, n, n_sets, noise_var, seed, n_taps = draw
    sets, thetas = _shared_support_sets(d, n, n_sets, noise_var, seed, n_taps)
    assume(max(np.vdot(o.y, o.y).real for o in sets.observations) > n * noise_var)
    det = DetectionConfig(alpha=1e-3, noise_var=noise_var)
    spdp = sample_pdp(sets)
    detected = detect_support(spdp, det)
    expected = detected[np.argsort(spdp.values[detected])[::-1]][:n]
    if not detected.size:
        expected = np.array([np.argmax(spdp.values)])
    for o in sets.observations:  # the engine skips a dependent bin
        try:
            support_solve(gram_kernel(d, o.pattern.indices), np.zeros(d), expected, 0.0)
        except np.linalg.LinAlgError:
            assume(False)
    ests = ex_omp(sets, det, OmpConfig(max_iters=1))
    kept = set(ests[0].support.tolist())
    dropped = [k for k in expected.tolist() if k not in kept]
    assert ests[0].selection_order == tuple(k for k in expected.tolist() if k in kept)
    assert not dropped or noise_var == 0.0
    assert np.all(thetas[:, dropped] == 0)


@pytest.mark.parametrize("n_sets", [1, 3])
def test_ex_omp_noiseless_full_pattern_recovers_the_exact_support(n_sets):
    # N = d with no noise leaves a zero null level: round 0 admits every bin
    # above zero, rounding-level ones included, and the refit drops those.
    # The 12 taps outnumber the ceil(32 / 4) = 8 rounds of one bin each.
    sets, thetas = _shared_support_sets(32, 32, n_sets, 0.0, 7, 12)
    ests = ex_omp(sets, DetectionConfig(alpha=1e-3, noise_var=0.0))
    support = np.flatnonzero(thetas[0])
    assert support.size == 12
    for est, th in zip(ests, thetas):
        assert est.support.tolist() == support.tolist()
        np.testing.assert_allclose(est.theta, th, atol=1e-12)


@pytest.mark.parametrize("estimator", [algorithm_a1, algorithm_a3])
def test_each_estimate_keeps_its_own_residual_history(estimator):
    # The engine keeps the history for all sets; each estimate must get its
    # own set's: from its observation's energy to its own final residual.
    nv = 0.1
    sets = _etu_sets(7, n_sets=3, nv=nv)
    ests = estimator(sets, DetectionConfig(alpha=1e-3, noise_var=nv))
    for est, obs in zip(ests, sets.observations):
        residual = obs.y - np.fft.fft(est.theta)[obs.pattern.indices]
        energy = np.vdot(obs.y, obs.y).real
        assert est.residual_sq_history[0] == pytest.approx(energy, rel=1e-12)
        assert est.residual_sq_history[-1] == pytest.approx(
            np.vdot(residual, residual).real, rel=1e-9
        )


# ------------------------------------------------------ dependent (aliased) bins


def _aliased_sets():
    # Spacing-2 pilots on d=16 make bins k and k+8 identical columns.  Taps at
    # bins 2 and 5 are therefore detected at 2, 5, 10 and 13, of which only
    # one bin per pair can enter a support.
    cfg = SystemConfig(d=16, n_pilots=8)
    pat = PilotPattern.uniform(cfg, spacing=2)
    rng = np.random.default_rng(0)
    obs = []
    for _ in range(3):
        theta = np.zeros(16, dtype=np.complex128)
        theta[[2, 5]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        obs.append(synthesize_observation(cfg, pat, theta, 1e-4, rng))
    return ObservationSet(tuple(obs)), DetectionConfig(alpha=1e-3, noise_var=1e-4)


def _one_bin_per_aliased_pair(support):
    bins = set(support.tolist())
    return len(bins & {2, 10}) == 1 and len(bins & {5, 13}) == 1 and not any(
        k + 8 in bins for k in bins
    )


def _skip_messages(caught):
    return [str(w.message) for w in caught if "skipped" in str(w.message)]


@pytest.mark.parametrize("cfg", [None, OmpConfig()], ids=["algorithm_a1", "algorithm_a3"])
def test_detected_dependent_bins_are_skipped_with_a_warning(cfg):
    # a1 (no cfg) and a3 estimate each observation on a row of its own, and
    # each observation warns once for each seed bin it skips.
    sets, det = _aliased_sets()
    pdp = sample_pdp(sets)
    for obs in sets.observations:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = (*_stack((obs,), 1), pdp.values[None], pdp.n_sets, pdp.n_pilots, det)
            est = _seeded_rows(*rows, cfg)[0]
        assert _skip_messages(caught) == [
            "seed bin 10 is linearly dependent on the support; skipped",
            "seed bin 13 is linearly dependent on the support; skipped",
        ]
        assert all(w.filename == __file__ for w in caught)  # reported at the caller
        assert _one_bin_per_aliased_pair(est.support)
        if cfg is None:
            assert est.support.tolist() == [2, 5]


def test_ex_omp_blocks_dependent_admissions():
    # Round 0 admits all four detected bins; the two that alias a bin admitted
    # before them are blocked, silently, and the pursuit goes on with the rest.
    sets, det = _aliased_sets()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ests = ex_omp(sets, det)
    assert _skip_messages(caught) == []
    for est in ests:
        assert _one_bin_per_aliased_pair(est.support)
        assert est.residual_sq_history[-1] < 8 * 1e-4 * 10  # fitted to noise level


# ------------------------------------------------------------ block pursuits


@st.composite
def blocks(draw):
    """Observations on one grid, each with two prior observations, and one detector for all.

    The grid is d = n * spacing, so a uniform pattern at that spacing sees
    bins k, k + n, k + 2n, ... as one column.  Each row is one of: a sparse
    channel in noise, the same without noise, pure noise below the pursuit's
    residual target (so it stops in round 0), or taps at b and b + n seen
    through the aliasing pattern (so every seed after b is dependent).
    """
    n = draw(st.integers(4, 10))
    spacing = draw(st.integers(2, 5))
    config = SystemConfig(d=n * spacing, n_pilots=n)
    kinds = draw(
        st.lists(
            st.sampled_from(["signal", "noiseless", "noise", "aliased"]), min_size=2, max_size=6
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        nv = 0.0 if kind == "noiseless" else 0.05
        if kind == "aliased":
            b = int(rng.integers(n))
            support, patterns = [b, b + n], [PilotPattern.uniform(config, spacing)] * 3
        else:
            support = rng.choice(config.d, size=int(rng.integers(1, n // 2 + 1)), replace=False)
            patterns = [
                PilotPattern.pseudo_random(config, int(rng.integers(2**32))) for _ in range(3)
            ]
        obs = []
        for pattern in patterns:
            theta = _sparse_channel(rng, config.d, support, scale=0.0 if kind == "noise" else 1.0)
            o = synthesize_observation(config, pattern, theta, nv, rng)
            if kind == "noise":  # energy at half the target n * nv
                o = Observation(o.y * np.sqrt(0.5 * n * nv / np.vdot(o.y, o.y).real), pattern, nv)
            obs.append(o)
        rows.append((kind, obs[0], tuple(obs[1:])))
    det = DetectionConfig(alpha=1e-2, noise_var=draw(st.sampled_from([0.0, 0.05])))
    return n, rows, det


def _assert_same(got, want):
    np.testing.assert_array_equal(got.theta, want.theta)
    np.testing.assert_array_equal(got.support, want.support)
    assert got.selection_order == want.selection_order
    assert got.residual_sq_history == want.residual_sq_history


@settings(max_examples=60, deadline=None)
@given(blocks())
def test_each_row_of_a_block_pursuit_equals_its_one_row_pursuit(block):
    # Rows of one block pursuit never interact: each is bitwise the one-row
    # result, whatever stops, skips or finishes early beside it.
    n, rows, det = block
    kinds, observations, priors = zip(*rows)
    cfg = OmpConfig(max_iters=n)
    full = [ObservationSet((o,) + p) for o, p in zip(observations, priors)]
    full_pdps = [sample_pdp(f) for f in full]
    prior_pdps = [sample_pdp(ObservationSet(p)) for p in priors]
    stacked = _stack(observations, len(observations))  # one set per row
    full_values = np.array([pdp.values for pdp in full_pdps])
    prior_values = np.array([pdp.values for pdp in prior_pdps])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = {
            "omp": _omp_rows(*stacked, cfg),
            "a1": _seeded_rows(*stacked, full_values, 3, n, det),
            "a2": _a2_rows(*stacked, prior_values, 2, n, det, cfg),
            "a3": _seeded_rows(*stacked, full_values, 3, n, det, cfg),
        }
        for i, (kind, obs) in enumerate(zip(kinds, observations)):
            a1, a3 = algorithm_a1(full[i], det), algorithm_a3(full[i], det, cfg)
            want = {
                "omp": omp(obs, cfg),
                "a1": a1[0],
                "a2": algorithm_a2(obs, prior_pdps[i], det, cfg),
                "a3": a3[0],
            }
            for name, est in want.items():
                _assert_same(got[name][i], est)
            # The set forms are a block of one row per observation of the set.
            for o, set_a1, set_a3 in zip(full[i].observations, a1, a3):
                one = (*_stack((o,), 1), full_values[i : i + 1], 3, n, det)
                _assert_same(set_a1, _seeded_rows(*one)[0])
                _assert_same(set_a3, _seeded_rows(*one, cfg)[0])
            if kind == "noise":
                assert len(got["omp"][i].residual_sq_history) == 1
                assert len(got["a2"][i].residual_sq_history) == 1
            if kind == "aliased":  # one bin per column, the others skipped
                residues = got["a1"][i].support % n
                assert residues.size == np.unique(residues).size
