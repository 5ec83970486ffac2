"""Classical estimators against dense-formula and exactness oracles."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsechan.baseline import (
    PilotCovariance,
    SupportSet,
    estimate_dft,
    estimate_li_mmse,
    estimate_linear_interp,
    estimate_mmse_oracle,
    estimate_reduced_rank_ls,
    pilot_sample_covariance,
)
from sparsechan.channel import PowerDelayProfile
from sparsechan.signal_model import (
    Observation,
    PilotPattern,
    SystemConfig,
    gram_kernel,
    partial_fourier_matrix,
    support_gram,
    support_solve,
    synthesize_observation,
)
from sparsechan.sparse_recovery import DetectionConfig


def _random_channel(rng, variances):
    return np.sqrt(variances / 2) * (
        rng.standard_normal(variances.size) + 1j * rng.standard_normal(variances.size)
    )


def test_support_set_validation():
    s = SupportSet(np.array([5, 1, 3]))
    assert np.array_equal(s.indices, [1, 3, 5])
    assert s.size == 3
    with pytest.raises(ValueError):
        SupportSet(np.array([1, 1]))
    with pytest.raises(ValueError):
        SupportSet(np.array([-1]))
    assert SupportSet(np.array([], dtype=np.int64)).size == 0
    # a fraction must not be truncated, nor a matrix flattened
    with pytest.raises(ValueError, match="support indices must be whole numbers"):
        SupportSet([2.5])
    with pytest.raises(ValueError, match="support indices must be a 1-d vector"):
        SupportSet(np.array([[1, 2], [3, 4]]))
    assert SupportSet([4.0, 2.0]).indices.tolist() == [2, 4]
    # nor a boolean mask read as the indices 0 and 1
    with pytest.raises(ValueError, match="must be a 1-d vector of numbers, got bool"):
        SupportSet(np.array([False, True]))
    # a whole float past int64 must not wrap to a negative index in the cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (1e20, 2.0**63):
            with pytest.raises(ValueError, match="support indices must lie in"):
                SupportSet([big])


def test_dft_exact_within_unambiguous_range():
    # Uniform pilots resolve the first n_pilots delay bins exactly.
    rng = np.random.default_rng(0)
    cfg = SystemConfig(d=32, n_pilots=8)
    pat = PilotPattern.uniform(cfg, spacing=4)
    theta = np.zeros(32, dtype=np.complex128)
    theta[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    obs = synthesize_observation(cfg, pat, theta, 0.0)
    est = estimate_dft(obs, cfg)
    np.testing.assert_allclose(est.theta_hat, theta, atol=1e-10)
    np.testing.assert_allclose(est.channel_freq, np.fft.fft(theta), atol=1e-9)


def test_dft_aliases_distant_taps():
    cfg = SystemConfig(d=32, n_pilots=8)
    pat = PilotPattern.uniform(cfg, spacing=4)
    theta = np.zeros(32, dtype=np.complex128)
    theta[8 + 2] = 1.0  # one bin beyond the unambiguous range
    obs = synthesize_observation(cfg, pat, theta, 0.0)
    est = estimate_dft(obs, cfg)
    assert abs(est.theta_hat[2]) == pytest.approx(1.0, abs=1e-10)
    assert abs(est.theta_hat[10]) == 0.0


def test_linear_interp_reproduces_affine_input():
    cfg = SystemConfig(d=20, n_pilots=5)
    pat = PilotPattern.uniform(cfg, spacing=4)
    a, b = 0.7 - 0.2j, 0.05 + 0.03j
    y = a + b * pat.indices
    obs = Observation(y=y, pattern=pat, noise_var=0.0)
    est = estimate_linear_interp(obs, cfg)
    grid = np.arange(20)
    expect = a + b * grid
    # affine between pilots; constant at the last pilot's value beyond it
    expect[grid > pat.indices[-1]] = a + b * pat.indices[-1]
    np.testing.assert_allclose(est.channel_freq, expect, atol=1e-12)
    assert est.theta_hat is None


def test_linear_interp_requires_uniform_pattern():
    cfg = SystemConfig(d=20, n_pilots=5)
    pat = PilotPattern.pseudo_random(cfg, seed=2)
    obs = Observation(y=np.zeros(5), pattern=pat, noise_var=0.0)
    with pytest.raises(ValueError):
        estimate_linear_interp(obs, cfg)


def test_pilot_sample_covariance_moments():
    rng = np.random.default_rng(3)
    cfg = SystemConfig(d=16, n_pilots=4)
    pat = PilotPattern.uniform(cfg, spacing=4)
    var = np.zeros(16)
    var[0], var[3] = 0.6, 0.4
    h = partial_fourier_matrix(cfg, pat, np.array([0, 3]))
    true_cov = h @ np.diag([0.6, 0.4]) @ h.conj().T
    nv = 0.5
    obs = [
        synthesize_observation(cfg, pat, _random_channel(rng, var), nv, rng)
        for _ in range(6000)
    ]
    factor = pilot_sample_covariance(obs, nv)
    cov = (factor.vectors * factor.values) @ factor.vectors.conj().T
    assert np.allclose(cov, cov.conj().T)
    assert np.all(np.linalg.eigvalsh(cov) > -1e-10)
    np.testing.assert_allclose(cov, true_cov, atol=0.12)


def test_pilot_sample_covariance_validation():
    cfg = SystemConfig(d=16, n_pilots=4)
    a = Observation(np.zeros(4), PilotPattern.uniform(cfg, 4), 1.0)
    b = Observation(np.zeros(4), PilotPattern.pseudo_random(cfg, 1), 1.0)
    with pytest.raises(ValueError):
        pilot_sample_covariance([], 1.0)
    with pytest.raises(ValueError):
        pilot_sample_covariance([a, b], 1.0)
    with pytest.raises(ValueError):
        pilot_sample_covariance([a], -1.0)


def test_li_mmse_noiseless_reduces_to_interpolation():
    rng = np.random.default_rng(4)
    cfg = SystemConfig(d=24, n_pilots=6)
    pat = PilotPattern.uniform(cfg, spacing=4)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    obs = Observation(y=y, pattern=pat, noise_var=0.0)
    cov = PilotCovariance(*np.linalg.eigh(np.eye(6, dtype=np.complex128))[::-1])
    smoothed = estimate_li_mmse(obs, cov, 0.0, cfg)
    plain = estimate_linear_interp(obs, cfg)
    np.testing.assert_allclose(smoothed.channel_freq, plain.channel_freq)


def test_li_mmse_matches_dense_formula():
    rng = np.random.default_rng(5)
    for trial in range(20):
        d = int(rng.integers(8, 17))
        spacing = 2
        n = d // spacing
        cfg = SystemConfig(d=d, n_pilots=n)
        pat = PilotPattern.uniform(cfg, spacing=spacing)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cov = raw @ raw.conj().T / n
        nv = float(rng.uniform(0.1, 2.0))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        obs = Observation(y=y, pattern=pat, noise_var=nv)
        est = estimate_li_mmse(obs, PilotCovariance(*np.linalg.eigh(cov)[::-1]), nv, cfg)
        # independent evaluation: explicit inverse, then direct interpolation
        filtered = cov @ np.linalg.inv(cov + nv * np.eye(n)) @ y
        grid = np.arange(d, dtype=float)
        expect = np.interp(grid, pat.indices, filtered.real) + 1j * np.interp(
            grid, pat.indices, filtered.imag
        )
        np.testing.assert_allclose(est.channel_freq, expect, atol=1e-9)


def test_li_mmse_validation():
    cfg = SystemConfig(d=8, n_pilots=2)
    pat = PilotPattern.uniform(cfg, 2)
    obs = Observation(np.zeros(2), pat, 1.0)
    with pytest.raises(ValueError):
        estimate_li_mmse(obs, PilotCovariance(np.eye(2), np.ones(2)), -1.0, cfg)
    # a factor must have one row per pilot and one value per column
    with pytest.raises(ValueError, match="act on 2 pilots"):
        estimate_li_mmse(obs, PilotCovariance(np.eye(3), np.ones(3)), 1.0, cfg)
    with pytest.raises(ValueError, match="n x k vectors and k values"):
        PilotCovariance(np.eye(2), np.ones(3))
    with pytest.raises(ValueError, match="n x k vectors and k values"):
        PilotCovariance(np.ones(2), np.ones(1))
    with pytest.raises(ValueError, match="orthonormal"):
        PilotCovariance(np.ones((2, 1)), np.ones(1))


def test_mmse_oracle_matches_wiener_form():
    # Independent oracle in the covariance (gain) form:
    # theta_hat = C H^H (H C H^H + nv I)^{-1} y
    rng = np.random.default_rng(6)
    for trial in range(20):
        d = int(rng.integers(8, 17))
        n = int(rng.integers(4, d))
        cfg = SystemConfig(d=d, n_pilots=n)
        pat = PilotPattern.pseudo_random(cfg, seed=trial)
        var = rng.random(d)
        var[rng.random(d) < 0.4] = 0.0
        if not var.any():
            var[0] = 1.0
        pdp = PowerDelayProfile(variances=var, bin_width_s=1e-7)
        nv = float(rng.uniform(0.05, 1.5))
        theta = _random_channel(rng, var)
        obs = synthesize_observation(cfg, pat, theta, nv, rng)
        est = estimate_mmse_oracle(obs, pdp, nv, cfg)
        h = partial_fourier_matrix(cfg, pat)
        c = np.diag(var).astype(np.complex128)
        gain = c @ h.conj().T @ np.linalg.inv(h @ c @ h.conj().T + nv * np.eye(n))
        expect = gain @ obs.y
        np.testing.assert_allclose(est.theta_hat, expect, atol=1e-9)
        assert np.all(est.theta_hat[var == 0] == 0)


def test_mmse_oracle_noiseless_is_least_squares():
    rng = np.random.default_rng(7)
    cfg = SystemConfig(d=16, n_pilots=8)
    pat = PilotPattern.pseudo_random(cfg, seed=3)
    var = np.zeros(16)
    var[[1, 5, 9]] = 1.0
    pdp = PowerDelayProfile(variances=var, bin_width_s=1e-7)
    theta = _random_channel(rng, var)
    obs = synthesize_observation(cfg, pat, theta, 0.0, rng)
    est = estimate_mmse_oracle(obs, pdp, 0.0, cfg)
    np.testing.assert_allclose(est.theta_hat, theta, atol=1e-9)


def test_mmse_oracle_noiseless_underdetermined_raises():
    cfg = SystemConfig(d=16, n_pilots=4)
    pat = PilotPattern.pseudo_random(cfg, seed=1)
    pdp = PowerDelayProfile(variances=np.ones(16), bin_width_s=1e-7)
    obs = Observation(np.zeros(4), pat, 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        estimate_mmse_oracle(obs, pdp, 0.0, cfg)


def test_reduced_rank_ls_exact_on_support():
    rng = np.random.default_rng(8)
    cfg = SystemConfig(d=24, n_pilots=10)
    pat = PilotPattern.pseudo_random(cfg, seed=4)
    support = SupportSet(np.array([2, 7, 19]))
    theta = np.zeros(24, dtype=np.complex128)
    theta[support.indices] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    obs = synthesize_observation(cfg, pat, theta, 0.0, rng)
    est = estimate_reduced_rank_ls(obs, support, cfg)
    np.testing.assert_allclose(est.theta_hat, theta, atol=1e-9)


def test_reduced_rank_ls_edge_cases():
    cfg = SystemConfig(d=8, n_pilots=4)
    pat = PilotPattern.uniform(cfg, spacing=2)
    obs = Observation(np.ones(4, dtype=np.complex128), pat, 1.0)
    empty = estimate_reduced_rank_ls(obs, SupportSet(np.array([], dtype=np.int64)), cfg)
    assert np.all(empty.theta_hat == 0)
    with pytest.raises(ValueError):
        estimate_reduced_rank_ls(obs, SupportSet(np.array([8])), cfg)
    with pytest.raises(ValueError):
        estimate_reduced_rank_ls(obs, SupportSet(np.arange(5)), cfg)
    # spacing-2 pilots on d=8 cannot tell bins 0 and 4 apart: rank deficient
    with pytest.raises(np.linalg.LinAlgError):
        estimate_reduced_rank_ls(obs, SupportSet(np.array([0, 4])), cfg)


def test_reduced_rank_ls_rejects_aliased_bins_beside_a_third():
    # Bins 23 and 110 are 3 N apart and share a column on spacing-5 pilots.
    # Cholesky of their Gram matrix succeeds on a pivot at rounding level, so
    # only the pivot test stops an arbitrary split of their one tap.
    cfg = SystemConfig(d=145, n_pilots=29)
    pat = PilotPattern.uniform(cfg, spacing=5)
    rng = np.random.default_rng(12)
    obs = Observation(rng.standard_normal(29) + 1j * rng.standard_normal(29), pat, 0.1)
    with pytest.raises(np.linalg.LinAlgError, match=r"rank-deficient support \[7, 23, 110\]"):
        estimate_reduced_rank_ls(obs, SupportSet(np.array([7, 23, 110])), cfg)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 30),
    st.integers(2, 6),
    st.data(),
)
def test_reduced_rank_ls_raises_on_any_aliased_pair(n, spacing, data):
    # On uniform pilots with d = spacing * N, bins a multiple of N apart share
    # one column, whatever other bins the support holds.
    cfg = SystemConfig(d=spacing * n, n_pilots=n)
    pat = PilotPattern.uniform(cfg, spacing=spacing)
    k = data.draw(st.integers(0, cfg.d - 1))
    alias = (k + n * data.draw(st.integers(1, spacing - 1))) % cfg.d
    rest = [b for b in range(cfg.d) if b not in (k, alias)]
    others = data.draw(st.lists(st.sampled_from(rest), max_size=n - 2, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    obs = Observation(rng.standard_normal(n) + 1j * rng.standard_normal(n), pat, 0.0)
    with pytest.raises(np.linalg.LinAlgError, match="rank-deficient support"):
        estimate_reduced_rank_ls(obs, SupportSet(np.array([k, alias, *others])), cfg)


def _noise_var_entry_points():
    cfg = SystemConfig(d=8, n_pilots=4)
    pat = PilotPattern.uniform(cfg, spacing=2)
    obs = Observation(np.ones(4), pat, 1.0)
    cov = PilotCovariance(np.eye(4), np.ones(4))
    pdp = PowerDelayProfile(variances=np.ones(8), bin_width_s=1e-7)
    return {
        "Observation": lambda nv: Observation(np.ones(4), pat, nv),
        "synthesize_observation": lambda nv: synthesize_observation(
            cfg, pat, np.zeros(8), nv, 0
        ),
        "DetectionConfig": lambda nv: DetectionConfig(alpha=1e-3, noise_var=nv),
        "pilot_sample_covariance": lambda nv: pilot_sample_covariance([obs], nv),
        "estimate_li_mmse": lambda nv: estimate_li_mmse(obs, cov, nv, cfg),
        "estimate_mmse_oracle": lambda nv: estimate_mmse_oracle(obs, pdp, nv, cfg),
    }


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("entry", sorted(_noise_var_entry_points()))
def test_every_noise_variance_must_be_finite(entry, bad):
    call = _noise_var_entry_points()[entry]
    call(0.5)
    with pytest.raises(ValueError, match="noise variance must be finite and nonnegative"):
        call(bad)


# ------------------------------------------ eigen-factor and solver identities

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def factors(draw):
    """A uniform-pilot problem and a random n x k eigen-factor, some values zero."""
    n = draw(st.integers(2, 24))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = SystemConfig(d=2 * n, n_pilots=n)
    pat = PilotPattern.uniform(cfg, spacing=2)
    raw = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    vectors = np.linalg.qr(raw)[0]
    values = rng.uniform(0.0, 10.0, k) * (rng.random(k) < 0.7)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return cfg, Observation(y, pat, 0.0), PilotCovariance(vectors, values), rng


def _interp(cfg, pat, values):
    grid = np.arange(cfg.d, dtype=float)
    return np.interp(grid, pat.indices, values.real) + 1j * np.interp(
        grid, pat.indices, values.imag
    )


def _assert_rel_close(got, want, rtol):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@SETTINGS
@given(factors(), st.floats(1e-3, 10.0))
def test_li_mmse_factor_filter_equals_dense_formula(problem, nv):
    cfg, obs, cov, _ = problem
    n = cfg.n_pilots
    dense = (cov.vectors * cov.values) @ cov.vectors.conj().T
    filtered = dense @ np.linalg.solve(dense + nv * np.eye(n), obs.y)
    est = estimate_li_mmse(obs, cov, nv, cfg)
    _assert_rel_close(est.channel_freq, _interp(cfg, obs.pattern, filtered), 1e-10)


@SETTINGS
@given(factors(), st.floats(0.01, 0.9))
def test_li_mmse_indefinite_dense_covariance_raises(problem, share):
    # one eigenvalue -a with noise_var = share * a < a: C + noise_var I is indefinite
    cfg, obs, cov, rng = problem
    a = float(rng.uniform(0.5, 5.0))
    values = cov.values.copy()
    values[0] = -a
    indefinite = PilotCovariance(cov.vectors, values)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        estimate_li_mmse(obs, indefinite, share * a, cfg)


@SETTINGS
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from([-1.0, 1.0]))
def test_positive_definite_solve_raises_where_scipy_does(m, seed, sign):
    # support_solve on G_S + diag(ridge), with the ridge shifted so that the
    # smallest eigenvalue is +-0.5 (never near the boundary)
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(d=32, n_pilots=16)
    pattern = PilotPattern.pseudo_random(cfg, seed)
    kernel = gram_kernel(cfg.d, pattern.indices)
    bins = rng.choice(cfg.d, size=m, replace=False)
    gram = support_gram(kernel, bins)
    ridge = rng.uniform(0.0, 20.0, m)
    ridge += sign * 0.5 - np.linalg.eigvalsh(gram + np.diag(ridge))[0]
    a = gram + np.diag(ridge)
    proj = rng.standard_normal(cfg.d) + 1j * rng.standard_normal(cfg.d)
    if sign > 0:
        want = scipy.linalg.solve(a, proj[bins], assume_a="pos")
        _assert_rel_close(support_solve(kernel, proj, bins, ridge), want, 1e-10)
        return
    with pytest.raises(np.linalg.LinAlgError):
        support_solve(kernel, proj, bins, ridge)
    if m > 1:  # scipy divides a 1 x 1 system without looking at its sign
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.solve(a, proj[bins], assume_a="pos")
