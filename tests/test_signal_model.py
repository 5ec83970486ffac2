"""Grid model: patterns, the partial Fourier operator pair, synthesis."""

import numpy as np
import pytest

from sparsechan import signal_model
from sparsechan.signal_model import (
    Observation,
    ObservationSet,
    PilotPattern,
    SystemConfig,
    _check_indices,
    _pseudo_random_rows,
    matched_filter,
    partial_fourier_apply,
    partial_fourier_matrix,
    synthesize_observation,
)


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(d=1, n_pilots=1)
    with pytest.raises(ValueError):
        SystemConfig(d=8, n_pilots=0)
    with pytest.raises(ValueError):
        SystemConfig(d=8, n_pilots=9)
    with pytest.raises(ValueError):
        SystemConfig(d=8, n_pilots=4, subcarrier_spacing_hz=0.0)
    with pytest.raises(ValueError, match="subcarrier spacing"):
        SystemConfig(d=8, n_pilots=4, subcarrier_spacing_hz=float("nan"))
    # counts must be whole numbers, and are stored as int
    with pytest.raises(ValueError, match="d must be an integer, got 24.5"):
        SystemConfig(d=24.5, n_pilots=6)
    n_pilots = SystemConfig(24, 6.0).n_pilots
    assert n_pilots == 6 and type(n_pilots) is int


def test_bin_width():
    cfg = SystemConfig(d=600, n_pilots=200, subcarrier_spacing_hz=15e3)
    assert cfg.bin_width_s == pytest.approx(1.0 / 9e6)


def test_uniform_pattern():
    cfg = SystemConfig(d=24, n_pilots=6)
    pat = PilotPattern.uniform(cfg, spacing=4)
    assert pat.n == 6
    assert pat.kind == "uniform"
    assert np.array_equal(pat.indices, np.arange(6) * 4)
    with pytest.raises(ValueError):
        PilotPattern.uniform(cfg, spacing=0)
    with pytest.raises(ValueError):
        PilotPattern.uniform(cfg, spacing=5)  # last pilot lands on 25 >= 24
    # a fractional spacing would place pilots at truncated multiples of it
    with pytest.raises(ValueError, match="spacing must be an integer, got 4.5"):
        PilotPattern.uniform(cfg, 4.5)


def test_pseudo_random_pattern_reproducible():
    cfg = SystemConfig(d=600, n_pilots=200)
    a = PilotPattern.pseudo_random(cfg, seed=42)
    b = PilotPattern.pseudo_random(cfg, seed=42)
    c = PilotPattern.pseudo_random(cfg, seed=43)
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices)
    assert a.n == 200
    assert a.indices[0] >= 0 and a.indices[-1] < 600
    assert np.all(np.diff(a.indices) > 0)  # sorted, distinct
    # rejected by name rather than by numpy's seed check
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        PilotPattern.pseudo_random(cfg, 1.5)
    assert PilotPattern.pseudo_random(cfg, 2**1100).n == 200  # an int past float range


def test_pattern_validation():
    with pytest.raises(ValueError):
        PilotPattern(indices=np.array([0, 0, 1]), d=8)
    with pytest.raises(ValueError):
        PilotPattern(indices=np.array([-1, 2]), d=8)
    with pytest.raises(ValueError):
        PilotPattern(indices=np.array([0, 8]), d=8)
    with pytest.raises(ValueError):
        PilotPattern(indices=np.array([], dtype=np.int64), d=8)
    # storage is sorted regardless of construction order
    pat = PilotPattern(indices=np.array([5, 1, 3]), d=8)
    assert np.array_equal(pat.indices, [1, 3, 5])
    # fractional and NaN indices must not be cast to other pilots
    for bad in ([0.5, 1.7, 3.2], [0.0, np.nan, 3.0]):
        with pytest.raises(ValueError, match="pilot indices must be whole numbers"):
            PilotPattern(indices=np.array(bad), d=8)
    whole = PilotPattern(indices=np.array([6.0, 0.0, 3.0]), d=8).indices
    assert whole.dtype == np.int64 and whole.tolist() == [0, 3, 6]
    # a boolean mask must not be read as the indices 0 and 1
    with pytest.raises(ValueError, match="pilot indices must be a 1-d vector of numbers, got bool"):
        PilotPattern(indices=np.array([True, False]), d=8)


def test_pseudo_random_rows_are_patterns_checked_as_one_stack():
    cfg = SystemConfig(d=600, n_pilots=200)
    rows = _pseudo_random_rows(cfg.d, cfg.n_pilots, [3, 42, 7])
    assert rows.dtype == np.int64 and rows.shape == (3, 200)
    for row, seed in zip(rows, (3, 42, 7)):
        np.testing.assert_array_equal(row, PilotPattern.pseudo_random(cfg, seed).indices)
    # the stack's check covers every row, the last one included
    for bad, message in (
        ([[0, 1], [2, 2]], "distinct"),
        ([[0, 1], [2, 8]], r"lie in \[0, 8\)"),
        ([[True, False], [False, True]], "2-d stack of rows of numbers, got bool"),
        ([0, 1], "must be a 2-d stack of rows"),
    ):
        with pytest.raises(ValueError, match=message):
            _check_indices("pilot indices", np.array(bad), 8, ndim=2)


def test_pseudo_random_pattern_checks_its_indices_once(monkeypatch):
    # The draw is checked by the pattern's constructor alone, and a stack of
    # draws by one check for the stack.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return _check_indices(*args, **kwargs)

    monkeypatch.setattr(signal_model, "_check_indices", counting)
    cfg = SystemConfig(d=64, n_pilots=16)
    PilotPattern.pseudo_random(cfg, seed=3)
    assert calls == ["pilot indices"]
    _pseudo_random_rows(cfg.d, cfg.n_pilots, [3, 42, 7])
    assert len(calls) == 2


def test_observation_validation():
    cfg = SystemConfig(d=8, n_pilots=2)
    pat = PilotPattern.uniform(cfg, spacing=2)
    with pytest.raises(ValueError):
        Observation(y=np.zeros(3), pattern=pat, noise_var=1.0)
    with pytest.raises(ValueError):
        Observation(y=np.zeros(2), pattern=pat, noise_var=-1.0)


def test_observation_set_properties():
    cfg = SystemConfig(d=16, n_pilots=4)
    pats = [PilotPattern.pseudo_random(cfg, seed=s) for s in range(3)]
    obs = tuple(Observation(y=np.zeros(4), pattern=p, noise_var=1.0) for p in pats)
    group = ObservationSet(obs)
    assert group.n_sets == 3
    assert group.d == 16
    assert group.n_pilots == 4
    with pytest.raises(ValueError):
        ObservationSet(())
    other = Observation(
        y=np.zeros(5),
        pattern=PilotPattern.pseudo_random(SystemConfig(d=16, n_pilots=5), 0),
        noise_var=1.0,
    )
    with pytest.raises(ValueError):
        ObservationSet(obs + (other,))


def test_partial_fourier_apply_matches_direct_sum():
    rng = np.random.default_rng(0)
    cfg = SystemConfig(d=12, n_pilots=5)
    pat = PilotPattern.pseudo_random(cfg, seed=1)
    theta = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    got = partial_fourier_apply(cfg, pat, theta)
    # direct evaluation of c[p] = sum_k theta[k] exp(-2j pi p k / d)
    for j, p in enumerate(pat.indices):
        direct = sum(
            theta[k] * np.exp(-2j * np.pi * p * k / 12) for k in range(12)
        )
        assert abs(got[j] - direct) < 1e-10


def test_partial_fourier_matrix_entries():
    cfg = SystemConfig(d=10, n_pilots=4)
    pat = PilotPattern.pseudo_random(cfg, seed=3)
    bins = np.array([0, 3, 7])
    h = partial_fourier_matrix(cfg, pat, bins)
    assert h.shape == (4, 3)
    for r, p in enumerate(pat.indices):
        for c, k in enumerate(bins):
            assert h[r, c] == pytest.approx(np.exp(-2j * np.pi * p * k / 10))
    full = partial_fourier_matrix(cfg, pat)
    assert full.shape == (4, 10)
    # matrix application agrees with the FFT path
    rng = np.random.default_rng(4)
    theta = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    np.testing.assert_allclose(
        full @ theta, partial_fourier_apply(cfg, pat, theta), atol=1e-10
    )


def test_matched_filter_is_adjoint():
    rng = np.random.default_rng(5)
    cfg = SystemConfig(d=16, n_pilots=6)
    pat = PilotPattern.pseudo_random(cfg, seed=9)
    theta = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    lhs = np.vdot(y, partial_fourier_apply(cfg, pat, theta))
    rhs = np.vdot(matched_filter(cfg, pat, y), theta)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_matched_filter_energy_identity():
    # The spectrum's total energy is d times the input energy (rows of the
    # full Fourier operator are orthogonal with squared norm d).
    rng = np.random.default_rng(6)
    cfg = SystemConfig(d=32, n_pilots=12)
    pat = PilotPattern.pseudo_random(cfg, seed=2)
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    mf = matched_filter(cfg, pat, y)
    total = float(np.vdot(mf, mf).real)
    assert total == pytest.approx(32 * float(np.vdot(y, y).real), rel=1e-12)


def test_matched_filter_shape_checks():
    cfg = SystemConfig(d=8, n_pilots=3)
    pat = PilotPattern.pseudo_random(cfg, seed=0)
    with pytest.raises(ValueError):
        matched_filter(cfg, pat, np.zeros(4))
    other = PilotPattern.pseudo_random(SystemConfig(d=10, n_pilots=3), seed=0)
    with pytest.raises(ValueError):
        matched_filter(cfg, other, np.zeros(3))


def test_synthesize_noiseless_is_exact():
    rng = np.random.default_rng(7)
    cfg = SystemConfig(d=20, n_pilots=8)
    pat = PilotPattern.pseudo_random(cfg, seed=5)
    theta = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    obs = synthesize_observation(cfg, pat, theta, 0.0, rng)
    np.testing.assert_allclose(obs.y, partial_fourier_apply(cfg, pat, theta))
    assert obs.noise_var == 0.0


def test_synthesize_noise_moments():
    cfg = SystemConfig(d=64, n_pilots=64)
    pat = PilotPattern.uniform(cfg, spacing=1)
    theta = np.zeros(64, dtype=np.complex128)
    rng = np.random.default_rng(8)
    samples = []
    for _ in range(200):
        obs = synthesize_observation(cfg, pat, theta, 2.0, rng)
        samples.append(obs.y)
    stacked = np.concatenate(samples)
    mean_power = float(np.mean(np.abs(stacked) ** 2))
    assert mean_power == pytest.approx(2.0, rel=0.05)
    assert abs(np.mean(stacked)) < 0.05
    # circularity: the pseudo-variance E[z^2] of circular noise vanishes
    assert abs(np.mean(stacked**2)) < 0.05


def test_synthesize_advances_rng_when_noiseless():
    cfg = SystemConfig(d=16, n_pilots=4)
    pat = PilotPattern.pseudo_random(cfg, seed=1)
    theta = np.zeros(16, dtype=np.complex128)
    g1 = np.random.default_rng(123)
    g2 = np.random.default_rng(123)
    synthesize_observation(cfg, pat, theta, 0.0, g1)
    synthesize_observation(cfg, pat, theta, 3.0, g2)
    assert g1.standard_normal() == g2.standard_normal()
