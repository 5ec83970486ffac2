"""Property tests for the linear-algebra identities the pursuit engine relies on.

The engine never builds the partial Fourier matrix: it looks Gram entries up
in the circulant kernel, takes projections from the matched filter, keeps an
inverse Cholesky factor, solves ridge systems on a support, and stacks
observation sets, and rows of sets with supports of their own, along leading
axes.
Each shortcut, and the sample PDP built from them, is checked here against
the explicit matrix on random grids, pilot patterns, supports and
observations.  Trial synthesis draws a trial's normals into buffers and
transforms all its channels in one batched FFT; the two numpy identities
that keep it bitwise equal to one public call per channel and observation
are checked last, followed by the block path of the false-alarm
calibration, which must equal the per-trial public calls bit for bit, and the
stacked support solve of the baselines run once per block, which must equal
its per-row solves bit for bit.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsechan.signal_model import (
    Observation,
    ObservationSet,
    PilotPattern,
    SystemConfig,
    _pseudo_random_rows,
    _spectra,
    _spectrum,
    gram_kernel,
    matched_filter,
    partial_fourier_matrix,
    support_gram,
    support_solve,
)
from sparsechan.sparse_recovery import (
    DetectionConfig,
    _above,
    _pdp,
    _StackedSolver,
    _threshold,
    detect_support,
    detection_threshold,
    sample_pdp,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def problems(draw, max_sets=1):
    """Observations on one grid with one support of at most half the pilot count."""
    d = draw(st.integers(4, 64))
    n = draw(st.integers(2, d))
    n_sets = draw(st.integers(1, max_sets))
    m = draw(st.integers(1, max(1, n // 2)))
    support = np.array(
        draw(st.lists(st.integers(0, d - 1), min_size=m, max_size=m, unique=True))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    config = SystemConfig(d=d, n_pilots=n)
    observations = tuple(
        Observation(
            y=rng.standard_normal(n) + 1j * rng.standard_normal(n),
            pattern=PilotPattern.pseudo_random(config, int(rng.integers(0, 2**32))),
            noise_var=0.0,
        )
        for _ in range(n_sets)
    )
    return config, observations, support


def _well_posed(config, observations, support):
    """The explicit restricted operators, assumed well conditioned."""
    hs = [partial_fourier_matrix(config, o.pattern, support) for o in observations]
    assume(all(np.linalg.cond(h) < 1e4 for h in hs))
    return hs


def _solved(rows, support):
    """A solver holding ``support`` in every row of observation sets."""
    solver = _StackedSolver(rows)
    solver.add_bins(np.arange(len(rows)), np.tile(support, (len(rows), 1)))
    return solver


@SETTINGS
@given(problems())
def test_lookup_gram_equals_explicit_gram(problem):
    config, (obs,), support = problem
    h = partial_fourier_matrix(config, obs.pattern, support)
    lookup = support_gram(gram_kernel(config.d, obs.pattern.indices), support)
    np.testing.assert_allclose(lookup, h.conj().T @ h, rtol=0, atol=1e-10 * config.n_pilots)


@SETTINGS
@given(problems())
def test_matched_filter_on_support_equals_explicit_projection(problem):
    config, (obs,), support = problem
    h = partial_fourier_matrix(config, obs.pattern, support)
    scale = config.n_pilots * np.linalg.norm(obs.y)
    np.testing.assert_allclose(
        matched_filter(config, obs.pattern, obs.y)[support],
        h.conj().T @ obs.y,
        rtol=0,
        atol=1e-12 * scale,
    )


@SETTINGS
@given(
    problems(max_sets=4),
    st.sampled_from(["zero", "positive", "indefinite"]),
    st.integers(0, 2**32 - 1),
)
def test_support_solve_equals_dense_ridge_solve(problem, ridge_kind, seed):
    # (H_S^H H_S + diag(r))^-1 H_S^H y per stacked set, against explicit
    # matrices; a negative ridge that leaves one eigenvalue at -0.5 raises.
    config, observations, support = problem
    hs = _well_posed(config, observations, support)
    grams = [h.conj().T @ h for h in hs]
    rng = np.random.default_rng(seed)
    if ridge_kind == "zero":
        ridge = np.zeros((len(hs), support.size))
    elif ridge_kind == "positive":
        ridge = rng.uniform(0.01, 2.0, (len(hs), support.size)) * config.n_pilots
    else:
        shifts = [np.linalg.eigvalsh(g)[0] + 0.5 for g in grams]
        ridge = -np.array(shifts)[:, None] * np.ones(support.size)
    kernel = gram_kernel(config.d, np.stack([o.pattern.indices for o in observations]))
    proj = np.stack([matched_filter(config, o.pattern, o.y) for o in observations])
    if ridge_kind == "indefinite":
        with pytest.raises(np.linalg.LinAlgError):
            support_solve(kernel, proj, support, ridge)
        return
    got = support_solve(kernel, proj, support, ridge)
    for row, h, g, r, obs in zip(got, hs, grams, ridge, observations):
        want = np.linalg.solve(g + np.diag(r), h.conj().T @ obs.y)
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-9 * np.linalg.norm(want))


@SETTINGS
@given(problems())
def test_inverse_factor_whitens_the_gram_matrix(problem):
    config, observations, support = problem
    _well_posed(config, observations, support)
    solver = _solved((observations,), support)
    m = support.size
    linv = solver.linv[0, 0, :m, :m]
    gram = support_gram(solver.kernel[0, 0], support)
    assert np.allclose(np.triu(linv, 1), 0.0)
    np.testing.assert_allclose(linv @ gram @ linv.conj().T, np.eye(m), rtol=0, atol=1e-9)


@SETTINGS
@given(problems())
def test_coefficients_equal_explicit_least_squares(problem):
    config, observations, support = problem
    (h,) = _well_posed(config, observations, support)
    solver = _solved((observations,), support)
    expected = np.linalg.lstsq(h, observations[0].y, rcond=None)[0]
    scale = np.linalg.norm(expected)
    coef = solver.coef(slice(0, 1))[0, 0]
    np.testing.assert_allclose(coef, expected, rtol=0, atol=1e-10 * scale)
    residual = observations[0].y - h @ expected
    np.testing.assert_allclose(
        solver.residual_sq[0, 0], np.vdot(residual, residual).real,
        rtol=1e-8, atol=1e-12 * np.vdot(observations[0].y, observations[0].y).real,
    )


@SETTINGS
@given(problems(max_sets=4))
def test_stacked_solve_equals_separate_solves(problem):
    # Set s of a row of stacked sets, and row s of a block with one set per
    # row, both match a solver built for set s alone, so a one-set solver
    # gives the sets a stacked solve would, and the rows a block solve would.
    config, observations, support = problem
    _well_posed(config, observations, support)
    stacked = _solved((observations,), support)
    block = _solved([(obs,) for obs in observations], support)
    spectra = stacked.spectra(slice(0, 1))[0]
    block_spectra = block.spectra(slice(None))[:, 0]
    for s, obs in enumerate(observations):
        alone = _solved(((obs,),), support)
        coef = alone.coef(slice(0, 1))[0, 0]
        alone_spectrum = alone.spectra(slice(0, 1))[0, 0]
        for got, spectrum in (
            (stacked.coef(slice(0, 1))[0, s], spectra[s]),
            (block.coef(slice(s, s + 1))[0, 0], block_spectra[s]),
        ):
            np.testing.assert_allclose(got, coef, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(spectrum, alone_spectrum, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(problems(max_sets=4))
def test_sample_pdp_equals_dense_formula(problem):
    # values = mean_s |H_s^H y_s|^2 / N^2 from one batched FFT instead of
    # explicit matrices, and scale, the mean of the values, = mean_s ||y_s||^2
    # / N^2 by Parseval (sum_k |H_s^H y_s|^2 = d ||y_s||^2).
    config, observations, _ = problem
    n = config.n_pilots
    pdp = sample_pdp(ObservationSet(observations))
    hs = [partial_fourier_matrix(config, o.pattern) for o in observations]
    values = np.mean([np.abs(h.conj().T @ o.y) ** 2 for h, o in zip(hs, observations)], axis=0)
    scale = np.mean([np.vdot(o.y, o.y).real for o in observations])
    # Bins that cancel to near zero carry an error relative to the mean level.
    np.testing.assert_allclose(pdp.values, values / n**2, rtol=1e-12, atol=1e-14 * scale)
    assert pdp.scale == pytest.approx(scale / n**2, rel=1e-12)
    assert (pdp.n_sets, pdp.n_pilots) == (len(observations), n)


def test_bin_dependent_in_one_set_is_skipped_before_any_change():
    # Spacing-2 pilots on d=16 cannot tell bins 2 and 10 apart, while the
    # pseudo-random set can: the stacked add must skip bin 10 and leave the
    # solver exactly as it was.
    config = SystemConfig(d=16, n_pilots=8)
    rng = np.random.default_rng(0)

    def observed(*patterns):
        return tuple(
            Observation(rng.standard_normal(8) + 1j * rng.standard_normal(8), pattern, 0.0)
            for pattern in patterns
        )

    observations = observed(
        PilotPattern.pseudo_random(config, seed=3), PilotPattern.uniform(config, spacing=2)
    )
    solver = _solved((observations,), np.array([2]))
    assert solver.add_bins(np.arange(1), np.array([[10]])) == [(0, 10)]
    assert solver.support(0).tolist() == [2]
    assert solver.add_bins(np.arange(1), np.array([[5]])) == []
    assert np.flatnonzero(solver.taken[0]).tolist() == [2, 5, 10]  # never offered again
    fresh = _solved((observations,), np.array([2, 5]))
    np.testing.assert_array_equal(solver.coef(slice(0, 1)), fresh.coef(slice(0, 1)))
    np.testing.assert_array_equal(solver.residual, fresh.residual)

    # Beside a row that takes bin 10, row 0 falls one bin behind, so the
    # second column regroups rows of two support sizes; each row must still
    # be exactly the solver fed its bins alone.
    independent = observed(*(PilotPattern.pseudo_random(config, seed=s) for s in (4, 5)))
    rows = (observations, independent)
    pair = _solved(rows, np.array([2]))
    assert pair.add_bins(np.arange(2), np.array([[10, 5], [10, 5]])) == [(0, 10)]
    assert [pair.support(r).tolist() for r in range(2)] == [[2, 5], [2, 10, 5]]
    for r, row in enumerate(rows):
        alone = _solved((row,), np.array([2]))
        alone.add_bins(np.arange(1), np.array([[10, 5]]))
        np.testing.assert_array_equal(pair.support(r), alone.support(0))
        np.testing.assert_array_equal(pair.coef(slice(r, r + 1)), alone.coef(slice(0, 1)))
        np.testing.assert_array_equal(pair.residual[r], alone.residual[0])
        np.testing.assert_array_equal(pair.history[r], alone.history[0])
    np.testing.assert_array_equal(pair.coef(slice(0, 1)), fresh.coef(slice(0, 1)))
    np.testing.assert_array_equal(pair.residual[0], fresh.residual[0])


@SETTINGS
@given(k=st.integers(1, 17), m=st.integers(1, 700), seed=st.integers(0, 2**32 - 1))
def test_normals_drawn_into_a_buffer_equal_consecutive_draws(k, m, seed):
    buffer = np.empty((k, 2, m))
    np.random.default_rng(seed).standard_normal(out=buffer)
    rng = np.random.default_rng(seed)
    consecutive = [rng.standard_normal(m) for _ in range(2 * k)]
    np.testing.assert_array_equal(buffer.reshape(2 * k, m), consecutive)


@SETTINGS
@given(k=st.integers(1, 17), d=st.integers(1, 700), seed=st.integers(0, 2**32 - 1))
@example(k=17, d=600, seed=0)  # a sweep trial's channels at d=600
def test_batched_fft_rows_equal_single_ffts(k, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    batched = np.fft.fft(x, axis=1)
    for row, spectrum in zip(x, batched):
        np.testing.assert_array_equal(spectrum, np.fft.fft(row))


@st.composite
def noise_blocks(draw):
    """Pilot rows and pilot-domain values of a block of trials of several sets each."""
    d = draw(st.integers(2, 64))
    n = draw(st.integers(1, d))
    n_sets, trials = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seeds = rng.integers(0, 2**63, trials * n_sets).tolist()
    y = rng.standard_normal((trials * n_sets, n)) + 1j * rng.standard_normal((trials * n_sets, n))
    det = DetectionConfig(
        alpha=draw(st.floats(1e-6, 0.5)), noise_var=draw(st.sampled_from([0.0, 0.3, 1.0]))
    )
    return SystemConfig(d=d, n_pilots=n), n_sets, seeds, y, det


@SETTINGS
@given(noise_blocks())
def test_block_pdp_and_threshold_equal_per_trial_calls(block):
    # The calibration's block path: one matched filter over every set of the
    # block, one _pdp over (trials, sets, d), and one _threshold, which takes
    # each trial's scale as its values' mean, and one _above over the trials.
    config, n_sets, seeds, y, det = block
    d, n = config.d, config.n_pilots
    pilots = _pseudo_random_rows(d, n, seeds)
    index = (np.arange(len(seeds))[:, None] * d + pilots).ravel()
    values = _pdp(_spectrum(d, index, y).reshape(-1, n_sets, d), n)
    scale = values.mean(axis=-1)
    threshold = _threshold(values, n_sets, n, det)
    above = _above(values, threshold)
    for t, rows in enumerate(np.split(np.arange(len(seeds)), values.shape[0])):
        pdp = sample_pdp(
            ObservationSet(
                tuple(
                    Observation(y[r], PilotPattern.pseudo_random(config, seeds[r]), 1.0)
                    for r in rows
                )
            )
        )
        assert np.array_equal(values[t], pdp.values)
        assert scale[t] == pdp.scale
        assert threshold[t, 0] == detection_threshold(pdp, det)
        assert np.array_equal(np.flatnonzero(above[t]), detect_support(pdp, det))


@SETTINGS
@given(m=st.integers(1, 9), d=st.integers(1, 700), seed=st.integers(0, 2**32 - 1))
@example(m=16, d=600, seed=0)  # a calibration block of 16 sets at d=600
def test_in_place_spectrum_equals_scaled_inverse_fft(m, d, seed):
    rng = np.random.default_rng(seed)
    pilots = _pseudo_random_rows(d, int(rng.integers(1, d + 1)), rng.integers(0, 2**63, m))
    index = (np.arange(m)[:, None] * d + pilots).ravel()
    r = rng.standard_normal(pilots.shape) + 1j * rng.standard_normal(pilots.shape)
    z = np.zeros((m, d), dtype=np.complex128)
    z.ravel()[index] = r.ravel()
    assert np.array_equal(_spectrum(d, index, r), d * np.fft.ifft(z, axis=1))


@st.composite
def support_stacks(draw):
    """Rows of pilots and pilot values on one grid, one support and one ridge >= 0.

    A row may be uniformly spaced with the support holding two bins it aliases,
    which makes that row's least-squares system rank deficient.
    """
    d = draw(st.integers(2, 64))
    n = draw(st.integers(1, d))
    rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pilots = _pseudo_random_rows(d, n, rng.integers(0, 2**63, rows).tolist())
    m = draw(st.integers(1, min(d, n + 1)))
    bins = draw(st.lists(st.integers(0, d - 1), min_size=m, max_size=m, unique=True))
    spacing = d // n
    if spacing > 1 and d % spacing == 0 and draw(st.booleans()):
        pilots[draw(st.integers(0, rows - 1))] = np.arange(n) * spacing
        alias = (bins[0] + d // spacing) % d
        bins = bins if alias in bins else bins + [alias]
    ridge = draw(st.sampled_from([0.0, "positive"]))
    if ridge:
        ridge = rng.uniform(0.01, 2.0, len(bins)) * n
    y = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    return d, pilots, y, np.array(bins), ridge


@SETTINGS
@given(support_stacks())
@example((16, np.array([[1, 4, 5, 7, 9, 11, 12, 14], np.arange(8) * 2]), np.ones((2, 8)) * 1j,
          np.array([2, 10]), 0.0))  # bins 2 and 10 alias on the second row's spacing 2
def test_stacked_support_solve_equals_per_row_solves(stack):
    # The baselines solve a block's rows in one call; it must raise where any
    # row's own solve raises, and otherwise give every row's solve bit for bit.
    d, pilots, y, bins, ridge = stack
    kernel, proj = gram_kernel(d, pilots), _spectra(d, pilots, y)
    per_row = []
    for r in range(len(y)):
        try:
            per_row.append(support_solve(kernel[r], proj[r], bins, ridge))
        except np.linalg.LinAlgError:
            per_row.append(None)
    if any(row is None for row in per_row):
        with pytest.raises(np.linalg.LinAlgError):
            support_solve(kernel, proj, bins, ridge)
        return
    for got, want in zip(support_solve(kernel, proj, bins, ridge), per_row):
        assert np.array_equal(got, want)
