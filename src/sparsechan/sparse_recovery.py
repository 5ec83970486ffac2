"""Greedy sparse recovery of delay-domain taps, with optional prior knowledge.

The estimators share one engine, in the manner of Batch-OMP (Rubinstein,
Zibulevsky & Elad 2008): least squares for rows of stacked observation sets,
each row on its own growing support shared by its sets, with Gram entries
looked up in the circulant kernel of H^H H, one inverse Cholesky factor per
set grown by one row update per bin as the bins go in column by column,
coefficients formed from it only when asked for, and batched FFTs for the
residuals and their spectra.  The engine and every row function take one
input format: d, (rows, sets, N) pilot indices and values, (rows, sets) noise
variances and, to detect, (rows, d) sample-PDP values.  ``omp`` and
``algorithm_a2`` are one row of one set, ``algorithm_a1`` and ``algorithm_a3``
one row per observation, ``ex_omp`` one row of all its sets, each stacked once
by ``_stack``, and a sweep pursues a block of trials' arrays at once.
Around the engine sit three ways of using side information gathered from
extra pilot observations:

* ``algorithm_a1``  detect occupied bins from the sample PDP of all sets,
                    then fit each observation by least squares on that support
* ``algorithm_a2``  run the pursuit with selection scores reweighted by an
                    MMSE-style gain built from the prior sample PDP
* ``algorithm_a3``  seed each observation's pursuit with the detected bins,
                    then continue plain greedy selection
* ``ex_omp``        run pursuits on all observation sets in lockstep with one
                    shared support, admitting every bin whose combined
                    residual spectrum clears a chi-square detection threshold

One round loop, ``_pursue``, runs every pursuit over every row and holds
every stop rule; the estimators differ in their seed bins and in the rule
that picks each round's bins.

Detection treats each sample-PDP bin as an averaged squared magnitude of
circular Gaussian noise: bin values are compared against a scaled chi-square
quantile with two degrees of freedom per averaged set.  Only ``_above``
compares a sample PDP with the ``_threshold`` level: ``detect_support`` for
``a1``, ``a2``, ``a3`` and each ``ex_omp`` round, and blocks of calibration trials.
The quantile, ``chi2_inv_cdf``, inverts the regularized incomplete gamma
function with the ``math`` module alone (series and finite sum, then
Halley steps on the tail that holds the answer) and memoizes each
``(prob, dof)`` pair, so the package needs no scipy.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .signal_model import (
    RANK_TOL,
    Observation,
    ObservationSet,
    _check_count,
    _check_noise_var,
    _check_powers,
    _spectra,
    _stack,
    gram_kernel,
    support_solve,
)

__all__ = [
    "SamplePdp",
    "DetectionConfig",
    "OmpConfig",
    "SparseEstimate",
    "chi2_inv_cdf",
    "sample_pdp",
    "detection_threshold",
    "detect_support",
    "omp",
    "algorithm_a1",
    "algorithm_a2",
    "algorithm_a3",
    "ex_omp",
]


def chi2_inv_cdf(prob: float, dof: int) -> float:
    """Inverse CDF of the chi-square distribution with ``dof`` degrees of freedom.

    Twice the inverse of the regularized lower incomplete gamma function
    P(a, x) at shape a = dof / 2, found by Halley steps from a Wilson–Hilferty
    start.  Above the median the steps solve Q(a, x) = 1 - prob on the upper
    tail instead, where 1 - prob is exact in floating point, so the 1 - alpha
    quantiles the detector asks for keep their full relative accuracy.  Each
    inversion costs tens of microseconds, so results are memoized by
    ``(prob, dof)``; a sweep asks for only a handful of pairs.  For dof = 2
    the quantile is -2 ln(1 - prob), which tests use as a closed-form
    cross-check.
    """
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must lie strictly inside (0, 1), got {prob}")
    return _chi2_quantile(float(prob), _check_count("dof", dof, 1))


_EPS = sys.float_info.epsilon
_MAX_HALLEY_STEPS = 64


def _regularized_gamma(a: float, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)) for x > 0 and a chi-square shape a = dof / 2, each
    accurate to a few ulps.

    The smaller of the two is computed directly and the other is its
    complement.  Below x = a + 1 that is P, by its power series (Numerical
    Recipes, section 6.2).  Above it Q is a finite sum: the recurrence
    Q(s, x) = Q(s - 1, x) + x^(s-1) e^-x / Gamma(s) (DLMF 8.8.7) steps the
    shape down from a, whole or half-whole, to Q(1, x) = e^-x or
    Q(1/2, x) = erfc(sqrt x) (DLMF 8.4.6), with terms shrinking all the way.
    """
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        shape = a
        while abs(term) > abs(total) * _EPS:
            shape += 1.0
            term *= x / shape
            total += term
        p = prefactor * total
        return p, 1.0 - p
    term = prefactor / x  # x^(s-1) e^-x / Gamma(s) at s = a
    q = 0.0
    shape = a
    while shape > 1.0:
        q += term
        shape -= 1.0
        term *= shape / x
    q += term if shape == 1.0 else math.erfc(math.sqrt(x))
    return 1.0 - q, q


@lru_cache
def _chi2_quantile(prob: float, dof: int) -> float:
    a = 0.5 * dof
    upper = prob > 0.5
    target = 1.0 - prob if upper else prob
    # Start: Wilson–Hilferty cube with a rational normal quantile (Abramowitz &
    # Stegun 26.2.23).  Below the median it can fall far short, so take at
    # least the root of x^a / Gamma(a + 1) = prob, which is a lower bound
    # because P(a, x) <= x^a / Gamma(a + 1).
    t = math.sqrt(-2.0 * math.log(target))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    if not upper:
        z = -z
    base = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))
    x = a * max(base, 0.0) ** 3
    if not upper:
        x = max(x, math.exp((math.log(prob) + math.lgamma(a + 1.0)) / a))
        if x == 0.0:
            return 0.0  # below the smallest positive double
    for _ in range(_MAX_HALLEY_STEPS):
        p, q = _regularized_gamma(a, x)
        # f(x) = P(a, x) - prob, computed on the tail being solved; f' is the
        # gamma density and f''/f' = (a - 1)/x - 1.
        f = target - q if upper else p - target
        density = math.exp((a - 1.0) * math.log(x) - x - math.lgamma(a))
        u = f / density
        step = u / (1.0 - 0.5 * min(1.0, u * ((a - 1.0) / x - 1.0)))
        x_next = x - step
        x = x_next if x_next > 0.0 else 0.5 * x
        if abs(step) <= 1e-10 * x:
            return 2.0 * x
    raise ArithmeticError(f"chi-square quantile did not converge at prob={prob}, dof={dof}")


@dataclass(frozen=True)
class SamplePdp:
    """Averaged squared matched-filter spectrum of one or more observations.

    ``values[k]`` estimates the power in delay bin k; ``scale``, their mean,
    is what noise and leakage average to and is the natural unit for
    detection thresholds.  By Parseval it equals the observations' mean
    energy over n_pilots^2.  ``n_sets`` is the number of independent averages
    (it sets the chi-square degrees of freedom, 2 per set) and ``n_pilots``
    the pilots per observation, at most the number of bins.
    """

    values: np.ndarray
    n_sets: int
    n_pilots: int
    scale: float = field(init=False)

    def __post_init__(self) -> None:
        v = _check_powers("sample PDP values", self.values)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "n_sets", _check_count("n_sets", self.n_sets, 1))
        n = _check_count("n_pilots", self.n_pilots, 1)
        if n > v.size:
            raise ValueError(f"n_pilots = {n} exceeds the {v.size} bins of the sample PDP")
        object.__setattr__(self, "n_pilots", n)
        object.__setattr__(self, "scale", float(v.mean()))


@dataclass(frozen=True)
class DetectionConfig:
    """False-alarm rate per bin, plus the observation noise variance.

    ``noise_var`` splits a sample PDP's mean bin level into its noise floor
    and its signal-leakage part so the threshold can track the level of a
    signal-free bin.  Both fields are required, because zero is no safe
    default for the noise: it treats the whole mean as leakage and shrinks
    it, which lowers the threshold on noisy data, and ``ex_omp`` then
    over-admits (over 30 trials of 9 ETU sets at 10 dB, d=600, N=200, its
    scored estimate kept 55.7 bins with ``noise_var=0`` against 24.4 with
    the true variance).  Every consumer of the threshold, ``ex_omp``'s
    rounds included, reads it here.
    """

    alpha: float
    noise_var: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        _check_noise_var(self.noise_var)


@dataclass(frozen=True)
class OmpConfig:
    """The greedy pursuit's one knob.

    max_iters bounds the number of selection rounds (default: n_pilots / 4,
    rounded up).  The pursuit also stops once the squared residual norm
    drops to n_pilots * noise_var, the noise energy the observation carries.
    """

    max_iters: int | None = None

    def __post_init__(self) -> None:
        if self.max_iters is not None:
            object.__setattr__(self, "max_iters", _check_count("max_iters", self.max_iters, 1))


@dataclass(frozen=True)
class SparseEstimate:
    """Recovered taps: full-length vector plus the support bookkeeping."""

    theta: np.ndarray
    support: np.ndarray
    selection_order: tuple[int, ...]
    residual_sq_history: tuple[float, ...]

    def channel_freq(self) -> np.ndarray:
        """Transfer function on all subcarriers implied by the taps."""
        return np.fft.fft(self.theta)


def _pdp(spectra: np.ndarray, n_pilots: int) -> np.ndarray:
    """Sample-PDP values of spectra stacked as (..., sets, d): the mean over the sets."""
    return np.mean(np.abs(spectra) ** 2 / (n_pilots * n_pilots), axis=-2)


def sample_pdp(sets: ObservationSet) -> SamplePdp:
    """Average the squared matched-filter spectra of the observations.

    The sets are independent, so they are averaged incoherently, power by
    power, giving 2 * n_sets chi-square degrees of freedom per noise bin.
    """
    d, pilots, y, _ = _stack(sets.observations, 1)
    return SamplePdp(_pdp(_spectra(d, pilots[0], y[0]), sets.n_pilots), sets.n_sets, sets.n_pilots)


def _null_level(scale: float, n_pilots: int, d: int, noise_var: float) -> float:
    """Mean power of a signal-free spectrum bin, from the all-bin mean.

    ``scale`` is the spectrum's mean bin power, a sample PDP's ``scale`` or
    ||y||^2 / N^2 for one observation (the same by Parseval), which equals
    (signal power + noise power) / N.  A signal-free bin sees
    only the noise floor noise_var / N plus leakage from the occupied bins,
    and leakage through a random pilot pattern drawn without replacement is
    attenuated by the finite-population factor (d - N)/(d - 1).  Splitting
    the mean with the known noise variance and shrinking only the signal part
    keeps the detection threshold calibrated on strongly clustered channels,
    where the raw mean can overshoot the signal-free level by half.  The
    signed excess keeps the estimate unbiased on noise-only input; every
    caller has 1 <= N <= d, so the factor lies in [0, 1] and the result, a
    convex combination of two nonnegative terms, stays >= 0.
    """
    noise_floor = noise_var / n_pilots
    factor = (d - n_pilots) / (d - 1) if d > 1 else 1.0
    return (scale - noise_floor) * factor + noise_floor


def _threshold(values: np.ndarray, n_sets: int, n_pilots: int, det: DetectionConfig):
    """Per-bin level that noise alone exceeds with probability alpha, per (..., d) row: (..., 1).

    A noise-plus-leakage bin averaged over n_sets observations is distributed as
    mean_level / (2 n_sets) times a chi-square with 2 n_sets degrees of freedom;
    the threshold is its (1 - alpha) quantile.  The mean level is the signal-free
    bin estimate ``_null_level`` makes from the values' mean (a PDP's ``scale``)
    and det.noise_var.  On an all-zero PDP that is noise_var / N scaled by
    (N - 1) / (d - 1), so 7/31 of noise_var / N at d = 32, N = 8; noise_var / N
    itself is used only where the level is zero, which for noise_var > 0 means
    N = 1.  With noise_var = 0 the threshold is 0 where N = d.
    """
    mu = _null_level(values.mean(axis=-1, keepdims=True), n_pilots, values.shape[-1], det.noise_var)
    mu = np.where(mu <= 0.0, det.noise_var / n_pilots, mu)
    return mu / (2.0 * n_sets) * chi2_inv_cdf(1.0 - det.alpha, 2 * n_sets)


def _above(values: np.ndarray, threshold) -> np.ndarray:
    return values > threshold  # the detector's one comparison of a sample PDP with its level


def _detect(values: np.ndarray, n_sets: int, n_pilots: int, det: DetectionConfig) -> np.ndarray:
    """Sorted indices of the bins of one row of sample-PDP values ``_above`` its ``_threshold``."""
    return np.flatnonzero(_above(values, _threshold(values, n_sets, n_pilots, det)))


def detection_threshold(pdp: SamplePdp, det: DetectionConfig) -> float:
    """Per-bin power level that noise alone exceeds with probability alpha: ``_threshold``."""
    return float(_threshold(pdp.values, pdp.n_sets, pdp.n_pilots, det)[0])


def detect_support(pdp: SamplePdp, det: DetectionConfig) -> np.ndarray:
    """Sorted indices of the sample-PDP bins ``_above`` ``detection_threshold``; a zero
    threshold keeps every bin above zero."""
    return _detect(pdp.values, pdp.n_sets, pdp.n_pilots, det)


class _StackedSolver:
    """Incremental least squares of stacked observation sets, one growing support per row.

    Built from d, (rows, sets, N) pilot indices and values and (rows, sets)
    noise variances.  Row r stacks S observation sets that share the support
    ``sel[r, :m[r]]``: the single-observation pursuits run one set per row
    and one row per observation, ``ex_omp`` one row of all its sets.  Each
    set keeps only its inverse Cholesky factor L^-1 of G = H^H H on its row's
    support, and ``coef`` forms c = L^-H L^-1 H^H y when called.  ``add_bins``
    takes sorted row indices and adds their bins column by column, each
    column advancing together only the rows of one support size; ``spectra``,
    ``coef`` and ``refresh`` take such rows as a slice or sorted indices.
    Each row's arithmetic is then exactly that of a solver built for it
    alone, whatever rows it is stacked with.  ``history[r]`` holds row r's
    residual energies, first and after each ``add_bins`` that grows it;
    ``noise_vars[r]`` its sets' noise variances; ``taken[r]`` marks its
    support and every bin ever offered to it, so a bin skipped as dependent
    is never offered again.
    """

    __slots__ = (
        "d", "n", "base", "pilots", "y", "noise_vars", "kernel", "proj", "linv", "sel",
        "m", "taken", "residual", "residual_sq", "history",
    )

    def __init__(self, d: int, pilots: np.ndarray, y: np.ndarray, noise_vars: np.ndarray) -> None:
        shape, n = y.shape[:2], y.shape[2]
        self.d, self.n = d, n
        # Flat offset of each (row, set) in a (rows, sets, d) array.
        self.base = (np.arange(shape[0] * shape[1]) * d).reshape(shape + (1,))
        self.pilots, self.y, self.noise_vars = pilots, y, noise_vars
        self.kernel = gram_kernel(d, pilots)
        self.proj = _spectra(d, pilots.reshape(-1, n), y.reshape(-1, n)).reshape(shape + (d,))
        # Grown as the supports grow.  Only the leading m x m block of linv
        # is read, and it starts zeroed, so its upper triangle stays zero.
        self.linv = np.empty(shape + (0, 0), dtype=np.complex128)
        self.sel = np.empty((shape[0], 0), dtype=np.int64)
        self.m = np.zeros(shape[0], dtype=np.int64)
        self.taken = np.zeros((shape[0], d), dtype=bool)
        self.residual = y.copy()
        self.residual_sq = np.vecdot(y, y).real
        self.history = [[energy] for energy in self.residual_sq]

    def support(self, row: int) -> np.ndarray:
        """Row ``row``'s selected bins in selection order."""
        return self.sel[row, : self.m[row]]

    def spectra(self, rows) -> np.ndarray:
        """Matched-filter spectra of the rows' residuals, one (sets, d) block per row."""
        residual = self.residual[rows]
        flat = _spectra(self.d, self.pilots[rows].reshape(-1, self.n), residual.reshape(-1, self.n))
        return flat.reshape(residual.shape[:2] + (self.d,))

    def add_bins(self, rows: np.ndarray, bins: np.ndarray) -> list[tuple[int, int]]:
        """Add each row's bins in order until its support is full, then solve.

        ``bins[i]`` lists the bins for ``rows[i]``, padded with -1.  The bins
        go in column by column, and in each column the rows that hold the same
        support size advance together.  Returns the (row, bin) pairs skipped
        as dependent.
        """
        at, j = np.nonzero(bins >= 0)
        self.taken[rows[at], bins[at, j]] = True
        before = self.m[rows]
        skipped = []
        for j, column in enumerate(bins.T.tolist()):
            # Positions of the rows with a bin here and room for it, by support size.
            groups = {}
            for i, (k, size) in enumerate(zip(column, self.m[rows].tolist())):
                if k >= 0 and size < self.n:
                    groups.setdefault(size, []).append(i)
            if not groups:  # padding and full supports only grow to the right
                break
            for at in groups.values():
                at = slice(None) if len(at) == rows.size else at  # every row: views
                group, k = rows[at], bins[at, j]
                skipped += [(int(group[i]), int(k[i])) for i in self._add_bin(_packed(group), k)]
        grown = rows[self.m[rows] > before]
        for at in _by_size(self.m[grown]):
            self.refresh(_packed(grown[at]))
        for row in grown.tolist():
            self.history[row].append(self.residual_sq[row])
        return skipped

    def _reserve(self, size: int) -> None:
        """Room for supports of ``size`` bins; the Gram matrices have rank at most n."""
        have = self.sel.shape[1]
        if size <= have:
            return
        size = min(self.n, max(size, 2 * have))
        linv = np.zeros(self.linv.shape[:2] + (size, size), dtype=np.complex128)
        linv[..., :have, :have] = self.linv
        sel = np.empty((self.sel.shape[0], size), dtype=np.int64)
        sel[:, :have] = self.sel
        self.linv, self.sel = linv, sel

    def _add_bin(self, rows, k: np.ndarray) -> list[int]:
        """Add bin ``k[i]`` to the i-th of ``rows``, which all hold the same support size.

        Returns the positions i of the rows left unchanged because their bin
        is (numerically) dependent on their support in some set.
        """
        n = self.n
        m = int(self.m[rows][0])
        self._reserve(m + 1)
        # w = L^-1 G[S, k] per set, from the bins' Gram entries against the
        # supports; G[k, k] = n.
        lag = (k[:, None] - self.sel[rows, :m]) % self.d
        linv = self.linv[rows, :, :m, :m]
        w = np.matvec(linv, self.kernel.take(self.base[rows] + lag[:, None]))
        gap = n - np.vecdot(w, w).real
        dependent = []
        if gap.min() <= RANK_TOL * n:
            keep = gap.min(axis=1) > RANK_TOL * n
            dependent = np.flatnonzero(~keep).tolist()
            rows, k, gap = np.arange(self.m.size)[rows][keep], k[keep], gap[keep]
            linv, w = linv[keep], w[keep]
        r = 1.0 / np.sqrt(gap)
        # With G = L L^H, the grown factor is [[L, 0], [w^H, delta]] with
        # delta^2 = gap, and its inverse has the new row
        # [-w^H L^-1 / delta, 1 / delta].
        self.linv[rows, :, m, :m] = np.vecmat(w, linv) * -r[..., None]
        self.linv[rows, :, m, m] = r
        self.sel[rows, m] = k
        self.m[rows] = m + 1
        return dependent

    def refresh(self, rows) -> None:
        """Recompute coefficients and residuals of rows that hold the same support size."""
        coef = self.coef(rows)
        m = coef.shape[2]
        base = self.base[: coef.shape[0]]
        theta = np.zeros(coef.shape[:2] + (self.d,), dtype=np.complex128)
        theta.reshape(-1)[base + self.sel[rows, None, :m]] = coef
        fitted = np.fft.fft(theta, axis=2).reshape(-1)[base + self.pilots[rows]]
        residual = self.y[rows] - fitted
        self.residual[rows] = residual
        self.residual_sq = self.residual_sq.copy()  # the history holds rows of the old one
        self.residual_sq[rows] = np.vecdot(residual, residual).real

    def coef(self, rows) -> np.ndarray:
        """Least-squares coefficients, in selection order, of rows of one support size."""
        m = int(self.m[rows][0])
        linv = self.linv[rows, :, :m, :m]
        # z = L^-1 H^H y on the support, then c = L^-H z, i.e. conj(z^H L^-1).
        z = np.matvec(linv, self.proj.take(self.base[rows] + self.sel[rows, None, :m]))
        return np.vecmat(z, linv).conj()

    def estimates(
        self, row: int, coef: np.ndarray | None = None, support: np.ndarray | None = None
    ) -> list[SparseEstimate]:
        """One estimate per set of the row, least squares unless ``coef`` is given.

        ``coef`` holds per-set taps on the row's support, or on ``support``
        (bins in selection order) when that is given.
        """
        support = self.support(row) if support is None else support
        coef = self.coef(slice(row, row + 1))[0] if coef is None else coef
        theta = np.zeros((coef.shape[0], self.d), dtype=np.complex128)
        theta[:, support] = coef
        order = np.argsort(support)
        selection = tuple(support.tolist())
        residuals = np.array(self.history[row]).T.tolist()
        return [
            SparseEstimate(
                theta=theta[s],
                support=support[order],
                selection_order=selection,
                residual_sq_history=tuple(residuals[s]),
            )
            for s in range(coef.shape[0])
        ]


def _strongest(bins: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The bins sorted and, if there are more than n, cut to the n of largest ``values[bin]``."""
    bins = np.sort(bins)
    if bins.size > n:
        bins = np.sort(bins[np.argsort(values[bins])[::-1][:n]])
    return bins


def _packed(rows: np.ndarray):
    """Sorted rows as a slice when they are consecutive, so the solver reads views."""
    if rows[-1] - rows[0] + 1 == rows.size:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _by_size(sizes: np.ndarray) -> list:
    """Positions grouped by their support size: all at once unless the sizes differ."""
    if sizes.size < 2:
        return [slice(None)] if sizes.size else []
    if sizes.min() == sizes.max():
        return [slice(None)]
    return [np.flatnonzero(sizes == size) for size in sorted(set(sizes.tolist()))]


def _padded(lists) -> np.ndarray:
    """Rows of bins padded with -1 into one array."""
    out = np.full((len(lists), max(map(len, lists), default=0)), -1, dtype=np.int64)
    for i, bins in enumerate(lists):
        out[i, : len(bins)] = bins
    return out


def _pursue(solver: _StackedSolver, cfg: OmpConfig, select) -> None:
    """The greedy round loop of every pursuit, with all of its stop rules, over every row.

    Each round ``select(solver, rows)`` returns the bins to add for each
    pursuing row, strongest first, padded with -1 and none marked in the
    solver's ``taken``; a row given no bin stops.  So does a row whose every
    set has residual energy at its target n_pilots * noise_var, a row with a
    full support, and a row whose round adds nothing; the round cap (default
    n_pilots / 4, rounded up) stops them all.  Rows advance together but
    never interact.
    """
    n = solver.n
    # The relative floor ends noiseless runs once the residual is at the level
    # of accumulated rounding error.
    first = np.array([history[0] for history in solver.history])
    targets = np.maximum(n * solver.noise_vars, 1e-20 * first)
    cap = cfg.max_iters if cfg.max_iters is not None else max(1, math.ceil(n / 4))
    rows = np.arange(solver.m.size)
    for _ in range(cap):
        met = np.all(solver.residual_sq[rows] <= targets[rows], axis=1)
        rows = rows[~(met | (solver.m[rows] >= n))]
        if not rows.size:
            break
        before = solver.m[rows]
        solver.add_bins(rows, select(solver, _packed(rows)))
        rows = rows[solver.m[rows] > before]


def _largest_correlation(solver: _StackedSolver, rows, weights=None) -> np.ndarray:
    """The single-observation rule: each row's bin of largest (weighted) correlation."""
    n = solver.n
    residual_sq = solver.residual_sq[rows, 0]
    amp = np.abs(solver.spectra(rows)[:, 0]) / n
    score = amp if weights is None else weights(rows, residual_sq) * amp
    score = np.where(solver.taken[rows], -1.0, score)
    best = np.argmax(score, axis=1)
    at = np.arange(best.size)
    # A best correlation at rounding-error level means no remaining column
    # explains the residual; selecting it would only chase noise in the
    # arithmetic, so the row stops instead.
    stop = (score[at, best] <= 0) | (amp[at, best] <= 1e-10 * np.sqrt(residual_sq / n))
    return np.where(stop, -1, best)[:, None]


def _omp_rows(d: int, pilots, y, noise_vars, cfg: OmpConfig = OmpConfig()) -> list[SparseEstimate]:
    """``omp`` on each row of one set, all pursued together."""
    solver = _StackedSolver(d, pilots, y, noise_vars)
    _pursue(solver, cfg, _largest_correlation)
    return [solver.estimates(row)[0] for row in range(y.shape[0])]


def omp(obs: Observation, cfg: OmpConfig = OmpConfig()) -> SparseEstimate:
    """Plain orthogonal matching pursuit on one observation.

    Selects the delay bin with the largest residual correlation magnitude,
    re-solves least squares on the grown support, and repeats until the
    residual energy falls to n_pilots * noise_var or the iteration cap is
    reached.  Exact float ties go to the lowest bin index.
    """
    return _omp_rows(*_stack((obs,), 1), cfg)[0]


def _warn(message: str) -> None:
    """Warn at the first calling line outside this module."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _seeded_rows(
    d: int, pilots, y, noise_vars, values, n_sets, n_pilots, dets, cfg: OmpConfig | None = None
) -> list[SparseEstimate]:
    """Each row of one set seeded with the bins its ``det`` detects in its row of ``values``.

    ``values`` are sample PDPs of ``n_sets`` sets of ``n_pilots`` pilots.  All
    rows are solved together.  The detected bins are least-squares fitted;
    without ``cfg`` that is the estimate (``algorithm_a1``), with it plain
    pursuit continues from there (``algorithm_a3``).  Warns for each row whose
    detection it trims to the strongest N bins, for each seed bin a row skips
    as dependent on the bins before it, and, without ``cfg``, for each row
    that detected nothing.
    """
    solver = _StackedSolver(d, pilots, y, noise_vars)
    n = solver.n
    seeds = []
    for row, det in zip(values, dets):
        idx = _detect(row, n_sets, n_pilots, det)
        if idx.size > n:
            _warn(
                f"detected support of {idx.size} bins exceeds {n} observations; "
                "keeping the strongest bins"
            )
        seeds.append(_strongest(idx, row, n))
    for _, k in solver.add_bins(np.arange(len(seeds)), _padded(seeds)):
        _warn(f"seed bin {k} is linearly dependent on the support; skipped")
    if cfg is not None:
        _pursue(solver, cfg, _largest_correlation)
    else:  # the first bin is never dependent, so an empty support detected nothing
        for _ in range(int(np.count_nonzero(solver.m == 0))):
            _warn("no delay bin cleared the detection threshold; returning zero estimates")
    return [solver.estimates(row)[0] for row in range(len(seeds))]


def _seeded(sets: ObservationSet, det: DetectionConfig, cfg: OmpConfig | None):
    """``_seeded_rows`` on one row per observation of the set, all detecting in its sample PDP."""
    n = sets.n_sets
    values = np.broadcast_to(sample_pdp(sets).values, (n, sets.d))
    return _seeded_rows(*_stack(sets.observations, n), values, n, sets.n_pilots, (det,) * n, cfg)


def algorithm_a1(
    sets: ObservationSet, det: DetectionConfig
) -> list[SparseEstimate]:
    """Detect occupied bins from the averaged sample PDP, then least squares.

    One support is detected from the sample PDP of all observations; each
    observation then gets its own least-squares coefficients on it, skipping
    with a warning a bin dependent on the bins before it in that observation.
    If nothing clears the threshold a warning is issued and all-zero
    estimates are returned.
    """
    return _seeded(sets, det, None)


def _a2_rows(
    d: int, pilots, y, noise_vars, values, n_sets, n_pilots, dets, cfg: OmpConfig = OmpConfig()
) -> list[SparseEstimate]:
    """``algorithm_a2`` on each row of one set, all pursued together; ``dets[r]`` detects in
    row r's prior, the sample PDP ``values[r]`` of ``n_sets`` sets of ``n_pilots`` pilots."""
    lam_prior = np.empty(values.shape)
    for lam, row, det in zip(lam_prior, values, dets):
        lam[:] = _null_level(float(row.mean()), n_pilots, d, det.noise_var)
        detected = _detect(row, n_sets, n_pilots, det)
        lam[detected] = row[detected]
    solver = _StackedSolver(d, pilots, y, noise_vars)
    n = solver.n

    def weights(rows, residual_sq: np.ndarray) -> np.ndarray:
        lam_res = _null_level(residual_sq / (n * n), n, d, solver.noise_vars[rows, 0])[:, None]
        lam = lam_prior[rows]
        denom = lam + lam_res
        return np.where(denom > 0.0, lam / np.where(denom > 0.0, denom, 1.0), 1.0)

    _pursue(solver, cfg, partial(_largest_correlation, weights=weights))
    return [solver.estimates(row)[0] for row in range(y.shape[0])]


def algorithm_a2(
    obs: Observation,
    prior_pdp: SamplePdp,
    det: DetectionConfig,
    cfg: OmpConfig = OmpConfig(),
) -> SparseEstimate:
    """Pursuit with selection scores weighted by a prior sample PDP.

    Bins whose prior value clears the detection threshold keep that value as
    their prior variance; all others fall back to the PDP's mean bin level.
    Each candidate's correlation is scaled by the Wiener gain
    prior / (prior + residual_level), so strong prior bins win ties early
    while the weighting fades as the residual shrinks.  With a flat prior the
    selection order reduces to plain pursuit.  When both levels are zero the
    weighting carries no information and the score falls back to the plain
    correlation.
    """
    d, size = obs.pattern.d, prior_pdp.values.size
    if size != d:
        raise ValueError(f"prior has {size} bins, observation grid has {d}")
    prior = (prior_pdp.values[None], prior_pdp.n_sets, prior_pdp.n_pilots)
    return _a2_rows(*_stack((obs,), 1), *prior, (det,), cfg)[0]


def algorithm_a3(
    sets: ObservationSet,
    det: DetectionConfig,
    cfg: OmpConfig = OmpConfig(),
) -> list[SparseEstimate]:
    """Seed each pursuit with the detected support, then continue greedily.

    The support detected from the averaged sample PDP is least-squares
    modeled up front for every observation; plain pursuit iterations follow
    independently per observation.  A seed bin that is linearly dependent on
    the bins before it in an observation is skipped there, with a warning.
    An empty detection degenerates to plain pursuit on each observation.
    """
    return _seeded(sets, det, cfg)


def _wiener_coefficients(solver: _StackedSolver) -> np.ndarray:
    """Per-set MMSE coefficients on the shared support of row 0, in selection order.

    Each bin's variance is estimated across the sets as the least-squares
    power minus its noise part, lambda_k = mean_s(|c_sk|^2 - sigma_s^2
    [G_s^-1]_kk), with diag(G_s^-1) the squared column norms of the inverse
    factor L_s^-1.  Bins with lambda_k <= 0 get zero; the others solve the
    Wiener system (G_s + sigma_s^2 diag(1/lambda)) theta = H_s^H y_s, the one
    ``estimate_mmse_oracle`` solves with the true variances.
    """
    m, noise_vars = int(solver.m[0]), solver.noise_vars[0]
    linv = solver.linv[0, :, :m, :m]
    inv_diag = np.sum(linv.real**2 + linv.imag**2, axis=1)
    least_squares = solver.coef(slice(0, 1))[0]
    lam = np.mean(np.abs(least_squares) ** 2 - noise_vars[:, None] * inv_diag, axis=0)
    keep = np.flatnonzero(lam > 0.0)
    coef = np.zeros_like(least_squares)
    if keep.size:
        ridge = noise_vars[:, None] / lam[keep]
        bins = solver.support(0)[keep]
        coef[:, keep] = support_solve(solver.kernel[0], solver.proj[0], bins, ridge)
    return coef


def _ex_omp_row(
    d: int, pilots, y, noise_vars, det: DetectionConfig, cfg: OmpConfig = OmpConfig()
) -> list[SparseEstimate]:
    """``ex_omp`` on one row of stacked sets: (1, sets, N) pilots and values, (1, sets) noise."""
    solver = _StackedSolver(d, pilots, y, noise_vars)
    n_sets, n = y.shape[1:]
    shrink = n_sets > 1 and noise_vars.min() > 0.0

    def admissions(solver: _StackedSolver, rows) -> np.ndarray:
        values = _check_powers("sample PDP values", _pdp(solver.spectra(rows)[0], n))
        above = _detect(values, n_sets, n, det)
        above = above[~solver.taken[0, above]]
        if above.size:
            return above[np.argsort(values[above])[::-1]][None, :]
        combined = np.where(solver.taken[0], -1.0, values)
        best = int(np.argmax(combined))
        if (shrink and solver.m[0]) or combined[best] <= 0:
            return np.empty((1, 0), dtype=np.int64)
        return np.array([[best]])

    _pursue(solver, cfg, admissions)
    if shrink and solver.m[0]:
        return solver.estimates(0, _wiener_coefficients(solver))
    if noise_vars.max() == 0.0 and solver.m[0]:
        # Leakage bins admitted in the same round as the true taps end with
        # coefficients at rounding level in every set; re-solve without them.
        peak = np.abs(solver.coef(slice(0, 1))[0]).max(axis=0)
        kept = solver.support(0)[peak > 1e-9 * peak.max()]
        coef = support_solve(solver.kernel[0], solver.proj[0], kept, 0.0)
        return solver.estimates(0, coef, kept)
    return solver.estimates(0)


def ex_omp(
    sets: ObservationSet,
    det: DetectionConfig,
    cfg: OmpConfig = OmpConfig(),
) -> list[SparseEstimate]:
    """Lockstep pursuit over several observations with one shared support.

    Each round averages the squared residual matched-filter spectra of all
    observations into a combined sample PDP and admits, strongest first and
    up to a support of n_pilots bins, the ones ``detect_support`` finds in it
    that are not yet taken; so round 0 admits what it finds in the
    observations.  A round that admits nothing takes the bin with the
    largest combined value, except after round 0 with several sets, all of
    them noisy, where it ends the pursuit.  The other stop rules are those of
    every pursuit (see ``_pursue``).

    With several noisy sets each set then gets Wiener/MMSE coefficients with
    bin variances estimated across the sets (see ``_wiener_coefficients``),
    so bins that carry less power than their least-squares noise are zeroed.
    Otherwise the coefficients are per-set least squares, and a noiseless
    call finally drops the support bins whose coefficients are at rounding
    level in every set (with n_pilots = d, every bin above zero is admitted)
    and refits the rest by ``support_solve``, as the Wiener step solves its
    kept bins.
    ``residual_sq_history`` records the least-squares residuals that drive
    the pursuit, in every case.

    The sets are stacked once for ``_ex_omp_row``, the form that the sweep
    calls on a trial's arrays.  Returns one estimate per observation, all
    sharing the same support.
    """
    return _ex_omp_row(*_stack(sets.observations, 1), det, cfg)
