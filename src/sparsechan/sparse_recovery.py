"""Greedy sparse recovery of delay-domain taps, with optional prior knowledge.

The estimators share one engine, in the manner of Batch-OMP (Rubinstein,
Zibulevsky & Elad 2008): least squares for a stack of observation sets on one
shared, growing support, with Gram entries looked up in the circulant kernel
of H^H H, one inverse-Cholesky row update per bin, and batched FFTs for the
residuals and their spectra.  Around the engine sit three ways of using side
information gathered from extra pilot observations:

* ``algorithm_a1``  detect occupied bins from the sample PDP of all sets,
                    then fit each observation by least squares on that support
* ``algorithm_a2``  run the pursuit with selection scores reweighted by an
                    MMSE-style gain built from the prior sample PDP
* ``algorithm_a3``  seed each observation's pursuit with the detected bins,
                    then continue plain greedy selection
* ``ex_omp``        run pursuits on all observation sets in lockstep with one
                    shared support, admitting every bin whose combined
                    residual spectrum clears a chi-square detection threshold

One round loop, ``_pursue``, runs every pursuit and holds every stop rule;
the estimators differ in their seed bins and in the rule that picks each
round's bins.

Detection treats each sample-PDP bin as an averaged squared magnitude of
circular Gaussian noise: bin values are compared against a scaled chi-square
quantile with two degrees of freedom per averaged set.  One function,
``detection_threshold``, sets that threshold for every consumer: ``a1``,
``a2``, ``a3``, each ``ex_omp`` round and the false-alarm calibration.  The
quantile, ``chi2_inv_cdf``, inverts the regularized incomplete gamma function
with the ``math`` module alone (series and continued fraction, then Halley
steps on the tail that holds the answer) and memoizes each ``(prob, dof)``
pair, so the package needs no scipy.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .signal_model import (
    Observation,
    ObservationSet,
    _spectrum,
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
    if not (dof >= 1 and float(dof).is_integer()):
        raise ValueError(f"dof must be a positive integer, got {dof}")
    return _chi2_quantile(float(prob), int(dof))


_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min / _EPS
_MAX_HALLEY_STEPS = 64


def _regularized_gamma(a: float, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)) for x > 0, each accurate to a few ulps.

    The smaller of the two is computed directly, by the power series of P
    below x = a + 1 and by Lentz's continued fraction for Q above it
    (Numerical Recipes, section 6.2); the other is its complement.
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
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    q = prefactor * h
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

    ``values[k]`` estimates the power in delay bin k; ``scale`` is the mean
    bin level implied by the observations' total energy, which is what noise
    and leakage average to, and is the natural unit for detection thresholds.
    ``n_sets`` is the number of independent averages (it sets the chi-square
    degrees of freedom, 2 per set).
    """

    values: np.ndarray
    n_sets: int
    scale: float
    n_pilots: int

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a non-empty 1-d vector")
        if np.any(v < 0):
            raise ValueError("sample PDP values cannot be negative")
        if self.n_sets < 1:
            raise ValueError("n_sets must be positive")
        if self.scale < 0:
            raise ValueError("scale cannot be negative")
        if self.n_pilots < 1:
            raise ValueError("n_pilots must be positive")
        object.__setattr__(self, "values", v)


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
        if self.noise_var < 0:
            raise ValueError("noise variance cannot be negative")


@dataclass(frozen=True)
class OmpConfig:
    """Knobs of the greedy pursuit.

    max_iters bounds the number of selection rounds (default: n_pilots / 4,
    rounded up).  The pursuit stops early once the squared residual norm
    drops to residual_gamma * n_pilots * noise_var.
    """

    max_iters: int | None = None
    residual_gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be positive when given")
        if not self.residual_gamma > 0:  # also rejects NaN
            raise ValueError(f"residual_gamma must be positive, got {self.residual_gamma}")


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


def _pdp(spectra: np.ndarray, energies: np.ndarray, n_pilots: int) -> SamplePdp:
    """Sample PDP of stacked matched-filter spectra and their vectors' energies."""
    nn = n_pilots * n_pilots
    values = np.mean(np.abs(spectra) ** 2 / nn, axis=0)
    return SamplePdp(values, spectra.shape[0], float(np.mean(energies)) / nn, n_pilots)


def sample_pdp(sets: ObservationSet) -> SamplePdp:
    """Average the squared matched-filter spectra of the observations.

    The sets are independent, so they are averaged incoherently, power by
    power, giving 2 * n_sets chi-square degrees of freedom per noise bin.
    """
    _, index, y = _stack(sets.observations)
    return _pdp(_spectrum(sets.d, index, y), np.vecdot(y, y).real, sets.n_pilots)


def _null_level(scale: float, n_pilots: int, d: int, noise_var: float) -> float:
    """Mean power of a signal-free spectrum bin, from the all-bin mean.

    ``scale`` is the spectrum's mean bin power, ||y||^2 / N^2 per observation,
    which equals (signal power + noise power) / N.  A signal-free bin sees
    only the noise floor noise_var / N plus leakage from the occupied bins,
    and leakage through a random pilot pattern drawn without replacement is
    attenuated by the finite-population factor (d - N)/(d - 1).  Splitting
    the mean with the known noise variance and shrinking only the signal part
    keeps the detection threshold calibrated on strongly clustered channels,
    where the raw mean can overshoot the signal-free level by half.  The
    signed excess keeps the estimate unbiased on noise-only input; the result
    is a convex combination of two nonnegative terms, so it stays >= 0.
    """
    noise_floor = noise_var / n_pilots
    factor = (d - n_pilots) / (d - 1) if d > 1 else 1.0
    factor = min(max(factor, 0.0), 1.0)
    return (scale - noise_floor) * factor + noise_floor


def detection_threshold(pdp: SamplePdp, det: DetectionConfig) -> float:
    """Per-bin power level that noise alone exceeds with probability alpha.

    A noise-plus-leakage bin averaged over n_sets observations is distributed
    as mean_level / (2 n_sets) times a chi-square with 2 n_sets degrees of
    freedom; the threshold is that distribution's (1 - alpha) quantile.  The
    mean level is the signal-free bin estimate from the data (pdp.scale split
    and corrected via det.noise_var) unless the PDP is empty, in which case
    det.noise_var per pilot is used.
    """
    mu = _null_level(pdp.scale, pdp.n_pilots, pdp.values.size, det.noise_var)
    if mu <= 0.0:
        mu = det.noise_var / pdp.n_pilots
    quantile = chi2_inv_cdf(1.0 - det.alpha, 2 * pdp.n_sets)
    return mu / (2.0 * pdp.n_sets) * quantile


def detect_support(pdp: SamplePdp, det: DetectionConfig) -> np.ndarray:
    """Sorted indices of the sample-PDP bins above the chi-square threshold."""
    return np.flatnonzero(pdp.values > detection_threshold(pdp, det))


class _StackedSolver:
    """Incremental least squares of B observations on one shared, growing support.

    Keeps each set's inverse Cholesky factor L_s^-1 of G_s = H_s^H H_s on the
    support, so c_s = L_s^-H L_s^-1 H_s^H y_s.  A bin that is (numerically)
    dependent on the support in any set raises before anything changes.
    ``history`` holds the residual energies, first and after each growing ``add_bins``.
    """

    __slots__ = (
        "d", "n", "pilots", "y", "kernel", "proj", "linv", "z", "sel", "m",
        "coef", "residual", "residual_sq", "history",
    )

    def __init__(self, observations: tuple[Observation, ...]) -> None:
        n_sets = len(observations)
        self.d = observations[0].pattern.d
        self.n = observations[0].pattern.n
        pilots, self.pilots, self.y = _stack(observations)
        self.kernel = gram_kernel(self.d, pilots)
        self.proj = _spectrum(self.d, self.pilots, self.y)
        # Only the leading m x m block is read, and add_bin writes each row
        # in full, so neither buffer needs zeroing.
        # The Gram matrices have rank at most n, so at most n bins fit.
        self.linv = np.empty((n_sets, self.n, self.n), dtype=np.complex128)
        self.z = np.empty((n_sets, self.n), dtype=np.complex128)
        self.sel = np.empty(self.n, dtype=np.int64)
        self.m = 0
        self.coef = np.empty((n_sets, 0), dtype=np.complex128)
        self.residual = self.y
        self.residual_sq = np.vecdot(self.y, self.y).real
        self.history = [self.residual_sq]

    @property
    def support(self) -> np.ndarray:
        """Selected bins in selection order."""
        return self.sel[: self.m]

    @property
    def full(self) -> bool:
        return self.m >= self.sel.size

    def residual_pdp(self) -> SamplePdp:
        """Sample PDP of the residuals (of the observations while nothing is selected)."""
        return _pdp(_spectrum(self.d, self.pilots, self.residual), self.residual_sq, self.n)

    def add_bin(self, k: int) -> None:
        m = self.m
        if m:
            linv = self.linv[:, :m, :m]
            w = np.matvec(linv, self.kernel[:, (k - self.sel[:m]) % self.d])
            gap = self.n - np.vecdot(w, w).real
        else:
            gap = np.full(len(self.y), float(self.n))  # G[k, k] = n
        if gap.min() <= 1e-12 * self.n:
            raise np.linalg.LinAlgError(
                f"rank-deficient support {sorted(self.support.tolist() + [int(k)])}"
            )
        r = 1.0 / np.sqrt(gap)
        p = self.proj[:, k]
        if m:
            # With G = L L^H and w = L^-1 G[S, k], the grown factor is
            # [[L, 0], [w^H, delta]] with delta^2 = gap, and its inverse has
            # the new row [-w^H L^-1 / delta, 1 / delta].
            self.linv[:, m, :m] = np.vecmat(w, linv) * -r[:, None]
            p = p - np.vecdot(w, self.z[:, :m])
        self.linv[:, m, m] = r
        self.linv[:, m, m + 1 :] = 0.0
        self.z[:, m] = p * r
        self.sel[m] = k
        self.m = m + 1

    def add_bins(self, bins) -> list[int]:
        """Add bins in order until full, then solve; returns those skipped as dependent."""
        m, skipped = self.m, []
        for k in bins:
            if self.full:
                break
            try:
                self.add_bin(int(k))
            except np.linalg.LinAlgError:
                skipped.append(int(k))
        if self.m > m:
            self.refresh()
            self.history.append(self.residual_sq)
        return skipped

    def refresh(self) -> None:
        """Recompute coefficients and residuals for the current support."""
        m = self.m
        # c = L^-H z, i.e. conj(z^H L^-1).
        self.coef = np.vecmat(self.z[:, :m], self.linv[:, :m, :m]).conj()
        fitted = np.fft.fft(self.theta(self.coef), axis=1).ravel()[self.pilots]
        self.residual = self.y - fitted.reshape(self.y.shape)
        self.residual_sq = np.vecdot(self.residual, self.residual).real

    def theta(self, coef: np.ndarray) -> np.ndarray:
        theta = np.zeros((coef.shape[0], self.d), dtype=np.complex128)
        theta[:, self.support] = coef
        return theta

    def estimates(self, coef: np.ndarray | None = None) -> list[SparseEstimate]:
        """One estimate per set on the shared support; least squares unless coef is given."""
        coef = self.coef if coef is None else coef
        theta = self.theta(coef)
        order = np.argsort(self.support)
        selection = tuple(self.support.tolist())
        residuals = np.array(self.history).T.tolist()
        return [
            SparseEstimate(
                theta=theta[s],
                support=self.support[order],
                selection_order=selection,
                residual_sq_history=tuple(residuals[s]),
            )
            for s in range(coef.shape[0])
        ]


def _pursue(solver: _StackedSolver, cfg: OmpConfig, noise_vars, select) -> None:
    """The greedy round loop of every pursuit, with all of its stop rules.

    Each round ``select(solver, taken)`` returns the bins to add, strongest
    first and none in ``taken`` (the support and the bins skipped as
    dependent), or nothing, which stops the loop.  So do: every set's residual
    energy at its target residual_gamma * n_pilots * noise_var (scalar or per
    set), the round cap (default n_pilots / 4, rounded up), a full support,
    and a round that adds nothing.
    """
    n = solver.n
    # The relative floor ends noiseless runs once the residual is at the level
    # of accumulated rounding error.
    targets = np.maximum(cfg.residual_gamma * n * noise_vars, 1e-20 * solver.history[0])
    single = targets.size == 1
    if single:  # a scalar comparison is cheaper than np.all on one element
        targets = float(targets[0])
    cap = cfg.max_iters if cfg.max_iters is not None else max(1, math.ceil(n / 4))
    blocked: list[int] = []
    for _ in range(cap):
        residual_sq = solver.residual_sq
        met = residual_sq[0] <= targets if single else np.all(residual_sq <= targets)
        if met or solver.full:
            break
        taken = np.concatenate((solver.support, blocked)) if blocked else solver.support
        m = solver.m
        blocked += solver.add_bins(select(solver, taken))
        if solver.m == m:
            break


def _largest_correlation(
    solver: _StackedSolver, taken: np.ndarray, weights_fn=None
) -> list[int]:
    """The single-observation rule: the bin of largest (weighted) correlation."""
    n = solver.n
    residual_sq = float(solver.residual_sq[0])
    amp = np.abs(_spectrum(solver.d, solver.pilots, solver.residual)[0]) / n
    score = amp if weights_fn is None else weights_fn(residual_sq) * amp
    if taken.size:
        score = score.copy()
        score[taken] = -1.0
    best = int(np.argmax(score))
    # A best correlation at rounding-error level means no remaining column
    # explains the residual; selecting it would only chase noise in the
    # arithmetic, so stop instead.
    if score[best] <= 0 or amp[best] <= 1e-10 * math.sqrt(residual_sq / n):
        return []
    return [best]


def omp(obs: Observation, cfg: OmpConfig = OmpConfig()) -> SparseEstimate:
    """Plain orthogonal matching pursuit on one observation.

    Selects the delay bin with the largest residual correlation magnitude,
    re-solves least squares on the grown support, and repeats until the
    residual energy falls to residual_gamma * n_pilots * noise_var or the
    iteration cap is reached.  Exact float ties go to the lowest bin index.
    """
    solver = _StackedSolver((obs,))
    _pursue(solver, cfg, obs.noise_var, _largest_correlation)
    return solver.estimates()[0]


def _warn(message: str) -> None:
    """Warn at the first calling line outside this module."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _seeded_estimate(
    obs: Observation, pdp: SamplePdp, det: DetectionConfig, cfg: OmpConfig | None = None
) -> SparseEstimate:
    """One observation's estimate seeded with the bins detected in ``pdp``.

    The detected bins are least-squares fitted; without ``cfg`` that is the
    estimate (``algorithm_a1``), with it plain pursuit continues from there
    (``algorithm_a3``).  Warns when it trims the detection to the strongest
    n_pilots bins, for each bin it skips as dependent on the bins before it,
    and, without ``cfg``, when nothing was detected.
    """
    solver = _StackedSolver((obs,))
    idx = detect_support(pdp, det)
    if idx.size > solver.n:
        _warn(
            f"detected support of {idx.size} bins exceeds {solver.n} observations; "
            "keeping the strongest bins"
        )
        strongest = np.argsort(pdp.values[idx])[::-1][: solver.n]
        idx = np.sort(idx[strongest])
    for k in solver.add_bins(idx):
        _warn(f"seed bin {k} is linearly dependent on the support; skipped")
    if cfg is not None:
        _pursue(solver, cfg, obs.noise_var, _largest_correlation)
    elif not solver.m:  # the first bin is never dependent, so nothing was detected
        _warn("no delay bin cleared the detection threshold; returning zero estimates")
    return solver.estimates()[0]


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
    pdp = sample_pdp(sets)
    return [_seeded_estimate(obs, pdp, det) for obs in sets.observations]


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
    if prior_pdp.values.size != obs.pattern.d:
        raise ValueError(
            f"prior has {prior_pdp.values.size} bins, observation grid has {obs.pattern.d}"
        )
    threshold = detection_threshold(prior_pdp, det)
    noise_level = _null_level(
        prior_pdp.scale, prior_pdp.n_pilots, prior_pdp.values.size, det.noise_var
    )
    lam_prior = np.where(prior_pdp.values > threshold, prior_pdp.values, noise_level)
    n = obs.pattern.n
    d = obs.pattern.d

    def weights_fn(residual_sq: float) -> np.ndarray:
        lam_res = _null_level(residual_sq / (n * n), n, d, obs.noise_var)
        denom = lam_prior + lam_res
        return np.where(denom > 0.0, lam_prior / np.where(denom > 0.0, denom, 1.0), 1.0)

    solver = _StackedSolver((obs,))
    select = partial(_largest_correlation, weights_fn=weights_fn)
    _pursue(solver, cfg, obs.noise_var, select)
    return solver.estimates()[0]


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
    pdp = sample_pdp(sets)
    return [_seeded_estimate(obs, pdp, det, cfg) for obs in sets.observations]


def _wiener_coefficients(solver: _StackedSolver, noise_vars: np.ndarray) -> np.ndarray:
    """Per-set MMSE coefficients on the shared support, in selection order.

    Each bin's variance is estimated across the sets as the least-squares
    power minus its noise part, lambda_k = mean_s(|c_sk|^2 - sigma_s^2
    [G_s^-1]_kk), with diag(G_s^-1) the squared column norms of the inverse
    factor L_s^-1.  Bins with lambda_k <= 0 get zero; the others solve the
    Wiener system (G_s + sigma_s^2 diag(1/lambda)) theta = H_s^H y_s, the one
    ``estimate_mmse_oracle`` solves with the true variances.
    """
    linv = solver.linv[:, : solver.m, : solver.m]
    inv_diag = np.sum(linv.real**2 + linv.imag**2, axis=1)
    lam = np.mean(np.abs(solver.coef) ** 2 - noise_vars[:, None] * inv_diag, axis=0)
    keep = np.flatnonzero(lam > 0.0)
    coef = np.zeros_like(solver.coef)
    if keep.size:
        ridge = noise_vars[:, None] / lam[keep]
        bins = solver.support[keep]
        coef[:, keep] = support_solve(solver.kernel, solver.proj, bins, ridge)
    return coef


def ex_omp(
    sets: ObservationSet,
    det: DetectionConfig,
    cfg: OmpConfig = OmpConfig(),
) -> list[SparseEstimate]:
    """Lockstep pursuit over several observations with one shared support.

    Each round averages the squared residual matched-filter spectra of all
    observations into a combined sample PDP and admits every bin above its
    ``detection_threshold`` (strongest first), splitting the null level with
    ``det.noise_var`` as ``detect_support`` does, so round 0 admits what
    ``detect_support`` finds in the observations.  A round that admits
    nothing takes the bin with the largest combined value, except after
    round 0 with several sets, all of them noisy, where it ends the pursuit.
    The other stop rules are those of every pursuit (see ``_pursue``).

    With several noisy sets each set then gets Wiener/MMSE coefficients with
    bin variances estimated across the sets (see ``_wiener_coefficients``),
    so bins that carry less power than their least-squares noise are zeroed.
    Otherwise the coefficients are per-set least squares, and several
    noiseless sets finally drop the support bins whose coefficients are at
    rounding level in every set and re-solve on the rest.
    ``residual_sq_history`` records the least-squares residuals that drive
    the pursuit, in every case.

    Returns one estimate per observation, all sharing the same support.
    """
    noise_vars = np.array([o.noise_var for o in sets.observations])
    shrink = sets.n_sets > 1 and noise_vars.min() > 0.0

    def admissions(solver: _StackedSolver, taken: np.ndarray) -> np.ndarray | list[int]:
        pdp = solver.residual_pdp()
        # A zero null level (noiseless, with n_pilots == d) admits nothing by threshold.
        threshold = detection_threshold(pdp, det) or math.inf
        combined = pdp.values.copy()
        combined[taken] = -1.0
        above = np.flatnonzero(combined > threshold)
        if above.size:
            return above[np.argsort(combined[above])[::-1]]
        best = int(np.argmax(combined))
        if (shrink and solver.m) or combined[best] <= 0:
            return []
        return [best]

    solver = _StackedSolver(sets.observations)
    _pursue(solver, cfg, noise_vars, admissions)
    if shrink and solver.m:
        return solver.estimates(_wiener_coefficients(solver, noise_vars))
    if sets.n_sets > 1 and noise_vars.max() == 0.0 and solver.m:
        # Leakage bins admitted in the same round as the true taps end with
        # coefficients at rounding level in every set; re-solve without them.
        peak = np.abs(solver.coef).max(axis=0)
        kept = solver.support[peak > 1e-9 * peak.max()]
        history = solver.history
        solver = _StackedSolver(sets.observations)
        solver.add_bins(kept)
        solver.history = history
    return solver.estimates()
