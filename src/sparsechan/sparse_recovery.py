"""Greedy sparse recovery of delay-domain taps, with optional prior knowledge.

The estimators share one engine, in the manner of Batch-OMP (Rubinstein,
Zibulevsky & Elad 2008): least squares for a stack of observation sets on one
shared, growing support, with Gram entries looked up in the circulant kernel
of H^H H, one inverse-Cholesky row update per bin, and batched FFTs for the
residuals and their spectra.  Around the engine sit three ways of using side
information gathered from extra pilot observations:

* ``algorithm_a1``  detect occupied bins from an averaged sample PDP, then
                    least squares on the detected support only
* ``algorithm_a2``  run the pursuit with selection scores reweighted by an
                    MMSE-style gain built from the prior sample PDP
* ``algorithm_a3``  seed the pursuit's support with the detected bins, then
                    continue plain greedy selection
* ``ex_omp``        run pursuits on all observation sets in lockstep with one
                    shared support, admitting every bin whose combined
                    residual spectrum clears a chi-square detection threshold

With several noisy sets, ``ex_omp`` stops once a later round admits nothing
and gives Wiener/MMSE coefficients with bin variances estimated across the
sets; otherwise it keeps least squares, dropping on several noiseless sets
the bins whose coefficients are at rounding level.  Its
``residual_sq_history`` records the least-squares residuals either way.

Detection treats each sample-PDP bin as an averaged squared magnitude of
circular Gaussian noise: bin values are compared against a scaled chi-square
quantile with two degrees of freedom per averaged set.  One function,
``detection_threshold``, sets that threshold for every consumer: ``a1``,
``a2``, ``a3``, each ``ex_omp`` round and the false-alarm calibration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .baseline import SupportSet
from .signal_model import (
    Observation,
    ObservationSet,
    gram_kernel,
    support_gram,
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

    Twice the inverse of the regularized lower incomplete gamma function at
    shape dof / 2.  For dof = 2 this reduces to -2 ln(1 - prob), which tests
    use as a closed-form cross-check.
    """
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must lie strictly inside (0, 1), got {prob}")
    if dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    return 2.0 * float(gammaincinv(0.5 * dof, prob))


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
    signal-free bin; leave it at zero when the noise power is unknown and the
    whole mean should be treated as leakage.  ``ex_omp`` ignores it and splits
    with the mean noise variance of its observations.
    """

    alpha: float = 1e-3
    noise_var: float = 0.0

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
    coeffs: np.ndarray
    selection_order: tuple[int, ...]
    residual_sq_history: tuple[float, ...]

    def channel_freq(self) -> np.ndarray:
        """Transfer function on all subcarriers implied by the taps."""
        return np.fft.fft(self.theta)


def _stack(observations: tuple[Observation, ...]) -> tuple[np.ndarray, ...]:
    """Pilot index rows, their flat positions in an (n_sets, d) array, and the y rows."""
    pilots = np.stack([o.pattern.indices for o in observations])
    index = np.arange(len(observations))[:, None] * observations[0].pattern.d + pilots
    return pilots, index.ravel(), np.stack([o.y for o in observations])


def _spectrum(d: int, index: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Matched filter H_s^H r_s of every set's pilot-domain vector, in one batched FFT."""
    z = np.zeros((r.shape[0], d), dtype=np.complex128)
    z.ravel()[index] = r.ravel()
    return d * np.fft.ifft(z, axis=1)


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


def detect_support(pdp: SamplePdp, det: DetectionConfig) -> SupportSet:
    """Bins of the sample PDP that rise above the chi-square threshold."""
    threshold = detection_threshold(pdp, det)
    return SupportSet(indices=np.flatnonzero(pdp.values > threshold))


class _StackedSolver:
    """Incremental least squares of B observations on one shared, growing support.

    Keeps each set's inverse Cholesky factor L_s^-1 of G_s = H_s^H H_s on the
    support, so c_s = L_s^-H L_s^-1 H_s^H y_s.  A bin that is (numerically)
    dependent on the support in any set raises before anything changes.
    """

    __slots__ = (
        "d", "n", "pilots", "y", "kernel", "proj", "linv", "z", "sel", "m",
        "coef", "residual", "residual_sq",
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
        skipped = []
        for k in bins:
            if self.full:
                break
            try:
                self.add_bin(int(k))
            except np.linalg.LinAlgError:
                skipped.append(int(k))
        self.refresh()
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

    def split(self) -> list[_StackedSolver]:
        """One single-set solver per set, each continuing from the shared support.

        The parts share this solver's buffers, so it must not be used after.
        """
        n_sets = self.y.shape[0]
        per_set = ("y", "kernel", "proj", "linv", "z", "coef", "residual", "residual_sq")
        parts = []
        for s in range(n_sets):
            part = object.__new__(_StackedSolver)
            part.d, part.n, part.m = self.d, self.n, self.m
            part.pilots = self.pilots.reshape(n_sets, -1)[s] - s * self.d
            part.sel = self.sel.copy()
            for name in per_set:
                setattr(part, name, getattr(self, name)[s : s + 1])
            parts.append(part)
        return parts

    def estimates(
        self, history: list[np.ndarray], coef: np.ndarray | None = None
    ) -> list[SparseEstimate]:
        """One estimate per set on the shared support; least squares unless coef is given."""
        coef = self.coef if coef is None else coef
        theta = self.theta(coef)
        order = np.argsort(self.support)
        selection = tuple(self.support.tolist())
        residuals = np.array(history).T.tolist()
        return [
            SparseEstimate(
                theta=theta[s],
                support=self.support[order],
                coeffs=coef[s, order],
                selection_order=selection,
                residual_sq_history=tuple(residuals[s]),
            )
            for s in range(coef.shape[0])
        ]


def _residual_target(cfg: OmpConfig, n_pilots: int, noise_var, y_sq):
    # Scalars or per-set arrays.  The relative floor ends noiseless runs once
    # the residual is at the level of accumulated rounding error.
    return np.maximum(cfg.residual_gamma * n_pilots * noise_var, 1e-20 * y_sq)


def _default_iters(cfg: OmpConfig, n_pilots: int) -> int:
    if cfg.max_iters is not None:
        return cfg.max_iters
    return max(1, math.ceil(n_pilots / 4))


def _pursue(
    solver: _StackedSolver,
    cfg: OmpConfig,
    noise_var: float,
    history: list[np.ndarray],
    weights_fn=None,
) -> None:
    """Greedy selection loop shared by the single-set pursuit variants."""
    n = solver.n
    target = _residual_target(cfg, n, noise_var, history[0][0])
    for _ in range(_default_iters(cfg, n)):
        residual_sq = float(solver.residual_sq[0])
        if residual_sq <= target or solver.full:
            break
        amp = np.abs(_spectrum(solver.d, solver.pilots, solver.residual)[0]) / n
        score = amp if weights_fn is None else weights_fn(residual_sq) * amp
        if solver.m:
            score = score.copy()
            score[solver.support] = -1.0
        best = int(np.argmax(score))
        if score[best] <= 0:
            break
        # A best correlation at rounding-error level means no remaining column
        # explains the residual; selecting it would only chase noise in the
        # arithmetic, so stop instead.
        if amp[best] <= 1e-10 * math.sqrt(residual_sq / n):
            break
        solver.add_bin(best)
        solver.refresh()
        history.append(solver.residual_sq)


def omp(obs: Observation, cfg: OmpConfig = OmpConfig()) -> SparseEstimate:
    """Plain orthogonal matching pursuit on one observation.

    Selects the delay bin with the largest residual correlation magnitude,
    re-solves least squares on the grown support, and repeats until the
    residual energy falls to residual_gamma * n_pilots * noise_var or the
    iteration cap is reached.  Exact float ties go to the lowest bin index.
    """
    solver = _StackedSolver((obs,))
    history = [solver.residual_sq]
    _pursue(solver, cfg, obs.noise_var, history)
    return solver.estimates(history)[0]


def _seeded_solver(
    sets: ObservationSet, det: DetectionConfig
) -> tuple[_StackedSolver, list[np.ndarray]]:
    """A solver seeded with the bins detected in all observations, and its history.

    Warns when it trims the detection to the strongest n_pilots bins, and for
    each bin it skips as dependent on the bins before it.
    """
    solver = _StackedSolver(sets.observations)
    history = [solver.residual_sq]
    pdp = solver.residual_pdp()
    idx = detect_support(pdp, det).indices
    if idx.size > solver.n:
        warnings.warn(
            f"detected support of {idx.size} bins exceeds {solver.n} observations; "
            "keeping the strongest bins",
            stacklevel=3,
        )
        strongest = np.argsort(pdp.values[idx])[::-1][: solver.n]
        idx = np.sort(idx[strongest])
    for k in solver.add_bins(idx):
        warnings.warn(
            f"seed bin {k} is linearly dependent on the support; skipped", stacklevel=3
        )
    if solver.m:
        history.append(solver.residual_sq)
    return solver, history


def algorithm_a1(
    sets: ObservationSet, det: DetectionConfig = DetectionConfig()
) -> list[SparseEstimate]:
    """Detect occupied bins from the averaged sample PDP, then least squares.

    One shared support is detected from all observations; each observation
    then gets its own least-squares coefficients on that support, skipping
    with a warning a bin dependent on the bins before it.  If nothing clears
    the threshold a warning is issued and all-zero estimates are returned.
    """
    solver, history = _seeded_solver(sets, det)
    if not solver.m:  # the first bin is never dependent, so nothing was detected
        warnings.warn(
            "no delay bin cleared the detection threshold; returning zero estimates",
            stacklevel=2,
        )
    return solver.estimates(history)


def algorithm_a2(
    obs: Observation,
    prior_pdp: SamplePdp,
    det: DetectionConfig = DetectionConfig(),
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
    history = [solver.residual_sq]
    _pursue(solver, cfg, obs.noise_var, history, weights_fn)
    return solver.estimates(history)[0]


def algorithm_a3(
    sets: ObservationSet,
    det: DetectionConfig = DetectionConfig(),
    cfg: OmpConfig = OmpConfig(),
) -> list[SparseEstimate]:
    """Seed each pursuit with the detected support, then continue greedily.

    The support detected from the averaged sample PDP is least-squares
    modeled up front for every observation; plain pursuit iterations follow
    independently per observation.  A seed bin that is linearly dependent on
    the seed support in any observation is skipped, with a warning.  An empty
    detection degenerates to plain pursuit on each observation.
    """
    solver, history = _seeded_solver(sets, det)
    estimates = []
    for s, part in enumerate(solver.split()):
        part_history = [h[s : s + 1] for h in history]
        _pursue(part, cfg, sets.observations[s].noise_var, part_history)
        estimates.extend(part.estimates(part_history))
    return estimates


def _wiener_coefficients(solver: _StackedSolver, noise_vars: np.ndarray) -> np.ndarray:
    """Per-set MMSE coefficients on the shared support, in selection order.

    Each bin's variance is estimated across the sets as the least-squares
    power minus its noise part, lambda_k = mean_s(|c_sk|^2 - sigma_s^2
    [G_s^-1]_kk), with diag(G_s^-1) the squared column norms of the inverse
    factor L_s^-1.  Bins with lambda_k <= 0 get zero; the others solve the
    Wiener system (G_s + sigma_s^2 diag(1/lambda)) theta = H_s^H y_s on the
    looked-up Gram matrix.
    """
    linv = solver.linv[:, : solver.m, : solver.m]
    inv_diag = np.sum(linv.real**2 + linv.imag**2, axis=1)
    lam = np.mean(np.abs(solver.coef) ** 2 - noise_vars[:, None] * inv_diag, axis=0)
    keep = np.flatnonzero(lam > 0.0)
    coef = np.zeros_like(solver.coef)
    if keep.size:
        bins = solver.support[keep]
        system = support_gram(solver.kernel, bins)
        diag = np.arange(keep.size)
        system[:, diag, diag] += noise_vars[:, None] / lam[keep]
        coef[:, keep] = np.linalg.solve(system, solver.proj[:, bins, None])[:, :, 0]
    return coef


def ex_omp(
    sets: ObservationSet,
    det: DetectionConfig = DetectionConfig(),
    cfg: OmpConfig = OmpConfig(),
) -> list[SparseEstimate]:
    """Lockstep pursuit over several observations with one shared support.

    Each round averages the squared residual matched-filter spectra of all
    observations into a combined sample PDP and admits every bin above its
    ``detection_threshold`` (strongest first), splitting its null level with
    the observations' mean noise variance: ``det.noise_var`` is ignored.  The
    shared support grows until every observation's residual meets the
    stopping rule, the iteration cap is reached, or the support size reaches
    the pilot count.

    With more than one observation, all of them noisy, the pursuit also
    stops after any round but the first in which no bin clears the
    threshold, and the final coefficients are shrunk: each set gets
    Wiener/MMSE coefficients with bin variances estimated across the sets
    (see ``_wiener_coefficients``), so bins that carry less power than their
    least-squares noise are zeroed.  Otherwise (a single set, or noiseless
    observations) a round that admits nothing takes the bin with the largest
    combined value so the pursuit always progresses, and the coefficients
    are per-set least squares, as in plain pursuit.  Round 0 always takes
    that fallback bin, so at least one bin is selected.  Noiseless multi-set
    runs finally drop the support bins whose least-squares coefficients are
    at rounding level in every set and re-solve on the rest.
    ``residual_sq_history`` records the least-squares residuals that drive
    the pursuit, in every case.

    Returns one estimate per observation, all sharing the same support.
    """
    n = sets.n_pilots
    noise_vars = np.array([o.noise_var for o in sets.observations])
    shrink = sets.n_sets > 1 and noise_vars.min() > 0.0
    # Every round's threshold uses the observations' mean noise variance.
    det = DetectionConfig(alpha=det.alpha, noise_var=float(np.mean(noise_vars)))
    solver = _StackedSolver(sets.observations)
    history = [solver.residual_sq]
    targets = _residual_target(cfg, n, noise_vars, solver.residual_sq)
    blocked: set[int] = set()
    for round_idx in range(_default_iters(cfg, n)):
        if np.all(solver.residual_sq <= targets) or solver.full:
            break
        pdp = solver.residual_pdp()
        # A zero null level (noiseless, with n_pilots == d) admits nothing by threshold.
        threshold = detection_threshold(pdp, det) or math.inf
        combined = pdp.values.copy()
        combined[solver.support] = -1.0
        combined[list(blocked)] = -1.0
        above = np.flatnonzero(combined > threshold)
        admitted = list(above[np.argsort(combined[above])[::-1]])
        if not admitted:
            if shrink and round_idx > 0:
                break
            best = int(np.argmax(combined))
            if combined[best] <= 0:
                break
            admitted = [best]
        m = solver.m
        blocked.update(solver.add_bins(admitted))
        if solver.m == m:
            break
        history.append(solver.residual_sq)
    if shrink and solver.m:
        return solver.estimates(history, _wiener_coefficients(solver, noise_vars))
    if sets.n_sets > 1 and noise_vars.max() == 0.0 and solver.m:
        # Leakage bins admitted in the same round as the true taps end with
        # coefficients at rounding level in every set; re-solve without them.
        peak = np.abs(solver.coef).max(axis=0)
        kept = solver.support[peak > 1e-9 * peak.max()]
        solver = _StackedSolver(sets.observations)
        solver.add_bins(kept)
    return solver.estimates(history)
