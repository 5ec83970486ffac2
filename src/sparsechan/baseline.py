"""Classical pilot-based channel estimators used as comparison points.

All estimators return a ``FullGridEstimate``: the reconstructed transfer
function on every subcarrier, plus delay-domain taps when the method produces
them.  The lineup:

* ``estimate_dft``          inverse-DFT truncation to the first n_pilots bins
* ``estimate_linear_interp``per-subcarrier linear interpolation between pilots
* ``estimate_li_mmse``      Wiener smoothing at the pilots, then interpolation
                            (from a ``PilotCovariance`` eigen-factor)
* ``estimate_mmse_oracle``  Bayesian estimate given the true tap covariance
* ``estimate_reduced_rank_ls`` least squares restricted to a known support
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PowerDelayProfile
from .signal_model import (
    Observation,
    SystemConfig,
    _check_indices,
    _check_noise_var,
    _check_pattern,
    _spectra,
    gram_kernel,
    support_solve,
)

__all__ = [
    "FullGridEstimate",
    "PilotCovariance",
    "SupportSet",
    "estimate_dft",
    "estimate_linear_interp",
    "estimate_li_mmse",
    "estimate_mmse_oracle",
    "estimate_reduced_rank_ls",
    "pilot_sample_covariance",
]


@dataclass(frozen=True)
class FullGridEstimate:
    """Transfer function on all d subcarriers; taps included when available."""

    channel_freq: np.ndarray
    theta_hat: np.ndarray | None = None


@dataclass(frozen=True)
class SupportSet:
    """Whole, distinct, nonnegative delay-bin indices, kept sorted."""

    indices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", _check_indices("support indices", self.indices, np.inf))

    @property
    def size(self) -> int:
        return int(self.indices.size)


def _estimate(theta: np.ndarray) -> FullGridEstimate:
    """The estimate of one row of taps, (1, d), with the transfer function the sweep computes."""
    return FullGridEstimate(channel_freq=np.fft.fft(theta)[0], theta_hat=theta[0])


def _dft_taps(d: int, pilots: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``estimate_dft``'s taps for each row of y: (rows, d)."""
    n = y.shape[-1]
    taps = _spectra(d, pilots, y) / n
    theta = np.zeros_like(taps)
    theta[:, :n] = taps[:, :n]
    return theta


def estimate_dft(obs: Observation, config: SystemConfig) -> FullGridEstimate:
    """Matched filter scaled by 1/n_pilots, truncated to the first n_pilots bins.

    With n_pilots uniformly spaced pilots this is the classical inverse-DFT
    estimator: exact for channels confined to the first n_pilots delay bins,
    and aliased (energy lands at the bin index modulo n_pilots) for taps
    beyond that unambiguous range.  No prior and no noise averaging: the noise
    on the data subcarriers passes straight through.
    """
    _check_pattern(config, obs.pattern)
    return _estimate(_dft_taps(config.d, obs.pattern.indices, obs.y[None]))


def _interp_rows(d: int, pilots: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row of pilot values interpolated linearly onto all d subcarriers: (rows, d)."""
    grid = np.arange(d, dtype=np.float64)
    at = pilots.astype(np.float64)
    return np.array([np.interp(grid, at, r.real) + 1j * np.interp(grid, at, r.imag) for r in y])


def estimate_linear_interp(obs: Observation, config: SystemConfig) -> FullGridEstimate:
    """Linear interpolation of the pilot values across the subcarrier axis.

    Requires a uniform pattern.  Subcarriers beyond the last pilot hold its
    value.  There is no delay-domain representation; ``theta_hat`` is None.
    """
    _check_pattern(config, obs.pattern)
    if obs.pattern.kind != "uniform":
        raise ValueError("linear interpolation requires a uniform pilot pattern")
    freq = _interp_rows(config.d, obs.pattern.indices, obs.y[None])[0]
    return FullGridEstimate(channel_freq=freq)


def _check_orthonormal(vectors: np.ndarray) -> None:
    """``ValueError`` unless every (stacked) n x k factor has orthonormal columns."""
    gram = vectors.conj().swapaxes(-1, -2) @ vectors
    if not np.allclose(gram, np.eye(vectors.shape[-1]), atol=1e-8):
        raise ValueError("eigenvectors must be orthonormal columns")


@dataclass(frozen=True)
class PilotCovariance:
    """Pilot covariance C = U diag(λ) U^H kept as its thin eigen-factor.

    ``vectors`` (n x k) has orthonormal columns and ``values`` holds the k
    real eigenvalues; directions outside the columns have eigenvalue 0.  With
    k prior sets and n pilots this is n k numbers instead of n^2, and Wiener
    filtering with it costs O(n k) instead of a dense O(n^3) solve.
    """

    vectors: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=np.complex128)
        values = np.asarray(self.values, dtype=np.float64)
        if vectors.ndim != 2 or values.shape != vectors.shape[1:]:
            raise ValueError(
                f"need n x k vectors and k values, got {vectors.shape} and {values.shape}"
            )
        _check_orthonormal(vectors)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "values", values)


def _covariance_factor(sets: np.ndarray, noise_var: float) -> tuple[np.ndarray, np.ndarray]:
    """``pilot_sample_covariance``'s factor of each (..., k, n) stack of k pilot vectors."""
    # Eigenvectors of the sample covariance are the left singular vectors of
    # the n x k stack, so flooring can work on the thin factorization directly.
    u, s, _ = np.linalg.svd(sets.swapaxes(-1, -2), full_matrices=False)
    return u, np.maximum(s**2 / sets.shape[-2] - noise_var, 0.0)


def pilot_sample_covariance(observations, noise_var: float) -> PilotCovariance:
    """Sample covariance of the pilot vector with the noise share removed.

    Averages y y^H over observations that share one pilot pattern, subtracts
    noise_var from each eigenvalue and clips the negative ones to zero, so the
    result is positive semidefinite.  It is returned as its thin eigen-factor,
    of rank at most the number of observations: with fewer observations than
    pilots the filter only acts inside the observed subspace.
    """
    obs = list(observations)
    if not obs:
        raise ValueError("need at least one observation")
    first = obs[0].pattern
    for o in obs[1:]:
        if not np.array_equal(o.pattern.indices, first.indices):
            raise ValueError("all observations must share one pilot pattern")
    _check_noise_var(noise_var)
    return PilotCovariance(*_covariance_factor(np.array([o.y for o in obs]), noise_var))


def _wiener_rows(
    vectors: np.ndarray, values: np.ndarray, y: np.ndarray, noise_var: float
) -> np.ndarray:
    """C (C + noise_var I)^{-1} y for each row of y, from C's (stacked) factor U diag(λ) U^H."""
    if noise_var == 0:
        return y
    # The eigenvalues of C + noise_var I outside the factor's span are
    # noise_var itself, so only the factor's own can fail to be positive.
    shifted = values + noise_var
    if not np.all(shifted > 0):
        raise np.linalg.LinAlgError("pilot covariance plus noise term is not positive definite")
    coef = values / shifted * (vectors.conj().swapaxes(-1, -2) @ y[..., None])[..., 0]
    return (vectors @ coef[..., None])[..., 0]


def _li_mmse_rows(
    d: int, pilots: np.ndarray, y: np.ndarray, priors: np.ndarray, noise_var: float
) -> np.ndarray:
    """``estimate_li_mmse``'s transfer function for each row of y, (rows, d), filtered with the
    ``pilot_sample_covariance`` of its (k, n) row of prior pilot vectors in ``priors``."""
    vectors, values = _covariance_factor(priors, noise_var)
    _check_orthonormal(vectors)
    return _interp_rows(d, pilots, _wiener_rows(vectors, values, y, noise_var))


def estimate_li_mmse(
    obs: Observation,
    sample_cov: PilotCovariance,
    noise_var: float,
    config: SystemConfig,
) -> FullGridEstimate:
    """Wiener-filter the pilot values with a sample covariance, then interpolate.

    The pilot vector is smoothed by C (C + noise_var I)^{-1}, computed from the
    eigen-factor as U diag(λ / (λ + noise_var)) U^H y, and the result is
    linearly interpolated exactly as in ``estimate_linear_interp``.  A dense
    Hermitian matrix c factors as ``PilotCovariance(*np.linalg.eigh(c)[::-1])``.
    With noise_var = 0 the filter is the identity and the output reduces to
    plain interpolation.
    """
    _check_pattern(config, obs.pattern)
    _check_noise_var(noise_var)
    n = obs.pattern.n
    vectors, values = sample_cov.vectors, sample_cov.values
    if vectors.shape[0] != n:
        raise ValueError(
            f"sample covariance must act on {n} pilots, got {vectors.shape[0]}"
        )
    filtered = _wiener_rows(vectors[None], values[None], obs.y[None], noise_var)
    smoothed = Observation(y=filtered[0], pattern=obs.pattern, noise_var=obs.noise_var)
    return estimate_linear_interp(smoothed, config)


def _support_taps(
    d: int, pilots: np.ndarray, y: np.ndarray, bins: np.ndarray, ridge
) -> np.ndarray:
    """Taps ``support_solve`` finds on ``bins`` with ``ridge`` for each row of y, exact zeros
    elsewhere: (rows, d).  One (N,) row of ``pilots`` serves every row with one Gram factor."""
    theta = np.zeros(y.shape[:-1] + (d,), dtype=np.complex128)
    if bins.size:
        proj = _spectra(d, pilots, y)
        theta[:, bins] = support_solve(gram_kernel(d, pilots), proj, bins, ridge)
    return theta


def _mmse_taps(
    d: int, pilots: np.ndarray, y: np.ndarray, pdp: PowerDelayProfile, noise_var: float
) -> np.ndarray:
    """``estimate_mmse_oracle``'s taps for each row of y: (rows, d)."""
    active = np.flatnonzero(pdp.variances > 0)
    return _support_taps(d, pilots, y, active, noise_var / pdp.variances[active])


def estimate_mmse_oracle(
    obs: Observation,
    pdp: PowerDelayProfile,
    noise_var: float,
    config: SystemConfig,
) -> FullGridEstimate:
    """Bayesian tap estimate given the true per-bin prior variances.

    Solves the Wiener system (H^H H + noise_var C^{-1}) theta = H^H y on the
    bins with nonzero prior variance; bins the prior rules out are returned
    as exact zeros.  With noise_var = 0 the prior drops out and the estimate
    is the least-squares solution on those bins, which raises ``LinAlgError``
    by ``support_solve``'s rank test when the restricted operator is rank
    deficient (always so with more active bins than pilots).
    """
    _check_pattern(config, obs.pattern)
    if pdp.d != config.d:
        raise ValueError(f"profile has {pdp.d} bins, config has d={config.d}")
    _check_noise_var(noise_var)
    return _estimate(_mmse_taps(config.d, obs.pattern.indices, obs.y[None], pdp, noise_var))


def estimate_reduced_rank_ls(
    obs: Observation,
    support: SupportSet,
    config: SystemConfig,
) -> FullGridEstimate:
    """Least squares restricted to the given delay bins.

    Solves with the m x m Gram matrix of the restricted operator, and raises
    ``LinAlgError`` by ``support_solve``'s rank test when the support's
    columns are dependent, as those of two bins that alias on a uniform
    pattern are.  An empty support returns the all-zero estimate.
    """
    _check_pattern(config, obs.pattern)
    _check_indices("support indices", support.indices, config.d)
    if support.size > obs.pattern.n:
        raise ValueError(
            f"support of size {support.size} exceeds {obs.pattern.n} observations"
        )
    taps = _support_taps(config.d, obs.pattern.indices, obs.y[None], support.indices, 0.0)
    return _estimate(taps)
