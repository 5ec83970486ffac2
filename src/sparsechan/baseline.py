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
    gram_kernel,
    matched_filter,
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


def estimate_dft(obs: Observation, config: SystemConfig) -> FullGridEstimate:
    """Matched filter scaled by 1/n_pilots, truncated to the first n_pilots bins.

    With n_pilots uniformly spaced pilots this is the classical inverse-DFT
    estimator: exact for channels confined to the first n_pilots delay bins,
    and aliased (energy lands at the bin index modulo n_pilots) for taps
    beyond that unambiguous range.  No prior and no noise averaging: the noise
    on the data subcarriers passes straight through.
    """
    _check_pattern(config, obs.pattern)
    taps = matched_filter(config, obs.pattern, obs.y) / obs.pattern.n
    theta_hat = np.zeros(config.d, dtype=np.complex128)
    theta_hat[: obs.pattern.n] = taps[: obs.pattern.n]
    return FullGridEstimate(channel_freq=np.fft.fft(theta_hat), theta_hat=theta_hat)


def estimate_linear_interp(obs: Observation, config: SystemConfig) -> FullGridEstimate:
    """Linear interpolation of the pilot values across the subcarrier axis.

    Requires a uniform pattern.  Subcarriers beyond the last pilot hold its
    value.  There is no delay-domain representation; ``theta_hat`` is None.
    """
    _check_pattern(config, obs.pattern)
    if obs.pattern.kind != "uniform":
        raise ValueError("linear interpolation requires a uniform pilot pattern")
    grid = np.arange(config.d, dtype=np.float64)
    pilots = obs.pattern.indices.astype(np.float64)
    freq = np.interp(grid, pilots, obs.y.real) + 1j * np.interp(
        grid, pilots, obs.y.imag
    )
    return FullGridEstimate(channel_freq=freq)


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
        if not np.allclose(vectors.conj().T @ vectors, np.eye(values.size), atol=1e-8):
            raise ValueError("eigenvectors must be orthonormal columns")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "values", values)


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
    stacked = np.column_stack([o.y for o in obs])
    # Eigenvectors of the sample covariance are the left singular vectors of
    # the stack, so flooring can work on the thin factorization directly.
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    return PilotCovariance(u, np.maximum(s**2 / len(obs) - noise_var, 0.0))


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
    if noise_var == 0:
        filtered = obs.y
    else:
        # The eigenvalues of C + noise_var I outside the factor's span are
        # noise_var itself, so only the factor's own can fail to be positive.
        shifted = values + noise_var
        if not np.all(shifted > 0):
            raise np.linalg.LinAlgError(
                "pilot covariance plus noise term is not positive definite"
            )
        filtered = vectors @ (values / shifted * (vectors.conj().T @ obs.y))
    smoothed = Observation(y=filtered, pattern=obs.pattern, noise_var=obs.noise_var)
    return estimate_linear_interp(smoothed, config)


def _support_estimate(
    obs: Observation, config: SystemConfig, bins: np.ndarray, ridge
) -> FullGridEstimate:
    """Taps ``support_solve`` finds on ``bins`` with ``ridge``, exact zeros elsewhere."""
    theta_hat = np.zeros(config.d, dtype=np.complex128)
    if bins.size:
        kernel = gram_kernel(config.d, obs.pattern.indices)
        proj = matched_filter(config, obs.pattern, obs.y)
        theta_hat[bins] = support_solve(kernel, proj, bins, ridge)
    return FullGridEstimate(channel_freq=np.fft.fft(theta_hat), theta_hat=theta_hat)


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
    active = np.flatnonzero(pdp.variances > 0)
    return _support_estimate(obs, config, active, noise_var / pdp.variances[active])


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
    return _support_estimate(obs, config, support.indices, 0.0)
