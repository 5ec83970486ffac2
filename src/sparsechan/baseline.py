"""Classical pilot-based channel estimators used as comparison points.

All estimators return a ``FullGridEstimate``: the reconstructed transfer
function on every subcarrier, plus delay-domain taps when the method produces
them.  The lineup:

* ``estimate_dft``          inverse-DFT truncation to the first n_pilots bins
* ``estimate_linear_interp``per-subcarrier linear interpolation between pilots
* ``estimate_li_mmse``      Wiener smoothing at the pilots, then interpolation
* ``estimate_mmse_oracle``  Bayesian estimate given the true tap covariance
* ``estimate_reduced_rank_ls`` least squares restricted to a known support
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channel import PowerDelayProfile
from .signal_model import (
    Observation,
    SystemConfig,
    gram_kernel,
    matched_filter,
    support_gram,
)

__all__ = [
    "FullGridEstimate",
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
    """Distinct delay-bin indices, kept sorted."""

    indices: np.ndarray

    def __post_init__(self) -> None:
        idx = np.sort(np.asarray(self.indices, dtype=np.int64).ravel())
        if idx.size and np.any(np.diff(idx) == 0):
            raise ValueError("support indices must be distinct")
        if idx.size and idx[0] < 0:
            raise ValueError("support indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return int(self.indices.size)


def _check_obs(config: SystemConfig, obs: Observation) -> None:
    if obs.pattern.d != config.d:
        raise ValueError(
            f"observation is on a d={obs.pattern.d} grid, config has d={config.d}"
        )


def _support_system(
    config: SystemConfig, obs: Observation, bins: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix H_S^H H_S and projections H_S^H y on the given delay bins."""
    gram = support_gram(gram_kernel(config.d, obs.pattern.indices), bins)
    return gram, matched_filter(config, obs.pattern, obs.y)[bins]


def estimate_dft(obs: Observation, config: SystemConfig) -> FullGridEstimate:
    """Matched filter scaled by 1/n_pilots, truncated to the first n_pilots bins.

    With n_pilots uniformly spaced pilots this is the classical inverse-DFT
    estimator: exact for channels confined to the first n_pilots delay bins,
    and aliased (energy lands at the bin index modulo n_pilots) for taps
    beyond that unambiguous range.  No prior and no noise averaging: the noise
    on the data subcarriers passes straight through.
    """
    _check_obs(config, obs)
    taps = matched_filter(config, obs.pattern, obs.y) / obs.pattern.n
    theta_hat = np.zeros(config.d, dtype=np.complex128)
    theta_hat[: obs.pattern.n] = taps[: obs.pattern.n]
    return FullGridEstimate(channel_freq=np.fft.fft(theta_hat), theta_hat=theta_hat)


def estimate_linear_interp(obs: Observation, config: SystemConfig) -> FullGridEstimate:
    """Linear interpolation of the pilot values across the subcarrier axis.

    Requires a uniform pattern.  Subcarriers beyond the last pilot hold its
    value.  There is no delay-domain representation; ``theta_hat`` is None.
    """
    _check_obs(config, obs)
    if obs.pattern.kind != "uniform":
        raise ValueError("linear interpolation requires a uniform pilot pattern")
    grid = np.arange(config.d, dtype=np.float64)
    pilots = obs.pattern.indices.astype(np.float64)
    freq = np.interp(grid, pilots, obs.y.real) + 1j * np.interp(
        grid, pilots, obs.y.imag
    )
    return FullGridEstimate(channel_freq=freq)


def pilot_sample_covariance(
    observations, noise_var: float
) -> np.ndarray:
    """Sample covariance of the pilot vector with the noise share removed.

    Averages y y^H over observations that share one pilot pattern, subtracts
    noise_var from the diagonal, and clips negative eigenvalues to zero so the
    result is positive semidefinite.  With fewer observations than pilots the
    outcome is necessarily rank deficient; that is fine for smoothing, it just
    means the filter only acts inside the observed subspace.
    """
    obs = list(observations)
    if not obs:
        raise ValueError("need at least one observation")
    first = obs[0].pattern
    for o in obs[1:]:
        if not np.array_equal(o.pattern.indices, first.indices):
            raise ValueError("all observations must share one pilot pattern")
    if noise_var < 0:
        raise ValueError("noise variance cannot be negative")
    stacked = np.column_stack([o.y for o in obs])
    # Eigenvectors of the sample covariance are the left singular vectors of
    # the stack, so flooring can work on the thin factorization directly.
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    lam = np.maximum(s**2 / len(obs) - noise_var, 0.0)
    return (u * lam) @ u.conj().T


def estimate_li_mmse(
    obs: Observation,
    sample_cov: np.ndarray,
    noise_var: float,
    config: SystemConfig,
) -> FullGridEstimate:
    """Wiener-filter the pilot values with a sample covariance, then interpolate.

    The pilot vector is smoothed by C (C + noise_var I)^{-1} and the result is
    linearly interpolated exactly as in ``estimate_linear_interp``.  With
    noise_var = 0 the filter is the identity and the output reduces to plain
    interpolation.
    """
    _check_obs(config, obs)
    n = obs.pattern.n
    cov = np.asarray(sample_cov, dtype=np.complex128)
    if cov.shape != (n, n):
        raise ValueError(f"sample covariance must be {n} x {n}, got {cov.shape}")
    if not np.allclose(cov, cov.conj().T, atol=1e-10 * max(1.0, np.abs(cov).max())):
        raise ValueError("sample covariance must be Hermitian")
    if noise_var < 0:
        raise ValueError("noise variance cannot be negative")
    if noise_var == 0:
        filtered = obs.y
    else:
        regularized = cov + noise_var * np.eye(n)
        try:
            inner = scipy.linalg.solve(regularized, obs.y, assume_a="pos")
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "pilot covariance plus noise term is not positive definite"
            ) from exc
        filtered = cov @ inner
    smoothed = Observation(y=filtered, pattern=obs.pattern, noise_var=obs.noise_var)
    return estimate_linear_interp(smoothed, config)


def estimate_mmse_oracle(
    obs: Observation,
    pdp: PowerDelayProfile,
    noise_var: float,
    config: SystemConfig,
) -> FullGridEstimate:
    """Bayesian tap estimate given the true per-bin prior variances.

    Solves (C^{-1} + H^H H / noise_var) theta = H^H y / noise_var on the bins
    with nonzero prior variance; bins the prior rules out are returned as
    exact zeros.  With noise_var = 0 the prior drops out and the estimate is
    the least-squares solution on those bins, which fails as singular if the
    restricted operator is rank deficient.
    """
    _check_obs(config, obs)
    if pdp.d != config.d:
        raise ValueError(f"profile has {pdp.d} bins, config has d={config.d}")
    if noise_var < 0:
        raise ValueError("noise variance cannot be negative")
    active = np.flatnonzero(pdp.variances > 0)
    theta_hat = np.zeros(config.d, dtype=np.complex128)
    if active.size:
        gram, proj = _support_system(config, obs, active)
        if noise_var == 0:
            # More active bins than pilots also leaves the Gram matrix rank deficient.
            if np.linalg.matrix_rank(gram, hermitian=True) < active.size:
                raise np.linalg.LinAlgError(
                    "restricted observation operator is rank deficient"
                )
            theta_hat[active] = scipy.linalg.solve(gram, proj, assume_a="pos")
        else:
            system = gram / noise_var + np.diag(1.0 / pdp.variances[active])
            rhs = proj / noise_var
            theta_hat[active] = scipy.linalg.solve(system, rhs, assume_a="pos")
    return FullGridEstimate(channel_freq=np.fft.fft(theta_hat), theta_hat=theta_hat)


def estimate_reduced_rank_ls(
    obs: Observation,
    support: SupportSet,
    config: SystemConfig,
) -> FullGridEstimate:
    """Least squares restricted to the given delay bins.

    Solves with the m x m Gram matrix of the restricted operator.  An empty
    support returns the all-zero estimate.
    """
    _check_obs(config, obs)
    if support.size and support.indices[-1] >= config.d:
        raise ValueError("support indices must lie in [0, d)")
    if support.size > obs.pattern.n:
        raise ValueError(
            f"support of size {support.size} exceeds {obs.pattern.n} observations"
        )
    theta_hat = np.zeros(config.d, dtype=np.complex128)
    if support.size:
        gram, proj = _support_system(config, obs, support.indices)
        try:
            coef = scipy.linalg.solve(gram, proj, assume_a="pos")
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"rank-deficient support {support.indices.tolist()}"
            ) from exc
        theta_hat[support.indices] = coef
    return FullGridEstimate(channel_freq=np.fft.fft(theta_hat), theta_hat=theta_hat)
