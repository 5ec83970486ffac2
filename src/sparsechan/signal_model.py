"""OFDM grid model: pilot patterns and the partial Fourier observation operator.

A frequency-selective channel is represented by a length-d vector ``theta`` of
complex delay-domain taps.  The transfer function sampled at subcarrier p is

    c[p] = sum_k theta[k] * exp(-2j * pi * p * k / d)

and a pilot observation collects ``c`` at N chosen subcarriers plus circular
complex Gaussian noise.  Everything downstream (baseline interpolators, greedy
sparse recovery, detection) is built on the two primitives defined here: the
forward projection onto a pilot pattern and its adjoint, the matched filter.
Both are evaluated with FFTs rather than explicit matrices, and every solve
on a support, least squares or Wiener (``support_solve``), looks its Gram
matrix up in the circulant kernel of H^H H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemConfig",
    "PilotPattern",
    "Observation",
    "ObservationSet",
    "partial_fourier_apply",
    "partial_fourier_matrix",
    "matched_filter",
    "synthesize_observation",
]


# A pivot of a least-squares Gram factor whose square is at most RANK_TOL * N
# (N = n_pilots, every column's squared norm) marks its bin as dependent on the
# bins before it.  The pursuit engine and ``support_solve`` both read it.
RANK_TOL = 1e-12


def _check_noise_var(noise_var: float) -> None:
    if not 0.0 <= noise_var < np.inf:  # also rejects NaN
        raise ValueError(f"noise variance must be finite and nonnegative, got {noise_var}")


def _check_powers(name: str, values) -> np.ndarray:
    """``values`` as a float vector; ``ValueError`` unless non-empty, 1-d, finite and >= 0."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or not v.size or not 0.0 <= v.min() <= v.max() < np.inf:  # NaN too
        raise ValueError(f"{name} must be finite and nonnegative, in a non-empty 1-d vector")
    return v


def _check_indices(name: str, indices, d, ndim: int = 1) -> np.ndarray:
    """Sorted int64 rows of ``indices``; ValueError unless ndim-d, whole, distinct, in [0, d)."""
    idx = np.asarray(indices)
    if idx.ndim != ndim or idx.dtype.kind == "b":  # a mask would read as indices 0 and 1
        form = "1-d vector" if ndim == 1 else f"{ndim}-d stack of rows"
        raise ValueError(f"{name} must be a {form} of numbers, got {idx.dtype} {idx.shape}")
    if idx.dtype.kind not in "iu":  # integer arrays, as every pattern constructor gives, are whole
        idx = idx.astype(np.float64)
        if not np.all(idx == np.trunc(idx)):  # NaN fails here, an infinity the range test
            raise ValueError(f"{name} must be whole numbers")
    idx = np.sort(idx, axis=-1)
    bound = min(d, 2**63)  # an unbounded d (np.inf) still stops where int64 ends
    if idx.size and not (0 <= min(idx[..., 0].flat) and max(idx[..., -1].flat) < bound):
        raise ValueError(f"{name} must lie in [0, {bound})")
    if (idx[..., 1:] == idx[..., :-1]).any():
        raise ValueError(f"{name} must be distinct")
    return idx.astype(np.int64, copy=False)


def _check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int; ``ValueError`` if it is below ``minimum`` (NaN too) or a fraction."""
    if not value >= minimum:  # also rejects NaN
        bound = {0: "non-negative", 1: "positive"}.get(minimum, f"at least {minimum}")
        raise ValueError(f"{name} must be {bound}, got {value}")
    if not isinstance(value, int) and not float(value).is_integer():  # float(10**400) overflows
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions of the OFDM grid.

    d is both the number of subcarriers and the number of delay bins the
    channel is resolved into; n_pilots is the number of observed subcarriers.
    The subcarrier spacing only matters when delays are mapped to physical
    time, via ``bin_width_s``.
    """

    d: int
    n_pilots: int
    subcarrier_spacing_hz: float = 15e3

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _check_count("d", self.d, 2))
        object.__setattr__(self, "n_pilots", _check_count("n_pilots", self.n_pilots, 1))
        if self.n_pilots > self.d:
            raise ValueError(f"n_pilots must lie in [1, d={self.d}], got {self.n_pilots}")
        if not self.subcarrier_spacing_hz > 0:  # also rejects NaN
            raise ValueError(
                f"subcarrier spacing must be positive, got {self.subcarrier_spacing_hz}"
            )
        if not self.d * self.subcarrier_spacing_hz < np.inf:  # else bin_width_s is 0
            raise ValueError(
                f"total bandwidth must be finite, got d={self.d} subcarriers of "
                f"{self.subcarrier_spacing_hz} Hz"
            )

    @property
    def bin_width_s(self) -> float:
        """Delay resolution of the grid in seconds (1 / total bandwidth)."""
        return 1.0 / (self.d * self.subcarrier_spacing_hz)


@dataclass(frozen=True)
class PilotPattern:
    """A set of observed subcarrier indices on a grid of size d.

    Patterns are value objects: indices are stored sorted and must be whole,
    distinct and in range.  Use the ``uniform`` and ``pseudo_random``
    constructors; the latter draws without replacement from a seeded PCG64
    generator so a given (d, n, seed) triple always yields the same pattern.
    """

    indices: np.ndarray
    d: int
    kind: str = "custom"

    def __post_init__(self) -> None:
        idx = _check_indices("pilot indices", self.indices, self.d)
        if not idx.size:
            raise ValueError("pattern needs a non-empty 1-d index vector")
        object.__setattr__(self, "indices", idx)

    @property
    def n(self) -> int:
        return int(self.indices.size)

    @classmethod
    def uniform(cls, config: SystemConfig, spacing: int) -> "PilotPattern":
        """Evenly spaced pilots 0, spacing, 2*spacing, ... (n_pilots of them)."""
        spacing = _check_count("spacing", spacing, 1)
        last = (config.n_pilots - 1) * spacing
        if last >= config.d:
            raise ValueError(
                f"{config.n_pilots} pilots at spacing {spacing} overrun d={config.d}"
            )
        idx = np.arange(config.n_pilots, dtype=np.int64) * spacing
        return cls(indices=idx, d=config.d, kind="uniform")

    @classmethod
    def pseudo_random(cls, config: SystemConfig, seed: int) -> "PilotPattern":
        """n_pilots distinct subcarriers drawn uniformly without replacement."""
        idx = _pseudo_random_draw(config.d, config.n_pilots, _check_count("seed", seed, 0))
        return cls(indices=idx, d=config.d, kind="pseudo_random")


def _pseudo_random_draw(d: int, n: int, seed: int) -> np.ndarray:
    """``pseudo_random``'s indices for one seed, unsorted and unchecked."""
    return np.random.default_rng(seed).choice(d, size=n, replace=False)


def _pseudo_random_rows(d: int, n: int, seeds) -> np.ndarray:
    """``pseudo_random``'s indices for each seed, as rows of one stack that one check covers."""
    rows = [_pseudo_random_draw(d, n, seed) for seed in seeds]
    return _check_indices("pilot indices", rows, d, ndim=2)


@dataclass(frozen=True)
class Observation:
    """Received pilot values for one OFDM symbol: y = c[pattern] + noise."""

    y: np.ndarray
    pattern: PilotPattern
    noise_var: float

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.complex128)
        if y.shape != (self.pattern.n,):
            raise ValueError(
                f"y has shape {y.shape}, pattern has {self.pattern.n} pilots"
            )
        _check_noise_var(self.noise_var)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class ObservationSet:
    """A bundle of observations that share one grid size and pilot count.

    Downstream code treats the members as independent draws from a common
    prior.
    """

    observations: tuple[Observation, ...]

    def __post_init__(self) -> None:
        obs = tuple(self.observations)
        if not obs:
            raise ValueError("an observation set needs at least one observation")
        d = obs[0].pattern.d
        n = obs[0].pattern.n
        for o in obs:
            if o.pattern.d != d or o.pattern.n != n:
                raise ValueError("all observations must share d and pilot count")
        object.__setattr__(self, "observations", obs)

    @property
    def n_sets(self) -> int:
        return len(self.observations)

    @property
    def d(self) -> int:
        return self.observations[0].pattern.d

    @property
    def n_pilots(self) -> int:
        return self.observations[0].pattern.n


def _complex_gaussian(variance, g: np.ndarray) -> np.ndarray:
    """Circular complex Gaussian values sqrt(variance / 2) * (g_re + 1j g_im) from normals.

    ``g`` holds standard normals of shape (..., 2, m), real parts first;
    ``variance`` broadcasts against the (..., m) result.  Every channel and
    noise draw goes through this one formula, so a batch of rows drawn at
    once equals the same rows drawn one call at a time, bit for bit.
    """
    return np.sqrt(variance / 2.0) * (g[..., 0, :] + 1j * g[..., 1, :])


def _check_pattern(config: SystemConfig, pattern: PilotPattern) -> None:
    if pattern.d != config.d:
        raise ValueError(f"pattern built for d={pattern.d}, config has d={config.d}")


def partial_fourier_apply(
    config: SystemConfig, pattern: PilotPattern, theta: np.ndarray
) -> np.ndarray:
    """Project delay taps onto the pilot subcarriers: (H theta)[p] for p in the pattern.

    Computed as a length-d FFT sampled at the pilot indices, never as an
    explicit matrix product.
    """
    _check_pattern(config, pattern)
    theta = np.asarray(theta, dtype=np.complex128)
    if theta.shape != (config.d,):
        raise ValueError(f"theta must have shape ({config.d},), got {theta.shape}")
    return np.fft.fft(theta)[pattern.indices]


def partial_fourier_matrix(
    config: SystemConfig, pattern: PilotPattern, bins: np.ndarray | None = None
) -> np.ndarray:
    """Explicit observation matrix restricted to the given delay bins.

    Returns the n x m array with entries exp(-2j pi p k / d) for pilot
    subcarriers p and delay bins k.  The estimators never build it; tests use
    it as the reference for the FFT and Gram-lookup paths.
    """
    _check_pattern(config, pattern)
    if bins is None:
        bins = np.arange(config.d)
    bins = np.asarray(bins, dtype=np.int64)
    phase = -2j * np.pi / config.d
    return np.exp(phase * np.outer(pattern.indices, bins))


def _stack(observations, rows: int) -> tuple:
    """d, and the observations as ``rows`` rows of equally many sets, in order: (rows, sets, N)
    pilot indices and values and (rows, sets) noise variances."""
    shape = (rows, len(observations) // rows)
    pilots = np.array([o.pattern.indices for o in observations]).reshape(shape + (-1,))
    y = np.array([o.y for o in observations]).reshape(shape + (-1,))
    noise_vars = np.array([o.noise_var for o in observations]).reshape(shape)
    return observations[0].pattern.d, pilots, y, noise_vars


def _spectra(d: int, pilots: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Matched filter H_s^H r_s of each row of r on its row of ``pilots`` (one (N,) row serves
    every row): one batched FFT, in place."""
    z = np.zeros((r.shape[0], d), dtype=np.complex128)
    z.ravel()[(np.arange(r.shape[0])[:, None] * d + pilots).ravel()] = r.ravel()
    return np.multiply(np.fft.ifft(z, axis=1, out=z), d, out=z)


def matched_filter(
    config: SystemConfig, pattern: PilotPattern, y: np.ndarray
) -> np.ndarray:
    """Adjoint of the partial Fourier operator: (H^H y)[k] for every delay bin k.

    A single column h_k has squared norm n_pilots, so the output at a tap's
    true bin grows like n_pilots while leakage elsewhere has mean power
    n_pilots; dividing by n_pilots gives the unbiased per-bin amplitude.
    """
    _check_pattern(config, pattern)
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (pattern.n,):
        raise ValueError(f"y must have shape ({pattern.n},), got {y.shape}")
    return _spectra(config.d, pattern.indices, y[None, :])[0]


def gram_kernel(d: int, pilots: np.ndarray) -> np.ndarray:
    """Kernel g of the circulant Gram matrix: (H^H H)[j, k] = g[(k - j) % d].

    g is the FFT of the pilots' 0/1 indicator.  Leading axes of ``pilots``
    (one row of indices per pattern) are kept.
    """
    pilots = np.asarray(pilots, dtype=np.int64)
    mask = np.zeros(pilots.shape[:-1] + (d,))
    np.put_along_axis(mask, pilots, 1.0, axis=-1)
    return np.fft.fft(mask, axis=-1)


def support_gram(kernel: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Gram matrix H_S^H H_S on delay bins S from a (stacked) ``gram_kernel``."""
    bins = np.asarray(bins, dtype=np.int64)
    return kernel[..., (bins[None, :] - bins[:, None]) % kernel.shape[-1]]


def support_solve(
    kernel: np.ndarray, proj: np.ndarray, bins: np.ndarray, ridge
) -> np.ndarray:
    """Solve (G_S + diag(ridge)) x = proj[..., S], G_S the ``support_gram`` on bins S.

    ``proj`` holds matched-filter spectra H^H y; leading axes stack sets.
    Ridge 0 gives least squares, ridge sigma^2 / lambda the Wiener solution
    for prior variances lambda.  A Cholesky factorization first makes a
    system that is not positive definite raise ``LinAlgError``.  With ridge 0
    it also raises when a pivot squared is at most ``RANK_TOL`` * N, the rule
    by which the pursuits skip a dependent bin: the columns of a support that
    holds two bins aliased by a uniform pattern are dependent, and their
    least-squares taps would be an arbitrary split of one tap.
    """
    system = support_gram(kernel, bins)
    diag = np.arange(system.shape[-1])
    system[..., diag, diag] += ridge
    if np.any(ridge):
        np.linalg.cholesky(system)
    else:
        try:
            pivots = np.linalg.cholesky(system)[..., diag, diag].real
        except np.linalg.LinAlgError:  # a pivot² at or below zero
            pivots = np.zeros(1)
        if np.any(pivots**2 <= RANK_TOL * kernel[..., :1].real):
            raise np.linalg.LinAlgError(f"rank-deficient support {np.asarray(bins).tolist()}")
    return np.linalg.solve(system, proj[..., bins, None])[..., 0]


def synthesize_observation(
    config: SystemConfig,
    pattern: PilotPattern,
    theta: np.ndarray,
    noise_var: float,
    rng: int | np.random.Generator | None = None,
) -> Observation:
    """Observe ``theta`` through the pattern with circular complex Gaussian noise.

    Each pilot receives independent noise of total variance ``noise_var``
    (noise_var / 2 per real component).  With noise_var = 0 the projection is
    returned exactly; the generator is still advanced so call sequences stay
    aligned across noise settings.
    """
    _check_noise_var(noise_var)
    clean = partial_fourier_apply(config, pattern, theta)
    g = np.random.default_rng(rng).standard_normal((2, pattern.n))
    return Observation(clean + _complex_gaussian(noise_var, g), pattern, float(noise_var))
