"""Delay-domain channel priors and random channel realizations.

A channel prior is a power delay profile (PDP): one nonnegative variance per
delay bin of the grid.  Priors can be built from a tabulated impulse profile
(discrete taps at physical delays, powers in dB) by spreading each tap into a
causal exponentially decaying cluster.  Channel realizations draw each tap independently from a circular
complex Gaussian with the bin's variance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signal_model import SystemConfig, _check_powers, _complex_gaussian

__all__ = [
    "ImpulseProfile",
    "PowerDelayProfile",
    "etu_profile",
    "to_continuous_pdp",
    "realize_channel",
    "eta95",
    "delay_spread",
]

# Fraction of a cluster's power kept when its exponential tail is truncated.
CLUSTER_POWER_COVERAGE = 0.999
# Hard cap on cluster length in bins; keeps the decay-ratio search bounded
# while staying far beyond any physically meaningful cluster width.
_MAX_CLUSTER_BINS = 4096


@dataclass(frozen=True)
class ImpulseProfile:
    """Tabulated multipath profile: (delay in seconds, mean power in dB) pairs."""

    taps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.taps:
            raise ValueError("profile needs at least one tap")
        taps = tuple((float(d), float(p)) for d, p in self.taps)
        for delay, power in taps:
            if not math.isfinite(delay) or not math.isfinite(power):
                raise ValueError(f"taps must be finite, got {power:g} dB at {delay:g} s")
        delays = [t[0] for t in taps]
        if delays[0] < 0:
            raise ValueError("delays must be nonnegative")
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise ValueError("delays must be strictly increasing")
        object.__setattr__(self, "taps", taps)

    @property
    def delays_s(self) -> np.ndarray:
        return np.array([t[0] for t in self.taps])

    @property
    def powers_db(self) -> np.ndarray:
        return np.array([t[1] for t in self.taps])

    @property
    def linear_powers(self) -> np.ndarray:
        return 10.0 ** (self.powers_db / 10.0)

    @classmethod
    def from_csv(cls, path) -> "ImpulseProfile":
        """Read a profile from CSV with header ``delay_ns,power_db``."""
        taps = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if not {"delay_ns", "power_db"} <= set(reader.fieldnames or ()):
                raise ValueError(f"{path}: expected columns delay_ns,power_db")
            for row in reader:
                if None in row.values():  # a short row leaves its missing fields None
                    raise ValueError(f"{path}: line {reader.line_num}: expected delay_ns,power_db")
                taps.append((float(row["delay_ns"]) * 1e-9, float(row["power_db"])))
        return cls(taps=tuple(taps))


@dataclass(frozen=True)
class PowerDelayProfile:
    """Per-bin tap variances on the delay grid, plus the bin width in seconds."""

    variances: np.ndarray
    bin_width_s: float

    def __post_init__(self) -> None:
        var = _check_powers("variances", self.variances)
        if not 0 < self.bin_width_s < math.inf:  # also rejects NaN
            raise ValueError(f"bin width must be finite and positive, got {self.bin_width_s}")
        object.__setattr__(self, "variances", var)

    @property
    def d(self) -> int:
        return int(self.variances.size)

    @property
    def total_power(self) -> float:
        return float(np.sum(self.variances))

    def normalized(self) -> "PowerDelayProfile":
        """Scale so the variances sum to one."""
        total = self.total_power
        if total <= 0:
            raise ValueError("cannot normalize an all-zero profile")
        return PowerDelayProfile(self.variances / total, self.bin_width_s)


def etu_profile() -> ImpulseProfile:
    """The standard 9-tap extended typical urban profile."""
    table_ns_db = (
        (0, -1.0),
        (50, -1.0),
        (120, -1.0),
        (200, 0.0),
        (230, 0.0),
        (500, 0.0),
        (1600, -3.0),
        (2300, -5.0),
        (5000, -7.0),
    )
    return ImpulseProfile(taps=tuple((ns * 1e-9, db) for ns, db in table_ns_db))


def _truncation_length(ratio: float) -> int:
    """Number of geometric terms needed to cover CLUSTER_POWER_COVERAGE."""
    tail = 1.0 - CLUSTER_POWER_COVERAGE
    length = math.ceil(math.log(tail) / math.log(ratio))
    return int(min(max(1, length), _MAX_CLUSTER_BINS))


def _truncated_cluster_rms(ratio: float, bin_width_s: float) -> float:
    n = _truncation_length(ratio)
    w = ratio ** np.arange(n)
    w /= w.sum()
    tau = np.arange(n) * bin_width_s
    mean = float(np.dot(w, tau))
    return float(math.sqrt(max(np.dot(w, tau**2) - mean**2, 0.0)))


@lru_cache(maxsize=32)
def _cluster_weights(bin_width_s: float, rms_s: float) -> tuple[float, ...]:
    """Unit-power geometric cluster whose truncated RMS width equals rms_s.

    The decay ratio is found by bisection; the truncated RMS width is a
    monotone function of the ratio, zero in the single-bin limit and unbounded
    as the ratio approaches one.
    """
    lo, hi = 1e-12, 1.0 - 1e-12
    if _truncated_cluster_rms(hi, bin_width_s) < rms_s:
        raise ValueError(
            f"cluster RMS width {rms_s:g} s too large for this grid "
            f"(bin_width_s {bin_width_s:g} s)"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _truncated_cluster_rms(mid, bin_width_s) < rms_s:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    ratio = 0.5 * (lo + hi)
    w = ratio ** np.arange(_truncation_length(ratio))
    w /= w.sum()
    return tuple(float(x) for x in w)


def to_continuous_pdp(
    profile: ImpulseProfile,
    config: SystemConfig,
    cluster_rms_s: float = 1e-7,
    normalize: bool = False,
) -> PowerDelayProfile:
    """Spread each tabulated tap into a causal exponential cluster on the grid.

    Every tap is snapped to its nearest delay bin and replaced by a geometric
    sequence of bin variances starting there, decaying so the cluster's RMS
    delay width matches ``cluster_rms_s`` after the tail is cut at
    99.9 percent of the power.  Each cluster carries exactly the tap's linear
    power; clusters that run off the end of the grid are renormalized over the
    bins that remain, and overlapping clusters add.
    """
    if not cluster_rms_s > 0:  # also rejects NaN
        raise ValueError(f"cluster RMS width must be positive, got {cluster_rms_s}")
    width = config.bin_width_s
    weights = np.array(_cluster_weights(width, cluster_rms_s))
    variances = np.zeros(config.d)
    for delay_s, power_db in profile.taps:
        k0 = int(math.floor(delay_s / width + 0.5))
        if k0 >= config.d:
            raise ValueError(
                f"tap at {delay_s * 1e9:.0f} ns falls outside the {config.d}-bin grid"
            )
        keep = min(weights.size, config.d - k0)
        chunk = weights[:keep] / weights[:keep].sum()
        variances[k0 : k0 + keep] += chunk * 10.0 ** (power_db / 10.0)
    pdp = PowerDelayProfile(variances, width)
    return pdp.normalized() if normalize else pdp


def realize_channel(
    pdp: PowerDelayProfile, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Draw one channel: independent circular complex Gaussian taps, bin k
    having variance pdp.variances[k].  Zero-variance bins come out exactly zero."""
    return _complex_gaussian(pdp.variances, np.random.default_rng(rng).standard_normal((2, pdp.d)))


def eta95(values: np.ndarray) -> int:
    """Smallest number of bins (taken largest first) holding 95 % of the energy."""
    v = _check_powers("values", values)
    total = v.sum()
    if total <= 0:
        raise ValueError("eta95 is undefined for an all-zero vector")
    ordered = np.sort(v)[::-1]
    running = np.cumsum(ordered)
    # The tiny relative slack keeps exact ties (e.g. 19 of 20 equal bins) stable
    # against floating point accumulation order.
    target = 0.95 * total * (1.0 - 1e-12)
    return int(np.searchsorted(running, target) + 1)


def delay_spread(delays_s: np.ndarray, powers: np.ndarray) -> float:
    """RMS width of a discrete power distribution over delay."""
    d = np.asarray(delays_s, dtype=np.float64)
    p = _check_powers("powers", powers)
    if d.shape != p.shape:
        raise ValueError("delays and powers must have matching shapes")
    if not np.all(np.isfinite(d)):
        raise ValueError("delays must be finite")
    total = p.sum()
    if total <= 0:
        raise ValueError("delay spread is undefined for zero total power")
    mean = float(np.dot(p, d)) / total
    second = float(np.dot(p, d**2)) / total
    return float(math.sqrt(max(second - mean**2, 0.0)))
