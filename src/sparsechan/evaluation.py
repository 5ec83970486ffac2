"""Monte Carlo evaluation: NMSE sweeps over SNR, capacity fractions, detector calibration.

The sweep runner scores every requested estimator on the same synthesized
channels.  Per trial it draws one primary channel and observes it through
both a uniform pilot pattern (scored by the interpolation baselines) and a
pseudo-random pattern (scored by the MMSE bound and the greedy recovery
family), plus independent prior observation sets used by the estimators
that consume side information.  All randomness for a trial derives from
(master_seed, snr_index, trial_index), and every trial draws the full
complement of data in a fixed order, so results are reproducible and do not
depend on which estimators are selected.  Blocks of consecutive trials are
synthesized into stacked arrays, of which every estimator reads slices.

NMSE is measured on the data subcarriers only (the complement of the pilot
pattern each estimator actually used) and aggregated across trials as the
ratio of linear-domain sums: sum of per-trial mean squared errors over sum of
per-trial channel energies.  The capacity lower bound plugs the aggregated
NMSE into an effective post-equalization SNR and averages the log term over
the same channel realizations.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from contextlib import suppress
from dataclasses import astuple, dataclass, field, fields
from functools import partial
from itertools import product
from typing import NamedTuple

import numpy as np

from .baseline import _dft_taps, _interp_rows, _li_mmse_rows, _mmse_taps, _support_taps
from .channel import ImpulseProfile, PowerDelayProfile, to_continuous_pdp
from .signal_model import (
    PilotPattern,
    SystemConfig,
    _check_count,
    _check_powers,
    _complex_gaussian,
    _pseudo_random_rows,
    _spectra,
)
from .sparse_recovery import (
    DetectionConfig,
    OmpConfig,
    SparseEstimate,
    _a2_rows,
    _above,
    _ex_omp_row,
    _omp_rows,
    _pdp,
    _seeded_rows,
    _strongest,
    _threshold,
)

__all__ = [
    "ESTIMATOR_NAMES",
    "CapacityParams",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "capacity_lower_bound",
    "run_sweep",
    "false_alarm_calibration",
]

NMSE_DB_FLOOR = -100.0


@dataclass(frozen=True)
class CapacityParams:
    """Inputs of the achievable-rate lower bound.

    rho is the nominal SNR (linear), sigma_e_sq the normalized channel
    estimation error power, and n_pilots of each n_symbols-symbol coherence
    block is spent on pilots.
    """

    rho: float
    sigma_e_sq: float
    n_symbols: int
    n_pilots: int

    def __post_init__(self) -> None:
        if not self.rho > 0:  # also rejects NaN
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not 0.0 <= self.sigma_e_sq <= 1.0:
            raise ValueError("sigma_e_sq must lie in [0, 1]")
        object.__setattr__(self, "n_symbols", _check_count("n_symbols", self.n_symbols, 1))
        object.__setattr__(self, "n_pilots", _check_count("n_pilots", self.n_pilots, 0))
        if self.n_pilots > self.n_symbols:
            raise ValueError(f"n_pilots={self.n_pilots} exceeds n_symbols={self.n_symbols}")


def capacity_lower_bound(params: CapacityParams, theta_norm_sq: np.ndarray) -> float:
    """Average achievable rate in bits per symbol given estimation error power.

    Estimation error of relative power sigma_e_sq turns a nominal SNR rho
    into the effective value rho (1 - sigma_e_sq) / (1 + rho sigma_e_sq);
    the log term is averaged over the supplied per-realization channel
    energies and scaled by the fraction of symbols left for data.
    """
    norms = _check_powers("channel energies", theta_norm_sq)
    effective = (
        params.rho * (1.0 - params.sigma_e_sq) / (1.0 + params.rho * params.sigma_e_sq)
    )
    rate = float(np.mean(np.log2(1.0 + effective * norms)))
    return (1.0 - params.n_pilots / params.n_symbols) * rate


@dataclass(frozen=True)
class SweepConfig:
    """Everything a Monte Carlo NMSE/capacity sweep needs.

    ``n_prior_sets`` is the number of extra independent pilot observation
    sets synthesized per trial for the estimators that use side information.
    The pursuits run with ``OmpConfig()``, and the capacity bound takes the
    coherence block to be d symbols long.

    Construction checks every value and resolves the inputs all trials share,
    so a bad value raises ``ValueError`` here rather than mid-sweep: ``pdp``
    is the profile on the delay grid, normalized to unit power;
    ``uni_pattern`` the uniform pilot pattern, spaced d // n_pilots, and
    ``uni_data`` its data subcarriers; ``rrls_support`` the profile's active
    bins, cut to the n_pilots strongest; ``prior_kinds`` the pattern kinds of
    the prior sets that the selected estimators read, which are the only
    prior sets a trial builds.
    """

    system: SystemConfig
    profile: ImpulseProfile
    snr_db: tuple[float, ...]
    n_trials: int
    estimators: tuple[str, ...]
    n_prior_sets: int = 8
    master_seed: int = 0
    alpha: float = 1e-3
    cluster_rms_s: float = 1e-7
    pdp: PowerDelayProfile = field(init=False, repr=False, compare=False)
    uni_pattern: PilotPattern = field(init=False, repr=False, compare=False)
    uni_data: np.ndarray = field(init=False, repr=False, compare=False)
    rrls_support: np.ndarray = field(init=False, repr=False, compare=False)
    prior_kinds: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.snr_db:
            raise ValueError("need at least one SNR point")
        if len(set(self.snr_db)) != len(self.snr_db):
            raise ValueError("SNR points must be distinct")
        if not all(abs(s) <= 3000.0 for s in self.snr_db):  # 10 ** 308 overflows
            raise ValueError("SNR points must be finite and within ±3000 dB")
        for name, minimum in (("n_trials", 1), ("n_prior_sets", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), minimum))
        if not self.estimators:
            raise ValueError("need at least one estimator")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_NAMES]
        if unknown:
            raise ValueError(
                f"unknown estimators {unknown}; valid names are {list(ESTIMATOR_NAMES)}"
            )
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError("estimator names must be distinct")
        if self.system.n_pilots >= self.system.d:
            raise ValueError("sweeps need at least one data subcarrier (n_pilots < d)")
        DetectionConfig(alpha=self.alpha, noise_var=0.0)
        system = self.system
        pdp = to_continuous_pdp(
            self.profile, system, cluster_rms_s=self.cluster_rms_s, normalize=True
        )
        uni_pattern = PilotPattern.uniform(system, system.d // system.n_pilots)
        active = _strongest(np.flatnonzero(pdp.variances > 0), pdp.variances, system.n_pilots)
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "pdp", pdp)
        object.__setattr__(self, "uni_pattern", uni_pattern)
        object.__setattr__(self, "uni_data", _data_indices(system.d, uni_pattern.indices))
        object.__setattr__(self, "rrls_support", active)
        kinds = {_ESTIMATORS[name].priors for name in self.estimators} - {None}
        object.__setattr__(self, "prior_kinds", frozenset(kinds))


def _write_csv(path, header, rows) -> None:
    """Write a header line and one line per row: floats ``.10g``, every other value ``str``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row) + "\n")


@dataclass(frozen=True)
class SweepRow:
    estimator: str
    snr_db: float
    nmse_db: float
    capacity_fraction: float
    n_trials: int
    failures: int
    master_seed: int


@dataclass
class SweepResult:
    """Aggregated sweep output plus optional per-trial detail for analysis."""

    rows: list[SweepRow]
    trial_errors: dict[tuple[str, float], np.ndarray] | None = None
    trial_norms: dict[float, np.ndarray] | None = None

    def row(self, estimator: str, snr_db: float) -> SweepRow:
        for r in self.rows:
            if r.estimator == estimator and r.snr_db == snr_db:
                return r
        raise KeyError(f"no row for ({estimator!r}, {snr_db})")

    def to_csv(self, path) -> None:
        """Write rows sorted by estimator name then SNR through ``_write_csv``.

        The header is the ``SweepRow`` field names, one column per field.
        """
        ordered = sorted(self.rows, key=lambda r: (r.estimator, r.snr_db))
        _write_csv(path, [f.name for f in fields(SweepRow)], map(astuple, ordered))

    def summary(self) -> str:
        lines = [
            f"{'estimator':>10} {'snr_db':>8} {'nmse_db':>9} {'cap_frac':>9} {'fail':>5}"
        ]
        for r in sorted(self.rows, key=lambda r: (r.estimator, r.snr_db)):
            lines.append(
                f"{r.estimator:>10} {r.snr_db:8.1f} {r.nmse_db:9.2f} "
                f"{r.capacity_fraction:9.4f} {r.failures:5d}"
            )
        return "\n".join(lines)


def _data_indices(d: int, pilots: np.ndarray) -> np.ndarray:
    """The subcarriers of each row of ``pilots`` that are not pilots, in order: (..., d - N)."""
    mask = np.ones(pilots.shape[:-1] + (d,), dtype=bool)
    np.put_along_axis(mask, pilots, False, axis=-1)
    return np.nonzero(mask)[-1].reshape(pilots.shape[:-1] + (-1,))


class _Block:
    """Trials of one SNR point, synthesized into arrays whose leading axis is the trial.

    The draws happen unconditionally and in a fixed order, so the
    realizations are independent of the estimator list and of the block a
    trial falls in.  Each trial t has its own generator, seeded with
    (master_seed, snr_idx, t); with n prior sets it draws, in this order:

    - the channel theta0, the noise of the uniform observation, the seed of
      the scored pseudo-random pattern, and the noise of its observation;
    - for each pseudo-random prior set: its channel, its pattern seed, its
      noise;
    - for each uniform prior set: its channel, its noise.

    The normals go straight into two buffers and one batched FFT transforms
    the trial's channels, yet ``realize_channel``,
    ``PilotPattern.pseudo_random`` (on ``int(rng.integers(0, 2**63))``) and
    ``synthesize_observation``, called on the same generator in that order,
    reproduce the trial bit for bit.

    The T trials' rows go into arrays allocated once: ``pilots`` and ``y``,
    (T, sets, N), the pseudo-random sets' pilot rows (a checked
    ``_pseudo_random_rows`` stack) and values, scored set first, with
    ``noise_vars``, (T, sets); ``uni_y``, (T, N), the uniform set's values;
    ``true_freq``, (T, d); ``norm``, (T,); and ``rand_data``, (T, d - N),
    the scored pattern's data subcarriers.  Only the prior sets of the
    config's ``prior_kinds``, those a selected estimator reads, are built;
    the others are drawn and dropped, which moves no value.  The
    pseudo-random ones add n sets to ``pilots``, ``y`` and ``noise_vars`` and
    give ``full_values`` and ``prior_values``, (T, d), the sample PDPs of all
    these sets and of the priors, from one ``_spectra`` call a trial; the
    uniform ones' values are ``priors_uni_y``, (T, n, N).  What is not built
    is None.  ``sigma2`` and ``det`` serve the whole block.
    """

    def __init__(self, config: SweepConfig, snr_idx: int, trials: range) -> None:
        system, n, size = config.system, config.n_prior_sets, len(trials)
        d, n_pilots = system.d, system.n_pilots
        sigma2 = 10.0 ** (-config.snr_db[snr_idx] / 10.0)
        rand = "pseudo_random" in config.prior_kinds
        uni = "uniform" in config.prior_kinds
        sets = 1 + n if rand else 1
        self.config, self.d, self.sigma2 = config, d, sigma2
        self.det = DetectionConfig(alpha=config.alpha, noise_var=sigma2)
        self.pilots = np.empty((size, sets, n_pilots), dtype=np.int64)
        self.y = np.empty((size, sets, n_pilots), dtype=np.complex128)
        self.noise_vars = np.full((size, sets), sigma2)
        self.uni_y = np.empty((size, n_pilots), dtype=np.complex128)
        self.priors_uni_y = np.empty((size, n, n_pilots), dtype=np.complex128) if uni else None
        self.full_values = np.empty((size, d)) if rand else None
        self.prior_values = np.empty((size, d)) if rand else None
        self.true_freq = np.empty((size, d), dtype=np.complex128)
        self.norm = np.empty(size)
        uni_pilots = config.uni_pattern.indices
        # Channel k is theta0 (k = 0), a pseudo-random prior's (1..n) or a
        # uniform prior's (n+1..2n).  Noise k + 1 is that channel's observation
        # on a pseudo-random (k <= n) or uniform pattern; noise 0 is uni_y's.
        # Only theta0 and the channels of the prior sets that are built are
        # transformed and observed.
        chans = [0, *range(1, n + 1)] if rand else [0]
        if uni:
            chans += range(n + 1, 2 * n + 1)
        g_chan = np.empty((1 + 2 * n, 2, d))
        g_noise = np.empty((2 + 2 * n, 2, n_pilots))

        for t, trial_idx in enumerate(trials):
            rng = np.random.default_rng([config.master_seed, snr_idx, trial_idx])
            seeds = []
            for k in range(2 * n + 1):
                rng.standard_normal(out=g_chan[k])
                if k == 0:
                    rng.standard_normal(out=g_noise[0])
                if k <= n:
                    seeds.append(int(rng.integers(0, 2**63)))
                rng.standard_normal(out=g_noise[k + 1])

            thetas = _complex_gaussian(config.pdp.variances, g_chan[chans])
            spectra = np.fft.fft(thetas, axis=1)
            noise = _complex_gaussian(sigma2, g_noise)
            pilots = self.pilots[t] = _pseudo_random_rows(d, n_pilots, seeds[:sets])
            y = self.y[t] = np.take_along_axis(spectra[:sets], pilots, 1) + noise[1 : sets + 1]
            self.true_freq[t] = spectra[0]
            self.norm[t] = np.vdot(thetas[0], thetas[0]).real
            self.uni_y[t] = spectra[0, uni_pilots] + noise[0]
            if uni:
                self.priors_uni_y[t] = spectra[-n:, uni_pilots] + noise[n + 2 :]
            if rand:
                matched = _spectra(d, pilots, y)
                self.full_values[t] = _pdp(matched, n_pilots)
                self.prior_values[t] = _pdp(matched[1:], n_pilots)
            del thetas, spectra, noise  # freed before the next trial makes its own
        self.rand_data = _data_indices(d, self.pilots[:, 0])

    def trial(self, i: int) -> _Block:
        """Trial i as a one-trial block of views of this block's arrays."""
        one = object.__new__(_Block)
        for name, value in vars(self).items():
            setattr(one, name, value[i : i + 1] if isinstance(value, np.ndarray) else value)
        return one


def _each(transfer: Callable[[_Block], np.ndarray], block: _Block) -> np.ndarray:
    """``transfer`` on one trial of the block at a time; a ``LinAlgError`` makes its row NaN."""
    freqs = np.full(block.true_freq.shape, np.nan, dtype=np.complex128)
    for i in range(len(freqs)):
        with suppress(np.linalg.LinAlgError):
            freqs[i] = transfer(block.trial(i))[0]
    return freqs


def _rows(transfer: Callable[[_Block], np.ndarray]) -> Callable[[_Block], np.ndarray]:
    """A block estimator, one pass over the block; if it raises ``LinAlgError``, one per trial.

    ``transfer`` gives each trial's row bit for bit as it does for that trial
    alone, so the rerun keeps every other trial's row and makes only the
    failing trial's NaN.
    """

    def run(block: _Block) -> np.ndarray:
        try:
            return transfer(block)
        except np.linalg.LinAlgError:
            return _each(transfer, block)

    return run


def _uniform(b: _Block) -> tuple:
    """d, the uniform pilots, and the (T, N) pilot values of the block's uniform sets."""
    return b.d, b.config.uni_pattern.indices, b.uni_y


def _scored(b: _Block) -> tuple:
    """d, and the block's scored sets as rows of one set, with their noise variances."""
    return b.d, b.pilots[:, :1], b.y[:, :1], b.noise_vars[:, :1]


def _detection(b: _Block, full: bool) -> tuple:
    """The scored sets, then the (T, d) sample PDPs of all the pseudo-random sets (``full``: a1,
    a3) or of the priors (a2), their set and pilot counts, and the block's det."""
    sets, n_pilots = b.y.shape[1:]
    values = b.full_values if full else b.prior_values
    return *_scored(b), values, sets if full else sets - 1, n_pilots, b.det


def _freqs(estimates: list[SparseEstimate]) -> np.ndarray:
    return np.fft.fft([est.theta for est in estimates])


class _Entry(NamedTuple):
    """How the sweep runs one estimator.

    ``kind`` is the pattern whose data subcarriers its error is measured on,
    ``run`` maps a block to its trials' (T, d) transfer functions, and
    ``priors`` is the kind of the prior sets it reads, if any.
    """

    kind: str
    run: Callable[[_Block], np.ndarray]
    priors: str | None = None


# Every entry but ``exomp`` runs once on the whole block, so its per-call
# costs are paid once per block rather than once per trial.  Each reads
# slices of the block's arrays and calls the row code that the public
# estimators call with their inputs stacked.  The lambdas look the row
# functions up when called, so a replaced module attribute takes effect.
_ESTIMATORS: dict[str, _Entry] = {
    "dft": _Entry("uniform", _rows(lambda b: np.fft.fft(_dft_taps(*_uniform(b))))),
    "li": _Entry("uniform", _rows(lambda b: _interp_rows(*_uniform(b)))),
    "li-mmse": _Entry(
        "uniform", _rows(lambda b: _li_mmse_rows(*_uniform(b), b.priors_uni_y, b.sigma2)), "uniform"
    ),
    "mmse": _Entry(
        "pseudo_random",
        _rows(
            lambda b: np.fft.fft(
                _mmse_taps(b.d, b.pilots[:, 0], b.y[:, 0], b.config.pdp, b.sigma2)
            )
        ),
    ),
    "rrls": _Entry(
        "uniform",
        _rows(lambda b: np.fft.fft(_support_taps(*_uniform(b), b.config.rrls_support, 0.0))),
    ),
    "omp": _Entry("pseudo_random", lambda b: _freqs(_omp_rows(*_scored(b)))),
    "a1": _Entry(
        "pseudo_random", lambda b: _freqs(_seeded_rows(*_detection(b, True))), "pseudo_random"
    ),
    "a2": _Entry(
        "pseudo_random", lambda b: _freqs(_a2_rows(*_detection(b, False))), "pseudo_random"
    ),
    "a3": _Entry(
        "pseudo_random",
        lambda b: _freqs(_seeded_rows(*_detection(b, True), OmpConfig())),
        "pseudo_random",
    ),
    "exomp": _Entry(
        "pseudo_random",
        partial(_each, lambda b: _freqs(_ex_omp_row(b.d, b.pilots, b.y, b.noise_vars, b.det)[:1])),
        "pseudo_random",
    ),
    "ideal": _Entry("uniform", lambda b: b.true_freq),
}

ESTIMATOR_NAMES = tuple(_ESTIMATORS)


# Consecutive trials of one SNR point that a sweep evaluates together.  The
# block pursuits' rounds cost about as much for ten rows as for one, and at
# ten a 70-trial sweep still splits into seven blocks for a process pool.
_BLOCK = 10
_CALIB_SETS = 16  # sets per calibration block of max(1, 16 // n_sets) trials; more save no time


def _errors(freqs: np.ndarray, true_freq: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Mean squared error of each row of ``freqs`` on its row of ``data`` (one serves all)."""
    err = np.take_along_axis(freqs, data, 1) - np.take_along_axis(true_freq, data, 1)
    return np.mean(np.abs(err) ** 2, axis=1)


def _run_block(config: SweepConfig, snr_idx: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize the ``_Block`` of trials first, first + 1, ... and score every estimator on it.

    Each estimator entry runs once over the block, and its errors are scored
    in one array operation.  Returns an (estimators, trials) array of mean
    squared data-subcarrier errors, NaN where an estimator raised
    ``LinAlgError``, and the trials' channel tap energies.
    """
    block = _Block(config, snr_idx, range(first, min(first + _BLOCK, config.n_trials)))
    data = {"uniform": config.uni_data[None], "pseudo_random": block.rand_data}
    errors = [
        _errors(run(block), block.true_freq, data[kind])
        for kind, run, _ in map(_ESTIMATORS.get, config.estimators)
    ]
    return np.array(errors), block.norm


def _row(
    config: SweepConfig, name: str, snr: float, errs: np.ndarray, norms: np.ndarray
) -> SweepRow:
    """One estimator's row at one SNR point from its trial errors (NaN: failed) and energies."""
    valid = ~np.isnan(errs)
    errs, norms = errs[valid], norms[valid]
    db = fraction = math.nan
    if errs.size:
        lin = float(errs.sum()) / float(norms.sum())
        db = max(10.0 * math.log10(lin) if lin > 0 else -math.inf, NMSE_DB_FLOOR)
        rho, d, n_pilots = 10.0 ** (snr / 10.0), config.system.d, config.system.n_pilots
        rate = capacity_lower_bound(CapacityParams(rho, min(lin, 1.0), d, n_pilots), norms)
        ideal_rate = capacity_lower_bound(CapacityParams(rho, 0.0, d, 0), norms)
        fraction = rate / ideal_rate if ideal_rate > 0 else 0.0
    failures = config.n_trials - errs.size
    return SweepRow(name, snr, db, fraction, config.n_trials, failures, config.master_seed)


def run_sweep(
    config: SweepConfig, n_workers: int = 1, keep_trials: bool = False
) -> SweepResult:
    """Run the Monte Carlo sweep and aggregate NMSE and capacity per estimator.

    The aggregate linear NMSE at each SNR point is the sum of per-trial mean
    squared data-subcarrier errors divided by the sum of the same trials'
    channel energies; trials where an estimator raised ``LinAlgError`` are
    excluded from that estimator's aggregate and counted in the row's failure
    column, and other exceptions propagate.  Trials run in blocks of up to
    ``_BLOCK`` consecutive trials of one SNR point, synthesized once into
    the arrays of a ``_Block``, which builds only the prior sets that the
    selected estimators read (``SweepConfig.prior_kinds``).  ``omp``,
    ``a1``, ``a2`` and ``a3`` run once per block, each row on its own
    support, skipping a dependent bin row by row; ``dft``, ``li``, ``mmse``,
    ``rrls`` and ``li-mmse`` do too, and rerun one trial at a time a block
    that raises ``LinAlgError``.  Only ``exomp`` runs one trial at a time.
    With ``n_workers > 1`` blocks are distributed over at most that many
    processes, one per block at most.  Results are identical for every block
    size, worker count and estimator selection.

    Blocks fill one (estimators, SNRs, trials) error array and one (SNRs,
    trials) energy array, from which ``_row`` builds each row; ``keep_trials``
    keeps views of them as ``trial_errors[(name, snr)]`` and ``trial_norms[snr]``.
    """
    n_workers = _check_count("n_workers", n_workers, 1)
    blocks = [
        (si, first)
        for si in range(len(config.snr_db))
        for first in range(0, config.n_trials, _BLOCK)
    ]
    n_workers = min(n_workers, len(blocks))
    if n_workers > 1:
        # Imported here: multiprocessing costs every single-process start
        # about 30 ms.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(partial(_run_block, config), *zip(*blocks)))
    else:
        outcomes = [_run_block(config, si, first) for si, first in blocks]

    shape = (len(config.snr_db), config.n_trials)
    errors, norms = np.empty((len(config.estimators),) + shape), np.empty(shape)
    for (si, first), (block_errors, block_norms) in zip(blocks, outcomes):
        errors[:, si, first : first + block_norms.size] = block_errors
        norms[si, first : first + block_norms.size] = block_norms
    keys = list(product(enumerate(config.estimators), enumerate(config.snr_db)))
    result = SweepResult([_row(config, n, s, errors[e, i], norms[i]) for (e, n), (i, s) in keys])
    if keep_trials:
        result.trial_errors = {(n, s): errors[e, i] for (e, n), (i, s) in keys}
        result.trial_norms = dict(zip(config.snr_db, norms))
    return result


def false_alarm_calibration(
    system: SystemConfig,
    alphas: tuple[float, ...],
    n_sets_list: tuple[int, ...],
    n_bins: int = 200_000,
    master_seed: int = 0,
) -> list[dict]:
    """Empirical per-bin false alarm rates of the detector on pure noise.

    Synthesizes noise-only observation sets on pseudo-random patterns and
    counts, per (alpha, n_sets), the bins ``detect_support`` finds in each
    trial's sample PDP until at least ``n_bins`` bins are examined.  Returns
    one dict per combination with the rate and its binomial standard error.
    Each trial's generator draws, per set, a pattern seed and then the set's
    noise, so ``PilotPattern.pseudo_random`` and ``synthesize_observation`` of
    an all-zero channel, called in that order, reproduce the trial.  Blocks of
    about ``_CALIB_SETS`` sets share one matched filter and ``_pdp``, and per
    alpha one ``_threshold`` and ``_above``, with the same counts bit for bit.
    """
    if not alphas or not n_sets_list:
        raise ValueError("need at least one alpha and one set count")
    # A repeated alpha or set count would print a duplicate row.
    for name, values in (("alphas", alphas), ("set counts", n_sets_list)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must be distinct")
    if not system.d <= n_bins < math.inf:  # also rejects NaN
        raise ValueError(
            f"n_bins must cover at least one trial ({system.d} bins) and be finite, got {n_bins}"
        )
    master_seed = _check_count("master_seed", master_seed, 0)
    n_sets_list = tuple(_check_count("set counts", n, 1) for n in n_sets_list)
    dets = [DetectionConfig(alpha=alpha, noise_var=1.0) for alpha in alphas]
    rows = []
    d, n = system.d, system.n_pilots
    trials = math.ceil(n_bins / d)
    for set_idx, n_sets in enumerate(n_sets_list):
        counts = [0] * len(alphas)
        per_block = max(1, _CALIB_SETS // n_sets)
        for first in range(0, trials, per_block):
            block = range(first, min(first + per_block, trials))
            g_noise = np.empty((len(block), n_sets, 2, n))
            seeds = []
            for t, g_trial in zip(block, g_noise):
                rng = np.random.default_rng([master_seed, set_idx, t])
                for g in g_trial:
                    seeds.append(int(rng.integers(0, 2**63)))
                    rng.standard_normal(out=g)
            noise = _complex_gaussian(1.0, g_noise).reshape(-1, n)
            spectra = _spectra(d, _pseudo_random_rows(d, n, seeds), noise)
            values = _pdp(spectra.reshape(-1, n_sets, d), n)
            for i, det in enumerate(dets):
                counts[i] += np.count_nonzero(_above(values, _threshold(values, n_sets, n, det)))
        total = trials * d
        for alpha, count in zip(alphas, counts):
            rows.append(
                {
                    "alpha": alpha,
                    "n_sets": n_sets,
                    "n_bins": total,
                    "false_alarms": count,
                    "rate": count / total,
                    "stderr": math.sqrt(alpha * (1.0 - alpha) / total),
                }
            )
    return rows
