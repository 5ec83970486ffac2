"""Workload definitions shared by the benchmark runner, the traced run and the
reference recorder.

Every workload is one ``sparsechan`` CLI invocation on a generated config
file.  The seed is never part of the config: it reaches the program only as
``--seed``.  Sizes are fixed per workload (the run length decides how many
processes are measured, never how big each one is), so the CSV a process
writes is a pure function of the seed and can be checked against the
reference recorded in ``reference.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SNR_DB = (0, 5, 10, 15, 20, 25, 30)

# The CLI's default estimator set for ``sweep`` when no sweep.estimators key
# is given.  The check needs it to know which rows to expect.
CLI_DEFAULT_ESTIMATORS = ("dft", "li", "li-mmse", "mmse", "omp", "a1", "a2", "a3", "exomp")

D = 600  # subcarriers, and delay bins
N_PILOTS = 200
CLUSTER_RMS_US = 0.1

_COMMON = (
    ("system.d", str(D)),
    ("system.n_pilots", str(N_PILOTS)),
    ("channel.profile", "etu"),
    ("channel.cluster_rms_us", str(CLUSTER_RMS_US)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand: "sweep" or "detect-calib"
    keys: tuple[tuple[str, str], ...]  # config keys beyond _COMMON
    estimators: tuple[str, ...]  # sweep rows expected in the CSV
    threads: int  # the CLI's --threads
    why: str

    @property
    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in _COMMON + self.keys)

    def key(self, name: str) -> str:
        return dict(self.keys)[name]

    @property
    def snrs(self) -> tuple[float, ...]:
        return tuple(float(s) for s in self.key("sweep.snr_db").split(","))

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(float(a) for a in self.key("calib.alphas").split(","))

    @property
    def n_sets(self) -> tuple[int, ...]:
        return tuple(int(n) for n in self.key("calib.n_sets").split(","))

    @property
    def calib_bins(self) -> int:
        """Bins a calibration examines per combination: whole trials of D bins."""
        return math.ceil(int(self.key("calib.n_bins")) / D) * D

    @property
    def trials(self) -> int:
        """Trials one CLI process runs; a calibration trial is one bundle of sets."""
        if self.command == "detect-calib":
            return self.calib_bins // D * len(self.n_sets)
        return int(self.key("sweep.n_trials")) * len(self.snrs)

    @property
    def operations(self) -> int:
        """Checked operations per process: trials x estimators, or calibration rows."""
        if self.command == "detect-calib":
            return len(self.alphas) * len(self.n_sets)
        return self.trials * len(self.estimators)

    def cli_args(self, config_path: str, seed: int, out_path: str) -> list[str]:
        args = [self.command, "--config", config_path, "--seed", str(seed), "--out", out_path]
        if self.threads != 1:
            args += ["--threads", str(self.threads)]
        return args


def _sweep(n_trials: int, estimators: tuple[str, ...] | None) -> tuple[tuple[str, str], ...]:
    keys = (
        ("sweep.snr_db", ",".join(str(s) for s in SNR_DB)),
        ("sweep.n_prior_sets", "8"),
        ("sweep.n_trials", str(n_trials)),
    )
    if estimators is not None:
        keys += (("sweep.estimators", ",".join(estimators)),)
    return keys


MAIN_ESTIMATORS = ("dft", "li", "mmse", "omp", "a1", "a2", "a3", "exomp")
BASELINE_ESTIMATORS = ("dft", "li", "li-mmse", "mmse", "rrls")
GAP_ESTIMATORS = ("mmse", "exomp")

# Trials per SNR point of one main-sweep or pool process: small enough that a
# run measures several processes, whose median evens out the machine's
# process-to-process noise.
MAIN_TRIALS = 10
# Trials per SNR point of the quality probe.  exomp_gap_db is deterministic
# per seed; at this size its spread across seeds stays well inside its bound.
GAP_TRIALS = 20


@dataclass(frozen=True)
class Suite:
    workloads: dict[str, Workload]
    # The mmse+exomp sweep that gives every workload its exomp_gap_db.
    probe: Workload


def _suite(scale: float) -> Suite:
    def n(full: int) -> int:
        return max(1, round(full * scale))

    calib_bins = D * n(1000)
    ws = [
        Workload(
            "main-sweep",
            "sweep",
            _sweep(n(MAIN_TRIALS), MAIN_ESTIMATORS),
            MAIN_ESTIMATORS,
            1,
            "the acceptance main-sweep estimators; the pursuit engine and the exomp stopping rule dominate it",
        ),
        Workload(
            "baseline-sweep",
            "sweep",
            _sweep(n(60), BASELINE_ESTIMATORS),
            BASELINE_ESTIMATORS,
            1,
            "classical baselines and synthesis only; never enters the pursuit engine",
        ),
        Workload(
            "detect-calib",
            "detect-calib",
            (
                ("calib.alphas", "0.001,0.01,0.05"),
                ("calib.n_sets", "1,5,8"),
                ("calib.n_bins", str(calib_bins)),
            ),
            (),
            1,
            "noise-only detection: pattern draw, synthesis, matched filter, sample PDP, chi-square threshold; no solve",
        ),
        Workload(
            "cli-default-2proc",
            "sweep",
            _sweep(n(MAIN_TRIALS), None),
            CLI_DEFAULT_ESTIMATORS,
            2,
            "the CLI default estimator set through the two-process pool; the only workload using evaluation's pool",
        ),
    ]
    probe = Workload(
        "quality-probe",
        "sweep",
        _sweep(n(GAP_TRIALS), GAP_ESTIMATORS),
        GAP_ESTIMATORS,
        1,
        "exomp_gap_db: the paper's headline quality claim, checked on every run",
    )
    return Suite({w.name: w for w in ws}, probe)


FULL = _suite(1.0)
# A few trials per workload, for the benchmark's own self-tests.
SMOKE = _suite(0.05)


# Metric catalogue.  BENCHMARK.json is generated from it by manifest.py, and
# every run prints every metric of its kind; a per-layer metric that a
# workload does not exercise is printed as 0.
#
# End to end: (name, unit, better, bound), where bound is the share of the
# parent commit's median by which the metric may worsen before a change
# counts as a regression.
END_TO_END = (
    ("trials_per_s", "trials/s", "higher", 0.25),
    ("cpu_ms_per_trial", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("exomp_gap_db", "dB", "lower", 0.2),
)

# Public functions the traced run times, by module.
TIMED = {
    "channel": ("realize_channel", "to_continuous_pdp"),
    "signal_model": ("pseudo_random", "synthesize_observation", "matched_filter"),
    "baseline": (
        "estimate_dft",
        "estimate_linear_interp",
        "pilot_sample_covariance",
        "estimate_li_mmse",
        "estimate_mmse_oracle",
        "estimate_reduced_rank_ls",
    ),
    "sparse_recovery": (
        "sample_pdp",
        "detection_threshold",
        "omp",
        "algorithm_a1",
        "algorithm_a2",
        "algorithm_a3",
        "ex_omp",
    ),
}
# Called once per sweep rather than per trial, so no percentiles.
ONCE_PER_SWEEP = ("channel.to_continuous_pdp",)
UNTRACED = ("evaluation.run_sweep", "evaluation.false_alarm_calibration")
WORK_COUNTS = (
    ("sparse_recovery.omp.iters", "iters/call"),
    ("sparse_recovery.algorithm_a2.iters", "iters/call"),
    ("sparse_recovery.algorithm_a1.support", "bins/call"),
    ("sparse_recovery.algorithm_a3.support", "bins/call"),
    ("sparse_recovery.ex_omp.support", "bins/call"),
    ("sparse_recovery.ex_omp.rounds", "rounds/call"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    out = []
    for module, funcs in TIMED.items():
        for f in funcs:
            name = f"{module}.{f}"
            if name not in ONCE_PER_SWEEP:
                out += [(f"{name}.p50_ms", "ms", "lower"), (f"{name}.p90_ms", "ms", "lower")]
            out += [
                (f"{name}.ms_per_trial", "ms", "lower"),
                (f"{name}.calls", "calls/trial", "lower"),
                (f"{name}.errors", "count", "lower"),
            ]
    for name in UNTRACED:
        out += [(f"{name}.ms_per_trial", "ms", "lower"), (f"{name}.errors", "count", "lower")]
    out += [(name, unit, "lower") for name, unit in WORK_COUNTS]
    out += [
        ("sparse_recovery.ex_omp.us_per_bin_set", "us", "lower"),
        ("evaluation.self_ms_per_trial", "ms", "lower"),
        ("evaluation.scaling_efficiency", "ratio", "higher"),
        ("trace.overhead_ms_per_trial", "ms", "lower"),
        ("cli.interpreter_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("blas.unpinned_wall_ratio", "ratio", "lower"),
    ]
    return out
