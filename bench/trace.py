"""In-process traced run of one workload: the per-layer half of the benchmark.

    PYTHONPATH=src python3 bench/trace.py --workload main-sweep --seed 1 --seconds 15 --spans spans.json

``run.py --trace 1`` starts it in the workload's environment.  Each pass
regenerates every trial's inputs with public calls, in the order
``evaluation`` synthesizes them, and scores the workload's estimators on
them.  Every public function listed in ``workloads.TIMED`` is replaced, in
every module that imported it, by a wrapper that records a span (name,
start, end, parent span, trial id); calls made inside the package, such as
the matched filters inside a pursuit, are timed as children of their caller.
Each pass is followed by the untraced ``run_sweep`` (or
``false_alarm_calibration``) call on the same seed and size, whose per-trial
results must equal the traced ones: that proves the traced pass timed the
sweep's own inputs.  Passes repeat until ``--seconds`` have passed and at
least ``MIN_TRIALS`` trials have been traced.  Spans stay in memory and are
written to ``--spans`` at the end.  The last line of standard output is a
JSON object with the metrics and the check counts.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

import sparsechan
from sparsechan import baseline, channel, evaluation, signal_model, sparse_recovery
from sparsechan.signal_model import ObservationSet, PilotPattern, SystemConfig
from sparsechan.sparse_recovery import DetectionConfig, OmpConfig
from workloads import (
    CLUSTER_RMS_US,
    D,
    FULL,
    N_PILOTS,
    ONCE_PER_SWEEP,
    SMOKE,
    TIMED,
    UNTRACED,
    WORK_COUNTS,
    Workload,
)

SYSTEM = SystemConfig(d=D, n_pilots=N_PILOTS)
ALPHA = 1e-3  # the CLI's default detect.alpha
CLUSTER_RMS_S = CLUSTER_RMS_US * 1e-6
MODULES = (sparsechan, baseline, channel, evaluation, signal_model, sparse_recovery)
# Traced trials at least, so that the 90th percentile of a call made once per
# trial has ten samples beyond it.
MIN_TRIALS = 100


class Tracer:
    """Timing wrappers around public functions, and the spans they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, trial id, error class]
        self.trial = -1  # id shared by the spans of one trial; -1 outside trials
        self.offset = 0  # first trial id of the current pass
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def timed(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.trial, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return timed

    def install(self) -> None:
        for module, funcs in TIMED.items():
            home = getattr(sparsechan, module)
            for f in funcs:
                name = f"{module}.{f}"
                if f == "pseudo_random":
                    original = PilotPattern.__dict__[f]
                    self._patches.append((PilotPattern, f, original))
                    setattr(PilotPattern, f, classmethod(self._wrap(name, original.__func__)))
                    continue
                original = getattr(home, f)
                wrapped = self._wrap(name, original)
                for m in MODULES:
                    if getattr(m, f, None) is original:
                        self._patches.append((m, f, original))
                        setattr(m, f, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _data_indices(pattern: PilotPattern) -> np.ndarray:
    mask = np.ones(SYSTEM.d, dtype=bool)
    mask[pattern.indices] = False
    return np.flatnonzero(mask)


class Job:
    """One workload's traced pass, its untraced twin and the counts taken on the way."""

    def __init__(self, w: Workload, seed: int) -> None:
        self.w, self.seed = w, seed
        self.work: dict[str, list[float]] = defaultdict(list)  # per-call work counts
        self.bin_sets = 0  # ex_omp support size x observation sets, summed
        self.failures = 0  # estimator calls that raised


class SweepTrace(Job):
    untraced_name = "evaluation.run_sweep"

    def __init__(self, w: Workload, seed: int) -> None:
        super().__init__(w, seed)
        self.n_trials = int(w.key("sweep.n_trials"))

    def traced_pass(self, tracer: Tracer) -> dict:
        """Per-trial mean squared data-subcarrier errors, keyed (estimator, snr)."""
        w = self.w
        profile = channel.etu_profile()
        pdp = channel.to_continuous_pdp(profile, SYSTEM, cluster_rms_s=CLUSTER_RMS_S, normalize=True)
        uni = PilotPattern.uniform(SYSTEM, SYSTEM.d // SYSTEM.n_pilots)
        active = np.flatnonzero(pdp.variances > 0)
        if active.size > SYSTEM.n_pilots:
            strongest = np.argsort(pdp.variances[active])[::-1][: SYSTEM.n_pilots]
            active = np.sort(active[strongest])
        uni_data = _data_indices(uni)
        n_prior = int(w.key("sweep.n_prior_sets"))
        errors = {(e, s): np.full(self.n_trials, np.nan) for e in w.estimators for s in w.snrs}
        for si, snr in enumerate(w.snrs):
            sigma2 = 10.0 ** (-snr / 10.0)
            for ti in range(self.n_trials):
                tracer.trial = tracer.offset + si * self.n_trials + ti
                rng = np.random.default_rng([self.seed, si, ti])
                theta0 = channel.realize_channel(pdp, rng)
                true_freq = np.fft.fft(theta0)
                uni_obs = signal_model.synthesize_observation(SYSTEM, uni, theta0, sigma2, rng)
                rand_pattern = PilotPattern.pseudo_random(SYSTEM, int(rng.integers(0, 2**63)))
                rand_obs = signal_model.synthesize_observation(SYSTEM, rand_pattern, theta0, sigma2, rng)
                priors_rand = []
                for _ in range(n_prior):
                    th = channel.realize_channel(pdp, rng)
                    pat = PilotPattern.pseudo_random(SYSTEM, int(rng.integers(0, 2**63)))
                    priors_rand.append(signal_model.synthesize_observation(SYSTEM, pat, th, sigma2, rng))
                priors_uni = []
                for _ in range(n_prior):
                    th = channel.realize_channel(pdp, rng)
                    priors_uni.append(signal_model.synthesize_observation(SYSTEM, uni, th, sigma2, rng))
                rand_data = _data_indices(rand_pattern)
                det = DetectionConfig(alpha=ALPHA, noise_var=sigma2)
                full = ObservationSet(tuple([rand_obs] + priors_rand))
                for name in w.estimators:
                    try:
                        freq, data = self._estimate(
                            name, uni_obs, rand_obs, priors_uni, priors_rand, full, det,
                            sigma2, pdp, active, uni_data, rand_data,
                        )
                    except Exception:  # scored as a failure, as run_sweep does
                        self.failures += 1
                        continue
                    err = freq[data] - true_freq[data]
                    errors[(name, snr)][ti] = float(np.mean(np.abs(err) ** 2))
        tracer.trial = -1
        return errors

    def _estimate(self, name, uni_obs, rand_obs, priors_uni, priors_rand, full, det,
                  sigma2, pdp, active, uni_data, rand_data):
        cfg = OmpConfig()
        if name == "dft":
            return baseline.estimate_dft(uni_obs, SYSTEM).channel_freq, uni_data
        if name == "li":
            return baseline.estimate_linear_interp(uni_obs, SYSTEM).channel_freq, uni_data
        if name == "li-mmse":
            cov = baseline.pilot_sample_covariance(priors_uni, sigma2)
            return baseline.estimate_li_mmse(uni_obs, cov, sigma2, SYSTEM).channel_freq, uni_data
        if name == "mmse":
            return baseline.estimate_mmse_oracle(rand_obs, pdp, sigma2, SYSTEM).channel_freq, rand_data
        if name == "rrls":
            est = baseline.estimate_reduced_rank_ls(uni_obs, baseline.SupportSet(active), SYSTEM)
            return est.channel_freq, uni_data
        if name == "omp":
            est = sparse_recovery.omp(rand_obs, cfg)
            self.work["sparse_recovery.omp.iters"].append(len(est.residual_sq_history) - 1)
        elif name == "a1":
            est = sparse_recovery.algorithm_a1(full, det)[0]
            self.work["sparse_recovery.algorithm_a1.support"].append(est.support.size)
        elif name == "a2":
            prior = sparse_recovery.sample_pdp(ObservationSet(tuple(priors_rand)))
            est = sparse_recovery.algorithm_a2(rand_obs, prior, det, cfg)
            self.work["sparse_recovery.algorithm_a2.iters"].append(len(est.residual_sq_history) - 1)
        elif name == "a3":
            est = sparse_recovery.algorithm_a3(full, det, cfg)[0]
            self.work["sparse_recovery.algorithm_a3.support"].append(est.support.size)
        elif name == "exomp":
            est = sparse_recovery.ex_omp(full, det, cfg)[0]
            self.work["sparse_recovery.ex_omp.support"].append(est.support.size)
            self.work["sparse_recovery.ex_omp.rounds"].append(len(est.residual_sq_history) - 1)
            self.bin_sets += est.support.size * full.n_sets
        else:
            raise ValueError(f"unknown estimator {name!r}")
        return est.channel_freq(), rand_data

    def untraced(self):
        cfg = evaluation.SweepConfig(
            system=SYSTEM,
            profile=channel.etu_profile(),
            snr_db=self.w.snrs,
            n_trials=self.n_trials,
            estimators=self.w.estimators,
            n_prior_sets=int(self.w.key("sweep.n_prior_sets")),
            master_seed=self.seed,
            alpha=ALPHA,
            cluster_rms_s=CLUSTER_RMS_S,
        )
        return evaluation.run_sweep(cfg, keep_trials=True).trial_errors

    def mismatches(self, traced, untraced) -> list[tuple[int, str]]:
        """(failed operations, description) per row whose trial errors differ."""
        out = []
        for key, mine in traced.items():
            same = np.isclose(mine, untraced[key], rtol=1e-9, atol=0.0, equal_nan=True)
            if not same.all():
                bad = int(np.sum(~same))
                out.append((bad, f"{key[0]}@{key[1]:g}: {bad} trial errors differ from run_sweep"))
        return out



class CalibTrace(Job):
    untraced_name = "evaluation.false_alarm_calibration"

    def __init__(self, w: Workload, seed: int) -> None:
        super().__init__(w, seed)
        self.n_bins = int(w.key("calib.n_bins"))

    def traced_pass(self, tracer: Tracer) -> dict:
        zeros = np.zeros(SYSTEM.d, dtype=np.complex128)
        per_count = math.ceil(self.n_bins / SYSTEM.d)
        counts = {}
        for set_idx, n_sets in enumerate(self.w.n_sets):
            found = {alpha: 0 for alpha in self.w.alphas}
            for t in range(per_count):
                tracer.trial = tracer.offset + set_idx * per_count + t
                rng = np.random.default_rng([self.seed, set_idx, t])
                obs = []
                for _ in range(n_sets):
                    pat = PilotPattern.pseudo_random(SYSTEM, int(rng.integers(0, 2**63)))
                    obs.append(signal_model.synthesize_observation(SYSTEM, pat, zeros, 1.0, rng))
                spdp = sparse_recovery.sample_pdp(ObservationSet(tuple(obs)))
                for alpha in self.w.alphas:
                    thr = sparse_recovery.detection_threshold(spdp, DetectionConfig(alpha=alpha, noise_var=1.0))
                    found[alpha] += int(np.count_nonzero(spdp.values > thr))
            for alpha, c in found.items():
                counts[(alpha, n_sets)] = c
        tracer.trial = -1
        return counts

    def untraced(self):
        rows = evaluation.false_alarm_calibration(
            SYSTEM, self.w.alphas, self.w.n_sets, n_bins=self.n_bins, master_seed=self.seed
        )
        return {(r["alpha"], r["n_sets"]): r["false_alarms"] for r in rows}

    def mismatches(self, traced, untraced) -> list[tuple[int, str]]:
        return [
            (1, f"{alpha:g}@{n}: {c} false alarms traced, {untraced.get((alpha, n))} untraced")
            for (alpha, n), c in traced.items()
            if untraced.get((alpha, n)) != c
        ]


def _p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile; it has ten samples beyond it from 100 samples on."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def summarize(
    tracer: Tracer, job, traced_s: float, untraced_s: float, passes: int, untraced_errors: Counter
) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, and the error counts by exception class."""
    trials = job.w.trials * passes
    durations: dict[str, list[float]] = defaultdict(list)
    errors: dict[str, Counter] = defaultdict(Counter)
    root_ns = 0
    for name, start, end, parent, _trial, error in tracer.spans:
        durations[name].append((end - start) / 1e6)
        if error:
            errors[name][error] += 1
        if parent < 0:
            root_ns += end - start
    metrics = {}
    for module, funcs in TIMED.items():
        for f in funcs:
            name = f"{module}.{f}"
            d = durations.get(name, [])
            if name not in ONCE_PER_SWEEP:
                metrics[f"{name}.p50_ms"] = (statistics.median(d) if d else 0.0, "ms")
                metrics[f"{name}.p90_ms"] = (_p90(d) if d else 0.0, "ms")
            metrics[f"{name}.ms_per_trial"] = (sum(d) / trials, "ms")
            metrics[f"{name}.calls"] = (len(d) / trials, "calls/trial")
            metrics[f"{name}.errors"] = (sum(errors[name].values()), "count")
    errors[job.untraced_name] = untraced_errors
    untraced_ms = 1e3 * untraced_s / trials
    for name in UNTRACED:
        metrics[f"{name}.ms_per_trial"] = (untraced_ms if name == job.untraced_name else 0.0, "ms")
        metrics[f"{name}.errors"] = (sum(errors[name].values()), "count")
    for name, unit in WORK_COUNTS:
        values = job.work.get(name)
        metrics[name] = (statistics.fmean(values) if values else 0.0, unit)
    exomp = sum(durations.get("sparse_recovery.ex_omp", []))
    metrics["sparse_recovery.ex_omp.us_per_bin_set"] = (1e3 * exomp / job.bin_sets if job.bin_sets else 0.0, "us")
    metrics["evaluation.self_ms_per_trial"] = (untraced_ms - root_ns / 1e6 / trials, "ms")
    metrics["trace.overhead_ms_per_trial"] = (1e3 * (traced_s - untraced_s) / trials, "ms")
    return metrics, {name: dict(c) for name, c in errors.items() if c}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    w = (SMOKE if args.smoke else FULL).workloads[args.workload]
    job = CalibTrace(w, args.seed) if w.command == "detect-calib" else SweepTrace(w, args.seed)
    warnings.simplefilter("ignore")  # the pursuits warn on empty detections, once per trial

    tracer = Tracer()
    problems: list[str] = []
    failed = 0
    untraced_errors: Counter = Counter()
    traced_s = untraced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while passes * w.trials < MIN_TRIALS or time.perf_counter() - start < args.seconds:
        tracer.offset = passes * w.trials
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = job.traced_pass(tracer)
            traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        passes += 1
        t0 = time.perf_counter()
        try:
            untraced = job.untraced()
        except Exception as exc:  # reported as this pass's failure
            untraced_errors[type(exc).__name__] += 1
            failed += w.operations
            problems.append(f"pass {passes}: untraced call raised {exc!r}")
            continue
        finally:
            untraced_s += time.perf_counter() - t0
        for bad, message in job.mismatches(traced, untraced):
            failed += bad
            problems.append(f"pass {passes}: {message}")

    metrics, errors_by_class = summarize(tracer, job, traced_s, untraced_s, passes, untraced_errors)
    with open(args.spans, "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "trial", "error"],
                   "passes": passes, "trials_per_pass": w.trials, "spans": tracer.spans}, fh)
    for name, by_class in errors_by_class.items():
        print(f"errors in {name}: {by_class}")
    print(json.dumps({
        "attempted": w.operations * passes,
        "failed": failed + job.failures,
        "problems": problems,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
