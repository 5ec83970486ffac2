"""Output checks: every CSV a CLI process writes is compared with the
reference recorded in ``reference.json``.

A sweep row fails when it is missing, not finite, reports failed trials,
carries the wrong trial count or seed, or has an ``nmse_db`` higher than the
reference.  The comparison is one-sided so that an accuracy fix passes.  The
reference is the recorded row for the same seed, plus ``TOLERANCE_DB``; for a
seed that was not recorded it is the worst value over all recorded seeds,
plus ``FALLBACK_TOLERANCE_DB``.  NOTES.md gives the measurements behind both.

A calibration row fails when it is missing, not finite, covers the wrong
number of bins, or its false-alarm rate lies further from alpha than the
reference rate does, by more than ``CALIB_STDERRS`` binomial standard errors.
The reference is the recorded rate for the same seed, otherwise the mean over
recorded seeds.  A rate that moves toward alpha always passes.

Failed checks are counted as failed operations: every trial of a failing
sweep row (its ``failures`` count when only that is wrong), or the failing
calibration row.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from workloads import Workload

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Rounding-level changes moved no row by more than 1e-8 dB, and the planned
# ex_omp stopping rule raised none by more than 0.006 dB; 0.1 dB is 2.3 % NMSE.
TOLERANCE_DB = 0.1
# A recorded seed's row exceeded the worst of the other 31 seeds by up to
# 1.28 dB; an unrecorded seed is checked against the worst with this margin.
FALLBACK_TOLERANCE_DB = 3.0
CALIB_STDERRS = 5.0


def sweep_key(estimator: str, snr_db: float) -> str:
    return f"{estimator}@{snr_db:g}"


def calib_key(alpha: float, n_sets: int) -> str:
    return f"{alpha:g}@{n_sets}"


def expected_keys(w: Workload) -> list[str]:
    if w.command == "detect-calib":
        return [calib_key(a, n) for n in w.n_sets for a in w.alphas]
    return [sweep_key(e, s) for e in w.estimators for s in w.snrs]


def parse_csv(w: Workload, text: str) -> dict[str, dict[str, str]]:
    """Rows of a CLI CSV keyed like the reference."""
    rows = {}
    for r in csv.DictReader(io.StringIO(text)):
        if w.command == "detect-calib":
            key = calib_key(float(r["alpha"]), int(r["n_sets"]))
        else:
            key = sweep_key(r["estimator"], float(r["snr_db"]))
        rows[key] = r
    return rows


def reference_values(w: Workload, csv_text: str) -> dict[str, float]:
    """The per-row values the reference records: nmse_db, or the calibration rate."""
    field = "rate" if w.command == "detect-calib" else "nmse_db"
    return {k: float(r[field]) for k, r in parse_csv(w, csv_text).items()}


def load_reference(w: Workload, path: Path = REFERENCE_PATH) -> dict[str, dict[str, float]]:
    """Recorded rows per seed for one workload; refuses a reference of another size."""
    for entry in json.loads(path.read_text()).get(w.name, []):
        if entry["config"] == w.config_text and entry["threads"] == w.threads:
            return entry["seeds"]
    raise ValueError(
        f"{path.name} has no entry for {w.name} at this size; "
        "record one with bench/record_reference.py"
    )


def check_output(
    w: Workload, csv_text: str, seed: int, reference: dict[str, dict[str, float]]
) -> tuple[int, list[str]]:
    """Failed operations and a description of each failed check, for one CSV."""
    try:
        rows = parse_csv(w, csv_text)
    except (KeyError, ValueError) as exc:
        return w.operations, [f"unreadable CSV: {exc!r}"]
    recorded = reference.get(str(seed))
    if w.command == "detect-calib":
        return _check_calib(w, rows, recorded, reference)
    return _check_sweep(w, rows, seed, recorded, reference)


def _check_sweep(w, rows, seed, recorded, reference):
    n_trials = int(w.key("sweep.n_trials"))
    failed, problems = 0, []
    expected = expected_keys(w)
    for key in sorted(set(rows) - set(expected)):
        failed += n_trials
        problems.append(f"{key}: unexpected row")
    for key in expected:
        r = rows.get(key)
        if r is None:
            failed += n_trials
            problems.append(f"{key}: missing")
            continue
        try:
            nmse = float(r["nmse_db"])
            finite = math.isfinite(nmse) and math.isfinite(float(r["capacity_fraction"]))
            failures = int(r["failures"])
            header_ok = int(r["n_trials"]) == n_trials and int(r["master_seed"]) == seed
        except (KeyError, ValueError) as exc:
            failed += n_trials
            problems.append(f"{key}: unreadable row: {exc!r}")
            continue
        if not finite or not header_ok:
            failed += n_trials
            problems.append(f"{key}: non-finite value or wrong n_trials/master_seed")
            continue
        if failures:
            failed += failures
            problems.append(f"{key}: {failures} failed trials")
        if recorded:
            ref, tol = recorded[key], TOLERANCE_DB
        else:
            ref, tol = max(s[key] for s in reference.values()), FALLBACK_TOLERANCE_DB
        if nmse > ref + tol:
            failed += n_trials - failures
            problems.append(f"{key}: nmse_db {nmse:.3f} exceeds reference {ref:.3f} + {tol}")
    return failed, problems


def _check_calib(w, rows, recorded, reference):
    n_bins = w.calib_bins
    failed, problems = 0, []
    for key in sorted(set(rows) - set(expected_keys(w))):
        failed += 1
        problems.append(f"{key}: unexpected row")
    for key in expected_keys(w):
        r = rows.get(key)
        alpha = float(key.split("@")[0])
        try:
            rate = float(r["rate"])
            ok = math.isfinite(rate) and int(r["n_bins"]) == n_bins
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            failed += 1
            problems.append(f"{key}: missing, unreadable, non-finite or wrong n_bins")
            continue
        if recorded:
            ref = recorded[key]
        else:
            ref = sum(s[key] for s in reference.values()) / len(reference)
        stderr = math.sqrt(alpha * (1.0 - alpha) / n_bins)
        allowed = abs(ref - alpha) + CALIB_STDERRS * stderr
        if abs(rate - alpha) > allowed:
            failed += 1
            problems.append(
                f"{key}: rate {rate:.6g} is {abs(rate - alpha):.3g} from alpha, "
                f"reference allows {allowed:.3g}"
            )
    return failed, problems


def exomp_gap_db(w: Workload, csv_text: str) -> float:
    """Mean over SNR points of the exomp minus mmse nmse_db."""
    rows = parse_csv(w, csv_text)
    gaps = [
        float(rows[sweep_key("exomp", s)]["nmse_db"]) - float(rows[sweep_key("mmse", s)]["nmse_db"])
        for s in w.snrs
    ]
    return sum(gaps) / len(gaps)
