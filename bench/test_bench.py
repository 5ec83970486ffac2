"""Self-tests of the benchmark at smoke size.

    python3 -m pytest -q bench

They run the benchmark's own command on every workload at a few trials per
workload, so they take a minute or two; the repository's test suite does
not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from manifest import manifest
from workloads import END_TO_END, SMOKE, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SEED = 1

# The metrics the benchmark was specified with, listed apart from the
# catalogue so that a catalogue edit cannot drop one unnoticed.
NAMED_END_TO_END = {
    "trials_per_s": "trials/s",
    "cpu_ms_per_trial": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "exomp_gap_db": "dB",
}
NAMED_CALLS = (
    "channel.realize_channel",
    "signal_model.pseudo_random",
    "signal_model.synthesize_observation",
    "signal_model.matched_filter",
    "baseline.estimate_dft",
    "baseline.estimate_linear_interp",
    "baseline.pilot_sample_covariance",
    "baseline.estimate_li_mmse",
    "baseline.estimate_mmse_oracle",
    "baseline.estimate_reduced_rank_ls",
    "sparse_recovery.sample_pdp",
    "sparse_recovery.detection_threshold",
    "sparse_recovery.omp",
    "sparse_recovery.algorithm_a1",
    "sparse_recovery.algorithm_a2",
    "sparse_recovery.algorithm_a3",
    "sparse_recovery.ex_omp",
)
NAMED_PER_LAYER = {
    f"{call}.{stat}"
    for call in NAMED_CALLS
    for stat in ("p50_ms", "p90_ms", "ms_per_trial", "calls", "errors")
} | {
    "channel.to_continuous_pdp.ms_per_trial",
    "evaluation.run_sweep.ms_per_trial",
    "evaluation.false_alarm_calibration.ms_per_trial",
    "sparse_recovery.omp.iters",
    "sparse_recovery.algorithm_a2.iters",
    "sparse_recovery.algorithm_a1.support",
    "sparse_recovery.algorithm_a3.support",
    "sparse_recovery.ex_omp.support",
    "sparse_recovery.ex_omp.rounds",
    "sparse_recovery.ex_omp.us_per_bin_set",
    "evaluation.self_ms_per_trial",
    "evaluation.scaling_efficiency",
    "trace.overhead_ms_per_trial",
    "cli.interpreter_s",
    "cli.import_s",
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_manifest_is_current():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == manifest()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SMOKE.workloads))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    catalogue = END_TO_END if trace == 0 else per_layer_metrics()
    units = {name: unit for name, unit, *_ in catalogue}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace == 0:
        assert units == NAMED_END_TO_END
    else:
        assert NAMED_PER_LAYER <= set(units)


def sweep_csv(
    rows: dict[str, float], n_trials: int, failures: dict[str, int] | None = None, seed: int = SEED
) -> str:
    """A CSV in the CLI's format with the given nmse_db per row."""
    lines = ["estimator,snr_db,nmse_db,capacity_fraction,n_trials,failures,master_seed"]
    for key, nmse in rows.items():
        est, snr = key.split("@")
        fails = (failures or {}).get(key, 0)
        lines.append(f"{est},{snr},{nmse!r},0.5,{n_trials},{fails},{seed}")
    return "\n".join(lines) + "\n"


def test_sweep_check_rejects_raised_row_and_failures():
    w = SMOKE.workloads["main-sweep"]
    reference = checks.load_reference(w)
    rows = dict(reference[str(SEED)])
    n_trials = int(w.key("sweep.n_trials"))
    assert checks.check_output(w, sweep_csv(rows, n_trials), SEED, reference) == (0, [])

    raised = dict(rows, **{"exomp@10": rows["exomp@10"] + checks.TOLERANCE_DB + 0.01})
    failed, problems = checks.check_output(w, sweep_csv(raised, n_trials), SEED, reference)
    assert failed == n_trials and len(problems) == 1 and "exomp@10" in problems[0]

    lowered = dict(rows, **{"exomp@10": rows["exomp@10"] - 3.0})
    assert checks.check_output(w, sweep_csv(lowered, n_trials), SEED, reference) == (0, [])

    # A seed that was not recorded is checked against the worst recorded row.
    unrecorded = max(int(s) for s in reference) + 1
    worst = {k: max(r[k] for r in reference.values()) for k in rows}
    within = dict(worst, **{"exomp@10": worst["exomp@10"] + checks.FALLBACK_TOLERANCE_DB - 0.01})
    csv_text = sweep_csv(within, n_trials, seed=unrecorded)
    assert checks.check_output(w, csv_text, unrecorded, reference) == (0, [])
    beyond = dict(worst, **{"exomp@10": worst["exomp@10"] + checks.FALLBACK_TOLERANCE_DB + 0.01})
    csv_text = sweep_csv(beyond, n_trials, seed=unrecorded)
    failed, problems = checks.check_output(w, csv_text, unrecorded, reference)
    assert failed == n_trials and len(problems) == 1 and "exomp@10" in problems[0]

    failed, problems = checks.check_output(
        w, sweep_csv(rows, n_trials, failures={"a3@0": 1}), SEED, reference
    )
    assert failed == 1 and len(problems) == 1 and "a3@0" in problems[0]

    missing = dict(rows)
    del missing["dft@30"]
    failed, problems = checks.check_output(w, sweep_csv(missing, n_trials), SEED, reference)
    assert failed == n_trials and "dft@30" in problems[0]


def test_calibration_check_is_relative_to_reference():
    w = SMOKE.workloads["detect-calib"]
    reference = checks.load_reference(w)
    rates = reference[str(SEED)]
    n_bins = w.calib_bins

    def csv(key: str, rate: float) -> str:
        lines = ["alpha,n_sets,n_bins,false_alarms,rate,stderr"]
        for k, r in dict(rates, **{key: rate}).items():
            alpha, n_sets = k.split("@")
            lines.append(f"{alpha},{n_sets},{n_bins},{round(r * n_bins)},{r!r},0.001")
        return "\n".join(lines) + "\n"

    key = "0.05@8"
    assert checks.check_output(w, csv(key, 0.05), SEED, reference) == (0, [])
    far = 0.05 + abs(rates[key] - 0.05) + (checks.CALIB_STDERRS + 1) * (0.05 * 0.95 / n_bins) ** 0.5
    failed, problems = checks.check_output(w, csv(key, far), SEED, reference)
    assert failed == 1 and key in problems[0]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("main-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
