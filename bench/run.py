"""sparsechan benchmark: run one workload through the CLI and print its metrics.

    python3 bench/run.py --workload main-sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  With ``--trace 0`` the workload's CLI
sweep runs in fresh processes, one after another, until ``--seconds`` have
passed, and the end-to-end metrics are the medians over those processes.
With ``--trace 1`` the per-layer metrics come from an in-process traced run
(``trace.py``) plus a few timed CLI runs.  Every CLI output is checked
against ``reference.json``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
run record (versions, BLAS environment, every process) is written to
``.bench_out/``.  Workloads, metrics and recorded baselines are described in
``NOTES.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from workloads import BLAS_VARS, D, FULL, SMOKE, Workload

BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 5
PROCESS_TIMEOUT_S = 150.0
# Trials per SNR point of the unpinned sweep that the pool workload's traced
# run times against its pinned twin.
UNPINNED_TRIALS = 2

VERSIONS_CODE = """
import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas_name": blas.get("name"),
                  "blas_version": blas.get("version")}))
"""
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import sparsechan; "
    "print(time.perf_counter() - t)"
)


@dataclasses.dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float  # user + sys of the process and its reaped workers
    maxrss_mb: float  # largest max-RSS of the process or any reaped worker
    log: str


def child_env(root: Path, pinned: bool = True) -> dict[str, str]:
    """The environment of a program process: ``src/`` on the path, and every
    BLAS thread variable set to 1 (pinned) or removed (as shipped)."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env.pop(var, None)
        if pinned:
            env[var] = "1"
    return env


def run_process(argv: list[str], env: dict[str, str], log_path: Path, cwd: Path) -> Proc:
    """Run one process to completion; its own session lets a timeout kill its workers too."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        p = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
        )
        timer = threading.Timer(PROCESS_TIMEOUT_S, os.killpg, (p.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=p.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        log=log_path.read_text(),
    )


class Runner:
    """Runs CLI processes for one workload and checks what they write."""

    def __init__(self, root: Path, out: Path, seed: int) -> None:
        self.root, self.out, self.seed = root, out, seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.procs: list[dict] = []
        self._count = 0

    def cli(self, w: Workload, args: list[str], env: dict[str, str]) -> Proc:
        self._count += 1
        argv = [sys.executable, "-m", "sparsechan.cli", *args]
        p = run_process(argv, env, self.out / f"{self._count:03d}-{w.name}.log", self.root)
        self.procs.append({
            "argv": argv[1:], "blas_env": {var: env.get(var) for var in BLAS_VARS},
            "code": p.code, "wall_s": p.wall_s, "cpu_s": p.cpu_s, "maxrss_mb": p.maxrss_mb,
        })
        return p

    def config(self, w: Workload) -> Path:
        digest = hashlib.sha256(w.config_text.encode()).hexdigest()[:12]
        path = self.out / f"{w.name}-{digest}.cfg"
        path.write_text(w.config_text)
        return path

    def checked_run(self, w: Workload, env: dict[str, str], threads: int | None = None):
        """One checked CLI run of a workload, optionally with another process
        count (the CSV must not change); returns the process and its CSV text."""
        reference = checks.load_reference(w)
        if threads is not None:
            w = dataclasses.replace(w, threads=threads)
        csv_path = self.out / f"{self._count + 1:03d}-{w.name}.csv"
        p = self.cli(w, w.cli_args(str(self.config(w)), self.seed, str(csv_path)), env)
        text = csv_path.read_text() if csv_path.exists() else ""
        self.attempted += w.operations
        if p.code != 0 or not text:
            self.failed += w.operations
            self.problems.append(f"{w.name}: exit code {p.code}, CSV {'present' if text else 'missing'}")
            return p, text
        failed, problems = checks.check_output(w, text, self.seed, reference)
        self.failed += failed
        self.problems += [f"{w.name}: {m}" for m in problems]
        return p, text

    def setup_s(self, w: Workload, env: dict[str, str]) -> float:
        """Median wall time of a fresh ``sparsechan pdp`` on the workload's config."""
        walls = []
        for _ in range(SETUP_RUNS):
            p = self.cli(w, ["pdp", "--config", str(self.config(w))], env)
            self.attempted += 1
            if p.code != 0 or f"grid_bins: {D}" not in p.log:
                self.failed += 1
                self.problems.append(f"pdp: exit code {p.code}")
            walls.append(p.wall_s)
        return statistics.median(walls)

    def python_s(self, code: str, env: dict[str, str], from_stdout: bool) -> float:
        """Median over fresh interpreters of their wall time, or of the time they print."""
        values = []
        for i in range(SETUP_RUNS):
            p = run_process([sys.executable, "-c", code], env, self.out / f"python-{i}.log", self.root)
            self.attempted += 1
            if p.code != 0:
                self.failed += 1
                self.problems.append(f"python -c: exit code {p.code}")
                continue
            values.append(float(p.log.split()[-1]) if from_stdout else p.wall_s)
        return statistics.median(values) if values else 0.0


def end_to_end(r: Runner, w: Workload, suite, seconds: float, env: dict[str, str]) -> dict:
    setup = r.setup_s(w, env)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(r.checked_run(w, env))
    try:
        gap = checks.exomp_gap_db(suite.probe, r.checked_run(suite.probe, env)[1])
    except (KeyError, ValueError):
        gap = 0.0  # the probe's check has already failed this run
    return {
        "trials_per_s": (statistics.median(w.trials / p.wall_s for p, _ in runs), "trials/s"),
        "cpu_ms_per_trial": (statistics.median(1e3 * p.cpu_s / w.trials for p, _ in runs), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (statistics.median(p.maxrss_mb for p, _ in runs), "MB"),
        "exomp_gap_db": (gap, "dB"),
    }


def traced(r: Runner, w: Workload, smoke: bool, seconds: float, env: dict[str, str]) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "trace.py"), "--workload", w.name,
            "--seed", str(r.seed), "--seconds", str(seconds), "--spans", str(r.out / "spans.json")]
    if smoke:
        argv.append("--smoke")
    p = run_process(argv, env, r.out / "trace.log", r.root)
    try:
        result = json.loads(p.log.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if p.code != 0 or not isinstance(result, dict):
        raise SystemExit(f"traced run failed (exit code {p.code}):\n{p.log}")
    r.attempted += result["attempted"]
    r.failed += result["failed"]
    r.problems += result["problems"]
    metrics = {name: tuple(v) for name, v in result["metrics"].items()}

    metrics["cli.interpreter_s"] = (r.python_s("pass", env, from_stdout=False), "s")
    metrics["cli.import_s"] = (r.python_s(IMPORT_CODE, env, from_stdout=True), "s")

    efficiency = ratio = 0.0
    if w.threads > 1:
        # Worker-count invariance: the pool and a single process must write
        # byte-identical CSVs for the same seed and size.
        pool, pool_csv = r.checked_run(w, env)
        single, single_csv = r.checked_run(w, env, threads=1)
        if pool_csv != single_csv:
            r.failed += w.operations
            r.problems.append(f"{w.name}: CSV from {w.threads} processes differs from 1 process")
        efficiency = single.wall_s / (w.threads * pool.wall_s)
        # The same pool sweep as shipped, with the BLAS variables removed.
        n_small = str(min(UNPINNED_TRIALS, int(w.key("sweep.n_trials"))))
        small = dataclasses.replace(
            w, keys=tuple((k, n_small if k == "sweep.n_trials" else v) for k, v in w.keys)
        )
        args = small.cli_args(str(r.config(small)), r.seed, str(r.out / "unpinned.csv"))
        pinned = r.cli(small, args, env)
        unpinned = r.cli(small, args, child_env(r.root, pinned=False))
        r.attempted += 2 * small.operations
        if pinned.code or unpinned.code:
            r.failed += small.operations * (bool(pinned.code) + bool(unpinned.code))
            r.problems.append(f"unpinned comparison: exit codes {pinned.code}, {unpinned.code}")
        ratio = unpinned.wall_s / pinned.wall_s
    metrics["evaluation.scaling_efficiency"] = (efficiency, "ratio")
    metrics["blas.unpinned_wall_ratio"] = (ratio, "ratio")
    return metrics


def run_record(r: Runner, w: Workload, args, env: dict[str, str]) -> dict:
    p = run_process([sys.executable, "-c", VERSIONS_CODE], env, r.out / "versions.log", r.root)
    versions = json.loads(p.log.strip().splitlines()[-1]) if p.code == 0 else {}
    commit = None
    if (r.root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=r.root, capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((r.root / "src").rglob("*.py")):
        digest.update(path.relative_to(r.root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **versions,
        "blas_env": {var: env.get(var) for var in BLAS_VARS},
        "config": w.config_text,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    args = parser.parse_args(argv)

    suite = SMOKE if args.smoke else FULL
    if args.workload not in suite.workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(suite.workloads)}")
    w = suite.workloads[args.workload]
    root = Path.cwd()
    if not (root / "src" / "sparsechan" / "cli.py").is_file():
        print(f"error: {root} holds no sparsechan sources (src/sparsechan)", file=sys.stderr)
        return 2
    try:
        for needed in (w, suite.probe):
            checks.load_reference(needed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tag = f"{w.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    out = root / ".bench_out" / tag
    out.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    r = Runner(root, out, args.seed)
    record = run_record(r, w, args, env)
    if args.trace:
        metrics = traced(r, w, args.smoke, args.seconds, env)
    else:
        metrics = end_to_end(r, w, suite, args.seconds, env)

    record.update(processes=r.procs, problems=r.problems, metrics=metrics)
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:>48} {value:14.6g} {unit}")
    for problem in r.problems:
        print(f"check failed: {problem}")
    print(f"record: {out / 'record.json'}")
    result = {
        "correct": r.failed == 0 and not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
