"""Record the rows the output checks compare against, into reference.json.

    python3 bench/record_reference.py [--workload NAME ...]

Run it from the root of a checkout of the commit whose outputs become the
reference, and only when a workload's size changes: the point of the
reference is that later commits are checked against this one.  Each
workload (and the quality probe) runs through the CLI exactly as the
benchmark runs it, once per seed in 0..FULL_SEEDS-1 at full size and
0..SMOKE_SEEDS-1 at smoke size.  Full-size and smoke-size entries are kept
side by side; entries of sizes no workload uses are dropped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import checks
from run import Runner, child_env
from workloads import FULL, SMOKE

FULL_SEEDS = 32
SMOKE_SEEDS = 4


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="record only these (repeatable)")
    args = parser.parse_args()
    root = Path.cwd()
    out = root / ".bench_out" / "reference"
    out.mkdir(parents=True, exist_ok=True)
    path = checks.REFERENCE_PATH
    data = json.loads(path.read_text()) if path.exists() else {}
    env = child_env(root)
    current = {
        (w.name, w.config_text, w.threads)
        for suite in (FULL, SMOKE)
        for w in [*suite.workloads.values(), suite.probe]
    }
    for suite, n_seeds in ((FULL, FULL_SEEDS), (SMOKE, SMOKE_SEEDS)):
        for w in [*suite.workloads.values(), suite.probe]:
            if args.workload and w.name not in args.workload:
                continue
            seeds = {}
            for seed in range(n_seeds):
                r = Runner(root, out, seed)
                csv_path = out / f"{w.name}.csv"
                p = r.cli(w, w.cli_args(str(r.config(w)), seed, str(csv_path)), env)
                if p.code != 0:
                    print(p.log, file=sys.stderr)
                    return 1
                seeds[str(seed)] = checks.reference_values(w, csv_path.read_text())
                print(f"{w.name} seed {seed}: {p.wall_s:.2f} s", flush=True)
            entries = [
                e for e in data.get(w.name, [])
                if (e["config"], e["threads"]) != (w.config_text, w.threads)
            ]
            entries.append({"config": w.config_text, "threads": w.threads, "seeds": seeds})
            data[w.name] = entries
            # Drop entries of sizes no workload uses any more.
            data = {
                name: [e for e in es if (name, e["config"], e["threads"]) in current]
                for name, es in data.items()
            }
            path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
