"""Write BENCHMARK.json, the benchmark's manifest, from the catalogue in
workloads.py.

    python3 bench/manifest.py

Run it from the root of the checkout after changing a workload or a metric;
the self-tests fail while the committed file is out of date.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import END_TO_END, FULL, per_layer_metrics

RUN_SECONDS = 15


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in FULL.workloads.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_metrics()],
    }


if __name__ == "__main__":
    Path("BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
