"""Record a bench trajectory entry: repeated timed runs plus traced runs.

    python3 perfbench/record.py --out perfbench/baseline.json [--runs 10]

Runs ``run.py`` once per seed 1..runs on every workload (timed, tracing
off), then twice traced at seed 42.  Writes, per workload, the median,
quartiles and spread of each end-to-end metric, the first traced run's
per-layer metrics, and whether the counts and ratios of the two traced runs
were identical.  Spread is the interquartile range over the median, as the
regression bounds in BENCHMARK.json are applied.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# which end-to-end metric each layer should move, and on which workload;
# on the other workloads the prediction is no change
LAYER_MAP = {
    "scalars": ("wall_s", ["projrep-bch", "series-hopf"]),
    "ncalg": ("wall_s", ["series-hopf"]),
    "hopf": ("wall_s", ["series-hopf", "group-quotient"]),
    "quotient": ("wall_s", ["group-quotient"]),
    "projrep": ("wall_s", ["projrep-bch"]),
    "duality": ("wall_s", ["duality-cohom"]),
    "cohom": ("wall_s", ["duality-cohom"]),
    "dsl": ("setup_s", ["series-hopf", "group-quotient", "projrep-bch", "duality-cohom"]),
    "models": ("setup_s", ["series-hopf", "group-quotient", "projrep-bch", "duality-cohom"]),
    "trace": (None, []),
}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "run_seconds": seconds, "runs": args.runs,
              "layer_map": {k: {"moves": m, "on": w} for k, (m, w) in LAYER_MAP.items()},
              "workloads": {}}
    timed = {w: [] for w in args.workloads}
    for seed in range(1, args.runs + 1):  # round robin, so drift hits every workload
        for w in args.workloads:
            timed[w].append(run(w, seed, seconds, 0))
            print(w, seed, json.dumps(timed[w][-1]["metrics"]), flush=True)
    for w in args.workloads:
        traced = [run(w, 42, seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if not k.endswith("_s")} for t in traced]
        rows = timed[w]
        record["workloads"][w] = {
            "all_correct": all(r["correct"] for r in rows + traced),
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in rows])
                           for m in spec["end_to_end"]},
            "per_layer": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            "traced_counts_repeat": counts[0] == counts[1],
        }
        print(w, "traced counts repeat:", counts[0] == counts[1], flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
