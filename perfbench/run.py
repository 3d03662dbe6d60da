"""Benchmark of the kappa_hopf exact verifier.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the engine is imported from ``src/``.  Each
run is one single-threaded process.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Times are taken with calib.CalibratedTimer: seconds at a fixed reference
speed of the machine, so that runs made while the host is busy compare with
runs made while it is idle.  The raw wall times are printed as well.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``verdict_s``: median over iterations of the time from the first
  ``run_suite`` call to the last verdict of the workload, models loaded.
  Iterations repeat while the next one fits in ``--seconds`` (at least one).
* ``setup_s``: median over fresh interpreters of ``import kappa_hopf`` plus
  the first ``load_model``, which parses the shipped models.
* ``peak_rss_mb``: the peak resident set of this process.
* ``verdict_fidelity``: 1 - failed checks / expected checks (see
  workloads.py for what counts as failed).

``--trace 1`` reports the per-layer metrics: the cold model load and one
iteration run under the layer tracer (tracer.py), the fixed-input kernels
(kernels.py) and ``trace.overhead_s``, the traced iteration's time minus an
untraced one's.  Spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calib import CalibratedTimer
from workloads import WORKLOADS, load_expected, score_report, suite_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
SETUP_PROBE = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from calib import CalibratedTimer\n"
    "with CalibratedTimer() as t:\n"
    "    import kappa_hopf\n"
    "    kappa_hopf.load_model('galilei_algebra_kappa')\n"
    "print(t.seconds, t.wall)\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds():
    """import + first load_model in a fresh interpreter, timed inside it."""
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-2])


class Scorer:
    """Counts expected and failed checks over every iteration of a run."""

    def __init__(self, workload):
        self.rules, self.refs = load_expected(workload)
        self.expected = sum(len(r) for r in self.refs.values())
        self.attempted = 0
        self.failed = 0
        self.first_json = {}

    def score(self, reports):
        for suite, report in reports:
            text = report.to_json()
            if self.first_json.setdefault(suite, text) != text:
                # same seed in one process: the report must repeat byte for byte
                n = len(self.refs[suite])
                self.attempted += n
                self.failed += n
                continue
            n, bad = score_report(json.loads(text), self.rules[suite], self.refs[suite])
            self.attempted += n
            self.failed += bad

    def raised(self):
        traceback.print_exc()
        self.attempted += self.expected
        self.failed += self.expected


def run_iteration(kh, configs, scorer):
    """One pass over the workload's suites; returns its timer and whether
    every suite ran to its verdict."""
    try:
        with CalibratedTimer() as timer:
            reports = [(suite, kh.run_suite(kh.SuiteConfig(**kw))) for suite, kw in configs]
    except Exception:
        scorer.raised()
        return timer, False
    scorer.score(reports)
    return timer, True


def timed_run(args, configs, scorer):
    setup = [setup_seconds() for _ in range(SETUP_PROBES)]
    import kappa_hopf as kh

    kh.load_model("galilei_algebra_kappa")
    timers = []
    start = time.perf_counter()
    while True:
        timer, ok = run_iteration(kh, configs, scorer)
        timers.append(timer)
        elapsed = time.perf_counter() - start
        if not ok or elapsed + statistics.median(t.wall for t in timers) > args.seconds:
            break
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
    print("iterations (calibrated s / wall s): "
          + " ".join(f"{t.seconds:.4f}/{t.wall:.4f}" for t in timers))
    return {
        "verdict_s": statistics.median(t.seconds for t in timers),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdict_fidelity": 1 - scorer.failed / scorer.attempted,
    }


def traced_run(args, configs, scorer):
    import kappa_hopf as kh
    # imported here so that timed runs keep hashlib out of the measured RSS
    from kernels import run_kernels
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    kh.load_model("galilei_algebra_kappa")  # cold load, traced
    tracer.uninstall()
    metrics, wrong = run_kernels(kh)
    for name in wrong:
        print(f"kernel {name} returned a wrong result", file=sys.stderr)
    scorer.attempted += len(metrics)
    scorer.failed += len(wrong)
    untraced, _ = run_iteration(kh, configs, scorer)
    tracer.install()
    try:
        traced, _ = run_iteration(kh, configs, scorer)
    finally:
        tracer.uninstall()
    metrics.update(tracer.metrics())
    metrics["trace.verdict_s"] = traced.seconds
    metrics["trace.overhead_s"] = traced.seconds - untraced.seconds
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write_spans(out / f"spans-{args.workload}-seed{args.seed}.tsv")
    print(f"{'layer':40s} {'calls':>9s} {'self_s':>9s} {'incl_s':>9s}")
    for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        print(f"{name:40s} {st.calls:9d} {st.self_s:9.3f} {st.incl_s:9.3f}")
    print(f"untraced {untraced.seconds:.3f} s ({untraced.wall:.3f} s wall), "
          f"traced {traced.seconds:.3f} s ({traced.wall:.3f} s wall)")
    return metrics


def main(argv=None):
    if not (SRC / "kappa_hopf" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    configs = suite_configs(args.workload, args.seed)
    scorer = Scorer(args.workload)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'random')}, "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    if args.trace:
        values, wanted = traced_run(args, configs, scorer), spec["per_layer"]
    else:
        values, wanted = timed_run(args, configs, scorer), spec["end_to_end"]
    print(json.dumps({
        "correct": scorer.failed == 0,
        "attempted": scorer.attempted,
        "failed": scorer.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
