"""Write the canonical seed-42 report of every benchmarked suite.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose verdicts are the
reference; it writes reference/<suite>.json next to this file.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from kappa_hopf import SuiteConfig, run_suite  # noqa: E402
from workloads import WORKLOADS, suite_configs  # noqa: E402

if __name__ == "__main__":
    (HERE / "reference").mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for suite, kwargs in suite_configs(workload, 42):
            report = run_suite(SuiteConfig(**kwargs))
            (HERE / "reference" / f"{suite}.json").write_text(report.to_json())
            print(suite, len(report.checks), "checks")
