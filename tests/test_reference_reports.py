"""Every benchmarked suite, run as the benchmark configures it at seed 42,
writes its canonical JSON report byte for byte as perfbench/reference/
holds it.  The references are only read here; perfbench/make_reference.py
writes them."""

import importlib.util
from pathlib import Path

import pytest

from kappa_hopf import SuiteConfig, run_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
CASES = [(w, suite, kwargs) for w in WORKLOADS.WORKLOADS
         for suite, kwargs in WORKLOADS.suite_configs(w, 42)]


@pytest.mark.parametrize("workload, suite, kwargs", CASES,
                         ids=[f"{w}:{s}" for w, s, _ in CASES])
def test_report_matches_reference(workload, suite, kwargs):
    got = run_suite(SuiteConfig(**kwargs)).to_json()
    want = (PERFBENCH / "reference" / f"{suite}.json").read_text()
    assert got == want
