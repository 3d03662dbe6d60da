"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that verdict scoring notices a flipped status and an edited
residual, that no alias of a traced layer function escapes the tracer, that
two traced runs give identical counts and ratios, and that every kernel
returns its recorded result.  Exits non-zero on the first failure.
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import kappa_hopf as kh  # noqa: E402
from kernels import run_kernels  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import load_expected, score_report  # noqa: E402


def test_scoring_sees_edited_reports():
    rules, refs = load_expected("duality-cohom")
    ref = {"checks": refs["cocommutator"]}
    n = len(ref["checks"])
    assert score_report(ref, rules["cocommutator"], ref["checks"]) == (n, 0)
    doc = copy.deepcopy(ref)
    doc["checks"][3]["status"] = "fail"
    doc["checks"][20]["residual"] = "1/2*M[1]"
    expected, failed = score_report(doc, rules["cocommutator"], ref["checks"])
    assert failed == 2 and failed / expected > 0, (expected, failed)
    doc = copy.deepcopy(ref)
    del doc["checks"][5]
    assert score_report(doc, rules["cocommutator"], ref["checks"])[1] > 0


def test_no_alias_escapes_the_tracer():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.escaped() == []
        # an alias bound after installation is reported
        kh.hopf._late_alias = tracer._originals["ncalg.normal_order"]
        assert tracer.escaped() == ["kappa_hopf.hopf._late_alias"]
        del kh.hopf._late_alias
    finally:
        tracer.uninstall()
    assert kh.ncalg.normal_order is tracer._originals["ncalg.normal_order"]


def _traced_counts():
    configs = [kh.SuiteConfig(suite=s, order=3, seed=7, rep_order=1)
               for s in ("spacetime", "cocommutator", "projrep")]
    tracer = Tracer()
    tracer.install()
    try:
        for cfg in configs:
            kh.run_suite(cfg)
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("_s")}


def test_traced_counts_repeat():
    kh.load_model("galilei_algebra_kappa")  # the cold load is traced only once
    first, second = _traced_counts(), _traced_counts()
    assert first == second, json.dumps([first, second])
    assert first["scalars.poly_gcd.calls"] > 0 and first["projrep.commutator.calls"] > 0


def test_kernels_return_recorded_results():
    _, wrong = run_kernels(kh)
    assert wrong == [], wrong


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
