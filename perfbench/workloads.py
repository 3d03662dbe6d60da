"""Workload definitions and verdict scoring.

Together the four workloads run the nine suites of
``kappa-hopf verify all --order 3``; each groups the suites that stress one
layer of the engine.  A check counts as failed when its status breaks the
hand-written verdict rules in ``expected/<workload>.json``, when its
canonical JSON entry differs from the reference report in
``reference/<suite>.json`` (seed 42), or when it is missing.  Check entries
carry no seed, so the references hold for every workload seed; the seed
only reaches ``SuiteConfig.seed``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent

BASE_CONFIG = {"order": 3, "mode": "both", "degree": 6, "rep_order": 3, "rep_degree": 3}

# workload -> (suites, config overrides)
WORKLOADS = {
    # rewriting and series expansion on Gaussian-rational constants
    "series-hopf": (("algebra", "casimirs", "bicross"), {}),
    # the same scalars on multivariate Poly; the Cayley zero test dominates
    "group-quotient": (("group", "spacetime"), {}),
    # rational-function denominators, poly_gcd and BCH; rep_order 2 runs all
    # 14 checks in about 19 s, where rep_order 3 takes about 50 s a pass
    "projrep-bch": (("projrep",), {"rep_order": 2}),
    # the pairing sweep over dense matrices plus exact linear algebra
    "duality-cohom": (("duality", "rmatrix", "cocommutator"), {}),
}


def suite_configs(workload, seed):
    """(suite, SuiteConfig keyword arguments) in run order."""
    suites, extra = WORKLOADS[workload]
    return [(s, dict(BASE_CONFIG, **extra, suite=s, seed=seed)) for s in suites]


def load_expected(workload):
    """(verdict rules per suite, reference check entries per suite)."""
    rules = json.loads((HERE / "expected" / f"{workload}.json").read_text())
    refs = {}
    for suite in WORKLOADS[workload][0]:
        doc = json.loads((HERE / "reference" / f"{suite}.json").read_text())
        refs[suite] = doc["checks"]
    return rules, refs


def _entry_bytes(entry):
    return json.dumps(entry, sort_keys=True, indent=2)


def _matcher(rule):
    """Rule patterns are literal check ids in which only * is a wildcard."""
    return re.compile(".*".join(map(re.escape, rule["match"].split("*"))))


def _breaks(entry, rule):
    return (entry["status"] != rule["status"]
            or rule.get("detail", "") not in entry.get("detail", ""))


def score_report(doc, rules, reference):
    """(expected checks, failed checks) for one canonical report dict."""
    got = doc["checks"]
    bad = {i for i, ref in enumerate(reference)
           if i >= len(got) or _entry_bytes(got[i]) != _entry_bytes(ref)}
    bad.update(range(len(reference), len(got)))  # unexpected extra checks
    matchers = [_matcher(rule) for rule in rules]
    counts = [0] * len(rules)
    for i, entry in enumerate(got):
        k = next((k for k, m in enumerate(matchers) if m.fullmatch(entry["id"])), None)
        if k is None or _breaks(entry, rules[k]):
            bad.add(i)
        if k is not None:
            counts[k] += 1
    miscounted = sum(abs(c - rule["count"]) for c, rule in zip(counts, rules))
    return len(reference), min(len(bad) + miscounted, len(reference))
