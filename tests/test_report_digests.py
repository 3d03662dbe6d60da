"""The canonical JSON reports at the orders the reference test does not run
(it runs order 3) hash to the sha256 digests in report_digests.json, all at
seed 42: the series suites algebra, casimirs and bicross and the formal
suites group and spacetime at orders 1, 2 and 4, projrep at every rep_order
from 1 to the order, and the whole run at order 2, which is hashed in child
processes under two hash seeds.  A change that alters any such report byte
fails here."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kappa_hopf
from kappa_hopf import SuiteConfig, run_suite

DIGESTS = json.loads((Path(__file__).resolve().parent / "report_digests.json").read_text())


def _config(key):
    fields = dict(part.split("=") for part in key.split(":")[1:])
    return SuiteConfig(suite=key.split(":")[0], seed=42,
                       **{name: int(value) for name, value in fields.items()})


def _digest(report):
    return hashlib.sha256(report.encode()).hexdigest()


def test_digests_cover_the_series_suites():
    want = {f"{s}:order={o}" for s in ("algebra", "casimirs", "bicross", "group", "spacetime")
            for o in (1, 2, 4)}
    want |= {f"projrep:order={o}:rep_order={r}" for o in (1, 2, 4) for r in range(1, o + 1)}
    want.add("all:order=2")
    assert set(DIGESTS) == want


@pytest.mark.parametrize("key", sorted(k for k in DIGESTS if not k.startswith("all:")))
def test_report_digest(key):
    assert _digest(run_suite(_config(key)).to_json()) == DIGESTS[key]


ALL_SCRIPT = """
from kappa_hopf.suites import SuiteConfig, run_suite
print(run_suite(SuiteConfig(suite="all", order=2, seed=42)).to_json(), end="")
"""


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_full_report_digest_under_hash_seed(hash_seed):
    src = str(Path(kappa_hopf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", ALL_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    assert _digest(proc.stdout) == DIGESTS["all:order=2"]
