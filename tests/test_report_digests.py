"""The canonical JSON reports of the series suites at the orders the
reference test does not run (it runs order 3): algebra, casimirs and bicross
at orders 1, 2 and 4, and projrep at every rep_order from 1 to the order,
all at seed 42, hash to the sha256 digests in report_digests.json.  A change
that alters any such report byte fails here."""

import hashlib
import json
from pathlib import Path

import pytest

from kappa_hopf import SuiteConfig, run_suite

DIGESTS = json.loads((Path(__file__).resolve().parent / "report_digests.json").read_text())


def _config(key):
    fields = dict(part.split("=") for part in key.split(":")[1:])
    return SuiteConfig(suite=key.split(":")[0], seed=42,
                       **{name: int(value) for name, value in fields.items()})


def test_digests_cover_the_series_suites():
    want = {f"{s}:order={o}" for s in ("algebra", "casimirs", "bicross") for o in (1, 2, 4)}
    want |= {f"projrep:order={o}:rep_order={r}" for o in (1, 2, 4) for r in range(1, o + 1)}
    assert set(DIGESTS) == want


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_report_digest(key):
    report = run_suite(_config(key)).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[key]
