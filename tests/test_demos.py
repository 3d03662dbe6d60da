"""Every shipped demo runs to completion and prints what it printed when
its output was last reviewed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; the same under every PYTHONHASHSEED.  A
# change to a demo's text moves its digest: review the new output, then
# pin the new digest here.
STDOUT_SHA256 = {
    "01_normal_ordering_and_confluence.py":
        "3bcfb9d487959a1f9adac86106a4457c1291f06e9e5dca478e3fd80d4a4f9c0b",
    "02_hopf_axioms.py": "aed5044469ede89dd67009bbd5a11d042d8cec95c5303599ea74afc1045d5e87",
    "03_cocommutator_and_rmatrix.py":
        "ca25cbee1f25ed1b26b06d1c06781834d181980c62cf507196174089def038c2",
    "04_duality_poisson.py": "562ead9572d74d0a65be281a041878a365562e2a44769b1fd10a61bccfb723d6",
    "05_projective_multiplier.py":
        "59d48e7ead47c5ab1e96194b47e30111cbf3fe186be60a1f1d0cb3e7d448cf94",
    "06_custom_models.py": "1d8ec1836d640f41a25e4188611dd5f22966dc0bc5dca9a8bd4fb32295db1aa9",
}


def test_demos_found():
    assert len(DEMOS) == 6
    assert sorted(STDOUT_SHA256) == [p.name for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name], \
        proc.stdout.decode(errors="replace")
