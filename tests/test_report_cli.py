"""Reports, JSON schema, CLI exit codes, determinism."""

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from kappa_hopf import cli, report
from kappa_hopf.cli import main
from kappa_hopf.ncalg import DivergenceError
from kappa_hopf.projrep import OrderCapError
from kappa_hopf.report import (
    Check,
    FAIL,
    INFO,
    PASS,
    VerificationReport,
    run_check,
    validate_report_json,
)
from kappa_hopf.scalars import SeriesDomainError
from kappa_hopf.suites import ConfigError, SuiteConfig, run_suite


def _schema():
    from importlib import resources
    return json.loads(resources.files("kappa_hopf").joinpath("report_schema.json").read_text())


def test_report_rendering_and_json():
    rep = VerificationReport("demo", {"seed": 0})
    rep.add(Check("ok_check", "anchor", PASS, duration_ms=1.25))
    rep.add(Check("bad_check", "anchor", FAIL, residual="x - y", order=2))
    rep.add(Check("note", "anchor", INFO, detail="just so you know"))
    text = rep.to_text()
    assert "[PASS] ok_check" in text
    assert "[FAIL] bad_check" in text
    assert "residual: x - y" in text
    assert rep.n_failed == 1 and not rep.passed
    doc = rep.to_json_dict()
    assert validate_report_json(doc, _schema()) == []
    # durations never appear in the canonical JSON
    assert "duration" not in rep.to_json()


def test_run_check_stamps_duration(monkeypatch):
    clock = iter([10.0, 10.25, 20.0, 20.75])
    monkeypatch.setattr(report, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    one = run_check(lambda: Check("one", "anchor", PASS))
    assert one.duration_ms == 250.0
    three = run_check(lambda: [Check(f"c{i}", "anchor", PASS) for i in range(3)])
    assert [c.duration_ms for c in three] == [250.0, 250.0, 250.0]


def test_every_suite_check_is_timed():
    # the printed-variant delta_respects checks used to be built untimed
    rep = run_suite(SuiteConfig(suite="algebra", order=1, mode="formal"))
    untimed = {"prefilter_agreement"}
    assert any(c.check_id.startswith("printed_variant:delta_respects") for c in rep.checks)
    assert all(c.duration_ms > 0 for c in rep.checks if c.check_id not in untimed)


def test_suite_config_validation():
    import pytest
    with pytest.raises(ConfigError):
        SuiteConfig(suite="nope")
    with pytest.raises(ConfigError):
        SuiteConfig(order=9)
    with pytest.raises(ConfigError):
        SuiteConfig(degree=11)
    with pytest.raises(ConfigError):
        SuiteConfig(mode="quick")


def test_cli_exit_codes_and_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "spacetime", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert validate_report_json(doc, _schema()) == []
    assert doc["suite"] == "spacetime"
    assert doc["failed"] == 0
    assert all("paper_anchor" in c for c in doc["checks"])
    # configuration errors exit 2
    assert main(["verify", "spacetime", "--order", "9"]) == 2
    assert main(["verify", "spacetime", "--model", str(tmp_path / "nope.hopf")]) == 2


def test_duality_degree_below_its_candidates_is_a_config_error(capsys):
    # the Eq. A4 candidates have coordinate degree 2: a bound of 0..2 is a
    # configuration error for every run that includes duality
    for suite in ("duality", "all"):
        for degree in (0, 2):
            with pytest.raises(ConfigError):
                run_suite(SuiteConfig(suite=suite, order=1, degree=degree))
    assert run_suite(SuiteConfig(suite="duality", order=1, degree=3)).passed
    capsys.readouterr()
    assert main(["verify", "duality", "--order", "1", "--degree", "2"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "degree" in err
    assert "Traceback" not in err


def test_cli_failure_exit_code(tmp_path):
    # an override with a wrong spacetime relation must make covariance fail
    bad = tmp_path / "bad_spacetime.hopf"
    bad.write_text("""
presentation kappa_spacetime {
  generators: x[1] x[2] x[3] t;
  relation t*x[i] - x[i]*t = 2*I*h*x[i];
  relation x[i]*x[j] - x[j]*x[i] = 0;
}

comodule spacetime {
  group: galilei_group_kappa;
  space: kappa_spacetime;
  action t = 1 (x) t + tau (x) 1;
  action x[i] = R[i,j] (x) x[j] + v[i] (x) t + a[i] (x) 1;
}
""")
    code = main(["verify", "spacetime", "--model", str(bad)])
    assert code == 1


def test_cli_model_error_exit_code(tmp_path, capsys):
    # an override naming no shipped presentation is a model error, not a
    # failed check
    bad = tmp_path / "unknown.hopf"
    bad.write_text("presentation no_such_presentation { generators: x; }\n")
    assert main(["verify", "spacetime", "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kappa-hopf: ModelError: ")
    assert "no_such_presentation" in err and err.count("\n") == 1


@pytest.mark.parametrize("error", [DivergenceError, OrderCapError, SeriesDomainError])
def test_cli_engine_error_exit_code(monkeypatch, capsys, error):
    # an engine limit hit by a model or a configuration is exit 2 with a
    # one-line diagnostic, not a traceback read as "a check failed"
    def run_suite(cfg):
        raise error("limit hit")

    monkeypatch.setattr(cli, "run_suite", run_suite)
    assert main(["verify", "spacetime"]) == 2
    err = capsys.readouterr().err
    assert err == f"kappa-hopf: {error.__name__}: limit hit\n"


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify", "cocommutator", "--seed", "7",
                     "--json", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a different seed is reflected in the config echo
    c = tmp_path / "c.json"
    main(["verify", "cocommutator", "--seed", "8", "--json", str(c)])
    assert json.loads(c.read_text())["config"]["seed"] == 8


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "kappa_hopf.cli",
                           "verify", "spacetime"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "checks, 0 failed" in proc.stdout
