"""Reports, JSON schema, CLI exit codes, determinism."""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import kappa_hopf
from kappa_hopf import cli, report
from kappa_hopf.cli import main
from kappa_hopf.dsl import print_presentation
from kappa_hopf.models import load_model
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


def test_star_section_exits_2_naming_its_line(tmp_path, capsys):
    # the language has no star section; a model with one is refused, not
    # loaded with the section ignored
    shipped = Path(kappa_hopf.__file__).parent / "models" / "galilei_group_2d.hopf"
    lines = shipped.read_text().splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith("  counit "))
    lines.insert(at, "  star v = v;")
    model = tmp_path / "star.hopf"
    model.write_text("\n".join(lines) + "\n")
    assert main(["verify", "projrep", "--order", "1", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err == f"kappa-hopf: DslError: {model}:{at + 1}:3: error: unknown section 'star'\n"


def test_negative_power_of_a_sum_exits_2_naming_its_line(tmp_path, capsys):
    # every denominator is a monomial: (1+m)^-1 is refused where it is
    # written, even where the sum it divides would cancel it
    shipped = Path(kappa_hopf.__file__).parent / "models" / "galilei_group_2d.hopf"
    lines = shipped.read_text().splitlines()
    lines.insert(lines.index("  generators: v a tau;"), "  params: m;")
    at = lines.index("  relation v*a - a*v = -(I*h/2)*v*v;                           # Eq. 24")
    lines[at] = "  relation v*a - a*v = -(I*h/2)*(1+m)^-1*(1+m)*v*v;"
    model = tmp_path / "sum_power.hopf"
    model.write_text("\n".join(lines) + "\n")
    assert main(["verify", "projrep", "--order", "2", "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"kappa-hopf: DslError: {model}:{at + 1}:3: error: "
                            "negative power of a non-monomial scalar\n")
    assert at + 1 == 10


def test_model_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    model = tmp_path / "latin.hopf"
    model.write_bytes(b"presentation x {\xff\xfe generators: A; }\n")
    assert main(["verify", "projrep", "--order", "1", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err == (f"kappa-hopf: ModelError: {model}: not UTF-8 text "
                   "(invalid start byte at byte 16)\n")


# the 1+1 classical Galilei algebra written out as a model file
CLASSICAL_2D = """\
# Classical 1+1 Galilei algebra: dual of the 2D group (Eq. 24) at h -> 0.
# Basis: boost L, momentum P, energy P0 with [L,P0] = I P (pairings of
# Eq. 13 fix the normalization).  Used for the central-extension
# (projective multiplier) cohomology.

presentation galilei_algebra_2d_classical {
  generators: L P P0;

  relation L*P0 - P0*L = I*P;
  relation L*P - P*L = 0;
  relation P*P0 - P0*P = 0;

  coproduct L = L (x) 1 + 1 (x) L;
  coproduct P = P (x) 1 + 1 (x) P;
  coproduct P0 = P0 (x) 1 + 1 (x) P0;

  counit L = 0;
  counit P = 0;
  counit P0 = 0;

  antipode L = -L;
  antipode P = -P;
  antipode P0 = -P0;
}
"""


def test_cycling_rules_exit_2_naming_the_relation(tmp_path, capsys):
    # P*L -> L*P + P0*L and P0*L -> L*P0 + P*L rewrite each other's
    # corrections forever; the load stops at its correction budget, and the
    # diagnostic points at the relation whose correction diverged.  The
    # file replaces the derived galilei_algebra_2d_classical, so it is loaded.
    lines = CLASSICAL_2D.splitlines()
    first = lines.index("  relation L*P0 - P0*L = I*P;")
    second = lines.index("  relation L*P - P*L = 0;")
    lines[first] = "  relation P0*L - L*P0 = P*L;"
    lines[second] = "  relation P*L - L*P = P0*L;"
    model = tmp_path / "cycling.hopf"
    model.write_text("\n".join(lines) + "\n")
    assert main(["verify", "projrep", "--order", "1", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err == (f"kappa-hopf: DslError: {model}:{first + 1}:3: error: rewrite budget "
                   "exceeded at digram P*L in galilei_algebra_2d_classical\n")


def test_growing_rule_in_a_word_bracket_exits_2_naming_the_digram(tmp_path, capsys):
    # tau*v -> v*tau - i h v*v*tau*tau loads (its correction is in normal
    # order), but the word brackets of projrep's commutators then lengthen
    # without end; normal ordering stops at its word-length limit
    shipped = Path(kappa_hopf.__file__).parent / "models" / "galilei_group_2d.hopf"
    text = shipped.read_text()
    rule = "relation tau*v - v*tau = I*h*v;"
    assert rule in text
    model = tmp_path / "growing_group.hopf"
    model.write_text(text.replace(rule, "relation tau*v - v*tau = I*h*v*v*tau*tau;"))
    assert main(["verify", "projrep", "--order", "1", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err == ("kappa-hopf: DivergenceError: word length limit 128 exceeded at "
                   "digram tau*v in galilei_group_2d\n")


def test_a_sigma_that_is_no_lie_cocommutator_exits_2_naming_it(tmp_path, capsys):
    # with h*P0*P0 (x) P0 in Delta(P0), sigma(P0) holds P0*P0 (x) P0, which
    # is not generator (x) generator: the model is refused, not read as a
    # wedge or a failed check
    shipped = Path(kappa_hopf.__file__).parent / "models" / "galilei_algebra_kappa.hopf"
    text = shipped.read_text()
    rule = "coproduct P0 = P0 (x) 1 + 1 (x) P0;"
    assert text.count(rule) == 1
    model = tmp_path / "non_lie_sigma.hopf"
    model.write_text(text.replace(rule, "coproduct P0 = P0 (x) 1 + 1 (x) P0 + h*P0*P0 (x) P0;"))
    assert main(["verify", "cocommutator", "--order", "2", "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("kappa-hopf: PresentationError: sigma(P0) of galilei_algebra_kappa: "
                            "term P0*P0 (x) P0 is not generator (x) generator\n")


@pytest.mark.parametrize("suite, name, pattern, bracket", [
    # [L[i], P0] = 2i P[i] in all three relations, so that Jacobi holds
    pytest.param("duality", "galilei_algebra_classical",
                 r"(relation P0\*L\[\d\] - L\[\d\]\*P0 = )-I\*", "[L[1], P0]", id="duality-4d"),
    pytest.param("projrep", "galilei_algebra_2d_classical",
                 r"(relation P0\*L - L\*P0 = )-I\*", "[L, P0]", id="projrep-2d"),
])
def test_a_classical_bracket_the_matrix_model_breaks_exits_2_naming_it(
        tmp_path, capsys, suite, name, pattern, bracket):
    # the derived classical algebra with [L, P0] doubled is still a Lie
    # algebra, but the matrix model of the pairing no longer represents it
    text = print_presentation(load_model(name))
    text, count = re.subn(pattern, r"\1-2*I*", text)
    assert count == (3 if suite == "duality" else 1)
    model = tmp_path / f"{name}.hopf"
    model.write_text(text)
    assert main(["verify", suite, "--order", "2", "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"kappa-hopf: LieDataError: the matrix model breaks the bracket {bracket}\n"


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


def _address_space_1gb():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_growing_user_rule_exits_2_within_bounded_memory(tmp_path):
    # P*L -> L*P + L*L*P*P in the kappa algebra lengthens words at every
    # rewrite; normal ordering must stop at its word-length limit (exit 2,
    # one line), run in a child process with its own 1 GB address space
    shipped = Path(kappa_hopf.__file__).parent / "models" / "galilei_algebra_kappa.hopf"
    text = shipped.read_text()
    rule = "relation L[i]*P[j] - P[j]*L[i] = 0;"
    assert rule in text
    model = tmp_path / "growing.hopf"
    model.write_text(text.replace(rule, "relation L[i]*P[j] - P[j]*L[i] = -L[i]*L[i]*P[j]*P[j];"))
    src = str(Path(kappa_hopf.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "kappa_hopf.cli", "verify", "algebra",
                           "--order", "2", "--model", str(model)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=_address_space_1gb)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("kappa-hopf: DivergenceError: word length limit 128 exceeded")
    assert proc.stderr.count("\n") == 1


def test_oversized_power_in_a_model_exits_2_naming_its_line(tmp_path):
    # (-a + v*tau)^40 would build 2^40 raw words: the loader refuses the
    # product that passes the pending-term limit before forming it (exit 2,
    # one line at the binding), in a child process with a 1 GB address space
    shipped = Path(kappa_hopf.__file__).parent / "models" / "galilei_group_2d.hopf"
    lines = shipped.read_text().splitlines()
    at = lines.index("  antipode a = -a + v*tau;")
    lines[at] = "  antipode a = (-a + v*tau)^40;"
    model = tmp_path / "power.hopf"
    model.write_text("\n".join(lines) + "\n")
    src = str(Path(kappa_hopf.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "kappa_hopf.cli", "verify", "projrep",
                           "--order", "2", "--model", str(model)],
                          capture_output=True, text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=_address_space_1gb)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"kappa-hopf: DslError: {model}:{at + 1}:3: error: product of 65536 "
                           "by 2 terms exceeds the pending-term limit 100000\n")
