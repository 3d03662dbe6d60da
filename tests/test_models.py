"""Shipped model catalog: golden structure, cross-model consistency, the
dependency table, per-file self-tests and parses counted in a fresh process."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import kappa_hopf
from kappa_hopf import models
from kappa_hopf.cli import main
from kappa_hopf.dsl import tokenize
from kappa_hopf.hopf import classical_limit
from kappa_hopf.models import (
    CATALOG_NAMES,
    FILE_DECLARATIONS,
    FILE_DEPENDENCIES,
    ModelError,
    _read_model_text,
    load_casimirs_in,
    load_model,
    load_printed_variant,
    reduce_group_to_2d,
    strip_quotient,
)
from kappa_hopf.ncalg import NCElement, commutator, normal_order
from kappa_hopf.scalars import GaussianRational, HSeries, Poly, RationalFn


def test_catalog_complete_and_loadable():
    for name in CATALOG_NAMES:
        assert load_model(name) is not None
    with pytest.raises(ModelError):
        load_model("nonexistent_model")


# canonical prints of the shipped presentations, frozen: loading must
# reproduce them byte for byte
GOLDEN_SHA256_16 = {
    "galilei_algebra_kappa": "3a5f9e7783b44159",
    "galilei_algebra_classical": "e56200111c2d7901",
    "galilei_algebra_2d_classical": "73ba2cfc5d214ca3",
    "galilei_group_kappa": "cafb69f90bc85ec3",
    "galilei_group_2d": "4c7d1ab26de15ac7",
}


def test_golden_canonical_presentations():
    import hashlib

    from kappa_hopf.dsl import print_presentation
    from kappa_hopf.ncalg import Presentation

    for name, want in GOLDEN_SHA256_16.items():
        m = load_model(name)
        assert isinstance(m, Presentation)
        got = hashlib.sha256(print_presentation(m).encode()).hexdigest()[:16]
        assert got == want, f"{name}: canonical print drifted"


def test_galilei_group_2d_has_exactly_eq24():
    g2 = load_model("galilei_group_2d")
    assert [g.label() for g in g2.gens] == ["v", "a", "tau"]
    v, a, tau = (g2.gen_element(n) for n in ("v", "a", "tau"))
    ih = HSeries({1: RationalFn(Poly.const(GaussianRational(0, 1)))})
    assert commutator(tau, a) == a.scale(ih)
    assert commutator(tau, v) == v.scale(ih)
    assert commutator(v, a) == (v * v).scale(ih.scale(F(-1, 2)))
    assert len(g2.rules) == 3


def test_classical_model_is_the_classical_limit():
    kappa = load_model("galilei_algebra_kappa")
    classical = load_model("galilei_algebra_classical")
    assert classical_limit(kappa, name="galilei_algebra_classical") == classical


def test_casimirs_match_eq2():
    kappa = load_model("galilei_algebra_kappa")
    cas = load_model("casimirs")
    p2 = sum((kappa.gen_element("P", (i,)) * kappa.gen_element("P", (i,))
              for i in (1, 2, 3)),
             NCElement.zero(kappa.gen_element("P0").context))
    assert cas["C1"] == normal_order(p2)
    # C2 carries the 1/4kappa^2 prefactor on (P.M)^2 and the (P x L)^2 tail
    assert cas["C2"].max_h_power() == 2
    assert cas["C2"].degree() == 6


def test_2d_model_is_the_dimensional_reduction():
    g4 = load_model("galilei_group_kappa")
    g2 = load_model("galilei_group_2d")
    assert reduce_group_to_2d(g4, g2) == g2.rules


def test_printed_variant_differs_only_in_LL():
    kappa = load_model("galilei_algebra_kappa")
    printed = load_printed_variant()
    diff = []
    for key in kappa.rules:
        if kappa.rules[key] != printed.rules[key]:
            diff.append(key)
    names = {(kappa.gens[a].name, kappa.gens[b].name) for a, b in diff}
    assert names == {("L", "L")}


def test_casimirs_in_a_presentation_are_normal_ordered_once(monkeypatch):
    printed = load_printed_variant()
    first = load_casimirs_in(printed)
    calls = []

    def spy(el, *args, **kwargs):
        calls.append(el)
        return normal_order(el, *args, **kwargs)

    monkeypatch.setattr(models, "normal_order", spy)
    second = load_casimirs_in(printed)
    assert calls == []
    assert second == first
    assert all(normal_order(el) == el for el in second.values())


def test_strip_quotient_round_trip():
    g = load_model("galilei_group_kappa")
    s = strip_quotient(g)
    assert s.quotient is None and g.quotient is not None
    assert s.rules == g.rules
    # elements of the stripped clone work with its own hopf data
    from kappa_hopf.hopf import coproduct
    el = s.gen_element("tau")
    assert not coproduct(el).is_zero()


def test_model_overrides(tmp_path):
    # an override file replaces the 2D group; a broken one raises
    good = tmp_path / "g2.hopf"
    good.write_text("""
presentation galilei_group_2d {
  generators: v a tau;
  relation tau*a - a*tau = 2*I*h*a;
  relation tau*v - v*tau = I*h*v;
  relation v*a - a*v = -(I*h/2)*v*v;
  coproduct v = v (x) 1 + 1 (x) v;
  coproduct tau = tau (x) 1 + 1 (x) tau;
  coproduct a = a (x) 1 + 1 (x) a + v (x) tau;
  counit v = 0; counit a = 0; counit tau = 0;
  antipode v = -v; antipode tau = -tau; antipode a = -a + v*tau;
}
""")
    g2 = load_model("galilei_group_2d", {"galilei_group_2d": str(good)})
    tau, a = g2.gen_element("tau"), g2.gen_element("a")
    two_ih = HSeries({1: RationalFn(Poly.const(GaussianRational(0, 2)))})
    assert commutator(tau, a) == a.scale(two_ih)
    with pytest.raises(ModelError):
        load_model("galilei_group_2d", {"no_such_model": str(good)})


def test_edited_override_is_reloaded(tmp_path):
    # the catalog cache follows the override's content, not its path
    path = tmp_path / "casimirs.hopf"
    text = ("element C1 in galilei_algebra_kappa = {};\n"
            "element C2 in galilei_algebra_kappa = P[k]*P[k];\n")
    path.write_text(text.format("P[k]*P[k]"))
    first = load_model("casimirs", {"casimirs": str(path)})["C1"]
    path.write_text(text.format("2*P[k]*P[k]"))
    second = load_model("casimirs", {"casimirs": str(path)})["C1"]
    assert second == first + first


# -- the dependency table ---------------------------------------------------


def closure(dependencies, filename):
    """Every file that filename depends on, directly or not."""
    seen, stack = set(), list(dependencies[filename])
    while stack:
        dep = stack.pop()
        if dep not in seen:
            seen.add(dep)
            stack.extend(dependencies[dep])
    return seen


def dependency_gaps(dependencies, declarations, texts):
    """(file, name, declaring file) for each name a file uses that another
    file declares outside the file's dependency closure."""
    owner = {name: f for f, names in declarations.items() for name in names}
    gaps = set()
    for f, text in texts.items():
        tokens, _ = tokenize(text, f)
        for tok in tokens:
            other = owner.get(tok.text) if tok.kind == "IDENT" else None
            if other not in (None, f) and other not in closure(dependencies, f):
                gaps.add((f, tok.text, other))
    return sorted(gaps)


def dependency_cycles(dependencies):
    """The files that depend on themselves."""
    return sorted(f for f in dependencies if f in closure(dependencies, f))


@pytest.fixture(scope="module")
def shipped_texts():
    return {f: _read_model_text(f) for f in FILE_DECLARATIONS}


def test_lint_flags_a_removed_dependency(shipped_texts):
    table = dict(FILE_DEPENDENCIES, **{"casimirs.hopf": ()})
    assert dependency_gaps(table, FILE_DECLARATIONS, shipped_texts) == [
        ("casimirs.hopf", "galilei_algebra_kappa", "galilei_algebra_kappa.hopf")]


def test_lint_flags_a_cycle():
    table = dict(FILE_DEPENDENCIES, **{"galilei_algebra_kappa.hopf": ("casimirs.hopf",)})
    assert dependency_cycles(table) == ["casimirs.hopf", "galilei_algebra_kappa.hopf"]


def test_dependency_table_covers_every_use(shipped_texts):
    assert FILE_DEPENDENCIES.keys() == FILE_DECLARATIONS.keys()
    assert dependency_gaps(FILE_DEPENDENCIES, FILE_DECLARATIONS, shipped_texts) == []
    assert dependency_cycles(FILE_DEPENDENCIES) == []


# -- per-file self-tests ----------------------------------------------------


def _group_without_quotient(tmp_path):
    text = _read_model_text("galilei_group_kappa.hopf")
    assert "quotient orthogonal R;" in text
    path = tmp_path / "group.hopf"
    path.write_text(text.replace("quotient orthogonal R;", ""))
    return path


def _casimirs_without_c2(tmp_path):
    path = tmp_path / "casimirs.hopf"
    path.write_text("element C1 in galilei_algebra_kappa = P[k]*P[k];\n")
    return path


@pytest.mark.parametrize("name, broken, message", [
    ("galilei_group_kappa", _group_without_quotient, "orthogonality quotient"),
    ("casimirs", _casimirs_without_c2, "C1 and C2"),
])
def test_selftests_gate_their_file(tmp_path, capsys, name, broken, message):
    path = broken(tmp_path)
    with pytest.raises(ModelError, match=message):
        load_model(name, {name: str(path)})
    # through the CLI, under a suite that does not use the file
    assert main(["verify", "projrep", "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("kappa-hopf: ModelError: ") and message in err


def test_unused_semantically_broken_override_exits_2(tmp_path, capsys):
    # tokenizes and parses, but names a generator it does not declare; the
    # spacetime suite never loads galilei_group_2d
    path = tmp_path / "g2.hopf"
    path.write_text("presentation galilei_group_2d {\n"
                    "  generators: v a tau;\n"
                    "  relation tau*b - b*tau = I*h*v;\n"
                    "}\n")
    assert main(["verify", "spacetime", "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("kappa-hopf: DslError: ") and str(path) in err


# -- parses, counted in a fresh process --------------------------------------

COUNT_SCRIPT = """
import json
import sys
import kappa_hopf
from kappa_hopf import dsl

calls = []
parse = dsl.parse_source

def spy(*args, **kwargs):
    calls.append(args[1])
    return parse(*args, **kwargs)

for module in [m for n, m in sys.modules.items() if n.startswith("kappa_hopf")]:
    for key, value in list(vars(module).items()):
        if value is parse:
            setattr(module, key, spy)
"""


def _parses(code):
    """The paths parse_source is called with while code runs in a fresh
    interpreter, one list per line that code prints with print_calls()."""
    src = str(Path(kappa_hopf.__file__).resolve().parents[1])
    script = COUNT_SCRIPT + "def print_calls():\n    print(json.dumps(calls))\n    calls.clear()\n" + code
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_a_model_load_parses_its_closure_only():
    assert _parses("kappa_hopf.load_model('galilei_algebra_kappa')\nprint_calls()\n"
                   "kappa_hopf.load_model('spacetime')\nprint_calls()\n") == [
        ["galilei_algebra_kappa.hopf"],
        ["galilei_group_kappa.hopf", "spacetime.hopf"],
    ]


def test_a_repeated_suite_parses_nothing():
    run = "kappa_hopf.run_suite(kappa_hopf.SuiteConfig(suite='casimirs', order=1))\n"
    first, second = _parses(run + "print_calls()\n" + run + "print_calls()\n")
    assert len(first) == 4 and second == []
