"""Shipped model catalog: golden structure, cross-model consistency, the
dependency table, per-file self-tests and parses counted in a fresh process."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

import kappa_hopf
from kappa_hopf import ncalg
from kappa_hopf.cli import main
from kappa_hopf.dsl import parse_presentation, print_presentation, tokenize
from kappa_hopf.hopf import apply_algebra_map, classical_limit
from kappa_hopf.models import (
    CATALOG_NAMES,
    DERIVED,
    FILE_DECLARATIONS,
    FILE_DEPENDENCIES,
    ModelError,
    _read_model_text,
    load_casimirs_in,
    load_model,
    load_printed_variant,
    resolve_overrides,
    strip_quotient,
)
from kappa_hopf.ncalg import NCElement, PresentationError, TensorContext, commutator, normal_order
from kappa_hopf.scalars import GR_I, GaussianRational, HSeries, Poly, RationalFn
from kappa_hopf.suites import SuiteConfig, run_suite


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


def levi_civita(i, j, k):
    return (i - j) * (j - k) * (k - i) // 2


def galilei_bracket(x, y):
    """[x, y] of the classical Galilei Lie algebra, written out by hand for
    generators (name, index) as {generator: coefficient}: M rotates M, L and
    P as vectors, [L_i, P0] = i P_i, and every other pair commutes."""
    (a, i), (b, j) = x, y
    if a == "M" and b != "P0":
        return {(b, (k,)): GR_I * levi_civita(i[0], j[0], k)
                for k in (1, 2, 3) if levi_civita(i[0], j[0], k)}
    if (a, b) == ("L", "P0"):
        return {("P", i): GR_I}
    if (b == "M" and a != "P0") or (a, b) == ("P0", "L"):
        return {z: -c for z, c in galilei_bracket(y, x).items()}
    return {}


def test_classical_model_is_the_classical_limit():
    # the kappa -> infinity limit of Eq. 1 and its 1+1 sub-Hopf algebra on
    # L[1], P[1], P0 (renamed L, P, P0), both derived from the shipped kappa
    # algebra, against the classical Galilei Hopf algebras stated by hand:
    # galilei_bracket, and every generator primitive with counit 0 and
    # antipode -x
    for name, keys in (
            ("galilei_algebra_classical",
             [(n, (i,)) for n in "MLP" for i in (1, 2, 3)] + [("P0", ())]),
            ("galilei_algebra_2d_classical", [("L", ()), ("P", ()), ("P0", ())])):
        cl = load_model(name)
        assert [g.key() for g in cl.gens] == keys
        zero = NCElement.zero(cl.gen_element("P0").context)
        for x in keys:
            gx, gi = cl.gen_element(*x), cl.gen_index(*x)
            for y in keys:
                want = sum((cl.gen_element(*z).scale(c)
                            for z, c in galilei_bracket(x, y).items()), zero)
                assert commutator(gx, cl.gen_element(*y)) == want, (name, x, y)
            assert cl.hopf.delta[gi] == (cl.gen_element(*x, slot=0, slots=2)
                                         + cl.gen_element(*x, slot=1, slots=2))
            assert not cl.hopf.counit[gi]
            assert cl.hopf.antipode[gi] == -gx
        assert cl.quotient is None and not cl.grouplike_logs


def test_a_limit_that_drops_a_needed_generator_is_refused():
    kappa = load_model("galilei_algebra_kappa")
    # [L[1], P0] = i P[1] leaves the selection L[1], P0
    with pytest.raises(PresentationError, match=r"rule P0\*L\[1\] .* dropped generator P\[1\]$"):
        classical_limit(kappa, gens={"L[1]": "L", "P0": "P0"})


def test_a_limit_that_drops_a_quotient_generator_is_refused():
    # the orthogonality quotient of the group needs all nine R[i,j]
    group = load_model("galilei_group_kappa")
    with pytest.raises(PresentationError, match=r"^quotient R of galilei_group_kappa needs "
                                                r"the dropped generator R\[1,1\]$"):
        classical_limit(group, gens={"v[1]": "v", "tau": "tau"})


def test_casimirs_match_eq2():
    kappa = load_model("galilei_algebra_kappa")
    cas = load_model("casimirs")
    p2 = sum((kappa.gen_element("P", (i,)) * kappa.gen_element("P", (i,))
              for i in (1, 2, 3)),
             NCElement.zero(kappa.gen_element("P0").context))
    assert cas["C1"] == normal_order(p2)
    # C2 carries the 1/4kappa^2 prefactor on (P.M)^2 and the (P x L)^2 tail
    assert max(c.max_power() for c in cas["C2"].terms.values()) == 2
    assert cas["C2"].degree() == 6


def reduce_group_to_2d(group_4d, target_2d):
    """Syntactic restriction of the 4D group's rule table: keep the rules
    among v[1], a[1] and tau, drop every correction term with another
    letter, and rename v[1] -> v, a[1] -> a.  Returns the restricted table
    keyed like the 2D model's for cross-model comparison.  This is not an
    algebra map (see test_the_2d_group_is_not_a_quotient_of_the_4d_group)."""
    keep = {
        group_4d.gen_index("v", (1,)): target_2d.gen_index("v"),
        group_4d.gen_index("a", (1,)): target_2d.gen_index("a"),
        group_4d.gen_index("tau"): target_2d.gen_index("tau"),
    }
    rules = {}
    for (hi, lo), corr in group_4d.rules.items():
        if hi not in keep or lo not in keep:
            continue
        ncorr = []
        for c, w in corr:
            if any(gi not in keep for gi, _ in w):
                # dropped components (v2, v3, ...) are set to zero
                continue
            ncorr.append((c, tuple((keep[gi], pw) for gi, pw in w)))
        key = (keep[hi], keep[lo])
        if key[0] < key[1]:
            continue
        rules[key] = tuple(ncorr)
    return rules


def test_2d_model_is_the_dimensional_reduction():
    g4 = load_model("galilei_group_kappa")
    g2 = load_model("galilei_group_2d")
    assert reduce_group_to_2d(g4, g2) == g2.rules


def test_the_2d_group_is_not_a_quotient_of_the_4d_group():
    # R[i,j] -> delta(i,j), v[2], v[3], a[2], a[3] -> 0 and v[1], a[1], tau
    # -> v, a, tau does not respect Eq. 11: 6 of its 120 relations map to
    # nonzero elements of Eq. 24, so Eq. 24 is shipped as its own file
    g4 = load_model("galilei_group_kappa")
    g2 = load_model("galilei_group_2d")
    ctx = TensorContext((g2,))
    images = {}
    for gi, g in enumerate(g4.gens):
        if g.name == "R":
            images[gi] = NCElement.scalar(ctx, HSeries.const(int(g.index[0] == g.index[1])))
        elif g.index in ((), (1,)):
            images[gi] = g2.gen_element(g.name)
        else:
            images[gi] = NCElement.zero(ctx)
    ctx4 = TensorContext((g4,))
    mapped = {}
    for (hi, lo), corr in g4.rules.items():
        # hi*lo - lo*hi - corr, built term by term so that nothing rewrites it
        relation = NCElement(ctx4, {(((hi, 1), (lo, 1)),): 1})
        for c, w in ((1, ((lo, 1), (hi, 1))), *corr):
            relation = relation - NCElement(ctx4, {(w,): c})
        image = normal_order(apply_algebra_map(relation, images, ctx))
        if not image.is_zero():
            mapped[g4.gens[hi].label(), g4.gens[lo].label()] = image
    assert len(g4.rules) == 120 and len(mapped) == 6
    v = g2.gen_element("v")
    ih = HSeries({1: RationalFn(Poly.const(GR_I))})
    assert mapped["a[2]", "v[2]"] == (v * v).scale(ih.scale(F(1, 2)))
    assert mapped["a[2]", "R[1,2]"] == v.scale(-ih)


def test_printed_variant_differs_only_in_LL():
    kappa = load_model("galilei_algebra_kappa")
    printed = load_printed_variant()
    diff = []
    for key in kappa.rules:
        if kappa.rules[key] != printed.rules[key]:
            diff.append(key)
    names = {(kappa.gens[a].name, kappa.gens[b].name) for a, b in diff}
    assert names == {("L", "L")}
    # derived from the shipped presentation, it equals that file with the
    # bracket written as Eq. 1 prints it, rule for rule and in order
    text = _read_model_text("galilei_algebra_kappa.hopf")
    bracket = "= (I/4)*h^2*eps(i,j,k)*P[k]*(P[m]*M[m]);"
    assert text.count(bracket) == 1
    parsed = parse_presentation(
        text.replace(bracket, "= (1/4)*h^2*eps(i,j,k)*P[k]*(P[m]*M[m]);")
            .replace("presentation galilei_algebra_kappa {",
                     "presentation galilei_algebra_kappa_printed {"))
    assert printed is load_printed_variant()
    assert printed == parsed and list(printed.rules) == list(parsed.rules)


def test_casimirs_in_a_presentation_are_normal_ordered_once(monkeypatch):
    printed = load_printed_variant()
    first = load_casimirs_in(printed)
    calls = []

    def spy(el, *args, **kwargs):
        calls.append(el)
        return normal_order(el, *args, **kwargs)

    monkeypatch.setattr(ncalg, "normal_order", spy)
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


def _classical_with_double_boost_bracket(tmp_path):
    """The classical algebra's canonical text with [L_i, P0] = 2i P_i."""
    text = print_presentation(load_model("galilei_algebra_classical"))
    for i in (1, 2, 3):
        rule = f"relation P0*L[{i}] - L[{i}]*P0 = -I*P[{i}];"
        assert text.count(rule) == 1
        text = text.replace(rule, rule.replace("-I*", "-2*I*"))
    path = tmp_path / "classical.hopf"
    path.write_text(text)
    return path, text


def test_classical_override_replaces_the_derivation(tmp_path):
    path, text = _classical_with_double_boost_bracket(tmp_path)
    loaded = load_model("galilei_algebra_classical", {"galilei_algebra_classical": str(path)})
    assert loaded == parse_presentation(text)
    assert loaded != load_model("galilei_algebra_classical")
    # the cocommutator suite reads the wrong bracket
    assert main(["verify", "cocommutator", "--order", "2", "--model", str(path)]) == 1


def test_kappa_override_leaves_the_classical_derivation(tmp_path):
    # a kappa algebra whose limit has [L_i, P0] = 2i P_i (its L-EE rule
    # moved with it, so that its self-test passes)
    text = _read_model_text("galilei_algebra_kappa.hopf")
    for old, new in (("= I*P[i];", "= 2*I*P[i];"), ("= (I*h/2)*P[i]*EE;", "= (I*h)*P[i]*EE;")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "kappa.hopf"
    path.write_text(text)
    overrides = {"galilei_algebra_kappa": str(path)}
    derived = load_model("galilei_algebra_classical")
    assert load_model("galilei_algebra_classical", overrides) is derived
    assert classical_limit(load_model("galilei_algebra_kappa", overrides),
                           name="galilei_algebra_classical") != derived


def test_a_reordered_kappa_algebra_passes_the_sigma_suites(tmp_path):
    # the same kappa algebra with EE first in its PBW order: each of its
    # generator indices is one more than in the derived classical algebra,
    # which sigma is keyed by, letter by label
    text = _read_model_text("galilei_algebra_kappa.hopf")
    gens = "generators: M[1] M[2] M[3] L[1] L[2] L[3] P[1] P[2] P[3] P0 EE grouplike;\n"
    assert text.count(gens) == 1
    path = tmp_path / "kappa_ee_first.hopf"
    path.write_text(text.replace(
        gens, gens + "  order: EE M[1] M[2] M[3] L[1] L[2] L[3] P[1] P[2] P[3] P0;\n"))
    overrides = resolve_overrides([str(path)])
    assert load_model("galilei_algebra_kappa", overrides).gens[0].label() == "EE"
    for suite in ("cocommutator", "rmatrix", "duality"):
        report = run_suite(SuiteConfig(suite=suite, order=2, seed=42, overrides=overrides))
        assert report.checks and all(c.status == "pass" for c in report.checks), suite


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


def test_every_shipped_file_has_declarations():
    # no orphan data file, no table entry without its file, and no derived
    # name that is also a file
    shipped = resources.files("kappa_hopf").joinpath("models")
    files = {f.name for f in shipped.iterdir() if f.name.endswith(".hopf")}
    assert files == FILE_DECLARATIONS.keys()
    assert len(set(CATALOG_NAMES)) == len(CATALOG_NAMES)
    assert not set(DERIVED) & {name for names in FILE_DECLARATIONS.values() for name in names}


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


@pytest.mark.parametrize("name", DERIVED)
def test_the_classical_algebra_parses_the_kappa_file_only(name):
    assert _parses(f"first = kappa_hopf.load_model({name!r})\nprint_calls()\n"
                   f"again = kappa_hopf.load_model({name!r})\n"
                   "print(json.dumps([again is first]))\n") == [
        ["galilei_algebra_kappa.hopf"],
        [True],
    ]


def test_a_repeated_suite_parses_nothing():
    run = "kappa_hopf.run_suite(kappa_hopf.SuiteConfig(suite='casimirs', order=1))\n"
    first, second = _parses(run + "print_calls()\n" + run + "print_calls()\n")
    assert len(first) == 3 and second == []
