"""Parser, validation diagnostics, round-trips, determinism."""

import random
from fractions import Fraction as F
from importlib import resources

import pytest

from kappa_hopf.dsl import (
    ModelModule,
    DslError,
    parse_presentation,
    parse_source,
    print_presentation,
    tokenize,
)
from kappa_hopf.models import CATALOG_NAMES, FILE_DECLARATIONS, load_model
from kappa_hopf.scalars import GaussianRational, HSeries, Poly, RationalFn


MINI = """
presentation mini {
  generators: M[1] M[2] M[3] P[1] P[2] P[3];
  relation M[i]*M[j] - M[j]*M[i] = I*eps(i,j,k)*M[k];
  relation M[i]*P[j] - P[j]*M[i] = I*eps(i,j,k)*P[k];
  relation P[i]*P[j] - P[j]*P[i] = 0;
}
"""


def test_parse_relation_to_oriented_rule():
    p = parse_presentation(MINI)
    m1, p2 = p.gen_index("M", (1,)), p.gen_index("P", (2,))
    corr = p.rules[(p2, m1)]
    # P[2]*M[1] -> M[1]*P[2] + [P_2, M_1] = M[1]P[2] - i eps(1,2,3) P[3]
    assert len(corr) == 1
    c, w = corr[0]
    assert w == ((p.gen_index("P", (3,)), 1),)
    assert c == HSeries.const(GaussianRational(0, -1))


def test_empty_presentation_is_valid():
    p = parse_presentation("presentation empty { generators: ; }")
    assert p.gens == ()
    assert p.missing_digrams() == []


def test_round_trip_all_shipped_presentations():
    for name in CATALOG_NAMES:
        model = load_model(name)
        from kappa_hopf.ncalg import Presentation
        if not isinstance(model, Presentation):
            continue
        text = print_presentation(model)
        again = parse_presentation(text)
        assert again == model, name


def test_round_trip_relation_example():
    text = """
presentation toy {
  generators: a tau;
  relation tau*a - a*tau = I*h*a;
}
"""
    p = parse_presentation(text)
    q = parse_presentation(print_presentation(p))
    assert p == q


def test_round_trip_fractional_gaussian_coefficients():
    # every branch of the coefficient printer: unit, -1, integer, fraction,
    # +-I, fractional imaginary and mixed Gaussian coefficients
    text = """
presentation coeffs {
  generators: a b c tau;
  relation tau*a - a*tau = (1/2 - 3/4*I)*a - 5/3*I*b;
  relation tau*b - b*tau = 2/3*c - I*h*a;
  relation tau*c - c*tau = -c + 2*a + I*b;
  relation b*a - a*b = 0;
  relation c*a - a*c = b;
  relation c*b - b*c = 0;
}
"""
    p = parse_presentation(text)
    printed = print_presentation(p)
    for piece in ("(((1/2) + (-3/4)*I))*a + (-5/3)*I*b", "-I*h*a + (2/3)*c",
                  "2*a + I*b + -1*c", "relation c*a - a*c = b;"):
        assert piece in printed
    assert parse_presentation(printed) == p


def test_determinism_same_text_same_presentation():
    a = parse_presentation(MINI)
    b = parse_presentation(MINI)
    assert a == b and a is not b


def test_explicit_order_section():
    text = """
presentation ordered {
  generators: y x;
  order: x y;
  relation y*x - x*y = I*h*x;
}
"""
    p = parse_presentation(text)
    assert [g.label() for g in p.gens] == ["x", "y"]
    assert (1, 0) in p.rules
    # order must cover every generator exactly once
    bad = text.replace("order: x y;", "order: x;")
    module, diags = parse_source(bad)
    assert module is None
    assert any("order section" in d.message for d in diags)


def test_syntax_error_carries_span():
    module, diags = parse_source("presentation broken { generators: x %; }", "f.hopf")
    assert module is None
    assert diags and diags[0].severity == "error"
    assert diags[0].line == 1 and diags[0].col > 1
    assert "f.hopf" in str(diags[0])


def test_unknown_symbol_diagnostic():
    bad = """
presentation bad {
  generators: x y;
  relation y*x - x*y = nosuch;
}
"""
    module, diags = parse_source(bad)
    assert module is None
    assert any("unknown symbol" in d.message for d in diags)


def test_index_out_of_range_diagnostic():
    bad = MINI.replace("I*eps(i,j,k)*P[k];", "I*eps(i,j,k)*P[k] + delta(i,j)*P[4];")
    module, diags = parse_source(bad)
    assert module is None
    assert any("out of range" in d.message or "unknown generator" in d.message
               for d in diags)


def test_unbalanced_index_diagnostic():
    bad = """
presentation bad {
  generators: P[1] P[2] P[3] Q[1] Q[2] Q[3];
  relation P[i]*Q[j] - Q[j]*P[i] = I*Q[l];
}
"""
    module, diags = parse_source(bad)
    assert module is None
    assert any("unbalanced index" in d.message for d in diags)


def test_missing_digram_diagnostic():
    bad = """
presentation bad {
  generators: x y z;
  relation y*x - x*y = 0;
}
"""
    module, diags = parse_source(bad)
    assert module is None
    assert any("no relation covers digrams" in d.message for d in diags)


def test_unorientable_relation_diagnostic():
    # left side must be a commutator difference
    bad = """
presentation bad {
  generators: x y;
  relation y*x + x*y = 0;
}
"""
    module, diags = parse_source(bad)
    assert module is None
    assert any("commutator difference" in d.message for d in diags)


def test_kappa_sugar_and_pole_rejection():
    ok = """
presentation sugared {
  generators: x y;
  relation y*x - x*y = (1/(4*kappa^2))*h^2*h*x;
}
"""
    p = parse_presentation(ok)
    (c, w), = p.rules[(1, 0)]
    # 1/(4 kappa^2) = h^2/4, times h^3
    assert c == HSeries({5: RationalFn(Poly.const(F(1, 4)))})
    bad = """
presentation poley {
  generators: x y;
  relation y*x - x*y = kappa*x;
}
"""
    module, diags = parse_source(bad)
    assert module is None
    assert any("pole" in d.message for d in diags)


def test_relation_scalars_are_inverted_exactly():
    def rules_or_messages(relation):
        module, diags = parse_source(
            "presentation inv {\n  params: m;\n  generators: A B;\n"
            f"  relation {relation};\n}}\n")
        return module.presentations["inv"].rules if module else [d.message for d in diags]

    two_h = ((HSeries.h(1).scale(2), ((0, 1),)),)
    assert rules_or_messages("kappa*(B*A - A*B) = 2*A") == {(1, 0): two_h}
    assert rules_or_messages("B*A - A*B = 2*kappa^-1*A") == {(1, 0): two_h}
    assert rules_or_messages("-2*I*kappa^2*(B*A - A*B) = A") \
        == {(1, 0): ((HSeries.h(2).scale(GaussianRational(0, F(1, 2))), ((0, 1),)),)}
    assert rules_or_messages("B*A - A*B = (1+h)^-1*A") \
        == ["negative power of a non-monomial scalar"]
    assert rules_or_messages("(1+h)*B*A - (1+h)*A*B = A") \
        == ["relation commutator prefactor must be an h-monomial scalar"]
    assert rules_or_messages("m*B*A - m*A*B = A") \
        == ["relation commutator prefactor must be constant"]
    assert rules_or_messages("B*A - A*B = (2*h)^-2*A") \
        == ["relation right side has a pole at h=0 (net negative kappa power)"]


HOPF_AB = """presentation ab {
  generators: A B G grouplike;
  relation B*A - A*B = 0;
  relation G*A - A*G = 0;
  relation G*B - B*G = 0;
  coproduct A = A (x) 1 + 1 (x) A;
  coproduct B = B (x) 1 + 1 (x) B;
  coproduct G = G (x) G;
  counit A = 0;
  counit B = 0;
  counit G = 1;
  antipode A = -A;
  antipode B = -B;
  antipode G = G^-1;
}
"""


@pytest.mark.parametrize("old, new, at, message", [
    ("counit A = 0;", "counit A = A (x) 1;", (9, 3), "ab: counit value must be scalar"),
    # a zero times a 2-slot element still fills 2 slots
    ("antipode A = -A;", "antipode A = 0*(A (x) B);", (12, 3), "expected 1 tensor slots, found 2"),
    ("antipode A = -A;", "antipode A = delta(1,2)*(A (x) B);", (12, 3),
     "expected 1 tensor slots, found 2"),
    ("coproduct A = A (x) 1 + 1 (x) A;", "coproduct A = A (x) 1 + A;", (6, 3), "slot mismatch: 2 vs 1"),
    ("coproduct A = A (x) 1 + 1 (x) A;", "coproduct A = A;", (6, 3),
     "expected 2 tensor slots, found 1"),
    ("antipode A = -A;", "antipode A = (1+h)^-1*A;", (12, 3),
     "negative power of a non-monomial scalar"),
    ("antipode A = -A;", "antipode A = A^-1;", (12, 3),
     "negative power only on grouplike generators or scalar monomials"),
    ("antipode A = -A;", "antipode A = A/B;", (12, 3), "division only by scalars"),
    ("antipode A = -A;", "antipode A = A/(1+h);", (12, 3), "division only by a single scalar term"),
    ("relation G*B - B*G = 0;", "relation G*B + B*G = 0;", (5, 3),
     "relation left side must be a commutator difference X*Y - Y*X"),
    ("counit G = 1;", "counit G = 1; relation B*A - A*B = B;", (11, 17),
     "conflicting rules for digram B*A"),
    # errors outside a section name the declaration
    ("generators: A B G", "generators: A B A G", (1, 1), "duplicate generator A in ab"),
    ("antipode B = -B;", "", (1, 1), "ab: missing antipode for ['B']"),
])
def test_evaluator_diagnostics(old, new, at, message):
    # one malformed presentation per message; the diagnostic names the
    # line and column of the section that fails to load
    assert old in HOPF_AB
    module, diags = parse_source(HOPF_AB.replace(old, new), "ab.hopf")
    assert module is None
    assert [((d.line, d.col), d.message) for d in diags] == [(at, message)]


def test_coaction_generator_of_the_wrong_factor():
    text = resources.files("kappa_hopf").joinpath("models", "tilde_bicross.hopf").read_text()
    env = ModelModule(presentations={
        "galilei_algebra_kappa": load_model("galilei_algebra_kappa")})
    assert parse_source(text, "tilde_bicross.hopf", env=env)[1] == []
    module, diags = parse_source(
        text.replace("coaction Mt[i] = Mt[i] (x) 1;", "coaction Mt[i] = 1 (x) Mt[i];"),
        "tilde_bicross.hopf", env=env)
    assert module is None
    assert [d.message for d in diags] == ["expression slot in e3_tilde, expected t_translations"]
    # the failing field's keyword, not the bicross declaration's
    line = text.splitlines()[diags[0].line - 1]
    assert line.startswith("  coaction Mt[i] = Mt[i] (x) 1;")
    assert (diags[0].line, diags[0].col) == (64, 3)


def _shipped(name):
    return resources.files("kappa_hopf").joinpath("models", name).read_text()


@pytest.mark.parametrize("name, env_names, old, new, message", [
    ("tilde_bicross.hopf", ["galilei_algebra_kappa"], "  action_codomain: t;",
     "  action_codomain: x;", "bicross tilde_bicross: action_codomain must be u or t"),
    ("tilde_bicross.hopf", ["galilei_algebra_kappa"], "  tfactor: t_translations;",
     "  tfactor: nowhere;", "bicross tilde_bicross: unresolved presentation reference"),
    ("tilde_bicross.hopf", ["galilei_algebra_kappa"], "  tembed Pt0 |-> P0;",
     "  tembed Pt0 |-> Q0;", "unknown symbol 'Q0'"),
    ("tilde_bicross.hopf", ["galilei_algebra_kappa"], "  action Lt[i], Pt0 = I*Pt[i];",
     "  action Lt[i], Pt0 = I*Mt[i];", "unknown generator Mt[1]"),
    ("spacetime.hopf", ["galilei_group_kappa"], "  action t = 1 (x) t + tau (x) 1;",
     "  action t = 1 (x) t + tau;", "slot mismatch: 2 vs 1"),
    ("spacetime.hopf", ["galilei_group_kappa"], "  group: galilei_group_kappa;",
     "  group: galilei_group;", "comodule spacetime: unresolved presentation reference"),
])
def test_bicross_and_comodule_errors_name_the_failing_field(name, env_names, old, new,
                                                            message):
    text = _shipped(name)
    env = ModelModule(presentations={n: load_model(n) for n in env_names})
    assert old in text
    module, diags = parse_source(text.replace(old, new), name, env=env)
    assert module is None
    assert [d.message for d in diags] == [message]
    line = next(k for k, ln in enumerate(text.splitlines(), 1) if ln.startswith(old))
    assert (diags[0].line, diags[0].col) == (line, 3)


@pytest.mark.parametrize("text, at", [
    ("", (1, 1)),
    ("# a comment only\n", (1, 1)),
    (MINI + MINI.replace("mini", "other"), (9, 1)),
])
def test_one_presentation_error_names_a_position(text, at):
    with pytest.raises(DslError) as err:
        parse_presentation(text, "f.hopf")
    assert [(d.message, d.line, d.col) for d in err.value.diagnostics] == [
        ("expected exactly one presentation", *at)]


def test_dsl_error_wrapper():
    with pytest.raises(DslError):
        parse_presentation("presentation x { generators: a b; }")


def test_non_terminating_rule_is_a_diagnostic():
    # the correction B*A is itself out of order, so normalising it never ends
    loop = """
presentation loop {
  generators: A B;
  relation B*A - A*B = B*A;
}
"""
    module, diags = parse_source(loop)
    assert module is None
    assert [d.message for d in diags] == ["rewrite budget exceeded at digram B*A in loop"]
    assert (diags[0].line, diags[0].col) == (4, 3)  # the relation


def test_token_mutants_of_shipped_models_give_a_module_or_diagnostics():
    # seeded token-level mutants (delete, duplicate, swap) of every shipped
    # file, through parse_source only; a mutant whose rules never terminate
    # stops at the correction budget and comes back as a diagnostic
    shipped = resources.files("kappa_hopf").joinpath("models")
    env = ModelModule()
    sources = []
    for name in [*FILE_DECLARATIONS, "variants/galilei_algebra_kappa_printed.hopf"]:
        text = shipped.joinpath(name).read_text()
        module, _ = parse_source(text, name, env=env)
        env.presentations.update(module.presentations)
        sources.append((name, [t.text for t in tokenize(text)[0][:-1]]))
    rng = random.Random(1995)
    outcomes = set()
    for i in range(600):
        name, toks = rng.choice(sources)
        toks = list(toks)
        op, a = rng.choice(("delete", "duplicate", "swap")), rng.randrange(len(toks))
        if op == "delete":
            del toks[a]
        elif op == "duplicate":
            toks.insert(a, toks[a])
        else:
            b = rng.randrange(len(toks))
            toks[a], toks[b] = toks[b], toks[a]
        try:
            module, diags = parse_source(" ".join(toks), f"mutant{i}", env=env)
        except Exception as e:
            pytest.fail(f"mutant {i} ({op} at token {a} of {name}) raised {e!r}")
        assert (module is None) == bool(diags)
        assert all(d.line >= 1 for d in diags), f"mutant {i}: {diags}"
        outcomes.add(module is None)
    assert outcomes == {True, False}
