"""Hopf extension maps, axiom verifiers, cocommutator, classical limit,
bicrossproduct and comodule reconstruction."""

import random
from fractions import Fraction as F
from importlib import resources

import pytest

from kappa_hopf import hopf, suites
from kappa_hopf.dsl import parse_presentation
from kappa_hopf.hopf import (
    apply_antipode,
    apply_coproduct,
    apply_counit,
    classical_limit,
    cocommutator,
    coproduct,
    multiply_slots,
    verify_bialgebra,
    verify_bicross,
    verify_casimir,
    verify_comodule,
    wedge_from_pairs,
)
from kappa_hopf.models import load_model, load_printed_variant, strip_quotient
from kappa_hopf.ncalg import (
    NCElement,
    PresentationError,
    TensorContext,
    clone_presentation,
    commutator,
    normal_order,
)
from kappa_hopf.scalars import GaussianRational, GR_I, H_ONE, HSeries, Poly, RationalFn


def hs(c, power=0):
    return HSeries({power: RationalFn(Poly.const(c))})


def eps(i, j, k):
    if {i, j, k} != {1, 2, 3}:
        return 0
    return 1 if (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1


def test_coproduct_paper_examples():
    kappa = load_model("galilei_algebra_kappa")
    ctx2 = TensorContext((kappa, kappa))

    def g2(name, idx=(), slot=0, power=1):
        return kappa.gen_element(name, idx, slot=slot, slots=2, power=power)

    for i in (1, 2, 3):
        got = coproduct(kappa.gen_element("P", (i,)))
        want = g2("P", (i,)) * g2("EE", slot=1, power=-1) + g2("EE") * g2("P", (i,), slot=1)
        assert got == normal_order(want)
    assert coproduct(NCElement.one(TensorContext((kappa,)))) \
        == NCElement.one(ctx2)


def test_coproduct_is_algebra_map_on_group_relation():
    # Delta([tau, a^i]) = (i/kappa) Delta(a^i), expanded term by term
    group = load_model("galilei_group_kappa")
    for i in (1, 2, 3):
        tau = group.gen_element("tau")
        ai = group.gen_element("a", (i,))
        lhs = coproduct(commutator(tau, ai))
        rhs = coproduct(ai).scale(HSeries({1: RationalFn(Poly.const(GR_I))}))
        assert lhs == rhs


def test_coproduct_homomorphism_randomized():
    group = load_model("galilei_group_2d")
    rng = random.Random(31)
    gens = [group.gen_element(n) for n in ("v", "a", "tau")]
    for _ in range(20):
        x = gens[rng.randrange(3)] * gens[rng.randrange(3)]
        y = gens[rng.randrange(3)] * gens[rng.randrange(3)] * gens[rng.randrange(3)]
        assert coproduct(normal_order(x * y)) \
            == normal_order(coproduct(x) * coproduct(y))


def test_coassociativity_explicit_three_slot_value():
    kappa = load_model("galilei_algebra_kappa")
    el = kappa.gen_element("P", (1,))
    d = normal_order(apply_coproduct(el, 0))
    lhs = normal_order(apply_coproduct(d, 0))
    rhs = normal_order(apply_coproduct(d, 1))
    # both sides equal P (x) E^-1 (x) E^-1 + E (x) P (x) E^-1 + E (x) E (x) P
    ctx3 = TensorContext((kappa,) * 3)

    def w(*letters):
        word = []
        for name, power in letters:
            gi = kappa.gen_index(name, (1,) if name == "P" else ())
            word.append(((gi, power),))
        return NCElement(ctx3, {tuple(word): H_ONE})

    want = (w(("P", 1), ("EE", -1), ("EE", -1))
            + w(("EE", 1), ("P", 1), ("EE", -1))
            + w(("EE", 1), ("EE", 1), ("P", 1)))
    assert lhs == normal_order(want)
    assert rhs == normal_order(want)


def test_counit_on_primitive():
    kappa = load_model("galilei_algebra_kappa")
    for name, idx in (("M", (1,)), ("P0", ())):
        el = kappa.gen_element(name, idx)
        d = apply_coproduct(el, 0)
        assert normal_order(apply_counit(d, 0)) == el
        assert normal_order(apply_counit(d, 1)) == el


def test_antipode_axiom_with_papers_S_L():
    # open question resolved: S(L_i) = -L_i - (3i/2kappa) P_i satisfies both
    # antipode axioms exactly
    kappa = load_model("galilei_algebra_kappa")
    for i in (1, 2, 3):
        el = kappa.gen_element("L", (i,))
        d = apply_coproduct(el, 0)
        left = normal_order(multiply_slots(apply_antipode(d, 0), 0, 1))
        right = normal_order(multiply_slots(apply_antipode(d, 1), 0, 1))
        assert left.is_zero() and right.is_zero()


def test_verify_bialgebra_group_all_pass():
    group = load_model("galilei_group_kappa")
    checks = verify_bialgebra(group, order=2, mode="formal")
    assert all(c.status == "pass" for c in checks)
    # five check families are present
    kinds = {c.check_id.split("[")[0] for c in checks}
    assert {"delta_respects", "coassoc", "counit", "antipode",
            "antipode_respects"} <= kinds


def test_verify_bialgebra_mutation_fails():
    group = load_model("galilei_group_2d")
    rules = dict(group.rules)
    a, v = group.gen_index("a"), group.gen_index("v")
    rules[(a, v)] = tuple((-c, w) for c, w in rules[(a, v)])
    mutant = clone_presentation(group, name="mutant2d", rules=rules)
    checks = verify_bialgebra(mutant, order=2, mode="formal")
    assert any(c.status == "fail" for c in checks)


def _entries(checks, prefix=""):
    return [(c.check_id.removeprefix(prefix), c.paper_anchor, c.status, c.residual)
            for c in checks if c.check_id.startswith(prefix)]


def test_group_suite_builds_each_residual_once_for_both_presentations(monkeypatch):
    calls = {"evaluate_raw": 0, "confluence_residual": 0}
    for module, name in ((hopf, "evaluate_raw"), (suites, "confluence_residual")):
        def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    rep = suites.run_suite(suites.SuiteConfig(suite="group", order=3, seed=42))
    # the parent path built and reduced them twice: 594 and 1120 calls
    assert calls == {"evaluate_raw": 306, "confluence_residual": 560}
    # the oracle still cross-checks the bare clone's 288 exact decisions
    assert rep.checks[-1].detail.startswith("594 of 594 residual evaluations")
    monkeypatch.undo()

    # the one-pass checks equal those of the bare clone verified on its own
    bare = strip_quotient(load_model("galilei_group_kappa"))
    prefix = "no_orthogonality:"
    alone = verify_bialgebra(bare, order=2, mode="formal", expect="report")
    assert _entries(rep.checks, prefix) == _entries(alone)
    assert {c.status for c in alone} == {"pass", "info"}
    [confluence] = [c for c in rep.checks if c.check_id == "confluence[no_orthogonality]"]
    assert confluence.as_json_dict() == suites._confluence_check(
        bare, "no_orthogonality", "Eq. 11 bare", expect="report").as_json_dict()


# the Hopf algebras a bicrossproduct is built from, and the 2D group
def _factor_presentations(overrides):
    tilde = load_model("tilde_bicross", overrides)
    group = load_model("group_bicross", overrides)
    return (tilde.u_factor, tilde.t_factor, group.u_factor, group.t_factor,
            load_model("galilei_group_2d", overrides))


def _failed_factor_axioms(overrides):
    return sorted(c.check_id for p in _factor_presentations(overrides)
                  for c in verify_bialgebra(p, order=3) if c.status != "pass")


def test_factor_presentations_are_hopf_algebras():
    factors = _factor_presentations(None)
    assert [p.name for p in factors] == [
        "e3_tilde", "t_translations", "e3_functions", "t_star", "galilei_group_2d"]
    checks = [c for p in factors for c in verify_bialgebra(p, order=3)]
    assert len(checks) == 299
    assert all(c.status == "pass" for c in checks)


@pytest.mark.parametrize("name, old, new, failing", [
    ("tilde_bicross", "antipode Mt[i] = -Mt[i];", "antipode Mt[i] = Mt[i];",
     {"antipode[Mt[1]]", "antipode[Mt[2]]", "antipode[Mt[3]]"}),
    ("galilei_group_2d", "counit a = 0;", "counit a = 1;", {"counit[a]", "antipode[a]"}),
])
def test_factor_axioms_catch_an_overridden_factor(tmp_path, name, old, new, failing):
    # these overrides pass the bicross and projrep suites: only the factor's
    # own Hopf axioms see them
    text = resources.files("kappa_hopf").joinpath("models", name + ".hopf").read_text()
    assert old in text
    path = tmp_path / (name + ".hopf")
    path.write_text(text.replace(old, new))
    assert failing <= set(_failed_factor_axioms({name: path}))


def test_verify_casimir_examples():
    kappa = load_model("galilei_algebra_kappa")
    cas = load_model("casimirs")
    for name in ("C1", "C2"):
        checks = verify_casimir(cas[name], kappa, order=3, mode="both", name=name)
        assert all(c.status == "pass" for c in checks), name
    # mutation: C1 + P0 fails against L_i with residual i P_i
    mutated = normal_order(cas["C1"] + kappa.gen_element("P0"))
    checks = verify_casimir(mutated, kappa, order=2, mode="formal", name="C1+P0")
    failed = {c.check_id: c for c in checks if c.status == "fail"}
    assert any("L[1]" in k for k in failed)


def test_printed_variant_c2_residual_matches_hand_formula():
    """With the [L,L] bracket exactly as printed (coefficient 1/4kappa^2, no
    i), hand computation gives

        [L_i, C2] = h^2 (i - 1)/4 * P.P * {(PxL)_i, P.M}

    and the engine must reproduce that element exactly."""
    printed = load_printed_variant()
    ctx = TensorContext((printed,))
    gel = lambda n, i=(): printed.gen_element(n, i)
    P = [gel("P", (i,)) for i in (1, 2, 3)]
    M = [gel("M", (i,)) for i in (1, 2, 3)]
    L = [gel("L", (i,)) for i in (1, 2, 3)]
    zero = NCElement.zero(ctx)
    P2 = sum((P[i] * P[i] for i in range(3)), zero)
    PM = sum((P[i] * M[i] for i in range(3)), zero)
    PxL1 = sum(((P[j - 1] * L[k - 1]).scale(F(eps(1, j, k)))
                for j in (1, 2, 3) for k in (1, 2, 3) if eps(1, j, k)), zero)
    C2 = (P2 * PM * PM).scale(HSeries({2: RationalFn(Poly.const(F(1, 4)))})) \
        + sum((_pxl(printed, i) * _pxl(printed, i) for i in (1, 2, 3)), zero)
    got = commutator(C2, L[0])
    sym = PxL1 * PM + PM * PxL1
    # [L_1, C2] = (i - 1)/4 h^2 P.P {(PxL)_1, P.M}, so [C2, L_1] carries (1-i)/4
    want = normal_order((P2 * sym).scale(
        HSeries({2: RationalFn(Poly.const(GaussianRational(F(1, 4), F(-1, 4))))})))
    assert not got.is_zero()
    assert got == want


def _pxl(p, i):
    ctx = TensorContext((p,))
    out = NCElement.zero(ctx)
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            e = eps(i, j, k)
            if e:
                out = out + (p.gen_element("P", (j,)) * p.gen_element("L", (k,))).scale(F(e))
    return out


def test_cocommutator_matches_eq9():
    kappa = load_model("galilei_algebra_kappa")
    w, info = cocommutator(kappa, ("P", (1,)))
    want = wedge_from_pairs(kappa, {(("P", (1,)), ("P0", ())): F(-1)})
    assert w == want
    w, _ = cocommutator(kappa, ("M", (2,)))
    assert w.is_zero()
    w, _ = cocommutator(kappa, ("L", (1,)))
    want = wedge_from_pairs(kappa, {
        (("L", (1,)), ("P0", ())): F(-1),
        (("M", (2,)), ("P", (3,))): F(-1),
        (("M", (3,)), ("P", (2,))): F(1),
    })
    assert w == want


def test_wedge_negates_under_swap():
    kappa = load_model("galilei_algebra_kappa")
    w, _ = cocommutator(kappa, ("L", (2,)))
    el = w.element
    assert normal_order(el + el.swap_slots(0, 1)).is_zero()


def test_classical_limit_examples():
    kappa = load_model("galilei_algebra_kappa")
    cl = classical_limit(kappa)
    l1, l2 = cl.gen_index("L", (1,)), cl.gen_index("L", (2,))
    assert cl.rules[(l2, l1)] == ()
    # [M_i, P_j] unchanged
    m1, p2 = cl.gen_index("M", (1,)), cl.gen_index("P", (2,))
    assert cl.rules[(p2, m1)] == tuple(
        (hs(GaussianRational(0, -eps(1, 2, k))),
         ((cl.gen_index("P", (k,)), 1),))
        for k in (3,))
    # Delta(L_i) becomes primitive
    d = cl.hopf.delta[cl.gen_index("L", (1,))]
    ctx2 = TensorContext((cl, cl))
    want = (cl.gen_element("L", (1,), slot=0, slots=2)
            + cl.gen_element("L", (1,), slot=1, slots=2))
    assert NCElement(ctx2, d.terms) == want


def test_classical_limit_pole_error():
    from kappa_hopf.ncalg import GenDecl, LimitError, Presentation
    gens = [GenDecl("x"), GenDecl("y")]
    rules = {(1, 0): ((HSeries({-1: RationalFn(Poly.const(1))}), ((0, 1),)),)}
    p = Presentation("poley", gens, rules=rules)
    with pytest.raises(LimitError):
        classical_limit(p)


def test_bicross_examples():
    tilde = load_model("tilde_bicross")
    checks = verify_bicross(tilde, order=3, mode="both")
    assert all(c.status == "pass" for c in checks)
    ids = {c.check_id for c in checks}
    # [Pt_mu, Pt_nu] = 0 reconstruction and the Eq. 6 coproduct live here
    assert any("factor_relation[t:" in i for i in ids)
    assert any("coproduct[t:Pt[1]]" in i for i in ids)
    gb = load_model("group_bicross")
    checks = verify_bicross(gb, order=2, mode="formal")
    assert all(c.status == "pass" for c in checks)


def test_comodule_examples():
    sc = load_model("spacetime")
    checks = verify_comodule(sc["space"], sc["group"], sc["action"], mode="formal")
    assert all(c.status == "pass" for c in checks)
    ids = {c.check_id for c in checks}
    assert "comodule:covariance[t*x[1]]" in ids
    assert "comodule:counit[t]" in ids


def test_comodule_direct_covariance_identity():
    # [t', x'^i] = (i/kappa) x'^i with the Eq. 18 images, computed directly
    sc = load_model("spacetime")
    group, space, action = sc["group"], sc["space"], sc["action"]
    t_img = action[space.gen_index("t")]
    for i in (1, 2, 3):
        x_img = action[space.gen_index("x", (i,))]
        lhs = commutator(t_img, x_img)
        want = x_img.scale(HSeries({1: RationalFn(Poly.const(GR_I))}))
        assert lhs == normal_order(want)
        for j in (1, 2, 3):
            y_img = action[space.gen_index("x", (j,))]
            assert commutator(x_img, y_img).is_zero()


def _random_pbw_element(p, rng):
    """Normal-ordered sum of at most two words of degree <= 2, grouplike
    letters at powers +-1, +-2, scalar and pure-grouplike words included."""
    ctx = TensorContext((p,))
    terms = {}
    for _ in range(rng.randint(1, 2)):
        word = []
        for _ in range(rng.randint(0, 2)):
            gi = rng.randrange(len(p.gens))
            word.append((gi, rng.choice([-2, -1, 1, 2]) if p.gens[gi].grouplike else 1))
        terms[(tuple(word),)] = hs(GaussianRational(rng.randint(-3, 3), rng.randint(1, 3)),
                                   rng.randint(0, 1))
    return normal_order(NCElement(ctx, terms))


def _counit_value(x):
    """epsilon(x) for a 1-slot element, as a scalar HSeries."""
    ctx2 = TensorContext(x.context.slots * 2)
    return apply_counit(x.in_context(ctx2), 0).scalar_part()


def test_letterwise_extension_properties():
    kappa = load_model("galilei_algebra_kappa")
    rng = random.Random(11)
    for _ in range(12):
        x, y = _random_pbw_element(kappa, rng), _random_pbw_element(kappa, rng)
        xy = normal_order(x * y)
        assert normal_order(apply_coproduct(xy)) \
            == normal_order(apply_coproduct(x) * apply_coproduct(y))
        assert normal_order(apply_antipode(xy)) \
            == normal_order(apply_antipode(y) * apply_antipode(x))
        assert _counit_value(xy) == _counit_value(x) * _counit_value(y)


GROUPLIKE_TIMES_ORDINARY = """
presentation twisted {
  generators: x EE grouplike;
  relation x*EE - EE*x = 0;
  log EE = h*x;
  coproduct x = x (x) 1 + 1 (x) x;
  coproduct EE = EE*x (x) EE;
  counit x = 0;
  counit EE = 1;
  antipode x = -x;
  antipode EE = EE^-1;
}
"""


def test_power_of_a_non_grouplike_image_multiplies():
    # Delta(EE) = EE*x (x) EE has an ordinary letter, so Delta(EE^2) is
    # Delta(EE)^2, not the exponents of Delta(EE) doubled
    p = parse_presentation(GROUPLIKE_TIMES_ORDINARY)
    d = apply_coproduct(p.gen_element("EE"))
    assert normal_order(apply_coproduct(p.gen_element("EE", power=2))) \
        == normal_order(d * d)
    with pytest.raises(PresentationError):
        apply_coproduct(p.gen_element("EE", power=-1))
    # a grouplike image keeps the exponent rule at every power
    assert apply_antipode(p.gen_element("EE", power=-2)) == p.gen_element("EE", power=2)
