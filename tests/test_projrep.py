"""Projective representation calculus: graded BCH, conjugation, the
multiplier, the cocycle equation, triviality, and the composition law."""

import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest

import kappa_hopf
from kappa_hopf import ncalg, projrep, suites
from kappa_hopf.cohom import LieData
from kappa_hopf.hopf import apply_coproduct
from kappa_hopf.models import load_model
from kappa_hopf.ncalg import (
    BracketTable,
    NCElement,
    PresentationError,
    TensorContext,
    commutator,
    normal_order,
)
from kappa_hopf.projrep import (
    ExpFactor,
    ExpProduct,
    OrderCapError,
    bch_combine,
    bch_combine_exponents,
    bch_combine_list,
    bch_plan,
    build_omega,
    classical_phi0,
    cocycle_residual,
    conjugate,
    omega_log_phi,
    phi1_particular,
    phi1_residual,
    rep_apply,
    rep_compose_check,
    series_to_element,
    triviality_probe,
)
from kappa_hopf.report import FAIL, PASS
from kappa_hopf.scalars import (
    GR_I,
    GaussianRational,
    HSeries,
    Poly,
    RationalFn,
    series_exp,
)
from kappa_hopf.suites import SuiteConfig, run_suite


# ---------------------------------------------------------------------------
# BCH plan against an independent nilpotent-matrix oracle
# ---------------------------------------------------------------------------


def _mat_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), F(0)) for j in range(n)]
            for i in range(n)]


def _mat_add(a, b, sa=1, sb=1):
    return [[sa * x + sb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_scale(a, s):
    return [[x * s for x in row] for row in a]


def _mat_exp_nilpotent(a):
    n = len(a)
    out = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    term = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    k = 0
    while True:
        k += 1
        term = _mat_mul(term, a)
        if all(not x for row in term for x in row):
            break
        out = _mat_add(out, _mat_scale(term, F(1, __import__("math").factorial(k))))
        if k > n:
            break
    return out


def _mat_log_unipotent(g):
    n = len(g)
    eye = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    w = _mat_add(g, eye, 1, -1)
    out = [[F(0)] * n for _ in range(n)]
    term = eye
    for k in range(1, n + 1):
        term = _mat_mul(term, w)
        if all(not x for row in term for x in row):
            break
        out = _mat_add(out, _mat_scale(term, F((-1) ** (k + 1), k)))
    return out


def test_bch_plan_matches_nilpotent_matrix_oracle():
    """Evaluate the Dynkin-projected plan on strictly upper-triangular
    rational 5x5 matrices and compare with exact log(exp(A) exp(B))."""
    rng = random.Random(6)
    for trial in range(5):
        A = [[F(0)] * 5 for _ in range(5)]
        B = [[F(0)] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                A[i][j] = F(rng.randint(-3, 3), rng.randint(1, 3))
                B[i][j] = F(rng.randint(-3, 3), rng.randint(1, 3))
        oracle = _mat_log_unipotent(_mat_mul(_mat_exp_nilpotent(A), _mat_exp_nilpotent(B)))
        got = [[F(0)] * 5 for _ in range(5)]
        letters = (A, B)
        for weight, coeff, word in bch_plan(6):
            val = letters[word[0]]
            for letter in word[1:]:
                nxt = letters[letter]
                val = _mat_add(_mat_mul(val, nxt), _mat_mul(nxt, val), 1, -1)
            got = _mat_add(got, _mat_scale(val, coeff))
        assert got == oracle, trial
    # one plan per weight, shared by every caller, so it cannot be mutated
    assert isinstance(bch_plan(6), tuple) and bch_plan(6) is bch_plan(6)


def test_bch_combine_commuting_exponents():
    g2 = load_model("galilei_group_2d")
    ctx = TensorContext((g2,))
    v = g2.gen_element("v")
    a = ExpFactor(v.scale(F(2)))
    b = ExpFactor(v.scale(F(-1, 3)))
    combined = bch_combine(a, b, 3)
    assert combined.exponent == normal_order(v.scale(F(5, 3))).truncate(3)


def test_bch_combine_solvable_pair_matrix_oracle():
    """log(e^{alpha tau} e^{beta a}) via a faithful 2x2 upper-triangular
    representation with HSeries entries: tau = ih E_11, a = E_01...
    actually tau -> [[ih,0],[0,0]], a -> [[0,1],[0,0]] satisfies
    [tau,a] = ih a.  Exponentials and the log of the product are computed
    with plain series arithmetic, independent of the NC engine."""
    g2 = load_model("galilei_group_2d")
    tau = g2.gen_element("tau")
    a = g2.gen_element("a")
    alpha, beta = F(3), F(1, 2)
    order = 4
    z = bch_combine_exponents(tau.scale(alpha), a.scale(beta), order)
    # z = c_tau * tau + c_a * a with scalar HSeries coefficients
    tau_gi = g2.gen_index("tau")
    a_gi = g2.gen_index("a")
    c_tau = z.terms.get((((tau_gi, 1),),))
    c_a = z.terms.get((((a_gi, 1),),))
    assert set(z.terms) <= {(((tau_gi, 1),),), (((a_gi, 1),),)}
    ih = HSeries({1: RationalFn(Poly.const(GR_I))})

    def exp2(x11, x01):
        # exp([[x11, x01],[0,0]]) = [[e^x11, x01 (e^x11 - 1)/x11],[0,1]]
        e = series_exp(x11, order)
        # (e^x11 - 1)/x11 as a series: sum x11^k/(k+1)!
        s = HSeries.const(1).truncate(order)
        power = HSeries.const(1).truncate(order)
        fact = 1
        for k in range(1, order + 1):
            power = (power * x11).truncate(order)
            fact *= (k + 1)
            s = s + power.scale(F(1, fact))
        return e, (x01 * s).truncate(order)

    lhs_e, lhs_off = exp2(ih.scale(alpha), HSeries())
    rhs_e, rhs_off = exp2(HSeries(), HSeries.const(beta))
    prod_e = (lhs_e * rhs_e).truncate(order)
    prod_off = (lhs_e * rhs_off + lhs_off).truncate(order)
    got_e, got_off = exp2((ih * c_tau).truncate(order), c_a)
    assert got_e == prod_e
    assert got_off == prod_off


def test_bch_associativity_through_h3():
    g2 = load_model("galilei_group_2d")
    rng = random.Random(14)
    gens = [g2.gen_element(n) for n in ("v", "a", "tau")]
    zero = NCElement.zero(gens[0].context)
    for _ in range(6):
        def rnd():
            el = zero
            for _ in range(2):
                g = gens[rng.randrange(3)]
                h = gens[rng.randrange(3)]
                el = el + (g * h).scale(F(rng.randint(-2, 2)))
            return normal_order(el + gens[rng.randrange(3)].scale(F(rng.randint(-2, 2))))
        A, B, C = rnd(), rnd(), rnd()
        # the triple's four calls share one bracket table, as bch_combine_list's do
        table = BracketTable(A.context)
        left = bch_combine_exponents(bch_combine_exponents(A, B, 3, table=table), C, 3,
                                     table=table)
        right = bch_combine_exponents(A, bch_combine_exponents(B, C, 3, table=table), 3,
                                      table=table)
        assert left == right


def test_bch_order_cap():
    g2 = load_model("galilei_group_2d")
    v = g2.gen_element("v")
    with pytest.raises(OrderCapError):
        bch_combine_exponents(v, v, 7)


def test_conjugate_geometric_series_oracle():
    # e^{beta a} v e^{-beta a} = sum_k (i beta/2kappa)^k v^{k+1}
    g2 = load_model("galilei_group_2d")
    v = g2.gen_element("v")
    a = g2.gen_element("a")
    beta = F(2, 3)
    for order in (1, 2, 3, 4):
        got = conjugate(ExpFactor(a.scale(beta)), v, order)
        want = NCElement.zero(v.context)
        vk = v
        coeff = HSeries.const(1)
        step = HSeries({1: RationalFn(Poly.const(GaussianRational(0, beta / 2)))})
        for k in range(order + 1):
            want = want + vk.scale(coeff)
            vk = normal_order(vk * v)
            coeff = coeff * step
        assert got == normal_order(want).truncate(order), order


def test_conjugate_scaling_oracle():
    # e^{alpha tau} a e^{-alpha tau} = e^{i alpha/kappa} a (series through order)
    g2 = load_model("galilei_group_2d")
    tau = g2.gen_element("tau")
    a = g2.gen_element("a")
    alpha = F(5, 7)
    for order in (1, 3):
        got = conjugate(ExpFactor(tau.scale(alpha)), a, order)
        scale = series_exp(HSeries({1: RationalFn(Poly.const(GaussianRational(0, alpha)))}),
                           order)
        assert got == a.scale(scale).truncate(order)
    # conjugation by a zero exponent is the identity map
    zero = NCElement.zero(a.context)
    assert conjugate(ExpFactor(zero), a, 3) == a.truncate(3)


def test_build_omega_and_phi_expansions():
    g2 = load_model("galilei_group_2d")
    phi = omega_log_phi(g2, 2)
    assert phi.h_coefficient(0) == classical_phi0(g2)
    assert phi.h_coefficient(1) == phi1_particular(g2)
    # m = 0: omega is the identity
    om = build_omega(g2, 2)
    lg = om.log(2)
    at_zero = NCElement(lg.context, {w: c.subs({"m": 0}) for w, c in lg.terms.items()})
    assert normal_order(at_zero).is_zero()


def test_phi1_equation_examples():
    g2 = load_model("galilei_group_2d")
    assert phi1_residual(g2, phi1_particular(g2)).is_zero()
    zero2 = NCElement.zero(TensorContext((g2, g2)))
    src = phi1_residual(g2, zero2)
    assert not src.is_zero()
    # shifting by the coboundary of a symmetric chi(v) (homogeneous solution)
    v_gi = g2.gen_index("v")
    ctx2 = TensorContext((g2, g2))
    homog = NCElement(ctx2, {(((v_gi, 1),), ((v_gi, 1),)): HSeries.const(F(2))})
    assert phi1_residual(g2, phi1_particular(g2) + homog).is_zero()
    # candidates must be h-free
    bad = phi1_particular(g2).scale(HSeries.h(1))
    with pytest.raises(ValueError):
        phi1_residual(g2, bad)


def test_cocycle_residual_orders():
    g2 = load_model("galilei_group_2d")
    for order in (0, 1, 2, 3):
        assert cocycle_residual(build_omega(g2, order), order).is_zero(), order


def _hand_built_3slot_exponents(g2, order):
    """The Eq. 20 exponents as they were once typed out, with Delta(v),
    Delta(tau) and Delta(a) of Eq. 24 written by hand: v is primitive, so
    (Delta (x) I) substitutes v1 + v2 inside the coefficient series."""
    ctx3 = TensorContext((g2,) * 3)
    v_gi, tau_gi, a_gi = g2.gen_index("v"), g2.gen_index("tau"), g2.gen_index("a")
    m = RationalFn(Poly.var("m"))
    v1, v2 = RationalFn(Poly.var("v1")), RationalFn(Poly.var("v2"))
    vmap = {"v1": (0, v_gi), "v2": (1, v_gi)}

    def texp_of(vexpr):
        return projrep.tau_exponent_series(m * vexpr * vexpr, order)

    def aexp_of(vexpr):
        return projrep.a_exponent_series(m * vexpr, m * vexpr * vexpr, order)

    def letter(slot, gi):
        w = [(), (), ()]
        w[slot] = ((gi, 1),)
        return tuple(w)

    def elem(series, extra):
        return ExpFactor(series_to_element(series, ctx3, vmap, extra)).exponent

    lhs = [elem(texp_of(v1), letter(1, tau_gi)), elem(aexp_of(v1), letter(1, a_gi)),
           elem(texp_of(v1 + v2), letter(2, tau_gi)), elem(aexp_of(v1 + v2), letter(2, a_gi))]
    delta_tau = NCElement(ctx3, {letter(1, tau_gi): HSeries.const(1),
                                 letter(2, tau_gi): HSeries.const(1)})
    delta_a = NCElement(ctx3, {letter(1, a_gi): HSeries.const(1),
                               letter(2, a_gi): HSeries.const(1),
                               ((), ((v_gi, 1),), ((tau_gi, 1),)): HSeries.const(1)})
    g3 = series_to_element(texp_of(v1), ctx3, vmap) * delta_tau
    g4 = series_to_element(aexp_of(v1), ctx3, vmap) * delta_a
    rhs = [elem(texp_of(v2), letter(2, tau_gi)), elem(aexp_of(v2), letter(2, a_gi)),
           ExpFactor(g3).exponent, ExpFactor(g4).exponent]
    return lhs, rhs


def test_coproduct_legs_match_hand_built_oracle():
    """The eight Eq. 20 legs taken through the model's coproduct equal the
    hand-typed ones term for term, and so do the Delta legs of Eq. 19."""
    g2 = load_model("galilei_group_2d")
    for order in (0, 1, 2, 3):
        images = [projrep._three_slot_images(f.exponent)
                  for f in build_omega(g2, order).factors]
        legs = [[ExpFactor(i[k]).exponent for i in images] for k in range(4)]
        want_lhs, want_rhs = _hand_built_3slot_exponents(g2, order)
        assert legs[0] + legs[2] == want_lhs, order
        assert legs[1] + legs[3] == want_rhs, order
    ctx2 = TensorContext((g2, g2))
    tau_gi, a_gi, v_gi = g2.gen_index("tau"), g2.gen_index("a"), g2.gen_index("v")
    one = HSeries.const(1)
    delta_tau = NCElement(ctx2, {(((tau_gi, 1),), ()): one, ((), ((tau_gi, 1),)): one})
    delta_a = NCElement(ctx2, {(((a_gi, 1),), ()): one, ((), ((a_gi, 1),)): one,
                               (((v_gi, 1),), ((tau_gi, 1),)): one})
    that, ghat = projrep.rep_prefactor_series(2)
    pre, _ = rep_apply(g2, 0, 2)
    got = [normal_order(apply_coproduct(f.exponent, 0)) for f in pre.factors]
    assert got == [normal_order(series_to_element(that, ctx2, {}) * delta_tau),
                   normal_order(series_to_element(ghat, ctx2, {}) * delta_a)]


_COPRODUCT_MUTANTS = {
    "a_sign": ("coproduct a = a (x) 1 + 1 (x) a + v (x) tau;",
               "coproduct a = a (x) 1 + 1 (x) a - v (x) tau;"),
    "tau_scale": ("coproduct tau = tau (x) 1 + 1 (x) tau;",
                  "coproduct tau = tau (x) 1 + 2*(1 (x) tau);"),
}


@pytest.mark.parametrize("mutant", sorted(_COPRODUCT_MUTANTS))
def test_coproduct_mutants_fail_cocycle_and_rep_compose(tmp_path, mutant):
    # the Eq. 19 and Eq. 20 checks read the declared coproduct, so a wrong
    # Delta(a) or Delta(tau) in a --model file fails them
    old, new = _COPRODUCT_MUTANTS[mutant]
    text = (Path(projrep.__file__).parent / "models" / "galilei_group_2d.hopf").read_text()
    assert old in text
    path = tmp_path / "galilei_group_2d.hopf"
    path.write_text(text.replace(old, new))
    report = run_suite(SuiteConfig(suite="projrep", rep_order=1,
                                   overrides={"galilei_group_2d": path}))
    status = {c.check_id: c.status for c in report.checks}
    composed = [k for k in status if k.startswith("rep_compose[")]
    assert len(composed) == 4
    for check_id in ["cocycle_residual"] + composed:
        assert status[check_id] == FAIL, check_id


def test_cocycle_residual_mutations():
    g2 = load_model("galilei_group_2d")
    stripped = ExpProduct([ExpFactor(f.exponent.h_coefficient(0))
                           for f in build_omega(g2, 1).factors])
    z = cocycle_residual(stripped, 1)
    assert z.h_coefficient(0).is_zero()
    assert not z.h_coefficient(1).is_zero()
    # derived oracle: deleting the h^1 exponent parts A1, B1 of omega's two
    # factors leaves exactly their four-term combination
    #   z1 = (A1+B1) (x) I - I (x) (A1+B1) + (Delta (x) I)(A1+B1)
    #        - (I (x) Delta)(A1+B1),
    # which equals i * (Eq. 27 LHS at phi1) up to the factorization
    # coboundary four_term([A0,B0]/2) -- the Hausdorff reshuffle the paper's
    # "resulting equation" absorbs silently.
    om = build_omega(g2, 1)
    a1b1 = normal_order(om.factors[0].exponent.h_coefficient(1)
                        + om.factors[1].exponent.h_coefficient(1))
    ctx3 = TensorContext((g2,) * 3)

    def four_term(el):
        return normal_order(
            el.place_in_slots(ctx3, {0: 0, 1: 1})
            - el.place_in_slots(ctx3, {0: 1, 1: 2})
            + NCElement(ctx3, apply_coproduct(el, 0).terms)
            - NCElement(ctx3, apply_coproduct(el, 1).terms))

    assert normal_order(z.h_coefficient(1) - four_term(a1b1)).is_zero()
    # and restoring phi1 via Eq. 28 is exactly what kills it: the same
    # four-term operator applied to i*phi1 + [A0,B0]/2 gives z1 back
    half_bracket = commutator(om.factors[0].exponent.h_coefficient(0),
                              om.factors[1].exponent.h_coefficient(0))
    half_bracket = half_bracket.h_coefficient(1).scale(F(1, 2))
    recomposed = normal_order(
        phi1_particular(g2).scale(GR_I) - half_bracket)
    assert normal_order(four_term(recomposed) - z.h_coefficient(1)).is_zero()


def test_equivalence_transformed_multiplier():
    # (a (x) a) omega Delta(a)^-1 for a = e^{i c v^2} still satisfies Eq. 20
    # and projects to the same classical class (Eq. 22 consistency)
    g2 = load_model("galilei_group_2d")
    lie2d = LieData.from_presentation(load_model("galilei_algebra_2d_classical"))
    rng = random.Random(21)
    v_gi = g2.gen_index("v")
    ctx2 = TensorContext((g2, g2))
    om = build_omega(g2, 2)
    _, base_cls = triviality_probe(g2, lie2d)
    for _ in range(3):
        c = F(rng.randint(-3, 3), rng.randint(1, 4))
        if not c:
            continue

        def chi(slot, power=2):
            w = [(), ()]
            w[slot] = ((v_gi, 1),) * power
            return NCElement(ctx2, {tuple(w): HSeries.const(GaussianRational(0, c))})

        chi12 = chi(0) + chi(1)
        cross = NCElement(ctx2, {(((v_gi, 1),), ((v_gi, 1),)):
                                 HSeries.const(GaussianRational(0, 2 * c))})
        chi_delta = chi12 + cross
        om_t = ExpProduct([ExpFactor(chi12)] + om.factors + [ExpFactor(-chi_delta)])
        assert cocycle_residual(om_t, 2).is_zero()
        _, cls = triviality_probe(g2, lie2d, omega2=om_t)
        assert cls == base_cls


def test_triviality_probe_reports_mass_class():
    g2 = load_model("galilei_group_2d")
    lie2d = LieData.from_presentation(load_model("galilei_algebra_2d_classical"))
    chk, cls = triviality_probe(g2, lie2d)
    assert chk.status == "pass"
    assert "mass" in chk.detail
    li = lie2d.labels.index("L")
    pi = lie2d.labels.index("P")
    key = (min(li, pi), max(li, pi))
    assert set(cls) == {key}
    assert cls[key] == HSeries.const(RationalFn(Poly.var("m")))
    # m = 0 collapses the class (omega = identity is trivial)
    assert not cls[key].subs({"m": 0})


def test_rep_apply_shapes():
    g2 = load_model("galilei_group_2d")
    pre, tail = rep_apply(g2, 0, 2)
    assert tail == NCElement.one(TensorContext((g2,))).truncate(2)
    assert len(pre.factors) == 2
    # h^0 exponents: -i (p^2/2m) tau and +i p a
    p, m = Poly.var("p"), Poly.var("m")
    tau_gi, a_gi = g2.gen_index("tau"), g2.gen_index("a")
    f_tau0 = pre.factors[0].exponent.h_coefficient(0)
    want_tau = NCElement(TensorContext((g2,)), {
        (((tau_gi, 1),),): HSeries.const(
            RationalFn((p * p).scale(GaussianRational(0, F(-1, 2))), m))})
    assert f_tau0 == want_tau
    f_a0 = pre.factors[1].exponent.h_coefficient(0)
    want_a = NCElement(TensorContext((g2,)), {
        (((a_gi, 1),),): HSeries.const(RationalFn(p.scale(GR_I)))})
    assert f_a0 == want_a
    # n = 1 tail: p - m v (binomial, cross-slot commuting)
    _, tail1 = rep_apply(g2, 1, 1)
    v_gi = g2.gen_index("v")
    want = NCElement(TensorContext((g2,)), {
        ((),): HSeries.const(RationalFn(p)),
        (((v_gi, 1),),): HSeries.const(RationalFn(m.scale(-1)))})
    assert tail1 == want.truncate(1)


def test_rep_compose_orders_and_mutation():
    g2 = load_model("galilei_group_2d")
    for order in (0, 1, 2):
        logres, taildiffs = rep_compose_check(g2, (0, 1, 2), order)
        assert len(taildiffs) == 3
        for n, taildiff in zip((0, 1, 2), taildiffs):
            assert logres.is_zero() and taildiff.is_zero(), (n, order)
    logres, _ = rep_compose_check(g2, (1,), 1, omega="identity")
    assert not logres.h_coefficient(0).is_zero()
    with pytest.raises(OrderCapError):
        rep_compose_check(g2, (0, 9), 1)
    with pytest.raises(ValueError):
        rep_compose_check(g2, (0,), 1, omega="trivial")


def test_rep_compose_builds_the_log_once(monkeypatch):
    # the Eq. 19 log residual never reads n: one BCH log for all degrees
    calls = []
    inside = []

    def counted_rep_compose_check(*args, **kwargs):
        inside.append(kwargs.get("omega", "paper"))
        try:
            return rep_compose_check(*args, **kwargs)
        finally:
            inside.pop()

    def counted_bch_combine_list(*args, **kwargs):
        if inside:
            calls.append(inside[-1])
        return bch_combine_list(*args, **kwargs)

    monkeypatch.setattr(suites, "rep_compose_check", counted_rep_compose_check)
    monkeypatch.setattr(projrep, "bch_combine_list", counted_bch_combine_list)
    report = run_suite(SuiteConfig(suite="projrep", rep_order=1, seed=42))
    composed = [c for c in report.checks if c.check_id.startswith("rep_compose[")]
    assert [c.degree for c in composed] == [0, 1, 2, 3]
    assert all(c.status == PASS for c in composed)
    assert calls.count("paper") == 1


def _naive_bch(a, b, order):
    """log(e^A e^B) with every bracket of every plan word evaluated afresh;
    also returns the distinct prefixes whose bracket had to be taken."""
    letters = (a.truncate(order), b.truncate(order))
    out = NCElement.zero(a.context)
    taken = set()
    for _, coeff, word in bch_plan(order + 1):
        val = letters[word[0]]
        for k in range(1, len(word)):
            taken.add(word[:k + 1])
            val = commutator(val, letters[word[k]]).truncate(order)
            if val.is_zero():
                break
        else:
            out = out + val.scale(F(coeff))
    return normal_order(out).truncate(order), taken


def test_bch_bracket_prefixes_computed_once(monkeypatch):
    g2 = load_model("galilei_group_2d")
    for order in (1, 2, 3):
        a, b = (f.exponent for f in build_omega(g2, order).factors)
        want, taken = _naive_bch(a, b, order)
        calls = []

        def counted(x, y, **kwargs):
            calls.append(1)
            return commutator(x, y, **kwargs)

        monkeypatch.setattr(projrep, "commutator", counted)
        assert bch_combine_exponents(a, b, order) == want
        monkeypatch.undo()
        assert len(calls) == len(taken), order
    # at order 3 the plan's words share prefixes
    naive_calls = sum(len(w) - 1 for _, _, w in bch_plan(4))
    assert len(taken) < naive_calls


def test_h_grading_soundness():
    # every commutator of the 2D group presentation carries at least one h,
    # so BCH/push-through series truncate at finite depth
    g2 = load_model("galilei_group_2d")
    assert g2.rule_h_floor() == 1
    f = ExpFactor(g2.gen_element("v") + g2.gen_element("a"))
    assert f.h_floor >= 1


def _spy_tables(monkeypatch):
    """Weak references to every BracketTable projrep makes."""
    made = []

    def tracked(context):
        table = BracketTable(context)
        made.append(weakref.ref(table))
        return table

    monkeypatch.setattr(projrep, "BracketTable", tracked)
    return made


def test_one_bracket_table_per_combination(monkeypatch):
    """One cocycle_residual is one bch_combine_list: all its commutators
    read one table, each distinct word bracket is normal-ordered once, and
    the table is freed by reference counting when the call returns."""
    g2 = load_model("galilei_group_2d")
    omega = build_omega(g2, 2)
    want = cocycle_residual(omega, 2)
    made = _spy_tables(monkeypatch)
    tables, pairs, term_pairs = [], [], []

    def counted(x, y, **kwargs):
        tables.append(kwargs["table"])
        term_pairs.append(len(x.terms) * len(y.terms))
        return commutator(x, y, **kwargs)

    word_bracket = ncalg._word_bracket

    def bracket(context, w12, w21):
        pairs.append((w12, w21))
        return word_bracket(context, w12, w21)

    monkeypatch.setattr(projrep, "commutator", counted)
    monkeypatch.setattr(ncalg, "_word_bracket", bracket)
    assert cocycle_residual(omega, 2) == want
    assert len(made) == 1 and len(tables) > 10
    assert all(t is tables[0] for t in tables)
    # each word bracket is normal-ordered once, in one order of its words
    assert len(pairs) == len({frozenset(p) for p in pairs}) > 50
    # most term pairs found their bracket in the table
    assert sum(term_pairs) > 2 * len(pairs)
    del tables[:]
    assert made[0]() is None


def test_conjugate_shares_one_table_and_drops_it(monkeypatch):
    g2 = load_model("galilei_group_2d")
    a = ExpFactor(g2.gen_element("tau").scale(HSeries.const(3)))
    x = g2.gen_element("v") * g2.gen_element("a")
    want = conjugate(a, x, 3)
    made = _spy_tables(monkeypatch)
    tables = []

    def counted(x, y, **kwargs):
        tables.append(kwargs["table"])
        return commutator(x, y, **kwargs)

    monkeypatch.setattr(projrep, "commutator", counted)
    assert conjugate(a, x, 3) == want
    assert len(made) == 1 and len(tables) > 1
    assert all(t is tables[0] for t in tables)
    del tables[:]
    assert made[0]() is None


def test_bch_table_is_not_read_for_another_context():
    g2 = load_model("galilei_group_2d")
    one, two = TensorContext((g2,)), TensorContext((g2, g2))
    v, a = g2.gen_element("v"), g2.gen_element("a")
    # an equal context built anew reads the same table
    table = BracketTable(TensorContext((g2,)))
    assert bch_combine_exponents(v, a, 2, table=table) == bch_combine_exponents(v, a, 2)
    assert table.pairs and table.context == one
    with pytest.raises(PresentationError, match="bracket table"):
        bch_combine_exponents(v.in_context(two), a.in_context(two), 2, table=table)


PROJREP_SCRIPT = """
from kappa_hopf.suites import SuiteConfig, run_suite
print(run_suite(SuiteConfig(suite="projrep", order=2, rep_order=1, seed=42)).to_json())
"""


def test_projrep_report_ignores_the_hash_seed():
    src = str(Path(kappa_hopf.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", PROJREP_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert '"suite": "projrep"' in outs[0]
    assert outs[0] == outs[1]
