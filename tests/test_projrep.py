"""Projective representation calculus: graded BCH, conjugation, the
multiplier, the cocycle equation, triviality, and the composition law."""

import random
from fractions import Fraction as F

import pytest

from kappa_hopf import projrep, suites
from kappa_hopf.cohom import LieData
from kappa_hopf.models import load_model
from kappa_hopf.ncalg import NCElement, TensorContext, commutator, normal_order
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
    cocycle_residual_for_omega,
    cocycle_residual_of_product,
    conjugate,
    omega_log_phi,
    phi1_particular,
    phi1_residual,
    rep_apply,
    rep_compose_check,
    series_to_element,
    triviality_probe,
)
from kappa_hopf.report import PASS
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
        left = bch_combine_exponents(bch_combine_exponents(A, B, 3), C, 3)
        right = bch_combine_exponents(A, bch_combine_exponents(B, C, 3), 3)
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
    at_zero = lg.map_coeffs(lambda c: c.subs({"m": 0}))
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
        assert cocycle_residual_for_omega(g2, order).is_zero(), order


def test_cocycle_residual_mutations():
    g2 = load_model("galilei_group_2d")

    def strip_h1(lhs, rhs):
        return ([ExpFactor(f.exponent.h_coefficient(0)) for f in lhs],
                [ExpFactor(f.exponent.h_coefficient(0)) for f in rhs])

    z = cocycle_residual_for_omega(g2, 1, mutate=strip_h1)
    assert z.h_coefficient(0).is_zero()
    assert not z.h_coefficient(1).is_zero()
    # derived oracle: deleting the h^1 exponent parts A1, B1 of omega's two
    # factors leaves exactly their four-term combination
    #   z1 = (A1+B1) (x) I - I (x) (A1+B1) + (Delta (x) I)(A1+B1)
    #        - (I (x) Delta)(A1+B1),
    # which equals i * (Eq. 27 LHS at phi1) up to the factorization
    # coboundary four_term([A0,B0]/2) -- the Hausdorff reshuffle the paper's
    # "resulting equation" absorbs silently.
    from kappa_hopf.hopf import apply_coproduct
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
        assert cocycle_residual_of_product(g2, om_t, 2).is_zero()
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
