"""Normal ordering, commutators, substitution, series expansion, confluence."""

import random
from fractions import Fraction as F

import pytest

from kappa_hopf import ncalg
from kappa_hopf.models import load_model
from kappa_hopf.ncalg import (
    DivergenceError,
    GenDecl,
    NCElement,
    Presentation,
    PresentationError,
    TensorContext,
    commutator,
    confluence_residual,
    confluence_triples,
    h_expand,
    h_expand_raw,
    normal_order,
    substitute,
)
from kappa_hopf.quotient import prefilter_zero
from kappa_hopf.scalars import GaussianRational, GR_I, H_ONE, HSeries, Poly, RationalFn


def ih(num=1, den=1, power=1):
    return HSeries({power: RationalFn(Poly.const(GaussianRational(0, F(num, den))))})


def hs(c, power=0):
    return HSeries({power: RationalFn(Poly.const(c))})


def eps(i, j, k):
    if {i, j, k} != {1, 2, 3}:
        return 0
    return 1 if (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1


def test_normal_order_paper_examples():
    kappa = load_model("galilei_algebra_kappa")
    # P_j * M_i -> M_i P_j - i eps_ijk P_k
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            pj = kappa.gen_element("P", (j,))
            mi = kappa.gen_element("M", (i,))
            got = normal_order(pj * mi)
            want = mi * pj
            for k in (1, 2, 3):
                e = eps(i, j, k)
                if e:
                    want = want - kappa.gen_element("P", (k,)).scale(hs(GaussianRational(0, e)))
            assert got == normal_order(want)
    # already ordered words are untouched
    w = (kappa.gen_element("M", (1,)) * kappa.gen_element("L", (2,))
         * kappa.gen_element("P", (3,)) * kappa.gen_element("P0"))
    assert normal_order(w) == w


def test_normal_order_group_example():
    group = load_model("galilei_group_kappa")
    # a^i tau -> tau a^i - (i/kappa) a^i
    for i in (1, 2, 3):
        a = group.gen_element("a", (i,))
        tau = group.gen_element("tau")
        got = normal_order(a * tau)
        want = normal_order(tau * a) - a.scale(ih())
        assert got == want


def test_commutator_examples_and_properties():
    kappa = load_model("galilei_algebra_kappa")
    for i in (1, 2, 3):
        li = kappa.gen_element("L", (i,))
        p0 = kappa.gen_element("P0")
        assert commutator(li, p0) == kappa.gen_element("P", (i,)).scale(hs(GR_I))
        assert commutator(li, li).is_zero()
    group = load_model("galilei_group_kappa")
    # [v^i, a^j] = -(i/kappa)(v^i v^j - 1/2 v.v delta_ij)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            vi = group.gen_element("v", (i,))
            aj = group.gen_element("a", (j,))
            want = (vi * group.gen_element("v", (j,))).scale(ih(-1))
            if i == j:
                vv = sum((group.gen_element("v", (k,)) * group.gen_element("v", (k,))
                          for k in (1, 2, 3)), NCElement.zero(vi.context))
                want = want + vv.scale(ih(1, 2))
            assert commutator(vi, aj) == normal_order(want)
    # bilinearity and antisymmetry on random combinations
    rng = random.Random(2)
    gens = [group.gen_element("v", (1,)), group.gen_element("a", (2,)),
            group.gen_element("tau")]
    for _ in range(20):
        x = sum((g.scale(hs(F(rng.randint(-3, 3)))) for g in gens),
                NCElement.zero(gens[0].context))
        y = gens[rng.randrange(3)] * gens[rng.randrange(3)]
        assert commutator(x, y) == normal_order(-commutator(y, x))


def _random_element(p, rng, max_deg=3, slots=1):
    ctx = TensorContext((p,) * slots)
    el = NCElement.zero(ctx)
    gens = list(range(len(p.gens)))
    for _ in range(rng.randint(1, 4)):
        word = []
        for s in range(slots):
            letters = []
            for _ in range(rng.randint(0, max_deg)):
                gi = rng.choice(gens)
                if p.gens[gi].grouplike:
                    letters.append((gi, rng.choice([-2, -1, 1, 2])))
                else:
                    letters.append((gi, 1))
            word.append(tuple(letters))
        c = HSeries({rng.randint(0, 2): RationalFn(Poly.const(
            GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))))})
        el = el + NCElement(ctx, {tuple(word): c})
    return el


def test_normal_order_is_idempotent_linear_and_multiplicative():
    kappa = load_model("galilei_algebra_kappa")
    rng = random.Random(4)
    for _ in range(25):
        x = _random_element(kappa, rng)
        y = _random_element(kappa, rng)
        nx, ny = normal_order(x), normal_order(y)
        assert normal_order(nx) == nx
        assert normal_order(x + y) == normal_order(nx + ny)
        assert normal_order(x * y) == normal_order(nx * ny)


def test_cross_slot_commutativity():
    g2 = load_model("galilei_group_2d")
    ctx = TensorContext((g2, g2))
    rng = random.Random(9)
    for _ in range(15):
        x = _random_element(g2, rng, slots=2)
        x1 = NCElement(ctx, {w: c for w, c in x.terms.items() if not w[1]})
        y = _random_element(g2, rng, slots=2)
        y2 = NCElement(ctx, {w: c for w, c in y.terms.items() if not w[0]})
        assert commutator(x1, y2).is_zero()


def _classical_structure_constants():
    """Independent structure-constant table of the classical Galilei algebra
    (labels match the shipped model), for the triple-sum Jacobi oracle."""
    c = {}

    def put(a, b, vals):
        c[(a, b)] = vals
        c[(b, a)] = {k: -v for k, v in vals.items()}

    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i != j:
                put(f"M[{i}]", f"M[{j}]",
                    {f"M[{k}]": GaussianRational(0, eps(i, j, k))
                     for k in (1, 2, 3) if eps(i, j, k)})
            put(f"M[{i}]", f"L[{j}]",
                {f"L[{k}]": GaussianRational(0, eps(i, j, k))
                 for k in (1, 2, 3) if eps(i, j, k)})
            put(f"M[{i}]", f"P[{j}]",
                {f"P[{k}]": GaussianRational(0, eps(i, j, k))
                 for k in (1, 2, 3) if eps(i, j, k)})
        put(f"L[{i}]", "P0", {f"P[{i}]": GR_I})
    return c


def test_classical_confluence_with_structure_constant_oracle():
    # oracle: the Jacobi identity via an independent triple sum
    sc = _classical_structure_constants()
    labels = ([f"M[{i}]" for i in (1, 2, 3)] + [f"L[{i}]" for i in (1, 2, 3)]
              + [f"P[{i}]" for i in (1, 2, 3)] + ["P0"])

    def bracket(a, b):
        return sc.get((a, b), {})

    for x in labels:
        for y in labels:
            for z in labels:
                acc = {}
                for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)):
                    for m, cm in bracket(a, b).items():
                        for l, cl in bracket(m, c).items():
                            acc[l] = acc.get(l, GaussianRational(0)) + cm * cl
                assert not any(acc.values()), (x, y, z)
    # and the engine agrees: all overlap residuals vanish
    classical = load_model("galilei_algebra_classical")
    for t in confluence_triples(classical):
        assert confluence_residual(classical, t).is_zero()


def test_group_confluence_with_random_evaluation_crosscheck():
    group = load_model("galilei_group_kappa")
    rng = random.Random(17)
    for t in confluence_triples(group):
        r = confluence_residual(group, t)
        assert r.is_zero()
        assert prefilter_zero(r, rng)


def test_confluence_mutation_detection():
    from kappa_hopf.ncalg import clone_presentation
    kappa = load_model("galilei_algebra_kappa")

    def flipped(name_hi, name_lo):
        rules = dict(kappa.rules)
        for (hi, lo), corr in kappa.rules.items():
            if kappa.gens[hi].name == name_hi and kappa.gens[lo].name == name_lo:
                rules[(hi, lo)] = tuple((-c, w) for c, w in corr)
        return clone_presentation(kappa, name="mutant", rules=rules)

    # flipping [M_i, P_j] alone breaks rotation covariance of the momenta:
    # the (P, M, M) overlaps acquire nonzero residuals
    mutant = flipped("P", "M")
    bad = [t for t in confluence_triples(mutant)
           if not confluence_residual(mutant, t).is_zero()]
    assert bad, "the [M,P] sign flip must break at least one overlap"
    labs = {tuple(mutant.gens[g].name for g, _ in t) for t in bad}
    assert any(set(l) == {"P", "M"} for l in labs)

    # flipping [L_i, P0] is the algebra automorphism L -> -L in disguise
    # (every relation involving L an odd number of times flips with it up to
    # the L-E and [M,L] rules, which are sign-insensitive in the overlaps),
    # so confluence *cannot* see it: all residuals stay zero.
    auto = flipped("P0", "L")
    assert all(confluence_residual(auto, t).is_zero()
               for t in confluence_triples(auto))


def test_substitute_tilde_generators():
    kappa = load_model("galilei_algebra_kappa")
    e_inv = kappa.gen_element("EE", power=-1)

    def tilde_l(i):
        el = kappa.gen_element("L", (i,)) * e_inv
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                e = eps(i, a, b)
                if e:
                    el = el - (kappa.gen_element("M", (a,))
                               * kappa.gen_element("P", (b,)) * e_inv).scale(
                        HSeries({1: RationalFn(Poly.const(F(e, 2)))}))
        return normal_order(el)

    # P_i -> P_i e^{-P0/2kappa} via the homomorphic substitution machinery
    mapping = {}
    for gi, g in enumerate(kappa.gens):
        el = kappa.gen_element(g.name, g.index)
        if g.name == "P" and g.index:
            mapping[gi] = normal_order(el * e_inv)
        elif g.name == "L":
            mapping[gi] = tilde_l(g.index[0])
        else:
            mapping[gi] = el
    p1 = kappa.gen_element("P", (1,))
    assert substitute(p1, mapping, kappa) == normal_order(p1 * e_inv)
    # identity map leaves elements unchanged
    ident = {gi: kappa.gen_element(g.name, g.index) for gi, g in enumerate(kappa.gens)}
    rng = random.Random(1)
    for _ in range(10):
        x = normal_order(_random_element(kappa, rng))
        assert substitute(x, ident, kappa) == x
    # [Lt_i, Lt_j] = 0 (Eq. 5) after the change of variables
    assert commutator(tilde_l(1), tilde_l(2)).is_zero()
    # unmapped generator is an error
    with pytest.raises(PresentationError):
        substitute(p1, {}, kappa)


def test_h_expand_examples():
    kappa = load_model("galilei_algebra_kappa")
    ee = kappa.gen_element("EE")
    p0 = kappa.gen_element("P0")
    got = h_expand(ee, 2)
    want = (NCElement.one(ee.context).truncate(2)
            + p0.scale(HSeries({1: RationalFn(Poly.const(F(1, 2)))}))
            + (p0 * p0).scale(HSeries({2: RationalFn(Poly.const(F(1, 8)))}))).truncate(2)
    assert got == normal_order(want)
    for order in (0, 1, 3):
        e_inv = kappa.gen_element("EE", power=-1)
        assert h_expand(normal_order(ee * e_inv), order) \
            == NCElement.one(ee.context).truncate(order)
    # [L_i, E] = (i/2) h P_i E both formally and after expansion at order 3
    for i in (1, 2, 3):
        li = kappa.gen_element("L", (i,))
        formal = commutator(li, ee)
        want = normal_order((kappa.gen_element("P", (i,)) * ee).scale(ih(1, 2)))
        assert formal == want
        series = normal_order(h_expand_raw(li * ee - ee * li, 3))
        assert h_expand(formal, 3) == series


def test_h_expand_builds_each_letter_series_once(monkeypatch):
    kappa = load_model("galilei_algebra_kappa")
    ee, p0 = kappa.gen_element("EE"), kappa.gen_element("P0")
    m1, l2 = kappa.gen_element("M", (1,)), kappa.gen_element("L", (2,))
    e_inv, e_sq = kappa.gen_element("EE", power=-1), kappa.gen_element("EE", power=2)
    terms = [ee * m1, p0 * ee, e_sq * l2, ee * l2 * e_inv, m1 * e_inv, e_sq]
    calls = []
    real = ncalg._exp_series

    def counted(log_el, k, order):
        calls.append(k)
        return real(log_el, k, order)

    monkeypatch.setattr(ncalg, "_exp_series", counted)
    total = h_expand_raw(sum(terms[1:], terms[0]), 3)
    assert sorted(calls) == [-1, 1, 2]  # one series per distinct letter
    separately = NCElement.zero(ee.context)
    for t in terms:
        separately = separately + h_expand_raw(t, 3)
    assert normal_order(total) == normal_order(separately)


def test_formal_series_modes_commute():
    kappa = load_model("galilei_algebra_kappa")
    rng = random.Random(23)
    for _ in range(15):
        e = _random_element(kappa, rng)
        for order in (1, 3):
            assert h_expand(normal_order(e), order) \
                == normal_order(h_expand_raw(e, order))


def test_divergence_and_mismatch_errors():
    # a deliberately nonterminating rule: y x -> x y + y x
    gens = [GenDecl("x"), GenDecl("y")]
    rules = {(1, 0): ((HSeries.const(1), ((1, 1), (0, 1))),)}
    p = Presentation("loop", gens, rules=rules)
    el = p.gen_element("y") * p.gen_element("x")
    with pytest.raises(DivergenceError) as exc:
        normal_order(el, budget=1000)
    assert "y*x" in str(exc.value)
    # unknown generator / context mismatch
    other = load_model("galilei_group_2d")
    with pytest.raises(PresentationError):
        el._require_same_context(other.gen_element("v"))


def test_missing_rule_is_reported():
    gens = [GenDecl("x"), GenDecl("y")]
    p = Presentation("incomplete", gens, rules={})
    assert p.missing_digrams() == [("y", "x")]
    el = p.gen_element("y") * p.gen_element("x")
    with pytest.raises(PresentationError):
        normal_order(el)
