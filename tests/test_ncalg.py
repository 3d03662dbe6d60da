"""Normal ordering, commutators, substitution, series expansion, confluence."""

import random
from collections import deque
from fractions import Fraction as F

import pytest

from kappa_hopf import ncalg
from kappa_hopf.models import load_casimirs_in, load_model
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
    extend_letterwise,
    h_expand,
    h_expand_raw,
    normal_order,
)
from kappa_hopf.quotient import prefilter_zero
from kappa_hopf.scalars import GaussianRational, GR_I, H_ONE, HSeries, Poly, RationalFn
from kappa_hopf.suites import SuiteConfig, run_suite


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
    # [Lt_i, Lt_j] = 0 (Eq. 5) with the tilde boosts substituted,
    # Lt_i = (L_i - (h/2) eps_iab M_a P_b) e^{-P0/2kappa}
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

    assert commutator(tilde_l(1), tilde_l(2)).is_zero()


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


def _scalars(*series):
    """One-slot scalar elements of a one-generator presentation, and its
    generator z."""
    p = Presentation("scalars", [GenDecl("z")])
    ctx = TensorContext((p,))
    return [NCElement.scalar(ctx, c) for c in series] + [p.gen_element("z")]


def test_precision_of_sums_and_products():
    a, b, z = _scalars(HSeries({0: 1, 1: 2}), HSeries({0: 1, 2: 5}))
    a, b = a.truncate(3), b.truncate(2)
    assert (a * b).order == (a + b).order == (b - a).order == 2
    assert (a * b).scalar_part() == HSeries({0: 1, 1: 2, 2: 5})
    assert (a + z).order == 3 and (z * z).order is None
    assert z.truncate(5).truncate(1).order == 1
    # scaling by a constant keeps the order; by zero, the result is exact
    assert a.scale(F(3, 2)).order == 3 and a.scale(0).order is None


def test_product_precision_with_negative_powers():
    inv_h, one_h, z = _scalars(HSeries.h(-1), HSeries({0: 1, 1: 1}))
    # h^-1 (1 + h + O(h^3)) = h^-1 + 1 + O(h^2): the unknown h^3 term
    # reaches the product at h^2, in either order
    a = one_h.truncate(2)
    for q in (inv_h * a, a * inv_h, a.scale(HSeries.h(-1))):
        assert (q.order, q.scalar_part()) == (1, HSeries({-1: 1, 0: 1}))
    # h^-2 drops two orders, and the known terms past the new order go
    three, wide, _ = _scalars(HSeries({-2: 3}), HSeries({0: 1, 1: 2, 2: 5}))
    q = three * wide.truncate(2)
    assert (q.order, q.scalar_part()) == (0, HSeries({-2: 3, -1: 6, 0: 15}))
    # both truncated: each error meets the other's lowest power
    assert (inv_h.truncate(4) * one_h.truncate(2)).order == 1
    # a truncated zero is O(h^(t+1)) as a whole: O(h^-1) O(h^-2) = O(h^-3)
    zero = NCElement.zero(z.context)
    assert (zero.truncate(-2) * zero.truncate(-3)).order == -4
    # nonnegative powers keep the minimum; exact by exact stays exact
    assert (z.scale(HSeries.h(2)) * a).order == 2
    assert (inv_h * one_h).order is None
    # (1 + O(h^4)) / h = h^-1 + O(h^3)
    q = one_h.truncate(3).scale(HSeries({-1: 1}))
    assert (q.order, q.scalar_part()) == (2, HSeries({-1: 1, 0: 1}))


def test_product_precision_does_not_depend_on_term_order():
    """x1 = 1 + (h + O(h^2))*z and x2, the same terms inserted in the other
    order, times y = z + h: the products have equal terms and precision."""
    h, z = _scalars(HSeries.h(1))
    one = NCElement.one(z.context)
    x1 = (one + (z * h)).truncate(1)
    x2 = ((z * h) + one).truncate(1)
    y = z + h
    assert list(x1.terms) != list(x2.terms)
    p1, p2 = x1 * y, x2 * y
    assert (p1.terms, p1.order) == (p2.terms, p2.order)
    assert p1 == z + h + (z * z).scale(HSeries.h(1)) and p1.order == 1


def _reference_product(left, right, n):
    """Terms of a product of two term dicts, pair by pair, nothing skipped."""
    t = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            w = tuple(w1[s] + w2[s] for s in range(n))
            c = c1 * c2
            old = t.get(w)
            nc = c if old is None else old + c
            if nc:
                t[w] = nc
            else:
                t.pop(w, None)
    return t


def _precision(factors):
    """The order through which a product is known, from the (order, lowest
    h power) of its factors: the least order_i + the other factors' negative
    lowest powers, None when every factor is exact."""
    lows = [min(low, 0) for _, low in factors]
    known = [o + sum(lows) - lows[i] for i, (o, _) in enumerate(factors) if o is not None]
    return min(known, default=None)


def _lowest(el):
    """The lowest power of h in el; a zero known through h^t is O(h^(t+1))."""
    default = 0 if el.order is None else el.order + 1
    return min((min(c.coeffs) for c in el.terms.values()), default=default)


def _reference_extend_letterwise(e, target, slot_maps, reverse=False, order=None):
    """Reference for extend_letterwise: each term multiplied exactly by the
    full image of every letter, every pair formed, and the sum truncated at
    the least precision of the terms' products.  A partial product is cut
    only past that precision less the remaining factors' negative lowest
    powers, where no kept power can reach it."""
    if order is not None:
        e = e.truncate(order)
    n = target.slot_count
    images = {}
    work = []
    orders = [e.order]
    for w, c in e.terms.items():
        base = [()] * n
        factors = []
        for s, sw in enumerate(w):
            m = slot_maps[s]
            if isinstance(m, int):
                base[m] = sw
                continue
            for gi, pw in (reversed(sw) if reverse else sw):
                img = images.get((s, gi, pw))
                if img is None:
                    img = images[(s, gi, pw)] = m(gi, pw)
                factors.append(img)
        orders.append(_precision([(e.order, _lowest(e))]
                                 + [(img.order, _lowest(img)) for img in factors]))
        work.append((tuple(base), c, factors))
    known = min((o for o in orders if o is not None), default=None)
    out = {}
    for base, c, factors in work:
        term = {base: c}
        for i, img in enumerate(factors):
            term = _reference_product(term, img.terms, n)
            if known is not None:
                reach = known - sum(min(_lowest(f), 0) for f in factors[i + 1:])
                term = {tw: tc.truncate(reach) for tw, tc in term.items() if tc.truncate(reach)}
        for tw, tc in term.items():
            old = out.get(tw)
            nc = tc if old is None else old + tc
            if nc:
                out[tw] = nc
            else:
                out.pop(tw, None)
    out = NCElement(target, out)
    return out if known is None else out.truncate(known)


def _oracle_coeff(rng):
    """A few h powers from -1 to 3 with Gaussian, symbolic and fractional
    coefficients."""
    alpha = Poly.var("alpha")
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        num = Poly.const(GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)))
        if rng.random() < 0.3:
            num = num + alpha.scale(rng.randint(1, 2))
        den = rng.choice([Poly.const(1), Poly.const(rng.randint(2, 3)), alpha])
        coeffs[rng.randint(-1, 3)] = RationalFn(num, den)
    return HSeries(coeffs)


def _oracle_precision(el, rng):
    """el exact or known through h^0..h^3."""
    order = rng.choice([None, None, 0, 1, 2, 3])
    return el if order is None else el.truncate(order)


def _oracle_word(p, rng, slots, used):
    word = []
    for s in range(slots):
        letters = []
        if s in used:
            for _ in range(rng.randint(0, 2)):
                gi = rng.randrange(len(p.gens))
                letters.append((gi, rng.choice([-1, 1, 2]) if p.gens[gi].grouplike else 1))
        word.append(tuple(letters))
    return tuple(word)


def _oracle_image(p, ctx, rng, used):
    """A letter image in ctx, with words only in the slots `used`: a unit
    word, a unit word known through some order, zero, or a random sum of
    any precision."""
    kind = rng.random()
    if kind < 0.35:
        return NCElement(ctx, {_oracle_word(p, rng, ctx.slot_count, used): H_ONE})
    if kind < 0.45:
        one = NCElement(ctx, {_oracle_word(p, rng, ctx.slot_count, used): H_ONE})
        return one.truncate(rng.randint(1, 3))
    if kind < 0.5:
        return NCElement.zero(ctx)
    return _oracle_precision(
        NCElement(ctx, {_oracle_word(p, rng, ctx.slot_count, used): _oracle_coeff(rng)
                        for _ in range(rng.randint(1, 4))}), rng)


def _oracle_element(p, ctx, rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        word = _oracle_word(p, rng, ctx.slot_count, range(ctx.slot_count))
        terms[word] = _oracle_coeff(rng)
    return _oracle_precision(NCElement(ctx, terms), rng)


@pytest.mark.parametrize("layout", ["one slot", "two slots", "int slot map"])
def test_letterwise_kernel_matches_the_reference_product_loop(layout):
    """The terms and the order of extend_letterwise equal the reference
    loop's on seeded random elements and images of every precision."""
    p = Presentation("oracle", [GenDecl("x"), GenDecl("y"), GenDecl("E", grouplike=True)])
    rng = random.Random(f"letterwise {layout}")
    slots = 1 if layout == "one slot" else 2
    source = TensorContext((p,) * slots)
    target = TensorContext((p,) * (3 if layout == "int slot map" else slots))
    compared = 0
    for _ in range(60):
        table = {}

        def mapped(s, used):
            def image(gi, pw):
                key = (s, gi, pw)
                if key not in table:
                    table[key] = _oracle_image(p, target, rng, used)
                return table[key]
            return image

        if layout == "int slot map":  # as the coaction's [0, coaction]
            maps = [0, mapped(1, (1, 2))]
        else:
            maps = [mapped(s, range(slots)) for s in range(slots)]
        e = _oracle_element(p, source, rng)
        for reverse in (False, True):
            for order in (None, 0, 1, 2, 3):
                got = extend_letterwise(e, target, maps, reverse=reverse, order=order)
                ref = _reference_extend_letterwise(e, target, maps, reverse=reverse,
                                                   order=order)
                assert got.context == ref.context
                assert (got.terms, got.order) == (ref.terms, ref.order)
                compared += len(ref.terms)
    assert compared > 500


@pytest.mark.parametrize("letter", [("L", (1,)), ("EE", ())])
def test_h_expand_raw_forms_no_unit_or_past_order_products(monkeypatch, letter):
    """Work count on the casimir commutators C2 x L[1] and C2 x EE at order 3:
    h_expand_raw forms no HSeries product with a unit-letter image, and
    every product it forms stops at h^order (the exponential series
    themselves are not counted)."""
    kappa = load_model("galilei_algebra_kappa")
    c2 = load_casimirs_in(kappa)["C2"]
    g = kappa.gen_element(*letter)
    e = c2 * g - g * c2
    order = 3
    products = []
    in_series = []
    real_mul, real_exp = HSeries.mul_through, ncalg._exp_series

    def spy_mul(a, b, bound):
        if not in_series:
            products.append(bound)
        return real_mul(a, b, bound)

    def exp_series(*args):
        in_series.append(True)
        try:
            return real_exp(*args)
        finally:
            in_series.pop()

    monkeypatch.setattr(HSeries, "mul_through", spy_mul)
    monkeypatch.setattr(ncalg, "_exp_series", exp_series)
    got = h_expand_raw(e, order)
    monkeypatch.undo()
    if letter[0] == "L":
        assert products == []  # every letter is a unit word
    else:
        assert products  # EE's series still multiplies out
    assert all(bound == order for bound in products)
    assert got.order == order
    assert normal_order(got).is_zero()  # C2 is central through h^3


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


def _growing_rule_presentation():
    """L < P with P*L -> L*P + L*L*P*P: every rewrite of P*P*L lengthens the
    word, and no step budget is reached before memory runs out."""
    L, P = (0, 1), (1, 1)
    p = Presentation("grows", [GenDecl("L"), GenDecl("P")],
                     rules={(1, 0): ((H_ONE, (L, L, P, P)),)})
    return p, p.gen_element("P") * p.gen_element("P") * p.gen_element("L")


def test_word_length_limit_stops_a_growing_rule():
    # the step budget is small, so a missing limit ends in the budget error
    # after about 30 MB, not in an exhausted memory
    _, el = _growing_rule_presentation()
    with pytest.raises(DivergenceError, match="word length limit 128 exceeded at digram P[*]L"):
        normal_order(el, budget=1000)


def test_pending_term_limit_stops_a_branching_rule(monkeypatch):
    # y*x -> x*y + 2 copies of y*x: words stay short, pending terms pile up
    gens = [GenDecl("x"), GenDecl("y")]
    yx = ((1, 1), (0, 1))
    p = Presentation("branches", gens,
                     rules={(1, 0): ((HSeries.const(1), yx), (HSeries.const(2), yx))})
    el = p.gen_element("y") * p.gen_element("x")
    monkeypatch.setattr(ncalg, "MAX_PENDING_TERMS", 500)
    with pytest.raises(DivergenceError, match="pending-term limit 500 exceeded at digram y[*]x"):
        normal_order(el, budget=5000)


def _reference_normal_order(e):
    """The term-by-term loop normal_order replaced: a LIFO stack of (word,
    coefficient) pairs, each rewritten on its own, like terms summed only in
    the result.  It has no limits."""
    pres_list = e.context.slots
    result = {}
    stack = list(e.terms.items())
    while stack:
        word, coeff = stack.pop()
        if not coeff:
            continue
        loc = ncalg._find_redex(word, pres_list)
        if loc is None:
            old = result.get(word)
            nc = coeff if old is None else old + coeff
            if nc:
                result[word] = nc
            else:
                result.pop(word, None)
            continue
        s, i = loc
        lead, corrections = ncalg.rewrite_digram(pres_list[s], word[s], i)
        stack.append((word[:s] + (lead,) + word[s + 1:], coeff))
        for nsw, c in corrections:
            stack.append((word[:s] + (nsw,) + word[s + 1:], coeff * c))
    return result


def _generator_product(ctx, rng):
    """A sum of up to four products of 2-5 generators per slot, in random
    order, with _oracle_coeff's coefficients, of any precision."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = []
        for p in ctx.slots:
            letters = []
            for _ in range(rng.randint(2, 5)):
                gi = rng.randrange(len(p.gens))
                letters.append((gi, rng.choice([-1, 1, 2]) if p.gens[gi].grouplike else 1))
            word.append(tuple(letters))
        terms[tuple(word)] = _oracle_coeff(rng)
    return _oracle_precision(NCElement(ctx, terms), rng)


@pytest.mark.parametrize("layout", ["algebra", "group", "two slots"])
def test_normal_order_matches_the_term_by_term_loop(layout):
    """Summing like terms before rewriting them changes nothing: the terms
    equal the term-by-term loop's through the input's order, which the
    normal form keeps."""
    kappa = load_model("galilei_algebra_kappa")
    group = load_model("galilei_group_kappa")
    slots = {"algebra": (kappa,), "group": (group,), "two slots": (kappa, kappa)}[layout]
    ctx = TensorContext(slots)
    rng = random.Random(f"normal order {layout}")
    compared = 0
    for _ in range(60):
        e = _generator_product(ctx, rng)
        got = normal_order(e)
        ref = NCElement(ctx, _reference_normal_order(e))
        if e.order is not None:
            ref = ref.truncate(e.order)
        assert (got.terms, got.order) == (ref.terms, e.order)
        compared += len(ref.terms)
    assert compared > 200


def _one_swap_normal_order(e, budget=ncalg.REWRITE_BUDGET):
    """normal_order as it was before a run of swaps without corrections was
    made in one go: every rewrite, a swap with no correction too, is one
    rewrite_digram step, waits its turn in the queue, and its words are
    searched from letter 0.  Returns the element and the steps counted; the
    step budget is kept, the other limits are not."""
    pres_list = e.context.slots
    result, pending = {}, {}
    for w, c in e.terms.items():
        loc = ncalg._find_redex(w, pres_list)
        if loc is None:
            result[w] = c
        else:
            pending[w] = [c, 1, 0, loc]
    queue = deque(pending)
    steps = deepest = 0
    while queue:
        word = queue.popleft()
        coeff, paths, depth, (s, i) = pending.pop(word)
        if not coeff:
            continue
        p, sw = pres_list[s], word[s]
        steps += paths
        if steps > budget:
            ncalg._diverged(p, sw, i, "rewrite budget exceeded")
        lead, corrections = ncalg.rewrite_digram(p, sw, i)
        new = [(lead, coeff, depth)]
        new += [(nsw, coeff.mul_through(c, e.order), depth + 1) for nsw, c in corrections]
        for nsw, c, d in new:
            if not c:
                continue
            w = word[:s] + (nsw,) + word[s + 1:]
            entry = pending.get(w)
            if entry is not None:
                entry[0] += c
                entry[1] += paths
                entry[2] = max(entry[2], d)
                continue
            loc = ncalg._find_redex(w, pres_list)
            if loc is not None:
                pending[w] = [c, paths, d, loc]
                queue.append(w)
                continue
            nc = c if w not in result else result[w] + c
            if nc:
                result[w] = nc
            else:
                del result[w]
            deepest = max(deepest, d)
    floor = min(0, *(p.rule_h_floor() or 0 for p in set(pres_list)))
    out = NCElement(e.context, result)
    if e.order is not None:
        out = out.truncate(e.order + deepest * floor)
    return out, steps


def _random_rule_table(rng):
    """Generators x0 < x1 < E < x2 < x3 (E grouplike) and one rule per
    digram: no correction half the time, else one or two corrections
    c*(a letter or the empty word), with _oracle_coeff's coefficients, h^-1
    among them.  Corrections are shorter than their digram, so every word
    has a normal form, but the rules need not be confluent."""
    gens = [GenDecl("x0"), GenDecl("x1"), GenDecl("E", grouplike=True),
            GenDecl("x2"), GenDecl("x3")]
    rules = {}
    for hi in range(len(gens)):
        for lo in range(hi):
            if rng.random() < 0.5:
                rules[(hi, lo)] = ()
                continue
            corr = []
            for _ in range(rng.randint(1, 2)):
                if hi == 2:  # a grouplike correction carries E once
                    w = ((2, 1),)
                else:
                    w = rng.choice([(), ((rng.randrange(len(gens)), 1),)])
                corr.append((_oracle_coeff(rng), w))
            rules[(hi, lo)] = tuple(corr)
    return Presentation("random rules", gens, rules=rules)


@pytest.mark.parametrize("layout", ["kappa algebra", "kappa, two slots",
                                    "kappa, three slots", "random rules"])
def test_run_of_swaps_matches_the_one_swap_loop(layout, monkeypatch):
    """normal_order, which moves a letter past a run of letters it commutes
    with in one go, has the terms and the order of the loop that swaps one
    pair per rewrite step, on seeded products with EE^±k letters, on tensor
    words, and under random rule tables that need not be confluent.  It
    counts the same rewrite steps against the budget, with fewer than two
    thirds as many rewrite_digram calls."""
    calls = _count_rewrites(monkeypatch, 100_000)
    rng = random.Random(f"run move {layout}")
    compared = made = swaps = 0
    for _ in range(40):
        if layout == "random rules":
            ctx = TensorContext((_random_rule_table(rng),) * rng.randint(1, 2))
        else:
            slots = {"kappa algebra": 1, "kappa, two slots": 2, "kappa, three slots": 3}[layout]
            ctx = TensorContext((load_model("galilei_algebra_kappa"),) * slots)
        e = _generator_product(ctx, rng)
        before = len(calls)
        got = normal_order(e)
        made += len(calls) - before
        ref, steps = _one_swap_normal_order(e)
        assert (got.terms, got.order) == (ref.terms, ref.order)
        compared += len(ref.terms)
        swaps += steps
        if len(e.terms) == 1 and steps:  # no cancellation across input terms
            assert normal_order(e, budget=steps) == got
            with pytest.raises(DivergenceError, match="rewrite budget exceeded"):
                normal_order(e, budget=steps - 1)
    assert compared > 200
    assert 3 * made < 2 * swaps


def test_a_run_of_swaps_counts_each_swap_against_the_budget():
    """P0*P[3]*P[2]*P[1] needs six swaps, none with a correction: the sixth
    crosses a budget of 5 at the digram the one-swap loop names."""
    kappa = load_model("galilei_algebra_kappa")
    e = (kappa.gen_element("P0") * kappa.gen_element("P", (3,))
         * kappa.gen_element("P", (2,)) * kappa.gen_element("P", (1,)))
    want = (kappa.gen_element("P", (1,)) * kappa.gen_element("P", (2,))
            * kappa.gen_element("P", (3,)) * kappa.gen_element("P0"))
    assert normal_order(e, budget=6) == want
    assert _one_swap_normal_order(e, budget=6) == (want, 6)
    message = "rewrite budget exceeded at digram P[2]*P[1] in galilei_algebra_kappa"
    for run in (normal_order, _one_swap_normal_order):
        with pytest.raises(DivergenceError) as exc:
            run(e, budget=5)
        assert str(exc.value) == message


def test_casimir_checks_rewrite_with_few_rewrite_digram_steps(monkeypatch):
    """Work count: most of the casimirs suite's swaps carry no correction,
    and they make no rewrite_digram call.  The one-swap loop made over
    30,000 calls here; the count repeats exactly, so no timing is needed."""
    calls = []
    rewrite = ncalg.rewrite_digram

    def spy(p, sw, i):
        calls.append(i)
        return rewrite(p, sw, i)

    monkeypatch.setattr(ncalg, "rewrite_digram", spy)
    report = run_suite(SuiteConfig(suite="casimirs", order=3, seed=42))
    assert report.passed and report.checks
    assert len(calls) <= 9_000


def test_casimir_checks_normal_order_each_casimir_once(monkeypatch):
    """Work count: verify_casimir forms every residual C*g - g*C from C's
    normal form, so the loaded C2's 39 unsorted terms are sorted once per
    call, not once in each of its residuals (over 7,600 calls here)."""
    calls = _count_rewrites(monkeypatch, 100_000)
    report = run_suite(SuiteConfig(suite="casimirs", order=3, seed=42))
    assert report.passed and report.checks
    assert len(calls) <= 3_000


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_grouplike_free_h_expand_raw_is_the_truncated_element(slots, monkeypatch):
    """With no grouplike letter, h_expand_raw returns what the letter-by-letter
    product with unit-word images gives: the same terms, in the same order,
    and the same order, for exact, truncated and empty elements; and it
    forms no product to get there."""
    kappa = load_model("galilei_algebra_kappa")
    ctx = TensorContext((kappa,) * slots)
    no_e = [gi for gi, g in enumerate(kappa.gens) if not g.grouplike]
    rng = random.Random(f"grouplike-free {slots}")

    def unit_word(s):
        def image(gi, pw):
            word = [()] * slots
            word[s] = ((gi, pw),)
            return NCElement(ctx, {tuple(word): H_ONE})
        return image

    maps = [unit_word(s) for s in range(slots)]
    cases = [NCElement.zero(ctx), NCElement.zero(ctx).truncate(1)]
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms[tuple(tuple((rng.choice(no_e), 1) for _ in range(rng.randint(0, 3)))
                        for _ in range(slots))] = _oracle_coeff(rng)
        cases.append(_oracle_precision(NCElement(ctx, terms), rng))
    wants = [[extend_letterwise(e, ctx, maps, order=order) for order in range(4)]
             for e in cases]
    monkeypatch.setattr(ncalg, "extend_letterwise", None)
    for e, want in zip(cases, wants):
        for order in range(4):
            got = h_expand_raw(e, order)
            assert got.context == ctx
            assert (list(got.terms.items()), got.order) \
                == (list(want[order].terms.items()), want[order].order)
    assert any(len(e.terms) > 1 and e.order is None for e in cases)
    assert any(len(e.terms) > 1 and e.order is not None for e in cases)


def _count_rewrites(monkeypatch, most):
    """The list of rewrite_digram calls; call most + 1 fails the test, so a
    rule that no longer stops fast does not run on to the step budget."""
    calls = []
    rewrite = ncalg.rewrite_digram

    def spy(p, sw, i):
        calls.append(sw)
        assert len(calls) <= most, f"no DivergenceError within {most} rewrites"
        return rewrite(p, sw, i)

    monkeypatch.setattr(ncalg, "rewrite_digram", spy)
    return calls


def test_branching_rule_fails_fast_at_the_default_limits(monkeypatch):
    # y*x -> x*y + 2 copies of y*x: summed, y*x waits once with a coefficient
    # 3^n, but it stands for 2^n rewrite paths, and those reach the
    # pending-term limit
    gens = [GenDecl("x"), GenDecl("y")]
    yx = ((1, 1), (0, 1))
    p = Presentation("branches", gens,
                     rules={(1, 0): ((HSeries.const(1), yx), (HSeries.const(2), yx))})
    el = p.gen_element("y") * p.gen_element("x")
    _count_rewrites(monkeypatch, 64)
    with pytest.raises(DivergenceError, match="pending-term limit 100000 exceeded at digram y[*]x"):
        normal_order(el)
    # the step budget counts paths too: 1 + 2 + ... + 64 > 100 in 7 rewrites
    with pytest.raises(DivergenceError, match="rewrite budget exceeded at digram y[*]x"):
        normal_order(el, budget=100)


def _two_cycle(*coeffs):
    """y*x, with y*x -> x*y + c*z*w and z*w -> w*z + c*y*x, one correction
    for each c in coeffs."""
    gens = [GenDecl("x"), GenDecl("y"), GenDecl("w"), GenDecl("z")]
    yx, zw = ((1, 1), (0, 1)), ((3, 1), (2, 1))
    p = Presentation("cycles", gens, rules={(1, 0): tuple((c, zw) for c in coeffs),
                                            (3, 2): tuple((c, yx) for c in coeffs)})
    return p.gen_element("y") * p.gen_element("x")


def test_doubling_two_cycle_fails_fast_at_the_default_limits(monkeypatch):
    # two copies of each correction: each pass round the cycle doubles the
    # paths the one waiting word stands for
    _count_rewrites(monkeypatch, 64)
    with pytest.raises(DivergenceError, match="pending-term limit 100000 exceeded at digram"):
        normal_order(_two_cycle(H_ONE, H_ONE))


def test_cycle_of_single_corrections_stops_at_the_pending_term_limit(monkeypatch):
    # y*x -> x*y + 2*z*w and z*w -> w*z + 2*y*x: one path throughout, but each
    # step is one correction deeper, as a stack would be one term longer
    el = _two_cycle(HSeries.const(2))
    monkeypatch.setattr(ncalg, "MAX_PENDING_TERMS", 500)
    calls = _count_rewrites(monkeypatch, 501)
    with pytest.raises(DivergenceError, match="pending-term limit 500 exceeded at digram"):
        normal_order(el, budget=5000)
    assert len(calls) == 501


def test_missing_rule_is_reported():
    gens = [GenDecl("x"), GenDecl("y")]
    p = Presentation("incomplete", gens, rules={})
    assert p.missing_digrams() == [("y", "x")]
    el = p.gen_element("y") * p.gen_element("x")
    with pytest.raises(PresentationError):
        normal_order(el)


# the h^-1 factor phi1_residual puts on its commutators, i/(2h)
_INV_H = HSeries({-1: RationalFn(Poly.const(GaussianRational(0, F(1, 2))))})


def _commutator_operand(p, ctx, rng, kind):
    """A seeded random operand for the commutator oracle: exact, known
    through h^0..h^3, classical coefficients times the h^-1 factor (exact
    or truncated), zero, a single term, or _oracle_element's terms, whose
    lowest h powers differ."""
    if kind == "zero":
        return NCElement.zero(ctx)
    if kind == "oracle":
        return _oracle_element(p, ctx, rng)
    alpha = Poly.var("alpha")

    def coeff(powers):
        out = {}
        for k in powers:
            num = Poly.const(GaussianRational(rng.randint(-3, 3), rng.randint(1, 3)))
            num = num + alpha.scale(rng.randint(0, 2))
            den = rng.choice([Poly.const(1), Poly.const(2), alpha])
            out[k] = RationalFn(num, den)
        return HSeries(out)

    inverse_h = kind.startswith("inverse h")
    terms = {}
    for _ in range(1 if kind == "one term" else rng.randint(2, 5)):
        word = _oracle_word(p, rng, ctx.slot_count, range(ctx.slot_count))
        if inverse_h:
            terms[word] = coeff([0]) * _INV_H
        else:
            terms[word] = coeff(rng.sample(range(4), rng.randint(1, 3)))
    el = NCElement(ctx, terms)
    return el.truncate(rng.randint(0, 3)) if kind.endswith("truncated") else el


_OPERAND_KINDS = ("exact", "truncated", "inverse h", "inverse h truncated",
                  "zero", "one term", "oracle")


@pytest.mark.parametrize("layout", ["group 2d, one slot", "group 2d, three slots",
                                    "kappa algebra"])
def test_commutator_matches_the_element_difference(layout):
    """commutator(x, y), summed over word brackets, has the terms and the
    order of normal_order(x*y - y*x), for every pair of operand kinds; one
    bracket table serves every call of a layout, and a call without one
    gives the same element."""
    name, slots = {"group 2d, one slot": ("galilei_group_2d", 1),
                   "group 2d, three slots": ("galilei_group_2d", 3),
                   "kappa algebra": ("galilei_algebra_kappa", 1)}[layout]
    p = load_model(name)
    ctx = TensorContext((p,) * slots)
    table = ncalg.BracketTable(ctx)
    rng = random.Random(f"commutator {layout}")
    compared = 0
    for _ in range(4):
        for kx in _OPERAND_KINDS:
            for ky in _OPERAND_KINDS:
                x = _commutator_operand(p, ctx, rng, kx)
                y = _commutator_operand(p, ctx, rng, ky)
                want = normal_order(x * y - y * x)
                for got in (commutator(x, y, table=table), commutator(x, y)):
                    assert got.context == ctx
                    assert (got.terms, got.order) == (want.terms, want.order), (kx, ky)
                compared += len(want.terms)
    assert compared > 200
    assert table.pairs
    if name == "galilei_algebra_kappa":
        ee = p.gen_index("EE")
        assert any(gi == ee and pw < 0 for w1, w2 in table.pairs
                   for sw in w1 + w2 for gi, pw in sw)


def test_commutator_table_is_bound_to_its_context():
    """A bracket table is read only for elements of its own context: an
    equal context built anew is fine, another one raises."""
    g2 = load_model("galilei_group_2d")
    kappa = load_model("galilei_algebra_kappa")
    v, a = g2.gen_element("v"), g2.gen_element("a")
    table = ncalg.BracketTable(TensorContext((g2,)))
    assert commutator(v, a, table=table) == normal_order(v * a - a * v)
    with pytest.raises(PresentationError, match="bracket table"):
        commutator(kappa.gen_element("L", (1,)), kappa.gen_element("P0"), table=table)
    with pytest.raises(PresentationError, match="bracket table"):
        commutator(v.place_in_slots(TensorContext((g2, g2)), [0]),
                   a.place_in_slots(TensorContext((g2, g2)), [0]), table=table)


def test_commutator_forms_one_product_per_nonzero_bracket(monkeypatch):
    """Each term pair's coefficient product is formed once, and not at all
    when its word bracket is zero: of the four pairs of words tau and
    v*tau, the two pairs of equal words form none."""
    g2 = load_model("galilei_group_2d")
    x = NCElement(TensorContext((g2,)), {
        (((2, 1),),): HSeries({0: Poly.var("m")}),
        (((0, 1), (2, 1)),): HSeries({1: Poly.var("p")}),
    }).truncate(2)
    y = NCElement(x.context, {
        (((2, 1),),): HSeries({0: Poly.var("q")}),
        (((0, 1), (2, 1)),): HSeries({1: Poly.var("r")}),
    }).truncate(2)
    pairs = []
    real_mul = HSeries.mul_through

    def spy(a, b, order):
        if a.symbols() and b.symbols():
            pairs.append((a, b))
        return real_mul(a, b, order)

    monkeypatch.setattr(HSeries, "mul_through", spy)
    got = commutator(x, y)
    monkeypatch.undo()
    assert not got.is_zero() and got == normal_order(x * y - y * x)
    assert len(pairs) == 2


def test_commutator_names_a_diverging_digram(monkeypatch):
    # y*x -> x*y + y*x never ends; reached through a word bracket, the
    # error still names the digram
    monkeypatch.setattr(ncalg, "MAX_PENDING_TERMS", 500)
    gens = [GenDecl("x"), GenDecl("y")]
    p = Presentation("loop", gens, rules={(1, 0): ((HSeries.const(1), ((1, 1), (0, 1))),)})
    with pytest.raises(DivergenceError, match=r"at digram y\*x in loop"):
        commutator(p.gen_element("y"), p.gen_element("x"),
                   table=ncalg.BracketTable(TensorContext((p,))))
