"""The R-orthogonality quotient: the Groebner-basis decision procedure, its
Cayley-point cross-check and the exact residuals the group model produces
without the augmentation."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations, permutations
from pathlib import Path

import pytest

import kappa_hopf
from kappa_hopf import ncalg, quotient
from kappa_hopf.hopf import apply_antipode, apply_coproduct, evaluate_raw, multiply_slots
from kappa_hopf.models import load_model, strip_quotient
from kappa_hopf.ncalg import LimitError, NCElement, TensorContext, normal_order
from kappa_hopf.quotient import (
    O3_BASIS,
    PrefilterOracle,
    cayley_data,
    equal_mod_quotient,
    prefilter_zero,
    zero_mod_quotient,
)
from kappa_hopf.scalars import (
    GR_ONE,
    GR_ZERO,
    MOD_P,
    GaussianRational,
    HSeries,
    Poly,
    RationalFn,
    as_hseries,
    eval_mod,
)


def test_cayley_matrix_is_orthogonal():
    N, D = cayley_data("x", "y", "z")
    # N N^T = D^2 I exactly
    for i in range(3):
        for j in range(3):
            acc = Poly()
            for k in range(3):
                acc = acc + N[i][k] * N[j][k]
            want = D * D if i == j else Poly()
            assert acc == want, (i, j)


def _r_monomial(exps):
    """The Poly of R-exponents exps (R11..R33 order) in the _Rij@0 symbols."""
    out = Poly.const(1)
    for v, e in enumerate(exps):
        out = out * Poly.var(quotient._rsym(0, v // 3 + 1, v % 3 + 1), e)
    return out


def _basis_poly(row):
    return sum((_r_monomial(exps).scale(GaussianRational(c)) for exps, c in row), Poly())


def _in_ideal(poly, slots=(0,)):
    return quotient._in_quotient_ideal([as_hseries(poly)], list(slots))


def _grevlex(exps):
    """Sort key of grevlex with R11 > R12 > ... > R33."""
    return sum(exps), [-e for e in reversed(exps)]


def _leads():
    return [row[0][0] for row in O3_BASIS]


def test_o3_basis_table_shape():
    # 11 quadrics, 11 cubics and 5 quartics, 123 terms, monic, with the
    # grevlex-leading term first and integer coefficients in {+-1, +-2}
    degrees = [sum(row[0][0]) for row in O3_BASIS]
    assert [degrees.count(d) for d in (2, 3, 4)] == [11, 11, 5]
    assert sum(map(len, O3_BASIS)) == 123
    for row in O3_BASIS:
        assert row[0][1] == 1
        assert max(row, key=lambda t: _grevlex(t[0])) == row[0]
        assert {abs(c) for _, c in row} <= {1, 2}
        assert len({exps for exps, _ in row}) == len(row)


def test_o3_basis_s_pairs_reduce_to_zero():
    # Buchberger's criterion: the table is a Groebner basis of its ideal
    polys = [_basis_poly(row) for row in O3_BASIS]
    leads = _leads()
    for a, b in combinations(range(len(polys)), 2):
        lcm = tuple(map(max, leads[a], leads[b]))
        s_poly = (_r_monomial([x - y for x, y in zip(lcm, leads[a])]) * polys[a]
                  - _r_monomial([x - y for x, y in zip(lcm, leads[b])]) * polys[b])
        assert _in_ideal(s_poly), (a, b)


def test_o3_relations_reduce_to_zero():
    # all 12 entries of R R^T - I and R^T R - I lie in the ideal of the table
    def r(i, j):
        return Poly.var(quotient._rsym(0, i, j))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            delta = Poly.const(int(i == j))
            assert _in_ideal(sum((r(i, k) * r(j, k) for k in (1, 2, 3)), Poly()) - delta)
            assert _in_ideal(sum((r(k, i) * r(k, j) for k in (1, 2, 3)), Poly()) - delta)
    # and the unit does not: the ideal is proper
    assert not _in_ideal(Poly.const(1))


def test_o3_basis_vanishes_on_both_components():
    # every table row lies in the vanishing ideal of O(3): zero at the
    # Cayley point N / D of SO(3) and at its reflection (first row negated)
    N, D = cayley_data("x", "y", "z")
    for sign in (1, -1):
        R = [[n * sign if i == 0 else n for n in row] for i, row in enumerate(N)]
        for row in O3_BASIS:
            degree = sum(row[0][0])
            total = Poly()
            for exps, c in row:
                term = D ** (degree - sum(exps)) * GaussianRational(c)
                for v, e in enumerate(exps):
                    term = term * R[v // 3][v % 3] ** e
                total = total + term
            assert not total, (sign, row)


def test_r_degree_beyond_the_packed_fields_is_an_engine_limit():
    big = Poly.var(quotient._rsym(0, 1, 1), quotient.DEGREE_CAP)
    with pytest.raises(LimitError):
        _in_ideal(big)
    with pytest.raises(LimitError):
        _in_ideal(big * Poly.var(quotient._rsym(1, 2, 2)), slots=(0, 1))


def _random_r_word(rng, ctx, qslots, letters):
    """A product of `letters` random R generators of the quotient slots."""
    el = NCElement.one(ctx)
    for _ in range(letters):
        slot = rng.choice(qslots)
        word = [()] * ctx.slot_count
        word[slot] = ((ctx.slots[slot].gen_index("R", (rng.randint(1, 3), rng.randint(1, 3))), 1),)
        el = el * NCElement(ctx, {tuple(word): HSeries.const(1)})
    return el


def _standard_r_word(rng, ctx, qslots):
    """A random R word whose monomial no leading monomial of the table
    divides, in any of its slots."""
    leads = _leads()
    while True:
        el = normal_order(_random_r_word(rng, ctx, qslots, rng.randint(0, 3)))
        (word,) = el.terms
        slot_exps = []
        for s in qslots:
            exps = [0] * 9
            for gi, p in word[s]:
                i, j = ctx.slots[s].gens[gi].index
                exps[3 * i + j - 4] = p
            slot_exps.append(exps)
        if not any(all(e >= l for e, l in zip(exps, lead))
                   for exps in slot_exps for lead in leads):
            return el


def _basis_element(ctx, row, slot):
    el = NCElement.zero(ctx)
    for exps, c in row:
        word = [()] * ctx.slot_count
        word[slot] = tuple((ctx.slots[slot].gen_index("R", (v // 3 + 1, v % 3 + 1)), e)
                           for v, e in enumerate(exps) if e)
        el = el + NCElement(ctx, {tuple(word): HSeries.const(c)})
    return el


def test_random_ideal_members_and_non_members():
    # combinations (monomial x table row) reduce to zero; adding a nonzero
    # multiple of a standard monomial does not; the F_p cross-check agrees
    g = load_model("galilei_group_kappa")
    contexts = [(TensorContext((g,)), [0]),
                (TensorContext((g, strip_quotient(g), g)), [0, 2])]
    alpha = HSeries.const(RationalFn(Poly.var("alpha")))
    for seed in range(6):
        rng = random.Random(seed)
        for ctx, qslots in contexts:
            for extra in (False, True):
                member = NCElement.zero(ctx)
                for _ in range(3):
                    c = GaussianRational(F(rng.randint(1, 5), rng.randint(1, 4)),
                                         rng.randint(-2, 2))
                    term = (_random_r_word(rng, ctx, qslots, rng.randint(0, 2))
                            * _basis_element(ctx, rng.choice(O3_BASIS), rng.choice(qslots)))
                    term = term.scale(HSeries.const(c))
                    member = member + (term.scale(alpha) if extra and rng.random() < 0.5
                                       else term)
                std = _standard_r_word(rng, ctx, qslots).scale(HSeries.const(rng.randint(1, 3)))
                other = member + (std.scale(alpha) if extra else std)
                assert not normal_order(member).is_zero()
                for el, want in ((member, True), (other, False)):
                    assert zero_mod_quotient(el) is want, (seed, qslots, extra)
                    assert prefilter_zero(el, rng) is want, (seed, qslots, extra)


def _chained_bucket_by_rest(el, slots_with_r):
    """_bucket_by_rest as it was: one Poly.var product per stripped R letter."""
    r_syms = {s: {gi: quotient._rsym(s, *ij)
                  for ij, gi in el.context.slots[s].quotient.gen_indices.items()}
              for s in slots_with_r}
    buckets = {}
    for w, c in el.terms.items():
        sym = Poly.const(1)
        rest_word = list(w)
        for s, names in r_syms.items():
            rest = []
            for gi, p in w[s]:
                if gi in names:
                    sym = sym * Poly.var(names[gi], p)
                else:
                    rest.append((gi, p))
            rest_word[s] = tuple(rest)
        contrib = c.scale(sym) if sym != Poly.const(1) else c
        cur = buckets.get(tuple(rest_word))
        buckets[tuple(rest_word)] = contrib if cur is None else cur + contrib
    return buckets


def test_bucket_monomials_equal_the_chained_products():
    # seeded random normal-ordered elements mixing R with v, a, tau letters
    # and symbolic coefficients, in one and in three slots (two quotient)
    g = load_model("galilei_group_kappa")
    alpha = Poly.var("alpha")
    compared = 0
    for ctx, qslots in [(TensorContext((g,)), [0]),
                        (TensorContext((g, strip_quotient(g), g)), [0, 2])]:
        rng = random.Random(len(qslots))
        for _ in range(20):
            el = NCElement.zero(ctx)
            for _ in range(rng.randint(1, 4)):
                term = NCElement.one(ctx)
                for _ in range(rng.randint(0, 5)):
                    slot = rng.randrange(ctx.slot_count)
                    p = ctx.slots[slot]
                    gen = p.gens[rng.randrange(len(p.gens))]
                    term = term * p.gen_element(gen.name, gen.index, slot=slot,
                                                slots=ctx.slot_count).place_in_slots(
                                                    ctx, range(ctx.slot_count))
                coeff = RationalFn(alpha.scale(rng.randint(0, 2))
                                   + Poly.const(GaussianRational(rng.randint(-3, 3), 1)))
                el = el + term.scale(HSeries({rng.randint(0, 2): coeff}))
            el = normal_order(el)
            got = quotient._bucket_by_rest(el, qslots)
            want = _chained_bucket_by_rest(el, qslots)
            assert list(got) == list(want)
            for key, series in want.items():
                assert {k: (v.num.terms, v.den.terms) for k, v in got[key].coeffs.items()} \
                    == {k: (v.num.terms, v.den.terms) for k, v in series.coeffs.items()}
            compared += sum(len(v.num.terms) for b in want.values() for v in b.coeffs.values())
    assert compared > 200


def test_zero_mod_quotient_on_group_elements():
    g = load_model("galilei_group_kappa")
    ctx = TensorContext((g,))

    def rsum(i, j, transpose=False):
        el = NCElement.zero(ctx)
        for k in (1, 2, 3):
            a = g.gen_index("R", (k, i) if transpose else (i, k))
            b = g.gen_index("R", (k, j) if transpose else (j, k))
            el = el + NCElement(ctx, {(((min(a, b), 1), (max(a, b), 1)),): GR_ONE})
        return el

    one = NCElement.one(ctx)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for tr in (False, True):
                el = rsum(i, j, tr)
                if i == j:
                    el = el - one
                assert zero_mod_quotient(el), (i, j, tr)
    # something genuinely nonzero stays nonzero
    assert not zero_mod_quotient(rsum(1, 2) + one)
    # and without the quotient the relations are not zero
    s = strip_quotient(g)
    ctx_s = TensorContext((s,))
    el = NCElement(ctx_s, {k: v for k, v in (rsum(1, 1) - one).terms.items()})
    assert not zero_mod_quotient(el)


def test_antipode_axiom_on_R_needs_orthogonality():
    # m(S (x) id) Delta(R^i_j) = (R^T R)_ij, which IS the orthogonality
    # relation: passes with the quotient, is a residual without it
    g = load_model("galilei_group_kappa")
    el = g.gen_element("R", (1, 2))
    d = apply_coproduct(el, 0)
    left = normal_order(multiply_slots(apply_antipode(d, 0), 0, 1))
    assert not left.is_zero()          # nonzero as a bare polynomial
    assert zero_mod_quotient(left)     # zero on C(E(3))


def test_stripped_group_residual_matches_hand_formula():
    """Without orthogonality the Delta-homomorphism residual on [v^i, a^j] is

        (i/2kappa) [ delta_ij (R^T R)_{lm} (x) v^l v^m - (R R^T)_{ij} (x) v.v ]

    (a hand expansion; the engine must reproduce it exactly)."""
    g = load_model("galilei_group_kappa")
    s = strip_quotient(g)
    from kappa_hopf.hopf import _rule_difference
    i, j = 1, 1
    ai = s.gen_index("a", (j,))
    vi = s.gen_index("v", (i,))
    got = normal_order(apply_coproduct(_rule_difference(s, ai, vi, 1, 1), 0))
    ctx2 = TensorContext((s, s))

    def g2(name, idx, slot):
        return s.gen_element(name, idx, slot=slot, slots=2)

    want = NCElement.zero(ctx2)
    for l in (1, 2, 3):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                want = want + (g2("R", (n, l), 0) * g2("R", (n, m), 0)
                               * g2("v", (l,), 1) * g2("v", (m,), 1))
    vv = NCElement.zero(ctx2)
    for k in (1, 2, 3):
        vv = vv + g2("v", (k,), 1) * g2("v", (k,), 1)
    for k in (1, 2, 3):
        want = want - g2("R", (i, k), 0) * g2("R", (j, k), 0) * vv
    ih_half = HSeries({1: RationalFn(Poly.const(GaussianRational(0, F(1, 2))))})
    want = normal_order(want.scale(ih_half))
    # the rule stores a^j * v^i -> ... so the raw residual carries the
    # commutator the other way around; compare up to overall sign
    assert got == want or got == normal_order(-want)
    assert not got.is_zero()
    # in the quotiented model the same element is zero on C(E(3))
    back = NCElement(TensorContext((g, g)), got.terms)
    assert zero_mod_quotient(back)


def test_prefilter_agrees_with_exact_verdicts():
    g = load_model("galilei_group_kappa")
    rng = random.Random(99)
    ctx = TensorContext((g,))
    one = NCElement.one(ctx)
    samples = []
    for i in (1, 2, 3):
        el = NCElement.zero(ctx)
        for k in (1, 2, 3):
            a = g.gen_index("R", (i, k))
            el = el + NCElement(ctx, {(((a, 1), (a, 1)),): GR_ONE})
        samples.append(el - one)              # zero mod quotient
        samples.append(el)                    # nonzero
        samples.append(el - one + g.gen_element("tau"))  # nonzero
    for el in samples:
        assert prefilter_zero(el, rng) == zero_mod_quotient(el)


def test_equal_mod_quotient():
    g = load_model("galilei_group_kappa")
    ctx = TensorContext((g,))
    a = NCElement.zero(ctx)
    for k in (1, 2, 3):
        gi = g.gen_index("R", (2, k))
        a = a + NCElement(ctx, {(((gi, 1), (gi, 1)),): GR_ONE})
    assert equal_mod_quotient(a, NCElement.one(ctx))


def _det_r(g):
    det = NCElement.zero(TensorContext((g,)))
    for perm in permutations((1, 2, 3)):
        inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])
        term = g.gen_element("R", (1, perm[0]))
        for i in (2, 3):
            term = term * g.gen_element("R", (i, perm[i - 1]))
        det = det - term if inversions % 2 else det + term
    return det


def test_det_r_separates_the_two_components():
    # det R = 1 holds on SO(3) only; det R ** 2 = 1 on all of O(3), so the
    # reflected component must enter with the sign of odd first-row powers
    g = load_model("galilei_group_kappa")
    det = _det_r(g)
    one = NCElement.one(TensorContext((g,)))
    assert not zero_mod_quotient(det - one)
    assert zero_mod_quotient(det * det - one)


def _recording(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


def test_evaluate_raw_decides_each_mode_residual_once(monkeypatch):
    g = load_model("galilei_group_kappa")
    d = apply_coproduct(g.gen_element("R", (1, 2)), 0)
    raw = multiply_slots(apply_antipode(d, 0), 0, 1)  # (R^T R)_12
    reduced = []
    real = quotient._normal_form_is_zero

    def counting(terms, rules, top):
        reduced.append(terms)
        return real(terms, rules, top)

    monkeypatch.setattr(quotient, "_normal_form_is_zero", counting)
    # the exact test and the cross-check share one normal form and one
    # bucketing of each residual
    oracle = PrefilterOracle(5)
    res = evaluate_raw(raw, "both", 2)
    # spied after evaluate_raw, so that only the quotient's normal_order calls count
    calls = []
    for module, name in ((ncalg, "normal_order"), (quotient, "_bucket_by_rest")):
        monkeypatch.setattr(module, name, _recording(calls, name, getattr(module, name)))
    assert res.residual_zero(oracle)
    assert oracle.checked == oracle.agreements == 2
    assert sorted(calls) == ["_bucket_by_rest"] * 2 + ["normal_order"] * 2
    used = len(reduced)
    # the same two exact tests, run on their own
    reduced.clear()
    for el in (res.formal, res.series):
        assert not el.is_zero()
        assert zero_mod_quotient(el)
    assert used == len(reduced) > 0


def test_modular_cayley_point_is_the_cayley_map():
    N, D = cayley_data("x", "y", "z")
    for seed in range(5):
        for reflect in (0, 1):
            got = quotient._cayley_point_mod(random.Random(seed), 7, reflect)
            rng = random.Random(seed)
            pt = {s: rng.randrange(MOD_P) for s in "xyz"}
            d = eval_mod(D, pt)
            R = [[got[f"_R{i}{j}@7"] for j in (1, 2, 3)] for i in (1, 2, 3)]
            for i in range(3):
                sign = -1 if reflect and i == 0 else 1
                assert [r * d % MOD_P for r in R[i]] == [sign * eval_mod(n, pt) % MOD_P
                                                         for n in N[i]]
                for j in range(3):
                    dot = sum(R[i][k] * R[j][k] for k in range(3)) % MOD_P
                    assert dot == (i == j)


def test_prefilter_rejects_det_r_minus_one():
    # nonzero modulo the quotient (test_det_r_separates_the_two_components):
    # det R - 1 is -2 on the reflected component at every sample
    g = load_model("galilei_group_kappa")
    el = _det_r(g) - NCElement.one(TensorContext((g,)))
    for seed in range(20):
        assert not prefilter_zero(el, random.Random(seed))


def test_prefilter_retries_a_denominator_divisible_by_p(monkeypatch):
    g = load_model("galilei_group_kappa")
    ctx = TensorContext((g,))
    el = NCElement.zero(ctx)
    for k in (1, 2, 3):
        a = g.gen_index("R", (1, k))
        el = el + NCElement(ctx, {(((a, 1), (a, 1)),): GR_ONE})
    # zero modulo the quotient, with a coefficient F_p cannot take
    el = (el - NCElement.one(ctx)).scale(GaussianRational(F(1, MOD_P)))
    assert zero_mod_quotient(el)
    calls = []
    monkeypatch.setattr(quotient, "eval_mod", _recording(calls, "eval_mod", eval_mod))
    for retries in (1, 4):
        calls.clear()
        assert prefilter_zero(el, random.Random(retries), retries=retries) is False
        assert len(calls) == retries
    oracle = PrefilterOracle(0)
    oracle.observe(el, True)
    assert oracle.disagreements == 1


def test_cayley_data_is_cached():
    assert cayley_data("p", "q", "r") is cayley_data("p", "q", "r")


SAMPLE_SCRIPT = """
import random
from kappa_hopf import quotient
from kappa_hopf.models import load_model
from kappa_hopf.quotient import prefilter_zero
from kappa_hopf.scalars import HSeries, Poly, RationalFn

seen = []
evaluate = quotient.eval_mod

def spy(x, values, h=1):
    seen.append((sorted(values.items()), h))
    return evaluate(x, values, h)

quotient.eval_mod = spy
g = load_model("galilei_group_kappa")
coeff = sum((Poly.var(s) for s in ("alpha", "beta", "gamma", "delta", "eps")), Poly())
el = g.gen_element("R", (1, 1)) * g.gen_element("tau")
el = el.scale(HSeries.const(RationalFn(coeff)))
prefilter_zero(el, random.Random(11))
print(seen[0])
"""


def test_prefilter_sample_ignores_the_hash_seed():
    src = str(Path(kappa_hopf.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", SAMPLE_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert "alpha" in outs[0]
    assert outs[0] == outs[1]
