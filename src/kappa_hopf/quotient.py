"""Exact zero-testing modulo the R-orthogonality quotient.

The rotation coordinates R[i,j] of the quantum Galilei group commute with
each other, and the function algebra of E(3) carries the relations
R R^T = R^T R = I, which are sums of monomials and therefore not expressible
as digram rewrite rules.  A polynomial lies in the O(3) ideal
<R R^T - I, R^T R - I> iff its normal form modulo a Groebner basis of the
ideal is zero (Buchberger 1965; Cox, Little & O'Shea, Ideals, Varieties,
and Algorithms, ch. 2).  O3_BASIS_ROWS is a fixed reduced basis for grevlex
with R11 > R12 > ... > R33.  Several quotient slots take one copy of it
each, in grevlex over all their variables; leading monomials of different
slots are coprime, so the union is again a Groebner basis.  The basis has
no other symbols, so a polynomial is reduced one monomial in the other
symbols at a time.  All arithmetic is exact.

The ideal is radical (O(3) is smooth), so it equals the ideal of the
polynomials that vanish on O(3): on the rational Cayley points

    R(x,y,z) = (I - A) (I + A)^{-1},   A = [[0,-z,y],[z,0,-x],[-y,x,0]]

(whose image is Zariski-dense in SO(3)) and on their reflected copies
diag(-1,1,1) * R(x,y,z) (dense in the det = -1 component).  The normal form
therefore decides exactly what substituting those points decides.
prefilter_zero cross-checks each exact verdict at such points, drawn at
random in the prime field F_p, on zero_mod_quotient's normal-ordered
element and buckets; the exact test and its cross-check share no method.
"""

from __future__ import annotations

import random
from functools import lru_cache
from heapq import heapify, heappop, heappush

from .ncalg import LimitError, normal_order
from .scalars import MOD_P, GaussianRational, Poly, POLY_ONE, eval_mod, inverse_mod

# the reduced Groebner basis of <R R^T - I, R^T R - I> for grevlex with
# R11 > R12 > ... > R33: 11 quadrics, 11 cubics and 5 quartics, monic, each
# with its leading term first
O3_BASIS_ROWS = """
R11^2 - R22^2 - R23^2 - R32^2 - R33^2 + 1
R11*R12 + R21*R22 + R31*R32
R12^2 + R22^2 + R32^2 - 1
R11*R13 + R21*R23 + R31*R33
R12*R13 + R22*R23 + R32*R33
R13^2 + R23^2 + R33^2 - 1
R11*R21 + R12*R22 + R13*R23
R21^2 + R22^2 + R23^2 - 1
R11*R31 + R12*R32 + R13*R33
R21*R31 + R22*R32 + R23*R33
R31^2 + R32^2 + R33^2 - 1
R12*R21*R22 - R11*R22^2 - R13*R31*R33 + R11*R33^2
R13*R21*R22 - R11*R22*R23 + R13*R31*R32 - R11*R32*R33
R13*R22^2 - R12*R22*R23 + R13*R32^2 - R12*R32*R33 - R13
R12*R21*R23 - R11*R22*R23 + R12*R31*R33 - R11*R32*R33
R13*R21*R23 - R11*R23^2 + R13*R31*R33 - R11*R33^2 + R11
R13*R22*R23 - R12*R23^2 + R13*R32*R33 - R12*R33^2 + R12
R12*R22*R31 + R13*R23*R31 - R11*R22*R32 - R11*R23*R33
R22^2*R31 + R23^2*R31 - R21*R22*R32 - R21*R23*R33 - R31
R12*R21*R32 - R11*R22*R32 + R13*R21*R33 - R11*R23*R33
R12*R31*R32 - R11*R32^2 + R13*R31*R33 - R11*R33^2 + R11
R22*R31*R32 - R21*R32^2 + R23*R31*R33 - R21*R33^2 + R21
R13*R23*R31*R32 - R12*R23*R31*R33 - R13*R21*R32*R33 + R12*R21*R33^2 - R12*R21
R23^2*R31*R32 - R22*R23*R31*R33 - R21*R23*R32*R33 + R21*R22*R33^2 - R21*R22 - R31*R32
R13*R23*R32^2 - R13*R22*R32*R33 - R12*R23*R32*R33 + R12*R22*R33^2 - R12*R22 - R13*R23
R23^2*R32^2 - 2*R22*R23*R32*R33 + R22^2*R33^2 - R22^2 - R23^2 - R32^2 - R33^2 + 1
R13*R22*R31*R33 - R12*R23*R31*R33 - R13*R21*R32*R33 + R11*R23*R32*R33 + R12*R21*R33^2 - R11*R22*R33^2 - R12*R21 + R11*R22
"""


def _parse_basis_row(row):
    """[(exponents of R11..R33, integer coefficient)] of one basis row."""
    terms = []
    for term in row.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coeff, exps = sign, [0] * 9
        for factor in term.lstrip("-").split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            elif factor.startswith("R"):
                name, _, e = factor.partition("^")
                exps[3 * int(name[1]) + int(name[2]) - 4] = int(e or 1)
        terms.append((tuple(exps), coeff))
    return terms


O3_BASIS = tuple(_parse_basis_row(row) for row in O3_BASIS_ROWS.strip().splitlines())

# bits per exponent in a packed monomial (see _slot_rules).  Reduction never
# raises the total degree, so with every input degree below DEGREE_CAP each
# exponent stays below its field's top bit, which _normal_form_is_zero's
# divisibility test uses as a borrow guard.
FIELD = 16
DEGREE_CAP = 1 << (FIELD - 1)


def _packed(exps):
    """(packed exponents, degree) of a monomial of O3_BASIS: the exponent of
    R[i,j] in the field at bit FIELD * (3(i-1) + (j-1))."""
    return sum(e << FIELD * v for v, e in enumerate(exps)), sum(exps)


# O3_BASIS packed once: per row, the packed exponents and degree of the
# leading monomial, and its tail as (packed exponents, degree, negated
# coefficient)
_O3_PACKED = tuple((_packed(lead), [(*_packed(x), GaussianRational(-c)) for x, c in tail])
                   for (lead, _), *tail in O3_BASIS)


def _cayley(x, y, z):
    """Numerator matrix N and denominator D of the Cayley map R = N / D at
    v = (x, y, z), in any commutative ring holding x, y, z:
    N = (1 - s) I - 2A + 2 v v^T and D = 1 + s, with s = x^2 + y^2 + z^2."""
    v = (x, y, z)
    s = x * x + y * y + z * z
    A = ((0, -z, y), (z, 0, -x), (-y, x, 0))
    N = tuple(tuple(2 * v[i] * v[j] - 2 * A[i][j] + (1 - s if i == j else 0) for j in range(3))
              for i in range(3))
    return N, 1 + s


@lru_cache(maxsize=64)
def cayley_data(xname, yname, zname):
    """Numerator matrix N and denominator D with R = N / D on SO(3), as Polys
    in the named symbols.

    Cached by symbol names; N is a tuple of row tuples, so callers share
    one immutable result."""
    return _cayley(Poly.var(xname), Poly.var(yname), Poly.var(zname))


def _rsym(slot, i, j):
    return f"_R{i}{j}@{slot}"


def _quotient_slots(ctx):
    return [s for s, p in enumerate(ctx.slots) if p.quotient is not None]


def _bucket_by_rest(el, slots_with_r):
    """Sum the terms of a normal-ordered element by their words with the R
    prefix of every quotient slot stripped (without one, the terms as they
    are); the stripped R letters move into the coefficients as _Rij@slot."""
    if not slots_with_r:
        return el.terms
    # per quotient slot: rotation generator -> its _Rij@slot symbol
    r_syms = {s: {gi: _rsym(s, *ij) for ij, gi in el.context.slots[s].quotient.gen_indices.items()}
              for s in slots_with_r}
    buckets = {}
    for w, c in el.terms.items():
        sym = POLY_ONE
        rest_word = list(w)
        for s, names in r_syms.items():
            rest = []
            for gi, p in w[s]:
                if gi in names:
                    sym = sym * Poly.var(names[gi], p)
                else:
                    rest.append((gi, p))
            rest_word[s] = tuple(rest)
        key = tuple(rest_word)
        contrib = c.scale(sym) if sym != POLY_ONE else c
        cur = buckets.get(key)
        buckets[key] = contrib if cur is None else cur + contrib
    return buckets


def _slot_rules(nslots):
    """(lead exponents, lead, tail) of O3_BASIS in each of nslots slots, as
    packed monomials over their n = 9 * nslots R variables; the tail lists
    the other monomials with their negated coefficients.

    A monomial with exponent e_p of the variable at position p (slot
    position q and R[i,j] at p = 9q + 3(i-1) + (j-1)) packs to
    E - degree * 2**(FIELD * n), with E = sum_p e_p * 2**(FIELD * p) its
    packed exponents, recovered as packed & (2**(FIELD * n) - 1).  A smaller
    packed monomial is a larger one in grevlex, and monomials multiply and
    divide by adding and subtracting their packings."""
    top = FIELD * 9 * nslots
    rules = []
    for q in range(nslots):
        shift = FIELD * 9 * q
        for (lead, degree), tail in _O3_PACKED:
            rules.append((lead << shift, (lead << shift) - (degree << top),
                          [((x << shift) - (d << top), k) for x, d, k in tail]))
    return rules


def _r_parts(poly, shifts, top):
    """The parts of poly (in _Rij@s symbols plus others) at each monomial in
    the other symbols, as {packed R monomial: coefficient}; shifts maps each
    _Rij@s symbol to the bit position of its field (see _slot_rules)."""
    parts = {}
    for mono, c in poly.terms.items():
        packed = degree = 0
        rest = []
        for sym, e in mono:
            shift = shifts.get(sym)
            if shift is None:
                rest.append((sym, e))
            else:
                packed += e << shift
                degree += e
        if degree >= DEGREE_CAP:
            raise LimitError(f"R degree {degree} of a quotient residual is not below {DEGREE_CAP}")
        parts.setdefault(tuple(rest), {})[packed - (degree << top)] = c
    return parts.values()


def _normal_form_is_zero(terms, rules, top):
    """True iff the polynomial {packed monomial: coefficient} (consumed) has
    normal form zero modulo the monic rules of _slot_rules.

    Monomials are taken in decreasing grevlex order.  A reduction step only
    brings in smaller monomials, so the first monomial with a nonzero
    coefficient that no leading monomial divides stays in the normal form,
    and the answer is False there.  A leading monomial with exponents L
    divides one with exponents E iff no field of E - L borrows: with the top
    bit of every field set in E first, each stays set."""
    mask = (1 << top) - 1
    guard = sum(DEGREE_CAP << s for s in range(0, top, FIELD))
    heap = list(terms)
    heapify(heap)
    while heap:
        m = heappop(heap)
        c = terms.pop(m)
        if not c:
            continue
        probe = m & mask | guard
        for exps, lead, tail in rules:
            if (probe - exps) & guard == guard:
                break
        else:
            return False
        u = m - lead
        for t, k in tail:
            w = u + t
            old = terms.get(w)
            if old is None:
                terms[w] = c * k
                heappush(heap, w)
            else:
                terms[w] = old + c * k
    return True


def _in_quotient_ideal(polys, slots_with_r):
    """True iff every poly (in _Rij@s symbols of slots_with_r plus others)
    lies in the per-slot O(3) ideals."""
    top = FIELD * 9 * len(slots_with_r)
    shifts = {_rsym(s, i, j): FIELD * (9 * q + 3 * i + j - 4)
              for q, s in enumerate(slots_with_r) for i in (1, 2, 3) for j in (1, 2, 3)}
    rules = _slot_rules(len(slots_with_r))
    return all(_normal_form_is_zero(terms, rules, top)
               for poly in polys for terms in _r_parts(poly, shifts, top))


def zero_mod_quotient(element, budget=None, oracle=None):
    """Exact zero test of a normal-orderable element modulo any per-slot
    orthogonality quotients.  Without quotients this is plain exactness.
    An oracle (PrefilterOracle) cross-checks the verdict on the same buckets."""
    el = normal_order(element, budget=budget)
    slots_with_r = _quotient_slots(el.context)
    buckets = _bucket_by_rest(el, slots_with_r)
    zero = el.is_zero() or (bool(slots_with_r) and _in_quotient_ideal(
        (hc.num for series in buckets.values() for hc in series.coeffs.values()), slots_with_r))
    if oracle is not None:
        oracle.observe(el, zero, buckets)
    return zero


def equal_mod_quotient(a, b, budget=None):
    return zero_mod_quotient(a - b, budget=budget)


# ---------------------------------------------------------------------------
# randomized exact substitution pre-filter
# ---------------------------------------------------------------------------


def _cayley_point_mod(rng, slot, reflect):
    """The _Rij@slot values of the Cayley map (_cayley) at a random point
    v = (x, y, z) of F_p^3; `reflect` negates the first row."""
    N, D = _cayley(*(rng.randrange(MOD_P) for _ in range(3)))
    d_inv = inverse_mod(D)
    return {_rsym(slot, i + 1, j + 1): N[i][j] * (-d_inv if reflect and i == 0 else d_inv) % MOD_P
            for i in range(3) for j in range(3)}


def prefilter_zero(element, rng, retries=4, buckets=None):
    """Fast probabilistic zero test by exact random substitution in F_p.

    Maps the element into F_p (scalars.eval_mod) at random residues for the
    coefficient symbols and h and, in quotient slots, at random Cayley
    points of both group components.  `buckets` are _bucket_by_rest of the
    normal-ordered `element`, when the caller has them.  Symbols draw their
    values in sorted name order, so the sample depends only on the rng
    state, never on the hash seed.  False verdicts are sound (a ring map
    gave a nonzero image), except that `retries` samples with a denominator
    0 mod p also answer False; a True verdict could hit a root (probability
    about degree/p), which PrefilterOracle counts against the exact one."""
    slots_with_r = _quotient_slots(element.context)
    if buckets is None:
        element = normal_order(element)
        buckets = _bucket_by_rest(element, slots_with_r)
    if not buckets:
        return True
    syms = sorted(set().union(*(c.symbols() for c in element.terms.values())))
    for attempt in range(retries):
        try:
            sample = {s: rng.randrange(MOD_P) for s in syms}
            h_value = rng.randrange(1, MOD_P)
            # one random Cayley point per quotient slot and component choice
            for signs_mask in range(1 << len(slots_with_r)):
                rsample = dict(sample)
                for k, s in enumerate(slots_with_r):
                    rsample.update(_cayley_point_mod(rng, s, (signs_mask >> k) & 1))
                for series in buckets.values():
                    if eval_mod(series, rsample, h_value):
                        return False
            return True
        except ZeroDivisionError:
            continue
    return False


class PrefilterOracle:
    """Cross-checks exact zero verdicts against prefilter_zero.

    One oracle serves one verification run.  It owns the seeded rng, so the
    sample points depend only on the seed and on the order in which the
    residuals are observed, and it counts agreements with the exact
    verdicts."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.checked = 0
        self.agreements = 0

    def observe(self, element, exact, buckets=None):
        """Cross-check one residual whose exact verdict is `exact`."""
        self.checked += 1
        if prefilter_zero(element, self.rng, buckets=buckets) == exact:
            self.agreements += 1

    @property
    def disagreements(self):
        return self.checked - self.agreements
