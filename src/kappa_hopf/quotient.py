"""Exact zero-testing modulo the R-orthogonality quotient.

The rotation coordinates R[i,j] of the quantum Galilei group commute with
each other, and the function algebra of E(3) carries the relations
R R^T = R^T R = I, which are sums of monomials and therefore not expressible
as digram rewrite rules.  Membership of a polynomial in the O(3) ideal is
decided exactly by substituting the rational Cayley parametrization

    R(x,y,z) = (I - A) (I + A)^{-1},   A = [[0,-z,y],[z,0,-x],[-y,x,0]]

(whose image is Zariski-dense in SO(3)) and its reflected copy
diag(-1,1,1) * R(x,y,z) (dense in the det = -1 component).  A polynomial
vanishes on both components iff it lies in the O(3) ideal (the ideal is
radical).  All arithmetic is exact; denominators are the single polynomial
D = 1 + x^2 + y^2 + z^2, tracked as explicit powers.

prefilter_zero cross-checks these verdicts by random substitution in the
prime field F_p, reusing the normal form and buckets of zero_mod_quotient.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .ncalg import normal_order
from .scalars import MOD_P, Poly, POLY_ONE, POLY_ZERO, eval_mod, inverse_mod

# bound of the Cayley power cache; the shipped suites use fewer than 50
# (slot, i, j, exponent) keys
POWER_CACHE_SIZE = 1024


def _adjugate3(M):
    def det2(a, b, c, d):
        return a * d - b * c
    cof = [[None] * 3 for _ in range(3)]
    idx = [0, 1, 2]
    for i in range(3):
        for j in range(3):
            rows = [r for r in idx if r != i]
            cols = [c for c in idx if c != j]
            minor = det2(M[rows[0]][cols[0]], M[rows[0]][cols[1]],
                         M[rows[1]][cols[0]], M[rows[1]][cols[1]])
            cof[i][j] = minor if (i + j) % 2 == 0 else -minor
    return [[cof[j][i] for j in range(3)] for i in range(3)]  # transpose


@lru_cache(maxsize=64)
def cayley_data(xname, yname, zname):
    """Numerator matrix N and denominator D with R = N / D on SO(3).

    Cached by symbol names; N is a tuple of row tuples, so callers share
    one immutable result."""
    x, y, z = Poly.var(xname), Poly.var(yname), Poly.var(zname)
    zero, one = POLY_ZERO, POLY_ONE
    A = [[zero, -z, y], [z, zero, -x], [-y, x, zero]]
    IpA = [[one + A[i][j] if i == j else A[i][j] for j in range(3)] for i in range(3)]
    ImA = [[one - A[i][j] if i == j else -A[i][j] for j in range(3)] for i in range(3)]
    adj = _adjugate3(IpA)
    N = tuple(tuple(sum((ImA[i][k] * adj[k][j] for k in range(3)), POLY_ZERO)
                    for j in range(3)) for i in range(3))
    D = one + x * x + y * y + z * z
    return N, D


@lru_cache(maxsize=POWER_CACHE_SIZE)
def _cayley_power(slot, i, j, e):
    """N[i][j] ** e at the unreflected Cayley point of `slot` (i, j from 1),
    or D ** e for i = j = 0."""
    N, D = cayley_data(f"_cx@{slot}", f"_cy@{slot}", f"_cz@{slot}")
    return (D if i == 0 else N[i - 1][j - 1]) ** e


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


def _cayley_reduce_zero(poly, slots_with_r):
    """True iff `poly` (in _Rij@s symbols plus arbitrary others) lies in the
    per-slot O(3) ideals.

    Every term is substituted once, at the unreflected Cayley points with
    the denominators D cleared.  The reflected point of a slot negates its
    first row, which flips the sign of exactly the terms of odd first-row
    degree in that slot.  So with S_p the sum of the terms of parity vector
    p, the value on the component choice m is sum_p (-1)^|p & m| S_p; that
    sign matrix is invertible, hence all 2^k values vanish iff every S_p
    does."""
    slots = sorted(slots_with_r)
    bit = {s: 1 << k for k, s in enumerate(slots)}
    maxdeg = dict.fromkeys(slots, 0)
    split_terms = []
    for mono, coeff in poly.terms.items():
        r_part = []
        rest = []
        degs = dict.fromkeys(slots, 0)
        parity = 0
        for symname, e in mono:
            if symname.startswith("_R") and "@" in symname:
                i, j = int(symname[2]), int(symname[3])
                s = int(symname.split("@")[1])
                r_part.append((s, i, j, e))
                degs[s] += e
                if i == 1 and e % 2:
                    parity ^= bit[s]
            else:
                rest.append((symname, e))
        for s in slots:
            maxdeg[s] = max(maxdeg[s], degs[s])
        split_terms.append((Poly({tuple(rest): coeff}), r_part, degs, parity))
    sums = {}
    for term, r_part, degs, parity in split_terms:
        for s, i, j, e in r_part:
            term = term * _cayley_power(s, i, j, e)
        for s in slots:
            pad = maxdeg[s] - degs[s]
            if pad:
                term = term * _cayley_power(s, 0, 0, pad)
        sums[parity] = sums.get(parity, POLY_ZERO) + term
    return not any(sums.values())


def zero_mod_quotient(element, budget=None, oracle=None):
    """Exact zero test of a normal-orderable element modulo any per-slot
    orthogonality quotients.  Without quotients this is plain exactness.
    An oracle (PrefilterOracle) cross-checks the verdict on the same buckets."""
    el = normal_order(element, budget=budget)
    slots_with_r = _quotient_slots(el.context)
    buckets = _bucket_by_rest(el, slots_with_r)
    zero = el.is_zero() or (bool(slots_with_r) and all(
        _cayley_reduce_zero(hc.num, slots_with_r)
        for series in buckets.values() for hc in series.coeffs.values()))
    if oracle is not None:
        oracle.observe(el, zero, buckets)
    return zero


def equal_mod_quotient(a, b, budget=None):
    return zero_mod_quotient(a - b, budget=budget)


# ---------------------------------------------------------------------------
# randomized exact substitution pre-filter
# ---------------------------------------------------------------------------


def _cayley_point_mod(rng, slot, reflect):
    """The _Rij@slot values of cayley_data's N/D at a random point
    v = (x, y, z) of F_p^3: N = (1 - s) I - 2A + 2 v v^T and D = 1 + s, with
    s = x^2 + y^2 + z^2; `reflect` negates the first row."""
    v = x, y, z = [rng.randrange(MOD_P) for _ in range(3)]
    s = x * x + y * y + z * z
    d_inv = inverse_mod(1 + s)
    A = ((0, -z, y), (z, 0, -x), (-y, x, 0))
    return {_rsym(slot, i + 1, j + 1): ((1 - s) * (i == j) - 2 * A[i][j] + 2 * v[i] * v[j])
            * (-d_inv if reflect and i == 0 else d_inv) % MOD_P
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
