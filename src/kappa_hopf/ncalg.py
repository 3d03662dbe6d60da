"""Noncommutative core: ordered words of generators, PBW normal ordering by
oriented rewriting, tensor slots, confluence checking.

Words are stored per tensor slot (cross-slot generators always commute), and
each slot word is a tuple of letters ``(gen_index, power)``.  Ordinary
generators always carry power 1; grouplike generators (formal exponentials
like E = e^{P0/2kappa}) carry an arbitrary nonzero integer power and merge
multiplicatively, E^a E^b -> E^(a+b).

A presentation orients every out-of-order digram Y*X (sort(Y) > sort(X)) into
X*Y + correction, where the correction is a normal-ordered element.  For a
digram involving a grouplike generator at power k, the stored unit correction
(declared at power 1) is scaled by k; this is the derivation rule
[X, E^k] = k*c*W*E^k, valid because correction words are validated to commute
with E.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from operator import add

from .scalars import (
    CONSTANT_TYPES,
    H_ONE,
    H_ZERO,
    SCALAR_TYPES,
    HSeries,
    as_gaussian,
    as_hseries,
)


class PresentationError(ValueError):
    """Malformed presentation or element/presentation mismatch."""


class DivergenceError(RuntimeError):
    """Rewriting exceeded its step budget, its word-length limit or its
    pending-term limit; names the offending digram."""


class LimitError(ValueError):
    """An engine limit: a rule coefficient has a pole at h = 0, or a quotient
    residual's R degree is beyond the orthogonality test's packed monomials."""


# bounds of one normal_order call: rewrite steps, letters in one slot word,
# and terms waiting to be rewritten, steps and terms counted in rewrite paths
# (`verify all --order 6 --degree 8` on the shipped models reaches 10 letters,
# 12,827 steps, 1,202 waiting paths and a correction depth of 4)
REWRITE_BUDGET = 2_000_000
MAX_WORD_LENGTH = 128
MAX_PENDING_TERMS = 100_000


class GenDecl:
    """One generator: display name, optional index tuple, grouplike flag."""

    __slots__ = ("name", "index", "grouplike")

    def __init__(self, name, index=(), grouplike=False):
        self.name = name
        self.index = tuple(index)
        self.grouplike = grouplike

    def key(self):
        return (self.name, self.index)

    def label(self):
        if self.index:
            return f"{self.name}[{','.join(str(i) for i in self.index)}]"
        return self.name

    def __repr__(self):
        g = ", grouplike" if self.grouplike else ""
        return f"GenDecl({self.label()}{g})"


class HopfData:
    """Per-generator coproduct, counit, antipode (extension is the engine's job)."""

    __slots__ = ("delta", "counit", "antipode")

    def __init__(self, delta, counit, antipode):
        self.delta = dict(delta)      # gen_idx -> 2-slot NCElement
        self.counit = dict(counit)    # gen_idx -> HSeries
        self.antipode = dict(antipode)  # gen_idx -> 1-slot NCElement


class QuotientSpec:
    """Extra polynomial relations imposed on a commuting generator family.

    The only quotient is `quotient orthogonal R;`: the 3x3 orthogonality
    relations R R^T = R^T R = I, i.e. sum_k R[i,k]*R[j,k] = delta(i,j) =
    sum_k R[k,i]*R[k,j], on a doubly indexed commuting family R.  Equality
    modulo the quotient is decided exactly by a Groebner-basis normal form
    (see ``quotient.zero_mod_quotient``).
    """

    __slots__ = ("family", "gen_indices")

    def __init__(self, family, gen_indices):
        self.family = family  # generator name, e.g. "R"
        self.gen_indices = gen_indices  # dict (i,j) -> gen_idx


class Presentation:
    """Finitely presented algebra with PBW order, oriented rewrite rules and
    optional Hopf data.  Immutable after construction."""

    def __init__(self, name, gens, params=(), rules=None, quotient=None):
        self.name = name
        self.gens = tuple(gens)
        self.params = tuple(params)
        self.by_key = {}
        for i, g in enumerate(self.gens):
            if g.key() in self.by_key:
                raise PresentationError(f"duplicate generator {g.label()} in {name}")
            self.by_key[g.key()] = i
        # rules: dict (hi_idx, lo_idx) -> tuple of (HSeries coeff, slot_word)
        self.rules = dict(rules or {})
        # Hopf data is attached once the presentation exists, since its
        # elements' contexts reference it
        self.hopf = None
        self.grouplike_logs = {}   # gen_idx -> 1-slot NCElement, filled by the loader
        self.quotient = quotient
        self._validate()

    # -- construction helpers ---------------------------------------
    def gen_index(self, name, index=()):
        key = (name, tuple(index))
        if key not in self.by_key:
            raise PresentationError(f"unknown generator {name}{list(index)} in {self.name}")
        return self.by_key[key]

    def one(self, slots=1):
        ctx = TensorContext((self,) * slots)
        return NCElement(ctx, {((),) * slots: H_ONE})

    def gen_element(self, name, index=(), slot=0, slots=1, power=1):
        ctx = TensorContext((self,) * slots)
        gi = self.gen_index(name, index)
        if self.gens[gi].grouplike:
            letters = ((gi, power),) if power else ()
        else:
            if power < 0:
                raise PresentationError(f"negative power on non-grouplike {name}")
            letters = ((gi, 1),) * power
        word = [()] * slots
        word[slot] = letters
        return NCElement(ctx, {tuple(word): H_ONE})

    def _validate(self):
        n = len(self.gens)
        for (hi, lo), corr in self.rules.items():
            if not (0 <= lo < hi < n):
                raise PresentationError(
                    f"{self.name}: rule digram must satisfy hi > lo in PBW order, got ({hi},{lo})")
            ghi, glo = self.gens[hi], self.gens[lo]
            if ghi.grouplike and glo.grouplike and corr:
                raise PresentationError(
                    f"{self.name}: digram of two grouplike generators must commute")
            for _, w in corr:
                for gi, p in w:
                    if not self.gens[gi].grouplike and p != 1:
                        raise PresentationError("non-grouplike letter with power != 1 in rule")
                if ghi.grouplike and sum(1 for gi, _ in w if gi == hi) != 1:
                    raise PresentationError(
                        f"{self.name}: grouplike rule correction must carry {ghi.label()} exactly once")
        for gi in self.grouplike_logs:
            if not self.gens[gi].grouplike:
                raise PresentationError("grouplike_log declared on ordinary generator")

    def missing_digrams(self):
        """Unordered generator pairs without a rule (completeness check)."""
        out = []
        for hi in range(len(self.gens)):
            for lo in range(hi):
                if (hi, lo) not in self.rules:
                    out.append((self.gens[hi].label(), self.gens[lo].label()))
        return out

    def rule_h_floor(self):
        """Minimal h-degree carried by any nontrivial rule correction."""
        floor = None
        for corr in self.rules.values():
            for c, _ in corr:
                mp = c.min_power()
                if mp is None:
                    continue
                floor = mp if floor is None else min(floor, mp)
        return floor

    def __repr__(self):
        return f"Presentation({self.name}, {len(self.gens)} gens, {len(self.rules)} rules)"

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            self.name == other.name
            and self.params == other.params
            and [(g.key(), g.grouplike) for g in self.gens]
                == [(g.key(), g.grouplike) for g in other.gens]
            and self.rules == other.rules
            and _terms_table_eq(self.grouplike_logs, other.grouplike_logs)
            and _hopf_eq(self.hopf, other.hopf)
            and _quotient_eq(self.quotient, other.quotient)
        )

    def __hash__(self):
        return hash((self.name, tuple(g.key() for g in self.gens)))


def _terms_table_eq(a, b):
    # compare element tables structurally (terms only) to avoid recursing
    # through contexts back into Presentation.__eq__
    if set(a) != set(b):
        return False
    return all(a[k].terms == b[k].terms for k in a)


def _hopf_eq(a, b):
    if a is None or b is None:
        return a is b
    return (_terms_table_eq(a.delta, b.delta)
            and a.counit == b.counit
            and _terms_table_eq(a.antipode, b.antipode))


def _quotient_eq(a, b):
    if a is None or b is None:
        return a is b
    return a.family == b.family


class TensorContext:
    """Tensor product of per-slot presentations; slot count >= 1."""

    __slots__ = ("slots",)

    def __init__(self, slots):
        slots = tuple(slots)
        if not slots:
            raise PresentationError("TensorContext needs at least one slot")
        self.slots = slots

    @property
    def slot_count(self):
        return len(self.slots)

    def __eq__(self, other):
        if not isinstance(other, TensorContext):
            return NotImplemented
        return all(a is b or a == b for a, b in zip(self.slots, other.slots)) \
            and len(self.slots) == len(other.slots)

    def __hash__(self):
        return hash(tuple(id(p) for p in self.slots))

    def __repr__(self):
        return f"TensorContext({'x'.join(p.name for p in self.slots)})"


class NCElement:
    """Finite sum of (HSeries coefficient) * (per-slot ordered word), known
    through h^order (None: exact, as built here); `truncate` sets the order,
    and no term past it is stored.  Equality and hashing read the terms."""

    __slots__ = ("context", "terms", "order")

    def __init__(self, context, terms=None):
        self.context = context
        self.order = None
        t = {}
        if terms:
            for w, c in terms.items():
                c = as_hseries(c)
                if c:
                    t[w] = c
        self.terms = t

    # -- constructors --------------------------------------------------
    @staticmethod
    def zero(context):
        return NCElement(context, {})

    @staticmethod
    def one(context):
        return NCElement(context, {((),) * context.slot_count: H_ONE})

    @staticmethod
    def scalar(context, c):
        return NCElement(context, {((),) * context.slot_count: c})

    # -- helpers --------------------------------------------------------
    def _require_same_context(self, other):
        if self.context != other.context:
            raise PresentationError(
                f"context mismatch: {self.context!r} vs {other.context!r}")

    def is_zero(self):
        return not self.terms

    def scalar_part(self):
        return self.terms.get(((),) * self.context.slot_count, H_ZERO)

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        if isinstance(other, SCALAR_TYPES):
            other = NCElement.scalar(self.context, other)
        self._require_same_context(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            nc = t.get(w, H_ZERO) + c
            if nc:
                t[w] = nc
            else:
                t.pop(w, None)
        if self.order == other.order:
            return _raw_element(self.context, t, self.order)
        return _truncated(self.context, t, _min_order(self.order, other.order))

    def __neg__(self):
        return _raw_element(self.context, {w: -c for w, c in self.terms.items()}, self.order)

    def __sub__(self, other):
        if isinstance(other, SCALAR_TYPES):
            other = NCElement.scalar(self.context, other)
        return self + (-other)

    def scale(self, c):
        order = self.order
        if isinstance(c, CONSTANT_TYPES):
            c = as_gaussian(c)
            if not c:
                return NCElement.zero(self.context)
            # nonzero coefficients times a nonzero constant stay nonzero
            t = {w: v.scale(c) for w, v in self.terms.items()}
        else:
            c = as_hseries(c)
            if not c:
                return NCElement.zero(self.context)
            if order is not None:
                order += min(c.min_power(), 0)
            t = {}
            for w, v in self.terms.items():
                nv = v.mul_through(c, order)
                if nv:
                    t[w] = nv
        return _raw_element(self.context, t, order)

    def __mul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        self._require_same_context(other)
        order = _product_order(self.order, _low(self), other.order, _low(other))
        return _raw_element(self.context,
                            _mul_terms(self.terms, other.terms.items(), order), order)

    def __rmul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        return NotImplemented

    def truncate(self, order):
        """The element known through h^order, or its own order if lower."""
        return _truncated(self.context, self.terms, _min_order(self.order, order))

    def h_coefficient(self, k):
        """Element whose coefficients are the h^k parts (as exact scalars)."""
        t = {}
        for w, c in self.terms.items():
            v = c.coeff(k)
            if v:
                t[w] = HSeries({0: v})
        return NCElement(self.context, t)

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(abs(p) for s in w for _, p in s) for w in self.terms)

    def swap_slots(self, a, b):
        t = {}
        for w, c in self.terms.items():
            lw = list(w)
            lw[a], lw[b] = lw[b], lw[a]
            t[tuple(lw)] = c
        slots = list(self.context.slots)
        slots[a], slots[b] = slots[b], slots[a]
        return _raw_element(TensorContext(tuple(slots)), t, self.order)

    def place_in_slots(self, context, slot_map):
        """Move slot s of self to slot_map[s] of the target context."""
        n = context.slot_count
        t = {}
        for w, c in self.terms.items():
            nw = [()] * n
            for s, sw in enumerate(w):
                if sw:
                    if nw[slot_map[s]]:
                        raise PresentationError("slot collision in place_in_slots")
                    nw[slot_map[s]] = sw
            t[tuple(nw)] = c
        return _raw_element(context, t, self.order)

    # -- comparisons / rendering ------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, NCElement):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def render(self):
        """Deterministic human-readable form (normal order the element first
        if canonical text is wanted)."""
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=_word_sort_key):
            c = self.terms[w]
            body = " (x) ".join(word_label(p, sw) for p, sw in zip(self.context.slots, w))
            cs = str(c)
            if cs == "1":
                bits.append(body)
            elif cs == "-1":
                bits.append(f"-({body})" if body != "1" else "-1")
            else:
                needs_par = any(ch in cs for ch in "+-") and not cs.lstrip("-").isdigit()
                coeff = f"({cs})" if (needs_par or " " in cs) else cs
                bits.append(f"{coeff}*{body}" if body != "1" else coeff)
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return f"NCElement<{self.render()}>"


def _raw_element(context, terms, order):
    """The element with these terms, known through h^order, taken as they
    are: HSeries coefficients, none zero, none past h^order."""
    out = NCElement.__new__(NCElement)
    out.context = context
    out.terms = terms
    out.order = order
    return out


def _truncated(context, terms, order):
    """The element of these terms through h^order, higher powers dropped."""
    t = {}
    for w, c in terms.items():
        if c.max_power() > order:
            c = c.truncate(order)
            if not c:
                continue
        t[w] = c
    return _raw_element(context, t, order)


def _min_order(a, b):
    """The lower of two orders, None standing for exact."""
    if a is None or (b is not None and b < a):
        return b
    return a


def _low(el):
    """The lowest power of h in el if it is negative, else 0; a zero known
    through h^t is O(h^(t+1)) as a whole."""
    if not el.terms:
        return 0 if el.order is None else min(el.order + 1, 0)
    return min(0, *(c.min_power() for c in el.terms.values()))


def _product_order(order_x, low_x, order_y, low_y):
    """The order through which a product is known, for factors known through
    order_x and order_y (None: exact) with the lows (_low) low_x and low_y:
    each factor's error O(h^(t+1)) meets the other's lowest power, so h^-1
    times O(h^(t+1)) is O(h^t)."""
    return _min_order(None if order_x is None else order_x + low_y,
                      None if order_y is None else order_y + low_x)


def _mul_terms(left, right, order):
    """The terms of a product through h^order (all of them when None), the
    product rule in one place: left is a dict word -> coefficient, right
    (word, coefficient) items.  Words join slot by slot; pairs are summed in
    order, dropping zero sums, and a pair with no power of h through
    h^order is not formed."""
    t = {}
    for w1, c1 in left.items():
        for w2, c2 in right:
            c = c1.mul_through(c2, order)
            if not c:
                continue
            w = tuple(map(add, w1, w2))
            old = t.get(w)
            nc = c if old is None else old + c
            if nc:
                t[w] = nc
            else:
                t.pop(w, None)
    return t


def _word_sort_key(w):
    return (sum(abs(p) for s in w for _, p in s), w)


def word_label(p, sw):
    """The slot word sw of p as text: its letters joined by '*', a power
    other than 1 written as ^power; '1' for the empty word."""
    return "*".join(p.gens[gi].label() + ("" if power == 1 else f"^{power}")
                    for gi, power in sw) or "1"


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------


def _find_redex(word, pres_list, s=0, i=0):
    """First reducible position (slot, pos) from letter i of slot s on: the
    same grouplike generator twice, or a digram out of PBW order.  None if
    the word is normal-ordered from there."""
    for s in range(s, len(word)):
        sw = word[s]
        p = pres_list[s]
        for i in range(i, len(sw) - 1):
            g1, g2 = sw[i][0], sw[i + 1][0]
            if g1 > g2 or (g1 == g2 and p.gens[g1].grouplike):
                return (s, i)
        i = 0
    return None


def rewrite_digram(p, sw, i):
    """Rewrite the digram at letters i, i+1 of the slot word sw once: merge
    E^a E^b -> E^(a+b), or swap Y X -> X Y and add the rule's corrections.

    Returns (leading slot word, [(slot word, coefficient), ...]); the leading
    word has coefficient 1.  Grouplike powers scale the declared unit rule."""
    (g1, p1), (g2, p2) = sw[i], sw[i + 1]
    head, tail = sw[:i], sw[i + 2:]
    gl1, gl2 = p.gens[g1].grouplike, p.gens[g2].grouplike
    if g1 == g2 and gl1:
        tot = p1 + p2
        return head + (((g1, tot),) if tot else ()) + tail, ()
    rule = p.rules.get((g1, g2))
    if rule is None:
        raise PresentationError(
            f"{p.name}: no rule for digram {p.gens[g1].label()}*{p.gens[g2].label()}")
    scale = (p1 if gl1 else 1) * (p2 if gl2 else 1)
    corrections = []
    for c, wtempl in rule:
        wcorr = tuple((gi, p1 if gl1 and gi == g1 else p2 if gl2 and gi == g2 else pw)
                      for gi, pw in wtempl)
        corrections.append((head + wcorr + tail, c if scale == 1 else c.scale(scale)))
    return head + ((g2, p2), (g1, p1)) + tail, corrections


def rewrite_once(p, sw, i):
    """The 1-slot element of rewrite_digram(p, sw, i)."""
    lead, corrections = rewrite_digram(p, sw, i)
    terms = {(lead,): H_ONE}
    for w, c in corrections:
        terms[(w,)] = terms.get((w,), H_ZERO) + c
    return NCElement(TensorContext((p,)), terms)


def normal_order(e, budget=None):
    """Unique PBW normal form of e; idempotent, linear, algebra-preserving.

    Like terms are summed before they are rewritten.  A term in normal
    form goes to the result; any other waits in a dict word -> [coefficient,
    paths, depth, redex], served first in, first out, and a term whose word
    is already waiting is added to it.  Normal form is linear, so each
    waiting word is rewritten once, for the sum of its terms.

    A swap whose rule has no correction (rules[(hi, lo)] == ()) does not
    wait: while a word's first redex is such a digram, its right-hand
    letter moves one place left, and the search for the next redex resumes
    a letter before the swap, since the letters before that are in order.
    A letter thus passes its whole run of greater letters it commutes with
    in one go.  These are the swaps leftmost rewriting makes one at a time,
    so the normal form is the same for any rules, confluent or not.  The
    moving word stops at a word already waiting and is added to it, so like
    terms still merge.

    The limits count what rewriting each term on its own, from a stack,
    would count.  `paths` is the number of terms a waiting word stands for.
    `budget` bounds the rewrite steps: each merge or swap, a swap of a run
    too, counts once for every path its word stands for, and the step that
    crosses the budget names its digram.  The pending-term limit counts
    paths as well, so a rule whose corrections copy their own digram trips
    it instead of growing one coefficient without bound.  `depth` is the most
    correction steps on one rewrite path to the word.  A stack keeps the
    lead word of each such step below its correction, so a term of depth d
    waits with at least d others, and the pending-term limit applies to the
    depth too: a cycle of corrections stops there.

    The normal form is known through e's order, less the rules' negative
    lowest power (if any) for each step of the deepest correction path."""
    budget = REWRITE_BUDGET if budget is None else budget
    pres_list = e.context.slots
    order = e.order
    deepest = steps = 0
    result = {}
    pending = {}
    # the input's terms that start with a swap without correction make it
    # here and arrive first, one path each, searched from letter 0; p is the
    # presentation of the word last rewritten, None when no rewrite made the
    # words arriving
    new = []
    for w, c in e.terms.items():
        loc = _find_redex(w, pres_list)
        if loc is None:
            result[w] = c
            continue
        s, i = loc
        sw = w[s]
        if pres_list[s].rules.get((sw[i][0], sw[i + 1][0])) != ():
            pending[w] = [c, 1, 0, loc]
            continue
        steps += 1
        if steps > budget:
            _diverged(pres_list[s], sw, i, "rewrite budget exceeded")
        new.append((w[:s] + (sw[:i] + (sw[i + 1], sw[i]) + sw[i + 2:],) + w[s + 1:], c, 0))
    queue = deque(pending)
    waiting = len(pending)
    paths = 1
    s = i = 0
    p = None
    while True:
        for w, c, d in new:
            # slot s is normal through letter i - 1, and so are earlier slots
            t, j = s, i - 1 if i else 0
            while True:
                entry = pending.get(w)
                if entry is not None:
                    entry[0] += c
                    entry[1] += paths
                    if d > entry[2]:
                        entry[2] = d
                    waiting += paths
                    break
                loc = _find_redex(w, pres_list, t, j)
                if loc is None:
                    old = result.get(w)
                    nc = c if old is None else old + c
                    if nc:
                        result[w] = nc
                    else:
                        del result[w]
                    if d > deepest:
                        deepest = d
                    break
                t, j = loc
                tw = w[t]
                if pres_list[t].rules.get((tw[j][0], tw[j + 1][0])) != ():
                    pending[w] = [c, paths, d, loc]
                    queue.append(w)
                    waiting += paths
                    break
                # a swap with no correction is made here, not queued
                steps += paths
                if steps > budget:
                    _diverged(pres_list[t], tw, j, "rewrite budget exceeded")
                w = w[:t] + (tw[:j] + (tw[j + 1], tw[j]) + tw[j + 2:],) + w[t + 1:]
                if j:
                    j -= 1
        if p is not None and (waiting > MAX_PENDING_TERMS or depth >= MAX_PENDING_TERMS):
            _diverged(p, sw, i, f"pending-term limit {MAX_PENDING_TERMS} exceeded")
        if not queue:
            break
        word = queue.popleft()
        coeff, paths, depth, (s, i) = pending.pop(word)
        waiting -= paths
        if not coeff:
            new, p = (), None
            continue
        sw = word[s]
        p = pres_list[s]
        steps += paths
        if steps > budget:
            _diverged(p, sw, i, "rewrite budget exceeded")
        lead, corrections = rewrite_digram(p, sw, i)
        head, tail = word[:s], word[s + 1:]
        new = [(head + (lead,) + tail, coeff, depth)]
        for nsw, c in corrections:
            if len(nsw) > MAX_WORD_LENGTH:
                _diverged(p, sw, i, f"word length limit {MAX_WORD_LENGTH} exceeded")
            c = coeff.mul_through(c, order)
            if c:
                new.append((head + (nsw,) + tail, c, depth + 1))
    floor = _rule_floor(e.context) if order is not None and deepest else 0
    if floor:
        return _truncated(e.context, result, order + deepest * floor)
    return _raw_element(e.context, result, order)


def _rule_floor(context):
    """The negative lowest power of h in the context's rules, else 0."""
    return min(0, *(p.rule_h_floor() or 0 for p in set(context.slots)))


def _diverged(p, sw, i, what):
    g1 = p.gens[sw[i][0]].label()
    g2 = p.gens[sw[i + 1][0]].label()
    raise DivergenceError(f"{what} at digram {g1}*{g2} in {p.name}")


class BracketTable:
    """Normal forms of word brackets w1*w2 - w2*w1 in one tensor context; a
    commutator reads and fills it.  Word brackets carry unit coefficients,
    so they are exact and hold for any coefficients: one table serves every
    commutator of a computation in its context, and is dropped with it.

    `pairs` is keyed by the word pair and `forms` by the two concatenated
    words, so pairs that concatenate alike, in either order, share one
    normal form."""

    __slots__ = ("context", "pairs", "forms", "__weakref__")

    def __init__(self, context):
        self.context = context
        self.pairs = {}  # (w1, w2) -> tuple of (word, exact HSeries)
        self.forms = {}  # (w1*w2, w2*w1) -> the same

    def bracket(self, w1, w2):
        """The terms of normal_order(w1*w2 - w2*w1), as a tuple of items."""
        key = (w1, w2)
        b = self.pairs.get(key)
        if b is not None:
            return b
        w12 = tuple(map(add, w1, w2))
        w21 = tuple(map(add, w2, w1))
        if w12 == w21:
            b = ()
        else:
            b = self.forms.get((w12, w21))
            if b is None:
                back = self.forms.get((w21, w12))
                b = _word_bracket(self.context, w12, w21) if back is None \
                    else tuple((w, -c) for w, c in back)
                self.forms[(w12, w21)] = b
        self.pairs[key] = b
        return b


def _word_bracket(context, w12, w21):
    """The terms of normal_order(w12 - w21), as a tuple of items."""
    diff = _raw_element(context, {w12: H_ONE, w21: -H_ONE}, None)
    return tuple(normal_order(diff).terms.items())


def commutator(x, y, *, table=None):
    """normal_order(x*y - y*x), summed over term pairs: normal form is linear
    and coefficients are central, so each pair adds c1*c2 times the normal
    form of its word bracket w1*w2 - w2*w1.  The product c1*c2 is formed once
    per pair, and not at all for a pair whose bracket is zero.  Brackets are
    looked up in `table` (a BracketTable of x's context) and added to it;
    without one, a table lives for this call only.  The result is known
    through the order of x*y, or is normal_order(x*y - y*x) itself when that
    order is lowered by rules with a negative power of h."""
    x._require_same_context(y)
    ctx = x.context
    if table is None:
        table = BracketTable(ctx)
    elif table.context != ctx:
        raise PresentationError(
            f"bracket table of {table.context!r} read for {ctx!r}")
    order = _product_order(x.order, _low(x), y.order, _low(y))
    if order is not None and _rule_floor(ctx):
        return normal_order(x * y - y * x)
    bracket = table.bracket
    out = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            b = bracket(w1, w2)
            if not b:
                continue
            c = c1.mul_through(c2, order)
            for w, bc in b:
                term = c.mul_through(bc, order)
                old = out.get(w)
                nc = term if old is None else old + term
                if nc:
                    out[w] = nc
                else:
                    out.pop(w, None)
    return _raw_element(ctx, out, order)


# ---------------------------------------------------------------------------
# substitution and series expansion of grouplike generators
# ---------------------------------------------------------------------------


def _letter_factor(img):
    """An image prepared for the product loop: the word itself when the image
    is exact and a single word with coefficient 1, else the list [its
    (word, coefficient) items, its order, its low (see _low)]."""
    if img.order is None and len(img.terms) == 1:
        (w, c), = img.terms.items()
        if c == H_ONE:
            return w
    return [list(img.terms.items()), img.order, _low(img)]


def extend_letterwise(e, target, slot_maps, reverse=False, order=None):
    """Extend maps given on generators letter by letter to the element e.

    slot_maps[s] says what becomes of source slot s: an int copies its words
    unchanged into that slot of the `target` context; a function
    (gen, power) -> NCElement in `target` gives each letter's image, and the
    images multiply in letter order, reversed for an anti-multiplicative
    map (reverse=True).  Each distinct (slot, gen, power) image is built and
    prepared once per call.  Each term's product runs over a plain dict of
    words: an exact image that is one word with coefficient 1 is appended to
    every word with the coefficients left alone (appending a fixed word is
    injective, so nothing merges); any other image goes through the shared
    pair loop.  The result is known through the least order of the terms'
    products, and with `order` through h^order at most; no product past it
    is formed.  Raw output (not normal-ordered)."""
    if order is not None:
        e = e.truncate(order)
    n = target.slot_count
    images = {}
    low = _low(e)
    orders = {e.order}
    out = {}
    for w, c in e.terms.items():
        base = [()] * n
        factors = []
        for s, sw in enumerate(w):
            m = slot_maps[s]
            if isinstance(m, int):
                base[m] = sw
                continue
            for gi, pw in (reversed(sw) if reverse else sw):
                f = images.get((s, gi, pw))
                if f is None:
                    f = images[(s, gi, pw)] = _letter_factor(m(gi, pw))
                factors.append(f)
        # each partial product is formed through its own order, which is all
        # the later factors can read of it
        t_order, t_low = e.order, low
        term = {tuple(base): c}
        for f in factors:
            if f.__class__ is tuple:
                term = {tuple(map(add, tw, f)): tc for tw, tc in term.items()}
            else:
                t_order = _product_order(t_order, t_low, f[1], f[2])
                t_low += f[2]
                term = _mul_terms(term, f[0], t_order)
        orders.add(t_order)
        for tw, tc in term.items():
            old = out.get(tw)
            nc = tc if old is None else old + tc
            if nc:
                out[tw] = nc
            else:
                out.pop(tw, None)
    known = min((o for o in orders if o is not None), default=None)
    if len(orders) > 1 and known is not None:
        return _truncated(target, out, known)
    return _raw_element(target, out, known)


def letter_power(img, k):
    """Image of a letter at power k from the image of its generator: the
    exponents of a single unit-coefficient word of grouplike letters are
    scaled (any integer k); any other image is multiplied by itself, which
    needs k >= 1."""
    if k == 1:
        return img
    if len(img.terms) == 1:
        (w, c), = img.terms.items()
        slots = img.context.slots
        if c == H_ONE and all(slots[s].gens[gi].grouplike
                              for s, sw in enumerate(w) for gi, _ in sw):
            scaled = tuple(tuple((gi, p * k) for gi, p in sw) for sw in w)
            return _raw_element(img.context, {scaled: H_ONE}, img.order)
    if k < 1:
        raise PresentationError(f"power {k} of the non-grouplike image {img.render()}")
    out = img
    for _ in range(k - 1):
        out = out * img
    return out


def table_images(table, source, target, what, slot_map=None):
    """Image function for extend_letterwise: the letter_power of table[gen],
    moved into `target` by slot_map (None: table values live in target)."""
    def image(gi, k):
        val = table.get(gi)
        if val is None:
            raise PresentationError(f"{source.name}: no {what} for {source.gens[gi].label()}")
        if slot_map is not None:
            val = val.place_in_slots(target, slot_map)
        return letter_power(val, k)

    return image


def h_expand(e, order):
    """Normal-ordered series expansion: every grouplike letter E^k replaced
    by its exponential series through h^order."""
    return normal_order(h_expand_raw(e, order))


def h_expand_raw(e, order):
    """Replace every grouplike letter E^k by its exponential series through
    h^order without normal ordering; the result is grouplike-free, known
    through h^order at most, and agrees with e under the exponential
    interpretation.  Every other letter's image is its own unit word, which
    extend_letterwise appends without a product; so an element with no
    grouplike letter is only truncated, and the same terms, in the same
    order, are returned without the letter-by-letter product."""
    if order < 0:
        raise ValueError("h_expand order must be >= 0")
    ctx = e.context
    slots = ctx.slots
    if not any(slots[s].gens[gi].grouplike
               for w in e.terms for s, sw in enumerate(w) for gi, _ in sw):
        return e.truncate(order)

    def series_in(s):
        p = ctx.slots[s]

        def image(gi, pw):
            if not p.gens[gi].grouplike:
                word = [()] * ctx.slot_count
                word[s] = ((gi, pw),)
                return NCElement(ctx, {tuple(word): H_ONE})
            log = p.grouplike_logs.get(gi)
            if log is None:
                raise PresentationError(
                    f"{p.name}: grouplike {p.gens[gi].label()} has no declared log")
            return _exp_series(log.place_in_slots(ctx, {0: s}), pw, order)

        return image

    maps = [series_in(s) for s in range(ctx.slot_count)]
    return extend_letterwise(e, ctx, maps, order=order)


def _exp_series(log_el, k, order):
    """exp(k * log_el) through h^order; log_el must carry h >= 1."""
    x = log_el.scale(Fraction(k)).truncate(order)
    out = power = NCElement.one(log_el.context).truncate(order)
    fact = 1
    j = 1
    while True:
        power = power * x
        if power.is_zero():
            break
        fact *= j
        out = out + power.scale(Fraction(1, fact))
        j += 1
        if j > order + 1:
            raise PresentationError("grouplike log does not raise h-degree; cannot expand")
    return out


def clone_presentation(p, name=None, rules=None, quotient="keep"):
    """Fresh presentation sharing p's generator table, with the rules and the
    quotient optionally replaced; p's Hopf data and grouplike logs are
    re-tagged so their contexts reference the clone."""
    q = Presentation(name or p.name, p.gens, params=p.params,
                     rules=dict(p.rules if rules is None else rules))
    if quotient == "keep":
        q.quotient = p.quotient
    elif quotient is not None:
        q.quotient = quotient
    ctx1 = TensorContext((q,))
    if p.hopf is not None:
        ctx2 = TensorContext((q, q))
        q.hopf = HopfData(
            {gi: NCElement(ctx2, el.terms) for gi, el in p.hopf.delta.items()},
            dict(p.hopf.counit),
            {gi: NCElement(ctx1, el.terms) for gi, el in p.hopf.antipode.items()},
        )
    q.grouplike_logs.update(
        {gi: NCElement(ctx1, el.terms) for gi, el in p.grouplike_logs.items()})
    q._validate()
    return q


# ---------------------------------------------------------------------------
# confluence (diamond lemma overlap check)
# ---------------------------------------------------------------------------


def confluence_triples(p):
    """All overlap triples (z, y, x) with sort z > y > x, including power -1
    variants of grouplike generators."""
    letters = []
    for gi, g in enumerate(p.gens):
        letters.append((gi, 1))
        if g.grouplike:
            letters.append((gi, -1))
    out = []
    for a in letters:
        for b in letters:
            for c in letters:
                if a[0] > b[0] > c[0]:
                    out.append((a, b, c))
    return out


def confluence_residual(p, triple):
    """Reduce z*y*x along both reduction paths; return the residual element:
    the normal form of the difference of the two first steps, (z,y) first
    minus (y,x) first, in which the words both paths share cancel before
    they are rewritten."""
    word = tuple(triple)
    return normal_order(rewrite_once(p, word, 0) - rewrite_once(p, word, 1))
