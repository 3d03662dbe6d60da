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

from fractions import Fraction

from .scalars import (
    CONSTANT_TYPES,
    H_ONE,
    H_ZERO,
    HSeries,
    Poly,
    RationalFn,
    as_gaussian,
    as_hseries,
)

_SCALAR_TYPES = CONSTANT_TYPES + (Poly, RationalFn, HSeries)


class PresentationError(ValueError):
    """Malformed presentation or element/presentation mismatch."""


class DivergenceError(RuntimeError):
    """Rewriting exceeded its step budget; names the offending digram."""


class LimitError(ValueError):
    """An engine limit: a rule coefficient has a pole at h = 0, or a quotient
    residual's R degree is beyond the orthogonality test's packed monomials."""


REWRITE_BUDGET = 2_000_000


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

    Currently one kind: a 3x3 orthogonality quotient R R^T = R^T R = I on a
    doubly indexed commuting family.  Equality modulo the quotient is decided
    exactly by a Groebner-basis normal form (see ``quotient.zero_mod_quotient``).
    """

    __slots__ = ("kind", "family", "gen_indices", "relations_text")

    def __init__(self, kind, family, gen_indices):
        self.kind = kind  # "orthogonal"
        self.family = family  # generator name, e.g. "R"
        self.gen_indices = gen_indices  # dict (i,j) -> gen_idx
        self.relations_text = [
            f"sum_k {family}[i,k]*{family}[j,k] = delta(i,j)",
            f"sum_k {family}[k,i]*{family}[k,j] = delta(i,j)",
        ]


class Presentation:
    """Finitely presented algebra with PBW order, oriented rewrite rules and
    optional Hopf data.  Immutable after construction."""

    def __init__(self, name, gens, params=(), rules=None, hopf=None,
                 grouplike_logs=None, quotient=None, star=None):
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
        self.hopf = hopf
        self.grouplike_logs = dict(grouplike_logs or {})
        self.quotient = quotient
        self.star = dict(star or {})
        self._validate()

    # -- construction helpers ---------------------------------------
    def gen_index(self, name, index=()):
        key = (name, tuple(index))
        if key not in self.by_key:
            raise PresentationError(f"unknown generator {name}{list(index)} in {self.name}")
        return self.by_key[key]

    def element(self, *termspec):
        """Build a 1-slot element from (coeff, [(name, index, power), ...]) specs."""
        ctx = TensorContext((self,))
        terms = {}
        for coeff, letters in termspec:
            word = []
            for name, index, power in letters:
                gi = self.gen_index(name, index)
                if self.gens[gi].grouplike:
                    word.append((gi, power))
                else:
                    word.extend((gi, 1) for _ in range(power))
            key = (tuple(word),)
            terms[key] = terms.get(key, H_ZERO) + as_hseries(coeff)
        return NCElement(ctx, terms)

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
    return a.kind == b.kind and a.family == b.family


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
    """Finite sum of (HSeries coefficient) * (per-slot ordered word)."""

    __slots__ = ("context", "terms")

    def __init__(self, context, terms=None):
        self.context = context
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
        return NCElement(context, {((),) * context.slot_count: as_hseries(c)})

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
        if isinstance(other, _SCALAR_TYPES):
            other = NCElement.scalar(self.context, other)
        self._require_same_context(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            nc = t.get(w, H_ZERO) + c
            if nc:
                t[w] = nc
            else:
                t.pop(w, None)
        out = NCElement.__new__(NCElement)
        out.context = self.context
        out.terms = t
        return out

    def __neg__(self):
        out = NCElement.__new__(NCElement)
        out.context = self.context
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            other = NCElement.scalar(self.context, other)
        return self + (-other)

    def scale(self, c):
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
            t = {}
            for w, v in self.terms.items():
                nv = v * c
                if nv:
                    t[w] = nv
        out = NCElement.__new__(NCElement)
        out.context = self.context
        out.terms = t
        return out

    def __mul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self.scale(other)
        self._require_same_context(other)
        n = self.context.slot_count
        t = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(w1[s] + w2[s] for s in range(n))
                c = c1 * c2
                old = t.get(w)
                nc = c if old is None else old + c
                if nc:
                    t[w] = nc
                else:
                    t.pop(w, None)
        out = NCElement.__new__(NCElement)
        out.context = self.context
        out.terms = t
        return out

    def __rmul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self.scale(other)
        return NotImplemented

    def truncate(self, order):
        return NCElement(self.context, {w: c.truncate(order) for w, c in self.terms.items()})

    def map_coeffs(self, f):
        return NCElement(self.context, {w: f(c) for w, c in self.terms.items()})

    def h_coefficient(self, k):
        """Element whose coefficients are the h^k parts (as exact scalars)."""
        t = {}
        for w, c in self.terms.items():
            v = c.coeff(k)
            if v:
                t[w] = HSeries({0: v})
        return NCElement(self.context, t)

    def max_h_power(self):
        mx = None
        for c in self.terms.values():
            p = c.max_power()
            if p is not None:
                mx = p if mx is None else max(mx, p)
        return mx

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
        return NCElement(TensorContext(tuple(slots)), t)

    def in_context(self, context):
        """Reinterpret in a wider/equal context (words padded with empty slots)."""
        n = context.slot_count
        m = self.context.slot_count
        if n < m:
            raise PresentationError("cannot shrink context")
        pad = ((),) * (n - m)
        return NCElement(context, {w + pad: c for w, c in self.terms.items()})

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
        return NCElement(context, t)

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
            words = []
            for s, sw in enumerate(w):
                p = self.context.slots[s]
                words.append("*".join(_letter_str(p, l) for l in sw) or "1")
            body = " (x) ".join(words) if len(words) > 1 else words[0]
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


def _word_sort_key(w):
    return (sum(abs(p) for s in w for _, p in s), w)


def _letter_str(p, letter):
    gi, power = letter
    lab = p.gens[gi].label()
    return lab if power == 1 else f"{lab}^{power}"


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------


def _find_redex(word, pres_list):
    """First reducible position (slot, pos): the same grouplike generator
    twice, or a digram out of PBW order.  None if word is normal-ordered."""
    for s, sw in enumerate(word):
        p = pres_list[s]
        for i in range(len(sw) - 1):
            (g1, p1), (g2, p2) = sw[i], sw[i + 1]
            if g1 > g2 or (g1 == g2 and p.gens[g1].grouplike):
                return (s, i)
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
    """Unique PBW normal form of e; idempotent, linear, algebra-preserving."""
    budget = REWRITE_BUDGET if budget is None else budget
    pres_list = e.context.slots
    result = {}
    stack = [(w, c) for w, c in e.terms.items()]
    steps = 0
    while stack:
        word, coeff = stack.pop()
        if not coeff:
            continue
        loc = _find_redex(word, pres_list)
        if loc is None:
            old = result.get(word)
            nc = coeff if old is None else old + coeff
            if nc:
                result[word] = nc
            else:
                result.pop(word, None)
            continue
        s, i = loc
        sw = word[s]
        p = pres_list[s]
        steps += 1
        if steps > budget:
            g1 = p.gens[sw[i][0]].label()
            g2 = p.gens[sw[i + 1][0]].label()
            raise DivergenceError(
                f"rewrite budget exceeded at digram {g1}*{g2} in {p.name}")
        lead, corrections = rewrite_digram(p, sw, i)
        stack.append((word[:s] + (lead,) + word[s + 1:], coeff))
        for nsw, c in corrections:
            stack.append((word[:s] + (nsw,) + word[s + 1:], coeff * c))
    return NCElement(e.context, result)


def commutator(x, y, budget=None):
    """normal_order(x*y - y*x)."""
    return normal_order(x * y - y * x, budget=budget)


# ---------------------------------------------------------------------------
# substitution and series expansion of grouplike generators
# ---------------------------------------------------------------------------


def extend_letterwise(e, target, slot_maps, reverse=False, order=None):
    """Extend maps given on generators letter by letter to the element e.

    slot_maps[s] says what becomes of source slot s: an int copies its words
    unchanged into that slot of the `target` context; a function
    (gen, power) -> NCElement in `target` gives each letter's image, and the
    images multiply in letter order, reversed for an anti-multiplicative
    map (reverse=True).  Each distinct (slot, gen, power) image is built
    once per call.  With `order`, every term's product is truncated at
    h^order before it is summed.  Raw output (not normal-ordered)."""
    n = target.slot_count
    images = {}
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
                img = images.get((s, gi, pw))
                if img is None:
                    img = images[(s, gi, pw)] = m(gi, pw)
                factors.append(img)
        term = NCElement(target, {tuple(base): c})
        for img in factors:
            if not term.terms:
                break
            term = term * img
        for tw, tc in term.terms.items():
            if order is not None:
                tc = tc.truncate(order)
            old = out.get(tw)
            nc = tc if old is None else old + tc
            if nc:
                out[tw] = nc
            else:
                out.pop(tw, None)
    return NCElement(target, out)


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
            return NCElement(img.context, {scaled: H_ONE})
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


def substitute(e, mapping, target):
    """Homomorphic image of e under gen -> NCElement (1-slot, in target).

    mapping keys are generator indices of the source presentation; every
    generator occurring in e must be mapped.  Negative powers of a grouplike
    generator need a single unit-coefficient grouplike word as its image."""
    ctx = TensorContext((target,) * e.context.slot_count)
    maps = [table_images(mapping, src, ctx, "image", {0: s})
            for s, src in enumerate(e.context.slots)]
    return normal_order(extend_letterwise(e, ctx, maps))


def h_expand(e, order, budget=None):
    """Normal-ordered series expansion: every grouplike letter E^k replaced
    by its exponential series through h^order."""
    return normal_order(h_expand_raw(e, order), budget=budget)


def h_expand_raw(e, order):
    """Replace every grouplike letter E^k by its exponential series through
    h^order without normal ordering; the result is grouplike-free with
    truncated coefficients and agrees with e under the exponential
    interpretation."""
    if order < 0:
        raise ValueError("h_expand order must be >= 0")
    ctx = e.context

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
    return extend_letterwise(e.truncate(order), ctx, maps, order=order)


def _exp_series(log_el, k, order):
    """exp(k * log_el) truncated at h^order; log_el must carry h >= 1."""
    x = log_el.scale(Fraction(k)).truncate(order)
    ctx = log_el.context
    out = NCElement.one(ctx).truncate(order)
    power = NCElement.one(ctx).truncate(order)
    fact = 1
    j = 1
    while True:
        power = (power * x).truncate(order)
        if power.is_zero():
            break
        fact *= j
        out = out + power.scale(Fraction(1, fact))
        j += 1
        if j > order + 1:
            raise PresentationError("grouplike log does not raise h-degree; cannot expand")
    return out


def clone_presentation(p, name=None, rules=None, quotient="keep", hopf="keep"):
    """Fresh presentation sharing p's generator table, with optional
    replacements; all stored Hopf/log elements are re-tagged so their
    contexts reference the clone."""
    q = Presentation(name or p.name, p.gens, params=p.params,
                     rules=dict(p.rules if rules is None else rules))
    if quotient == "keep":
        q.quotient = p.quotient
    elif quotient is not None:
        q.quotient = quotient
    if hopf == "keep" and p.hopf is not None:
        ctx1 = TensorContext((q,))
        ctx2 = TensorContext((q, q))
        q.hopf = HopfData(
            {gi: NCElement(ctx2, el.terms) for gi, el in p.hopf.delta.items()},
            dict(p.hopf.counit),
            {gi: NCElement(ctx1, el.terms) for gi, el in p.hopf.antipode.items()},
        )
    elif hopf != "keep" and hopf is not None:
        q.hopf = hopf
    ctx1 = TensorContext((q,))
    q.grouplike_logs.update(
        {gi: NCElement(ctx1, el.terms) for gi, el in p.grouplike_logs.items()})
    q.star.update(p.star)
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


def confluence_residual(p, triple, budget=None):
    """Reduce z*y*x along both reduction paths; return the residual element."""
    word = tuple(triple)
    path_a = normal_order(rewrite_once(p, word, 0), budget=budget)  # reduce (z,y) first
    path_b = normal_order(rewrite_once(p, word, 1), budget=budget)  # reduce (y,x) first
    return normal_order(path_a - path_b, budget=budget)
