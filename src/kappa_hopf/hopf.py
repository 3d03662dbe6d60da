"""Hopf structure maps extended from generators to all elements, plus the
axiom verifiers: bialgebra/Hopf axioms, Casimir centrality, cocommutator
extraction, classical limit, bicrossproduct and comodule reconstruction.

Two evaluation modes cross-check each other everywhere a formal grouplike
generator (E = e^{P0/2kappa}) is involved:

* formal: E is rewritten exactly by the presentation's digram rules;
* series: E is expanded through a truncation order h^N *before* any
  normal ordering, so the series path never touches an E rewrite rule.

Mode agreement is itself asserted as a check (the primary anti-bug oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ncalg import (
    NCElement,
    Presentation,
    PresentationError,
    LimitError,
    TensorContext,
    extend_letterwise,
    h_expand_raw,
    normal_order,
    rewrite_once,
    table_images,
)
from .quotient import zero_mod_quotient
from .report import Check, FAIL, INFO, PASS, run_check
from .scalars import H_ONE, H_ZERO, HSeries, as_hseries


# ---------------------------------------------------------------------------
# structure maps, extended letterwise (ncalg.extend_letterwise)
# ---------------------------------------------------------------------------


def _hopf_data(p):
    if p.hopf is None:
        raise PresentationError(f"{p.name} has no Hopf data")
    return p.hopf


def _copy_slots(n, skip, shift):
    """Slot maps copying every slot but `skip`; later slots move by shift."""
    return [s if s < skip else s + shift for s in range(n)]


def apply_coproduct(e, slot=0):
    """Multiplicative extension of the coproduct applied to one slot (raw)."""
    ctx = e.context
    p = ctx.slots[slot]
    nctx = TensorContext(ctx.slots[:slot] + (p, p) + ctx.slots[slot + 1:])
    maps = _copy_slots(ctx.slot_count, slot, 1)
    maps[slot] = table_images(_hopf_data(p).delta, p, nctx, "coproduct",
                              {0: slot, 1: slot + 1})
    return extend_letterwise(e, nctx, maps)


def apply_counit(e, slot=0):
    """Counit applied to one slot; the slot is removed (raw)."""
    ctx = e.context
    p = ctx.slots[slot]
    hopf = _hopf_data(p)
    if ctx.slot_count == 1:
        raise PresentationError("cannot drop the only slot; use scalar_part")
    nctx = TensorContext(ctx.slots[:slot] + ctx.slots[slot + 1:])
    values = {gi: NCElement.scalar(nctx, eps) for gi, eps in hopf.counit.items()}
    maps = _copy_slots(ctx.slot_count, slot, -1)
    maps[slot] = table_images(values, p, nctx, "counit")
    return extend_letterwise(e, nctx, maps)


def apply_antipode(e, slot=0):
    """Anti-multiplicative extension of the antipode on one slot (raw)."""
    ctx = e.context
    p = ctx.slots[slot]
    maps = _copy_slots(ctx.slot_count, slot, 0)
    maps[slot] = table_images(_hopf_data(p).antipode, p, ctx, "antipode", {0: slot})
    return extend_letterwise(e, ctx, maps, reverse=True)


def multiply_slots(e, s1, s2):
    """Multiplication map joining slot s2 onto slot s1 (words concatenate)."""
    if s1 >= s2:
        raise PresentationError("multiply_slots needs s1 < s2")
    ctx = e.context
    new_slots = ctx.slots[:s2] + ctx.slots[s2 + 1:]
    nctx = TensorContext(new_slots)
    t = {}
    for w, c in e.terms.items():
        lw = list(w)
        lw[s1] = lw[s1] + lw[s2]
        del lw[s2]
        key = tuple(lw)
        cur = t.get(key)
        t[key] = c if cur is None else cur + c
    return NCElement(nctx, t)


def apply_algebra_map(e, images, target_ctx):
    """Algebra-map image of a 1-slot element: every letter is replaced by
    images[gen_idx] (an element of target_ctx) at the letter's power
    (ncalg.letter_power).  Raw output."""
    image = table_images(images, e.context.slots[0], target_ctx, "image")
    return extend_letterwise(e, target_ctx, [image])


def coproduct(e, p=None):
    """Normal-ordered coproduct of a 1-slot element."""
    if p is not None and e.context.slots[0] is not p and e.context.slots[0] != p:
        raise PresentationError("element does not live in the given presentation")
    return normal_order(apply_coproduct(e, 0))


# ---------------------------------------------------------------------------
# residual evaluation in formal / series / both modes
# ---------------------------------------------------------------------------


@dataclass
class ModeResiduals:
    formal: NCElement | None = None
    series: NCElement | None = None
    modes_agree: bool | None = None
    _zero: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def mode_zero(self, mode, oracle=None):
        """Exact verdict on the `mode` residual modulo any quotient, decided
        at most once; an oracle cross-checks it when it is decided."""
        if mode not in self._zero:
            self._zero[mode] = zero_mod_quotient(getattr(self, mode), oracle=oracle)
        return self._zero[mode]

    def residual_zero(self):
        return all(self.mode_zero(m) for m in ("formal", "series")
                   if getattr(self, m) is not None)

    def render(self):
        parts = []
        if self.formal is not None and not self.formal.is_zero():
            parts.append(self.formal.render())
        if self.series is not None and not self.series.is_zero():
            parts.append("series: " + self.series.render())
        return " ; ".join(parts) if parts else "0"


def evaluate_raw(raw, mode, order, oracle=None):
    """Normalize a raw element along the requested evaluation path(s).

    With an oracle (quotient.PrefilterOracle), every residual's exact
    verdict is decided here and cross-checked by random substitution in F_p."""
    res = ModeResiduals()
    if mode in ("formal", "both"):
        res.formal = normal_order(raw)
    if mode in ("series", "both"):
        res.series = normal_order(h_expand_raw(raw, order))
    if mode == "both":
        expanded_formal = normal_order(h_expand_raw(res.formal, order))
        res.modes_agree = expanded_formal == res.series
    if oracle is not None:
        for m in ("formal", "series"):
            if getattr(res, m) is not None:
                res.mode_zero(m, oracle)
    return res


def _identity_check(check_id, anchor, raw_builder, mode="formal", order=4,
                    expect="zero", detail="", oracle=None):
    """One identity check: the residual raw_builder() must vanish; with
    expect="report" a nonzero residual is a finding, not a failure."""
    def build():
        res = evaluate_raw(raw_builder(), mode, order, oracle)
        ok = res.residual_zero()
        agree = res.modes_agree
        if agree is False:
            status = FAIL  # mode disagreement is always an engine-level failure
        elif expect == "zero":
            status = PASS if ok else FAIL
        else:
            status = PASS if ok else INFO
        d = detail
        if agree is False:
            d = (d + "; " if d else "") + "formal/series modes DISAGREE"
        elif agree is True:
            d = (d + "; " if d else "") + "modes agree"
        return Check(check_id, anchor, status,
                     residual=res.render(),
                     order=(order if mode in ("series", "both") else None),
                     detail=d)

    return run_check(build)


# ---------------------------------------------------------------------------
# bialgebra / Hopf axiom verification
# ---------------------------------------------------------------------------


def _rule_sides(p, hi, lo, hpow, lpow):
    """(lhs, rhs) elements of the oriented relation hi*lo = lo*hi + corr."""
    word = ((hi, hpow), (lo, lpow))
    return NCElement(TensorContext((p,)), {(word,): H_ONE}), rewrite_once(p, word, 0)


def _rule_variants(p, hi, lo):
    hs = [1, -1] if p.gens[hi].grouplike else [1]
    ls = [1, -1] if p.gens[lo].grouplike else [1]
    return [(a, b) for a in hs for b in ls]


def verify_bialgebra(p, order=4, mode="formal", expect="zero", oracle=None):
    """The five Hopf-axiom check families; returns a list of Checks.

    (a) Delta respects every rewrite rule, (b) coassociativity,
    (c) counit, (d) antipode axiom, (e) S respects rules as
    anti-homomorphism.  Residuals are decided modulo any quotient."""
    checks = []
    if p.hopf is None:
        raise PresentationError(f"{p.name} has no Hopf data")

    for (hi, lo), _ in sorted(p.rules.items()):
        for hpow, lpow in _rule_variants(p, hi, lo):
            lab = f"{_plab(p, hi, hpow)}*{_plab(p, lo, lpow)}"

            def raw_a(hi=hi, lo=lo, hp=hpow, lp=lpow):
                lhs, rhs = _rule_sides(p, hi, lo, hp, lp)
                return apply_coproduct(lhs - rhs, 0)

            checks.append(_identity_check(f"delta_respects[{lab}]", f"{p.name} relations",
                                          raw_a, mode, order, expect, oracle=oracle))

    if p.quotient is not None:
        checks.append(run_check(lambda: _quotient_coproduct_check(p, order, mode, oracle)))

    for gi, g in enumerate(p.gens):
        def raw_coassoc(gi=gi):
            d = apply_coproduct(_gen(p, gi), 0)
            return apply_coproduct(d, 0) - apply_coproduct(d, 1)

        checks.append(_identity_check(f"coassoc[{g.label()}]", f"{p.name} coproducts",
                                      raw_coassoc, mode, order, expect, oracle=oracle))

    for gi, g in enumerate(p.gens):
        def raw_counit(gi=gi):
            el = _gen(p, gi)
            d = apply_coproduct(el, 0)
            return (apply_counit(d, 0) - el) + (apply_counit(d, 1) - el)

        checks.append(_identity_check(f"counit[{g.label()}]", f"{p.name} counit",
                                      raw_counit, mode, order, expect, oracle=oracle))

    for gi, g in enumerate(p.gens):
        def raw_antipode(gi=gi):
            el = _gen(p, gi)
            d = apply_coproduct(el, 0)
            left = multiply_slots(apply_antipode(d, 0), 0, 1)
            right = multiply_slots(apply_antipode(d, 1), 0, 1)
            eps = p.hopf.counit[gi]
            unit = NCElement.scalar(TensorContext((p,)), eps)
            return (left - unit) + (right - unit)

        checks.append(_identity_check(f"antipode[{g.label()}]", f"{p.name} antipode",
                                      raw_antipode, mode, order, expect, oracle=oracle))

    for (hi, lo), _ in sorted(p.rules.items()):
        for hpow, lpow in _rule_variants(p, hi, lo):
            lab = f"{_plab(p, hi, hpow)}*{_plab(p, lo, lpow)}"

            def raw_e(hi=hi, lo=lo, hp=hpow, lp=lpow):
                lhs, rhs = _rule_sides(p, hi, lo, hp, lp)
                return apply_antipode(lhs - rhs, 0)

            checks.append(_identity_check(f"antipode_respects[{lab}]", f"{p.name} relations",
                                          raw_e, mode, order, expect, oracle=oracle))

    return checks


def _plab(p, gi, power):
    lab = p.gens[gi].label()
    return lab if power == 1 else f"{lab}^{power}"


def _gen(p, gi):
    return NCElement(TensorContext((p,)), {(((gi, 1),),): H_ONE})


def _quotient_coproduct_check(p, order, mode, oracle=None):
    """Delta must respect the orthogonality quotient relations."""
    q = p.quotient
    ctx = TensorContext((p,))
    bad = []
    for i in range(1, 4):
        for j in range(1, 4):
            for transposed in (False, True):
                el = NCElement.zero(ctx)
                for k in range(1, 4):
                    a = q.gen_indices[(i, k) if not transposed else (k, i)]
                    b = q.gen_indices[(j, k) if not transposed else (k, j)]
                    el = el + NCElement(ctx, {(((min(a, b), 1), (max(a, b), 1)),): H_ONE})
                if i == j:
                    el = el - NCElement.one(ctx)
                raw = apply_coproduct(el, 0)
                res = evaluate_raw(raw, mode, order, oracle)
                if not res.residual_zero():
                    bad.append((i, j, transposed))
    status = PASS if not bad else FAIL
    return Check("delta_respects[orthogonality]", f"{p.name} implied R relations",
                 status, residual="0" if not bad else f"failing entries {bad}",
                 detail="R Rt = Rt R = I, flagged implied (not printed)")


# ---------------------------------------------------------------------------
# Casimir centrality
# ---------------------------------------------------------------------------


def verify_casimir(c, p, order=4, mode="formal", expect="zero", name="C",
                   oracle=None):
    checks = []
    for gi, g in enumerate(p.gens):
        def raw(gi=gi):
            el = _gen(p, gi)
            return c * el - el * c

        checks.append(_identity_check(f"casimir[{name},{g.label()}]", "Eq. 2",
                                      raw, mode, order, expect, oracle=oracle))
    return checks


# ---------------------------------------------------------------------------
# cocommutator (classical shadow of the deformation)
# ---------------------------------------------------------------------------


class Wedge:
    """Antisymmetric 2-slot element sum c_ab a^b (a wedge b), a < b in PBW
    order, with exact scalar coefficients."""

    def __init__(self, element):
        swapped = element.swap_slots(0, 1)
        if not normal_order(element + swapped).is_zero():
            raise ValueError("Wedge element is not antisymmetric under slot swap")
        self.element = element
        half = Fraction(1, 2)
        self.pairs = {}
        for w, coeff in element.terms.items():
            if len(w) != 2 or any(len(sw) != 1 for sw in w):
                raise ValueError("Wedge supports generator wedge generator only")
            (a, _), (b, _) = w[0][0], w[1][0]
            # a (x) b and -b (x) a each contribute half of the a^b coefficient
            if a < b:
                self.pairs[(a, b)] = self.pairs.get((a, b), H_ZERO) + coeff.scale(half)
            elif a > b:
                self.pairs[(b, a)] = self.pairs.get((b, a), H_ZERO) - coeff.scale(half)
        self.pairs = {k: v for k, v in self.pairs.items() if v}

    def is_zero(self):
        return not self.pairs

    def render(self, p):
        if not self.pairs:
            return "0"
        bits = []
        for (a, b) in sorted(self.pairs):
            c = self.pairs[(a, b)]
            cs = str(c)
            body = f"{p.gens[a].label()}^{p.gens[b].label()}"
            if cs == "1":
                bits.append(body)
            elif cs == "-1":
                bits.append(f"-{body}")
            else:
                needs_par = any(ch in cs for ch in "+- ")
                bits.append(f"({cs})*{body}" if needs_par else f"{cs}*{body}")
        return " + ".join(bits).replace("+ -", "- ")

    def __eq__(self, other):
        if not isinstance(other, Wedge):
            return NotImplemented
        return self.pairs == other.pairs


def cocommutator(p, gen_key, higher_order=1):
    """sigma(g): h^1 part of (Delta - tau.Delta)(g); the classical Wedge.

    Returns (wedge, info) where info carries any higher-order antisymmetric
    parts (informational only)."""
    gi = p.gen_index(*gen_key) if isinstance(gen_key, tuple) else p.gen_index(gen_key)
    el = _gen(p, gi)
    d_raw = apply_coproduct(el, 0)
    order = max(1, higher_order)
    d = normal_order(h_expand_raw(d_raw, order))
    anti = normal_order(d - d.swap_slots(0, 1))
    wedge = Wedge(anti.h_coefficient(1))
    info = {}
    for k in range(2, order + 1):
        part = anti.h_coefficient(k)
        if not part.is_zero():
            info[k] = part
    return wedge, info


def wedge_from_pairs(p, pairs):
    """Build a Wedge from {(gen_key_a, gen_key_b): coefficient}."""
    ctx = TensorContext((p, p))
    el = NCElement.zero(ctx)
    for (ka, kb), c in pairs.items():
        a = p.gen_index(*ka)
        b = p.gen_index(*kb)
        c = as_hseries(c)
        el = el + NCElement(ctx, {(((a, 1),), ((b, 1),)): c})
        el = el - NCElement(ctx, {(((b, 1),), ((a, 1),)): c})
    return Wedge(el)


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------


def classical_element(e, target, index_map):
    """h -> 0, grouplike letters -> 1; words re-indexed into target."""
    n = e.context.slot_count
    ctx = TensorContext((target,) * n)
    t = {}
    for w, c in e.terms.items():
        if c.has_negative_powers():
            raise LimitError(f"pole at h=0 in coefficient {c}")
        c0 = c.coeff(0)
        if not c0:
            continue
        nw = []
        for sw in w:
            nsw = []
            for gi, p in sw:
                if gi in index_map:
                    nsw.append((index_map[gi], p))
                # grouplike letters drop (E -> 1)
            nw.append(tuple(nsw))
        key = tuple(nw)
        cur = t.get(key)
        add = HSeries({0: c0})
        t[key] = add if cur is None else cur + add
    return NCElement(ctx, t)


def classical_limit(p, name=None):
    """Presentation at h = 0 (grouplike generators become 1)."""
    from .ncalg import GenDecl, HopfData as HD

    keep = [gi for gi, g in enumerate(p.gens) if not g.grouplike]
    index_map = {gi: i for i, gi in enumerate(keep)}
    gens = [GenDecl(p.gens[gi].name, p.gens[gi].index) for gi in keep]
    target = Presentation(name or f"{p.name}_classical", gens, params=p.params)

    rules = {}
    for (hi, lo), corr in p.rules.items():
        if hi not in index_map or lo not in index_map:
            continue
        ncorr = []
        for c, wt in corr:
            if c.has_negative_powers():
                raise LimitError(f"pole at h=0 in rule {p.gens[hi].label()}*{p.gens[lo].label()}")
            c0 = c.coeff(0)
            if not c0:
                continue
            nw = tuple((index_map[gi], pw) for gi, pw in wt if gi in index_map)
            ncorr.append((HSeries({0: c0}), nw))
        rules[(index_map[hi], index_map[lo])] = tuple(ncorr)

    hopf = None
    if p.hopf is not None:
        delta, counit, antipode = {}, {}, {}
        for gi in keep:
            delta[index_map[gi]] = classical_element(p.hopf.delta[gi], target, index_map)
            eps = p.hopf.counit[gi]
            if eps.has_negative_powers():
                raise LimitError("pole at h=0 in counit")
            counit[index_map[gi]] = HSeries({0: eps.coeff(0)})
            antipode[index_map[gi]] = classical_element(p.hopf.antipode[gi], target, index_map)
        hopf = HD(delta, counit, antipode)

    quotient = None
    if p.quotient is not None:
        from .ncalg import QuotientSpec
        quotient = QuotientSpec(p.quotient.kind, p.quotient.family,
                                {ij: index_map[gi] for ij, gi in p.quotient.gen_indices.items()})

    return Presentation(target.name, gens, params=p.params, rules=rules,
                        hopf=hopf, quotient=quotient)


# ---------------------------------------------------------------------------
# bicrossproduct reconstruction
# ---------------------------------------------------------------------------


@dataclass
class BicrossData:
    """Everything needed to verify a bicrossproduct reconstruction.

    u_embed / t_embed send factor generators to elements of the total
    presentation; action values live in the factor named by
    action_codomain; the coaction sends generators of coacted_factor to
    2-slot elements of (u_factor, t_factor)."""

    name: str
    total: Presentation
    u_factor: Presentation
    t_factor: Presentation
    u_embed: dict
    t_embed: dict
    action: dict          # (x_idx in acting-side key space) -> see action_codomain
    action_codomain: str  # "t": U acts on T (algebra side); "u": T* acts on C(E3)
    coaction: dict        # gen_idx (of coacted factor) -> NCElement (u_factor (x) t_factor)
    coacted_factor: str   # "u" or "t"
    coaction_missing: str  # "one_otimes_x" or "x_otimes_one"


def _embed_elem(e, embed, total):
    ctx = TensorContext((total,))
    return normal_order(apply_algebra_map(e, embed, ctx))


def _embed_elem2(e, u_embed, t_embed, total, factors):
    """Map a 2-slot (factor x factor) element into total (x) total."""
    ctx2 = TensorContext((total, total))
    emb = {"u": u_embed, "t": t_embed}
    maps = [table_images(emb[f], e.context.slots[s], ctx2, "embedding", {0: s})
            for s, f in enumerate(factors)]
    return extend_letterwise(e, ctx2, maps)


def verify_bicross(b, order=4, mode="formal", expect="zero", oracle=None):
    """Checks (a) factor relations transform correctly, (b) cross-commutators
    equal the action, (c) coproducts match the bicrossproduct assembly."""
    checks = []
    total = b.total

    for side, factor, embed in (("u", b.u_factor, b.u_embed), ("t", b.t_factor, b.t_embed)):
        for (hi, lo), _ in sorted(factor.rules.items()):
            for hpow, lpow in _rule_variants(factor, hi, lo):
                lab = f"{_plab(factor, hi, hpow)}*{_plab(factor, lo, lpow)}"

                def raw(hi=hi, lo=lo, hp=hpow, lp=lpow, factor=factor, embed=embed):
                    lhs, rhs = _rule_sides(factor, hi, lo, hp, lp)
                    return apply_algebra_map(lhs - rhs, embed, TensorContext((total,)))

                checks.append(_identity_check(
                    f"{b.name}:factor_relation[{side}:{lab}]", "Eqs. 5-6 / 15",
                    raw, mode, order, expect, oracle=oracle))

    act_embed = b.t_embed if b.action_codomain == "t" else b.u_embed
    for (xi, yi), val in sorted(b.action.items()):
        xlab = b.u_factor.gens[xi].label()
        ylab = b.t_factor.gens[yi].label()

        def raw(xi=xi, yi=yi, val=val):
            x = _embed_elem(_gen(b.u_factor, xi), b.u_embed, total)
            y = _embed_elem(_gen(b.t_factor, yi), b.t_embed, total)
            expected = apply_algebra_map(val, act_embed, TensorContext((total,)))
            return (x * y - y * x) - expected

        checks.append(_identity_check(f"{b.name}:action[{xlab},{ylab}]", "Eq. 7 / Eq. 16",
                                      raw, mode, order, expect, oracle=oracle))

    # (c) coproduct assembly
    for side, factor, embed in (("u", b.u_factor, b.u_embed), ("t", b.t_factor, b.t_embed)):
        coacted = (side == b.coacted_factor)
        for gi, g in enumerate(factor.gens):
            def raw(gi=gi, factor=factor, embed=embed, coacted=coacted):
                emb1 = _embed_elem(_gen(factor, gi), embed, total)
                lhs = apply_coproduct(emb1, 0)
                if coacted:
                    beta = b.coaction[gi]
                    assembled = _embed_elem2(beta, b.u_embed, b.t_embed, total, ("u", "t"))
                    ctx2 = TensorContext((total, total))
                    if b.coaction_missing == "one_otimes_x":
                        assembled = assembled + emb1.place_in_slots(ctx2, {0: 1})
                    else:
                        assembled = assembled + emb1.place_in_slots(ctx2, {0: 0})
                else:
                    dfac = apply_coproduct(_gen(factor, gi), 0)
                    assembled = _embed_elem2(dfac, embed, embed, total, (side, side))
                return lhs - assembled

            checks.append(_identity_check(
                f"{b.name}:coproduct[{side}:{g.label()}]", "Eqs. 4-7 / 14-16",
                raw, mode, order, expect, oracle=oracle))

    return checks


# ---------------------------------------------------------------------------
# spacetime comodule
# ---------------------------------------------------------------------------


def verify_comodule(spacetime, group, action, order=4, mode="formal", expect="zero",
                    oracle=None):
    """Covariance of the group coaction on kappa-Galilean spacetime.

    action: gen_idx (spacetime) -> NCElement in (group (x) spacetime)."""
    checks = []
    ctx2 = TensorContext((group, spacetime))

    for (hi, lo), _ in sorted(spacetime.rules.items()):
        lab = f"{spacetime.gens[hi].label()}*{spacetime.gens[lo].label()}"

        def raw(hi=hi, lo=lo):
            lhs, rhs = _rule_sides(spacetime, hi, lo, 1, 1)
            return apply_algebra_map(lhs - rhs, action, ctx2)

        checks.append(_identity_check(f"comodule:covariance[{lab}]", "Eqs. 17-18",
                                      raw, mode, order, expect, oracle=oracle))

    for gi, g in enumerate(spacetime.gens):
        def raw_coassoc(gi=gi):
            beta = action[gi]
            lhs = apply_coproduct(beta, 0)  # (group, group, spacetime)
            # (id (x) beta) beta: the new group copy is the second slot
            ctx3 = TensorContext((group, group, spacetime))
            coaction = table_images(action, spacetime, ctx3, "coaction", {0: 1, 1: 2})
            return lhs - extend_letterwise(beta, ctx3, [0, coaction])

        checks.append(_identity_check(f"comodule:coassoc[{g.label()}]", "Eq. 18",
                                      raw_coassoc, mode, order, expect, oracle=oracle))

    for gi, g in enumerate(spacetime.gens):
        def raw_counit(gi=gi):
            beta = action[gi]
            return apply_counit(beta, 0) - _gen(spacetime, gi)

        checks.append(_identity_check(f"comodule:counit[{g.label()}]", "Eq. 18",
                                      raw_counit, mode, order, expect, oracle=oracle))

    return checks
