"""Projective-representation calculus for the 2D quantum Galilei group:
normal-ordered exponential products with h-graded Baker-Campbell-Hausdorff
combination; builds the multiplier omega and verifies the cocycle equation,
the first-order solution, triviality probes, and the representation
composition law.

The tensor legs of the cocycle equation (Eq. 20) and of the composition law
(Eq. 19) are taken from the model's declared coproduct (hopf.apply_coproduct),
so a model with a different Delta(v), Delta(tau) or Delta(a) is checked
against its own declaration; no coproduct is typed out here.

Exponentials with O(1) exponents are never series-expanded as elements.
Every identity reduces to (i) equality of canonical exponent logs via BCH
and (ii) equality of polynomial tails.  BCH truncates because every 2D-group
commutator carries at least one power of h: a nested commutator of depth d
contributes at h-degree >= d, so through h^order only Lie words of weight
<= order+1 are generated.

The BCH coefficients are not hard-coded: for each weight n the homogeneous
component z_n of log(e^a e^b) is computed exactly in the free associative
algebra on two letters, and since z_n is a Lie element the Dynkin projection
rewrites it as (1/n) * sum_w c_w [[..[w_1,w_2],..],w_n] (left-normed
brackets), which is what gets evaluated on actual exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import duality, hopf, ncalg
from .cohom import PreparedSystem, lie_h2, render_wedge
from .duality import galilei_2d_matrix_model
from .ncalg import (
    BracketTable,
    NCElement,
    PresentationError,
    TensorContext,
    commutator,
)
from .report import Check, PASS, run_check
from .scalars import (
    GR_I,
    H_ZERO,
    HSeries,
    Poly,
    series_inverse_one_plus,
    series_log1p,
)

MAX_BCH_ORDER = 6
# largest degree n of psi = p^n and largest order rep_compose_check takes
MAX_REP_DEGREE = 4
MAX_REP_ORDER = 4


class OrderCapError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Dynkin-projected BCH plans
# ---------------------------------------------------------------------------

def _free_mul(p, q, cap):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            if len(w1) + len(w2) > cap:
                continue
            w = w1 + w2
            nc = out.get(w, Fraction(0)) + c1 * c2
            if nc:
                out[w] = nc
            else:
                out.pop(w, None)
    return out


@cache
def bch_plan(max_weight):
    """((weight, coeff, word), ...) with word a tuple over {0,1}; evaluating
    the left-normed bracket of each word (0 -> A, 1 -> B) scaled by coeff and
    summing reproduces log(e^A e^B) through Lie-word weight max_weight.  The
    plan is built once per weight and shared, so it is a tuple."""
    exp = {}
    for letter in (0, 1):
        e = {(): Fraction(1)}
        term = {(): Fraction(1)}
        for n in range(1, max_weight + 1):
            term = _free_mul(term, {(letter,): Fraction(1, n)}, max_weight)
            for w, c in term.items():
                e[w] = e.get(w, Fraction(0)) + c
        exp[letter] = e
    prod = _free_mul(exp[0], exp[1], max_weight)
    prod.pop((), None)  # P = e^a e^b - 1
    z = {}
    power = {(): Fraction(1)}
    for k in range(1, max_weight + 1):
        power = _free_mul(power, prod, max_weight)
        if not power:
            break
        sgn = Fraction((-1) ** (k + 1), k)
        for w, c in power.items():
            nc = z.get(w, Fraction(0)) + sgn * c
            if nc:
                z[w] = nc
            else:
                z.pop(w, None)
    # Dynkin projection: divide by the weight
    return tuple((len(w), z[w] / len(w), w) for w in sorted(z, key=lambda w: (len(w), w)))


def bch_combine_exponents(a, b, order, *, table=None):
    """log(e^A e^B) through h^order for exponents whose ad raises h-degree.
    The brackets read and fill `table`, a BracketTable of the exponents'
    context (a fresh one when None)."""
    if order > MAX_BCH_ORDER:
        raise OrderCapError(f"BCH order {order} exceeds the configured maximum "
                            f"{MAX_BCH_ORDER}")
    if table is None:
        table = BracketTable(a.context)
    letters = (a.truncate(order), b.truncate(order))
    brackets = {}  # word prefix -> its truncated left-normed bracket
    out = NCElement.zero(a.context)
    for n, coeff, word in bch_plan(order + 1):
        val = letters[word[0]]
        for k in range(2, n + 1):
            known = brackets.get(word[:k])
            if known is not None:
                val = known
                continue
            if not val.is_zero():
                val = commutator(val, letters[word[k - 1]], table=table)
            brackets[word[:k]] = val
        if not val.is_zero():
            out = out + val.scale(Fraction(coeff))
    return ncalg.normal_order(out).truncate(order)


def bch_combine_list(exponents, order):
    """log of a product of exponentials, combined left to right; the
    combinations share one table of word brackets."""
    acc = table = None
    for x in exponents:
        if acc is None:
            acc = x.truncate(order)
            table = BracketTable(acc.context)
        else:
            acc = bch_combine_exponents(acc, x, order, table=table)
    if acc is None:
        raise ValueError("empty exponential product has no log")
    return acc


# ---------------------------------------------------------------------------
# exponential factors and products
# ---------------------------------------------------------------------------


def _presentation_ad_h_floor(p):
    floor = p.rule_h_floor()
    return floor if floor is not None else 1


@dataclass
class ExpFactor:
    """One factor e^(exponent); exponent is a normal-ordered NCElement whose
    ad raises the h-grading by at least h_floor >= 1."""

    exponent: NCElement
    h_floor: int = 1

    def __post_init__(self):
        self.exponent = ncalg.normal_order(self.exponent)
        floors = [_presentation_ad_h_floor(p) for p in self.exponent.context.slots]
        self.h_floor = min(floors) if floors else 1
        if self.h_floor < 1:
            raise PresentationError(
                "ExpFactor needs every commutator of its presentation to carry h")


class ExpProduct:
    """Ordered product of exponential factors in a shared tensor context."""

    def __init__(self, factors):
        self.factors = list(factors)
        if not self.factors:
            raise ValueError("ExpProduct needs at least one factor")
        self.context = self.factors[0].exponent.context
        for f in self.factors[1:]:
            if f.exponent.context != self.context:
                raise PresentationError("ExpProduct factors in different contexts")

    def log(self, order):
        return bch_combine_list([f.exponent for f in self.factors], order)


def bch_combine(a, b, order):
    """Spec operation: ExpFactor x ExpFactor -> ExpFactor."""
    if a.exponent.context != b.exponent.context:
        raise PresentationError("bch_combine needs factors in one context")
    return ExpFactor(bch_combine_exponents(a.exponent, b.exponent, order))


# ---------------------------------------------------------------------------
# scalar series -> elements with v-words
# ---------------------------------------------------------------------------


def series_to_element(series, ctx, var_map, extra_word=None):
    """HSeries whose coefficients may contain mapped symbols -> NCElement.

    var_map: symbol name -> (slot, gen_idx); mapped symbols become generator
    powers in their slot, everything else stays in the coefficient.
    extra_word: optional per-slot word multiplied on the right."""
    n = ctx.slot_count
    if series.den.symbols() & set(var_map):
        raise ValueError("generator symbols in a denominator")
    # {word: the flat terms {(h power, rest of the monomial): coefficient}}
    parts = {}
    for (hp, mono), coeff in series.terms.items():
        word = [[] for _ in range(n)]
        rest = []
        for sym, e in mono:
            if sym in var_map:
                slot, gi = var_map[sym]
                word[slot].append((gi, e))
            else:
                rest.append((sym, e))
        key = []
        for s in range(n):
            sw = tuple((gi, 1) for gi, e in word[s] for _ in range(e))
            key.append(sw)
        if extra_word is not None:
            key = [a + b for a, b in zip(key, extra_word)]
        parts.setdefault(tuple(key), {})[(hp, tuple(rest))] = coeff
    return NCElement(ctx, {key: HSeries.from_terms(t) / series.den for key, t in parts.items()})


# ---------------------------------------------------------------------------
# the multiplier omega (Eqs. 25-31)
# ---------------------------------------------------------------------------


def _sym(name):
    return HSeries.const(Poly.var(name))


def tau_exponent_series(arg_square, order):
    """-(i/h) * ln(1 + h*arg_square/2) through h^order, with arg_square a
    scalar such as m*v^2 or p^2/m."""
    x = arg_square * HSeries({1: Fraction(1, 2)})
    lg = series_log1p(x, order + 1)
    return (lg * HSeries({-1: -GR_I})).truncate(order)


def a_exponent_series(arg, arg_square, order):
    """-i*arg / (1 + h*arg_square/2) through h^order."""
    inv = series_inverse_one_plus(arg_square * HSeries({1: Fraction(1, 2)}), order)
    return (inv.scale(arg) * HSeries.const(-GR_I)).truncate(order)


def _slot1_leg(group2d, series, gname):
    """series (x) gname in two group slots: the symbol v1 of the series
    becomes the generator v in slot 0, and the letter gname sits in slot 1."""
    ctx = TensorContext((group2d, group2d))
    var_map = {"v1": (0, group2d.gen_index("v"))}
    return series_to_element(series, ctx, var_map, ((), ((group2d.gen_index(gname), 1),)))


def build_omega(group2d, order):
    """The two-factor multiplier of Eq. 31 as an ExpProduct:

        omega = e^{-i kappa ln(1 + m v^2/2kappa) (x) tau}
                e^{(-i m v/(1 + m v^2/2kappa)) (x) a}

    slot 0 carries the v-words (symbol v1), slot 1 the tau/a letters.
    For m = 0 both exponents vanish and omega is the identity."""
    m = _sym("m")
    v2 = m * (_sym("v1") ** 2)
    texp = tau_exponent_series(v2, order)          # coefficient of (x) tau
    aexp = a_exponent_series(m * _sym("v1"), v2, order)  # coefficient of (x) a
    return ExpProduct([ExpFactor(_slot1_leg(group2d, texp, "tau").truncate(order)),
                       ExpFactor(_slot1_leg(group2d, aexp, "a").truncate(order))])


def omega_log_phi(group2d, order):
    """phi = -i log(omega): the multiplier exponent, h-graded (Eq. 26b)."""
    om = build_omega(group2d, order)
    lg = om.log(order)
    return lg.scale(HSeries.const(-GR_I))


def classical_phi0(group2d):
    """phi_0 = -m(v^2/2 (x) tau + v (x) a), Eq. 25, laid out as build_omega."""
    m = Poly.var("m")
    v = Poly.var("v1")
    series_tau = HSeries.const((m * v * v).scale(Fraction(-1, 2)))
    series_a = HSeries.const((m * v).scale(-1))
    return ncalg.normal_order(_slot1_leg(group2d, series_tau, "tau")
                              + _slot1_leg(group2d, series_a, "a"))


def eq30_equals_eq31(group2d, order):
    """Whether Eq. 30's single exponent equals the BCH log of Eq. 31's two
    factors through h^order (the reordering argument the paper omits)."""
    m = _sym("m")
    v1 = _sym("v1")
    texp = tau_exponent_series(m * v1 * v1, order)
    aexp = texp.scale(2) / v1
    el30 = ncalg.normal_order(_slot1_leg(group2d, texp, "tau")
                              + _slot1_leg(group2d, aexp, "a")).truncate(order)
    return el30 == build_omega(group2d, order).log(order)


# ---------------------------------------------------------------------------
# cocycle residual (Eq. 20)
# ---------------------------------------------------------------------------


def _three_slot_images(el):
    """The four 3-slot images of a 2-slot element that enter Eq. 20:
    el (x) I, I (x) el, (Delta (x) I) el and (I (x) Delta) el (raw), the
    last two by the model's coproduct."""
    ctx3 = TensorContext(el.context.slots + el.context.slots[:1])
    return (el.place_in_slots(ctx3, {0: 0, 1: 1}), el.place_in_slots(ctx3, {0: 1, 1: 2}),
            hopf.apply_coproduct(el, 0), hopf.apply_coproduct(el, 1))


def cocycle_residual(omega, order):
    """Z = log[((omega (x) I)(Delta (x) I)omega)^{-1} (I (x) omega)(I (x) Delta)omega]
    through h^order for a 2-slot ExpProduct omega; zero iff the multiplier
    equation Eq. 20 holds.  Each three-slot leg is an ExpFactor, which
    checks its h-floor."""
    images = [_three_slot_images(f.exponent) for f in omega.factors]
    legs = [[ExpFactor(i[k]).exponent for i in images] for k in range(4)]
    lhs, rhs = legs[0] + legs[2], legs[1] + legs[3]
    return bch_combine_list([-x for x in reversed(lhs)] + rhs, order)


# ---------------------------------------------------------------------------
# the phi_1 cohomological equation (Eqs. 27-28)
# ---------------------------------------------------------------------------


def phi1_residual(group2d, phi1_candidate):
    """LHS - RHS of the order-1/kappa multiplier equation, evaluated on the
    classical group (h -> 0 after the deformed commutators are taken):

      phi1 (x) I - I (x) phi1 + (Delta (x) I) phi1 - (I (x) Delta) phi1
        = (i kappa/2) ([I (x) phi0, (I (x) Delta) phi0]
                        - [phi0 (x) I, (Delta (x) I) phi0])

    The candidate must have classical (h-free) coefficients."""
    for c in phi1_candidate.terms.values():
        if c.min_power() not in (None, 0) or c.max_power() not in (None, 0):
            raise ValueError("phi1 candidate must have h-free coefficients")
    left, right, d_left, d_right = _three_slot_images(phi1_candidate)
    lhs = left - right + d_left - d_right
    p0_0, p0_1, d0, d1 = _three_slot_images(classical_phi0(group2d))
    comm = commutator(p0_1, d1) - commutator(p0_0, d0)
    rhs = ncalg.normal_order(comm).scale(HSeries({-1: GR_I * Fraction(1, 2)}))
    res = ncalg.normal_order(lhs - rhs)
    return res.h_coefficient(0)


def phi1_particular(group2d):
    """phi_1 = (-(1/4) m v^2 (x) I) phi_0, the h^1 coefficient of Eq. 28."""
    phi0 = classical_phi0(group2d)
    v_gi = group2d.gen_index("v")
    m = Poly.var("m")
    pref = NCElement(phi0.context, {
        (((v_gi, 1), (v_gi, 1)), ()): HSeries.const(m.scale(Fraction(-1, 4))),
    })
    return ncalg.normal_order(pref * phi0)


# ---------------------------------------------------------------------------
# triviality probe (Eq. 23, classical obstruction)
# ---------------------------------------------------------------------------


def triviality_probe(group2d, lie2d, omega2=None, order=1):
    """Project the h^0 multiplier cocycle onto H^2 of the classical 2D
    algebra; reports "nontrivial at classical order" (mass class) or
    "trivial".  Never claims full quantum nontriviality.  Returns
    (Check, class) with the class as {(i, j): coefficient}."""
    cls = {}

    def build():
        cls.update(_classical_class(group2d, lie2d, omega2, order))
        if not cls:
            return Check("triviality_probe", "Eq. 23", PASS,
                         detail="trivial at classical order (zero H2 class)")
        return Check("triviality_probe", "Eq. 23", PASS,
                     detail=f"nontrivial at classical order: class "
                            f"{render_wedge(lie2d.labels, cls)} "
                            f"(mass class; dim H2 = {lie_h2(lie2d).dimension}); quantum "
                            "nontriviality is not claimed by this probe")

    return run_check(build), cls


def _classical_class(group2d, lie2d, omega2, order):
    """The h^0 multiplier cocycle modulo classical coboundaries, paired in
    the 2D matrix model once it is checked to represent lie2d."""
    om = omega2 or build_omega(group2d, order)
    phi0 = om.log(order).scale(HSeries.const(-GR_I)).h_coefficient(0)
    model = galilei_2d_matrix_model()
    model.check_represents(lie2d)
    # infinitesimal antisymmetric part: w(X,Y) = <phi0, X (x) Y - Y (x) X>

    def coord_poly(word):
        out = Poly.const(1)
        for gi, p in word:
            out = out * Poly.var(group2d.gens[gi].label(), p)
        return out

    def pair2(x_lab, y_lab):
        total = H_ZERO
        for w, c in phi0.terms.items():
            p1 = duality.pair_word(model, coord_poly(w[0]), (x_lab,))
            if not p1:
                continue
            p2 = duality.pair_word(model, coord_poly(w[1]), (y_lab,))
            if not p2:
                continue
            total = total + c * p1 * p2
        return total

    # reduce modulo coboundaries: the coboundary space is spanned by rational
    # vectors; the symbolic cocycle is taken to zero at their pivot columns
    pairs = lie2d.pair_index()
    lab = lie2d.labels
    w = [pair2(lab[i], lab[j]) - pair2(lab[j], lab[i]) for (i, j) in pairs]
    cls = PreparedSystem(lie2d.coboundary_rows(), len(pairs)).reduce(w)
    return {pairs[k]: v for k, v in enumerate(cls) if v}


# ---------------------------------------------------------------------------
# the representation (Eq. 32) and its composition law (Eq. 19)
# ---------------------------------------------------------------------------


def rep_prefactor_series(order, shift=None):
    """Exponent coefficient series of Eq. 32's prefactors at momentum
    argument p (optionally shifted, p -> p - m*v_slot):

        That(p) = -i kappa ln(1 + p^2/2m kappa),  Ghat(p) = i p/(1 + p^2/2m kappa)

    which are the exponent series of omega at arg^2 = p^2/m and arg = -p.
    """
    p = _sym("p") if shift is None else shift
    p2_over_m = (p * p) / _sym("m")
    return tau_exponent_series(p2_over_m, order), a_exponent_series(-p, p2_over_m, order)


def rep_apply(group2d, n, order):
    """rho(p^n): (prefactor ExpProduct, polynomial tail (p - m v)^n), Eq. 32."""
    if n < 0 or order < 0:
        raise ValueError("rep_apply needs n >= 0 and order >= 0")
    ctx = TensorContext((group2d,))
    tau_gi = group2d.gen_index("tau")
    a_gi = group2d.gen_index("a")
    v_gi = group2d.gen_index("v")
    that, ghat = rep_prefactor_series(order)
    f_tau = ExpFactor(series_to_element(that, ctx, {}, (((tau_gi, 1),),)).truncate(order))
    f_a = ExpFactor(series_to_element(ghat, ctx, {}, (((a_gi, 1),),)).truncate(order))
    pre = ExpProduct([f_tau, f_a])
    # (p (x) I - I (x) m v)^n expands binomially (the two pieces commute)
    m = Poly.var("m")
    p = Poly.var("p")
    tail = NCElement.zero(ctx)
    binom = 1
    for k in range(n + 1):
        binom = 1
        for t in range(k):
            binom = binom * (n - t) // (t + 1)
        coeff = (p ** (n - k)) * ((m ** k).scale((-1) ** k)).scale(binom)
        word = (((v_gi, 1),) * k,)
        tail = tail + NCElement(ctx, {word: HSeries.const(coeff)})
    return pre, ncalg.normal_order(tail).truncate(order)


def rep_compose_check(group2d, degrees, order, omega="paper"):
    """Both sides of Eq. 19 on psi = p^n in two group slots, for each n in
    degrees; returns (log_residual, tail_differences), one tail difference
    per degree.  omega is "paper" (Eq. 31's multiplier) or "identity" (no
    multiplier).  The prefactor exponents never read n, so the log residual
    is built once for all degrees; the right-hand side takes them through
    the model's coproduct.  A degree above MAX_REP_DEGREE or an order above
    MAX_REP_ORDER raises OrderCapError."""
    degrees = list(degrees)
    if max(degrees, default=0) > MAX_REP_DEGREE or order > MAX_REP_ORDER:
        raise OrderCapError(f"rep_compose_check caps exceeded (n<={MAX_REP_DEGREE}, "
                            f"order<={MAX_REP_ORDER})")
    if omega not in ("paper", "identity"):
        raise ValueError(f"omega must be 'paper' or 'identity', not {omega!r}")
    ctx2 = TensorContext((group2d,) * 2)
    v_gi = group2d.gen_index("v")
    m = _sym("m")
    p = _sym("p")

    # LHS: U_b(p) in slot 0, then U_a(p - m v_0) in slot 1
    prefactors = [f.exponent for f in rep_apply(group2d, 0, order)[0].factors]
    that_s, ghat_s = rep_prefactor_series(order, shift=p - m * _sym("v1"))
    lhs_exps = [x.place_in_slots(ctx2, {0: 0}) for x in prefactors]
    lhs_exps += [_slot1_leg(group2d, that_s, "tau").truncate(order),
                 _slot1_leg(group2d, ghat_s, "a").truncate(order)]
    # RHS: omega in slots (0,1), then the coproducts of the prefactors
    rhs_exps = [f.exponent for f in build_omega(group2d, order).factors] \
        if omega == "paper" else []
    rhs_exps += [hopf.apply_coproduct(x, 0) for x in prefactors]

    seq = [(-x) for x in reversed(lhs_exps)] + rhs_exps
    log_residual = bch_combine_list(seq, order)

    # tails: (p - m v_0 - m v_1)^n on both sides, identical by construction;
    # recomputed independently on each side and compared
    def tail(vsyms, n):
        expr = p
        for vs in vsyms:
            expr = expr - m * _sym(vs)
        elem = series_to_element(expr ** n, ctx2, {"v1": (0, v_gi), "v2": (1, v_gi)})
        return ncalg.normal_order(elem).truncate(order)

    tail_diffs = [ncalg.normal_order(tail(("v1", "v2"), n) - tail(("v2", "v1"), n))
                  for n in degrees]
    return log_residual, tail_diffs
