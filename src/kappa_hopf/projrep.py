"""Projective-representation calculus for the 2D quantum Galilei group:
normal-ordered exponential products with h-graded Baker-Campbell-Hausdorff
combination and conjugation push-through; builds the multiplier omega and
verifies the cocycle equation, the first-order solution, triviality probes,
and the representation composition law.

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

from .cohom import lie_h2
from .duality import galilei_2d_matrix_model, pair_word
from .hopf import apply_coproduct
from .ncalg import (
    NCElement,
    PresentationError,
    TensorContext,
    commutator,
    normal_order,
)
from .report import Check, PASS, run_check
from .scalars import (
    GR_I,
    GR_ZERO,
    H_ONE,
    H_ZERO,
    HSeries,
    Poly,
    RationalFn,
    series_inverse_one_plus,
    series_log1p,
)

MAX_BCH_ORDER = 6


class OrderCapError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Dynkin-projected BCH plans
# ---------------------------------------------------------------------------

_PLAN_CACHE = {}


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


def bch_plan(max_weight):
    """[(weight, coeff, word)] with word a tuple over {0,1}; evaluating the
    left-normed bracket of each word (0 -> A, 1 -> B) scaled by coeff and
    summing reproduces log(e^A e^B) through Lie-word weight max_weight."""
    if max_weight in _PLAN_CACHE:
        return _PLAN_CACHE[max_weight]
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
    plan = []
    for w in sorted(z, key=lambda w: (len(w), w)):
        n = len(w)
        plan.append((n, z[w] / n, w))  # Dynkin projection: divide by the weight
    _PLAN_CACHE[max_weight] = plan
    return plan


def bch_combine_exponents(a, b, order, budget=None):
    """log(e^A e^B) through h^order for exponents whose ad raises h-degree."""
    if order > MAX_BCH_ORDER:
        raise OrderCapError(f"BCH order {order} exceeds the configured maximum "
                            f"{MAX_BCH_ORDER}")
    letters = (a.truncate(order), b.truncate(order))
    brackets = {}  # word prefix -> its truncated left-normed bracket

    def bracket(word):
        val = brackets.get(word)
        if val is None:
            if len(word) == 1:
                val = letters[word[0]]
            else:
                val = bracket(word[:-1])
                if not val.is_zero():
                    val = commutator(val, letters[word[-1]],
                                     budget=budget).truncate(order)
            brackets[word] = val
        return val

    out = NCElement.zero(a.context)
    for n, coeff, word in bch_plan(order + 1):
        val = bracket(word)
        if not val.is_zero():
            out = out + val.scale(Fraction(coeff))
    return normal_order(out).truncate(order)


def bch_combine_list(exponents, order, budget=None):
    """log of a product of exponentials, combined left to right."""
    acc = None
    for x in exponents:
        acc = x.truncate(order) if acc is None else \
            bch_combine_exponents(acc, x, order, budget=budget)
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
        self.exponent = normal_order(self.exponent)
        floors = [_presentation_ad_h_floor(p) for p in self.exponent.context.slots]
        self.h_floor = min(floors) if floors else 1
        if self.h_floor < 1:
            raise PresentationError(
                "ExpFactor needs every commutator of its presentation to carry h")

    def inverse(self):
        return ExpFactor(-self.exponent)


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

    def __mul__(self, other):
        return ExpProduct(self.factors + other.factors)

    def inverse(self):
        return ExpProduct([f.inverse() for f in reversed(self.factors)])

    def log(self, order, budget=None):
        return bch_combine_list([f.exponent for f in self.factors], order,
                                budget=budget)


def bch_combine(a, b, order, budget=None):
    """Spec operation: ExpFactor x ExpFactor -> ExpFactor."""
    if a.exponent.context != b.exponent.context:
        raise PresentationError("bch_combine needs factors in one context")
    return ExpFactor(bch_combine_exponents(a.exponent, b.exponent, order,
                                           budget=budget))


def conjugate(e_factor, x, order, budget=None, cap=MAX_BCH_ORDER + 2):
    """e^A x e^-A = sum_d ad_A^d(x) / d!, finite by the h-grading."""
    if order > MAX_BCH_ORDER:
        raise OrderCapError(f"conjugation order {order} exceeds the cap")
    a = e_factor.exponent.truncate(order)
    term = normal_order(x).truncate(order)
    out = term
    fact = 1
    d = 0
    while not term.is_zero():
        d += 1
        if d > cap:
            raise OrderCapError("ad series failed to terminate within the cap")
        term = commutator(a, term, budget=budget).truncate(order)
        fact *= d
        if term.is_zero():
            break
        out = out + term.scale(Fraction(1, fact))
    return normal_order(out).truncate(order)


# ---------------------------------------------------------------------------
# scalar series -> elements with v-words
# ---------------------------------------------------------------------------


def series_to_element(series, ctx, var_map, extra_word=None):
    """HSeries whose coefficients may contain mapped symbols -> NCElement.

    var_map: symbol name -> (slot, gen_idx); mapped symbols become generator
    powers in their slot, everything else stays in the coefficient.
    extra_word: optional per-slot word multiplied on the right."""
    n = ctx.slot_count
    terms = {}
    for hp, rf in series.coeffs.items():
        if not rf.is_poly():
            den_syms = rf.den.symbols()
            if den_syms & set(var_map):
                raise ValueError("generator symbols in a denominator")
        num = rf.num
        den = rf.den
        for mono, coeff in num.terms.items():
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
            key = tuple(key)
            c = HSeries({hp: RationalFn(Poly({tuple(rest): coeff}), den)},
                        series.truncation)
            terms[key] = terms.get(key, H_ZERO) + c
    return NCElement(ctx, terms)


# ---------------------------------------------------------------------------
# the multiplier omega (Eqs. 25-31)
# ---------------------------------------------------------------------------


def _sym(name):
    return RationalFn(Poly.var(name))


def tau_exponent_series(arg_square, order):
    """-(i/h) * ln(1 + h*m*arg^2/2) through h^order, with arg^2 given as a
    polynomial scalar (e.g. v^2 or (p/m)^2 shapes)."""
    x = HSeries({1: arg_square.scale(Fraction(1, 2))})
    lg = series_log1p(x, order + 1)
    return (lg * HSeries({-1: RationalFn(Poly.const(-GR_I))})).truncate(order)


def a_exponent_series(arg, arg_square, order):
    """-i*arg / (1 + h*m*arg_like^2/2) shapes through h^order."""
    inv = series_inverse_one_plus(HSeries({1: arg_square.scale(Fraction(1, 2))}), order)
    return (inv.scale(arg) * HSeries.const(-GR_I)).truncate(order)


def build_omega(group2d, order, slots=(0, 1), total_slots=2, vsyms=("v1",)):
    """The two-factor multiplier of Eq. 31 as an ExpProduct:

        omega = e^{-i kappa ln(1 + m v^2/2kappa) (x) tau}
                e^{(-i m v/(1 + m v^2/2kappa)) (x) a}

    slot `slots[0]` carries the v-words, slot `slots[1]` the tau/a letters.
    For m = 0 both exponents vanish and omega is the identity."""
    ctx = TensorContext((group2d,) * total_slots)
    m = _sym("m")
    vsym = vsyms[0]
    v2 = m * (_sym(vsym) ** 2)
    texp = tau_exponent_series(v2, order)          # coefficient of (x) tau
    aexp = a_exponent_series(m * _sym(vsym), v2, order)  # coefficient of (x) a
    v_gi = group2d.gen_index("v")
    tau_gi = group2d.gen_index("tau")
    a_gi = group2d.gen_index("a")
    var_map = {vsym: (slots[0], v_gi)}

    def with_letter(series, gi):
        extra = [()] * total_slots
        extra[slots[1]] = ((gi, 1),)
        return series_to_element(series, ctx, var_map, tuple(extra))

    f_tau = ExpFactor(with_letter(texp, tau_gi))
    f_a = ExpFactor(with_letter(aexp, a_gi))
    return ExpProduct([f_tau, f_a])


def omega_log_phi(group2d, order):
    """phi = -i log(omega): the multiplier exponent, h-graded (Eq. 26b)."""
    om = build_omega(group2d, order)
    lg = om.log(order)
    return lg.scale(HSeries.const(-GR_I))


def classical_phi0(group2d, total_slots=2, slots=(0, 1), vsym="v1"):
    """phi_0 = -m(v^2/2 (x) tau + v (x) a), Eq. 25."""
    ctx = TensorContext((group2d,) * total_slots)
    m = Poly.var("m")
    v = Poly.var(vsym)
    series_tau = HSeries.const(RationalFn((m * v * v).scale(Fraction(-1, 2))))
    series_a = HSeries.const(RationalFn((m * v).scale(-1)))
    v_gi = group2d.gen_index("v")
    var_map = {vsym: (slots[0], v_gi)}

    def with_letter(series, gname):
        extra = [()] * total_slots
        extra[slots[1]] = ((group2d.gen_index(gname), 1),)
        return series_to_element(series, ctx, var_map, tuple(extra))

    return normal_order(with_letter(series_tau, "tau") + with_letter(series_a, "a"))


# ---------------------------------------------------------------------------
# cocycle residual (Eq. 20)
# ---------------------------------------------------------------------------


def _omega_factor_exponents_3slot(group2d, order):
    """Exponent data for the four products appearing in Eq. 20, with the
    coproduct applied inside coefficients (v is primitive, slot copies of v
    commute): returns (lhs_exponents, rhs_exponents), each a list of four."""
    ctx3 = TensorContext((group2d,) * 3)
    v_gi = group2d.gen_index("v")
    tau_gi = group2d.gen_index("tau")
    a_gi = group2d.gen_index("a")
    m = _sym("m")

    def texp_of(vexpr):
        return tau_exponent_series(m * vexpr * vexpr, order)

    def aexp_of(vexpr):
        return a_exponent_series(m * vexpr, m * vexpr * vexpr, order)

    v1 = _sym("v1")
    v2 = _sym("v2")
    vmap = {"v1": (0, v_gi), "v2": (1, v_gi)}

    def elem(series, extra):
        return ExpFactor(series_to_element(series, ctx3, vmap, extra))

    def letter(slot, gi):
        w = [(), (), ()]
        w[slot] = ((gi, 1),)
        return tuple(w)

    # (omega (x) I): slots (0,1); (Delta (x) I) omega: v -> v1+v2, second leg slot 2
    lhs = [
        elem(texp_of(v1), letter(1, tau_gi)),
        elem(aexp_of(v1), letter(1, a_gi)),
        elem(texp_of(v1 + v2), letter(2, tau_gi)),
        elem(aexp_of(v1 + v2), letter(2, a_gi)),
    ]
    # (I (x) omega): slots (1,2); (I (x) Delta) omega: second leg Delta
    delta_tau = NCElement(ctx3, {letter(1, tau_gi): H_ONE, letter(2, tau_gi): H_ONE})
    delta_a = NCElement(ctx3, {
        letter(1, a_gi): H_ONE,
        letter(2, a_gi): H_ONE,
        ((), ((v_gi, 1),), ((tau_gi, 1),)): H_ONE,
    })
    g3 = series_to_element(texp_of(v1), ctx3, vmap) * delta_tau
    g4 = series_to_element(aexp_of(v1), ctx3, vmap) * delta_a
    rhs = [
        elem(texp_of(v2), letter(2, tau_gi)),
        elem(aexp_of(v2), letter(2, a_gi)),
        ExpFactor(g3),
        ExpFactor(g4),
    ]
    return lhs, rhs


def cocycle_residual(omega, order, budget=None):
    """Z = log[((omega (x) I)(Delta (x) I)omega)^{-1} (I (x) omega)(I (x) Delta)omega]
    through h^order; zero iff the multiplier equation Eq. 20 holds.

    omega is a 2-slot ExpProduct (or a prepared (lhs, rhs) pair of 3-slot
    exponent-factor lists, used internally)."""
    if isinstance(omega, ExpProduct):
        return cocycle_residual_of_product(omega.context.slots[0], omega, order,
                                           budget=budget)
    lhs, rhs = omega
    seq = [f.inverse().exponent for f in reversed(lhs)] + [f.exponent for f in rhs]
    return bch_combine_list(seq, order, budget=budget)


def cocycle_residual_for_omega(group2d, order, mutate=None, budget=None):
    """Convenience: build Eq. 31's omega, optionally mutate the exponent
    lists, and return the Eq. 20 residual."""
    lhs, rhs = _omega_factor_exponents_3slot(group2d, order)
    if mutate is not None:
        lhs, rhs = mutate(lhs, rhs)
    return cocycle_residual((lhs, rhs), order, budget=budget)


def _three_slot_images(el):
    """The four 3-slot images of a 2-slot element that enter Eq. 20:
    el (x) I, I (x) el, (Delta (x) I) el and (I (x) Delta) el (raw)."""
    ctx3 = TensorContext(el.context.slots + el.context.slots[:1])
    return (el.place_in_slots(ctx3, {0: 0, 1: 1}), el.place_in_slots(ctx3, {0: 1, 1: 2}),
            apply_coproduct(el, 0), apply_coproduct(el, 1))


def cocycle_residual_of_product(group2d, omega2, order, budget=None):
    """Eq. 20 residual for an arbitrary 2-slot ExpProduct omega2 (used for
    equivalence-transformed multipliers)."""
    images = [_three_slot_images(f.exponent) for f in omega2.factors]
    lhs = [ExpFactor(i[0]) for i in images] + [ExpFactor(i[2]) for i in images]
    rhs = [ExpFactor(i[1]) for i in images] + [ExpFactor(i[3]) for i in images]
    return cocycle_residual((lhs, rhs), order, budget=budget)


# ---------------------------------------------------------------------------
# the phi_1 cohomological equation (Eqs. 27-28)
# ---------------------------------------------------------------------------


def phi1_residual(group2d, phi1_candidate, budget=None):
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
    comm = commutator(p0_1, d1, budget=budget) - commutator(p0_0, d0, budget=budget)
    rhs = normal_order(comm, budget=budget).scale(
        HSeries({-1: RationalFn(Poly.const(GR_I)).scale(Fraction(1, 2))}))
    res = normal_order(lhs - rhs, budget=budget)
    return res.h_coefficient(0)


def phi1_particular(group2d):
    """phi_1 = (-(1/4) m v^2 (x) I) phi_0, the h^1 coefficient of Eq. 28."""
    phi0 = classical_phi0(group2d)
    v_gi = group2d.gen_index("v")
    m = Poly.var("m")
    pref = NCElement(phi0.context, {
        (((v_gi, 1), (v_gi, 1)), ()): HSeries.const(RationalFn(m.scale(Fraction(-1, 4)))),
    })
    return normal_order(pref * phi0)


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
        lab = lie2d.labels
        rendered = " + ".join(f"({v})*{lab[i]}^{lab[j]}" for (i, j), v in sorted(cls.items()))
        return Check("triviality_probe", "Eq. 23", PASS,
                     detail=f"nontrivial at classical order: class {rendered} "
                            f"(mass class; dim H2 = {lie_h2(lie2d).dimension}); quantum "
                            "nontriviality is not claimed by this probe")

    return run_check(build), cls


def _classical_class(group2d, lie2d, omega2, order):
    """The h^0 multiplier cocycle modulo classical coboundaries."""
    om = omega2 or build_omega(group2d, order)
    phi0 = om.log(order).scale(HSeries.const(-GR_I)).h_coefficient(0)
    model = galilei_2d_matrix_model()
    # infinitesimal antisymmetric part: w(X,Y) = <phi0, X (x) Y - Y (x) X>

    def coord_poly(word):
        out = Poly.const(1)
        for gi, p in word:
            out = out * Poly.var(group2d.gens[gi].label(), p)
        return out

    def pair2(x_lab, y_lab):
        total = H_ZERO
        for w, c in phi0.terms.items():
            p1 = pair_word(model, coord_poly(w[0]), (x_lab,))
            if not p1:
                continue
            p2 = pair_word(model, coord_poly(w[1]), (y_lab,))
            if not p2:
                continue
            total = total + c * p1 * p2
        return total

    lie = lie2d
    pairs = lie.pair_index()
    lab = {i: lie.labels[i] for i in range(lie.dim)}
    wvec = {}
    for (i, j) in pairs:
        wij = pair2(lab[i], lab[j]) - pair2(lab[j], lab[i])
        if wij:
            wvec[(i, j)] = wij
    # reduce modulo coboundaries: the coboundary space is spanned by rational
    # vectors; eliminate their pivot components from the symbolic cocycle
    cob_rows = []
    pos = {p: k for k, p in enumerate(pairs)}
    for t in range(lie.dim):
        row = [GR_ZERO] * len(pairs)
        for (i, j) in pairs:
            c = lie.bracket(i, j).get(t)
            if c:
                row[pos[(i, j)]] = -c
        if any(row):
            cob_rows.append(row)
    sym = {pos[p]: v for p, v in wvec.items()}
    # row-reduce the coboundary basis, then eliminate
    reduced = []
    for row in cob_rows:
        row = list(row)
        for prow, ppos in reduced:
            if row[ppos]:
                f = row[ppos]
                row = [a - f * b for a, b in zip(row, prow)]
        piv = next((k for k, v in enumerate(row) if v), None)
        if piv is None:
            continue
        inv = row[piv].inverse()
        reduced.append(([x * inv for x in row], piv))
    for prow, ppos in reduced:
        f = sym.get(ppos)
        if f:
            for k, b in enumerate(prow):
                if b:
                    nv = sym.get(k, H_ZERO) - f.scale(b)
                    if nv:
                        sym[k] = nv
                    else:
                        sym.pop(k, None)
    return {pairs[k]: v for k, v in sym.items() if v}


# ---------------------------------------------------------------------------
# the representation (Eq. 32) and its composition law (Eq. 19)
# ---------------------------------------------------------------------------


def rep_prefactor_series(order, shift=None):
    """Exponent coefficient series of Eq. 32's prefactors at momentum
    argument p (optionally shifted, p -> p - m*v_slot):

        That(p) = -i kappa ln(1 + p^2/2m kappa),  Ghat(p) = i p/(1 + p^2/2m kappa)
    """
    m = _sym("m")
    p = _sym("p") if shift is None else shift
    p2_over_m = (p * p) / m
    x = HSeries({1: p2_over_m.scale(Fraction(1, 2))})
    lg = series_log1p(x, order + 1)
    that = (lg * HSeries({-1: RationalFn(Poly.const(-GR_I))})).truncate(order)
    inv = series_inverse_one_plus(x, order)
    ghat = (inv.scale(p) * HSeries.const(GR_I)).truncate(order)
    return that, ghat


def rep_apply(group2d, n, order):
    """rho(p^n): (prefactor ExpProduct, polynomial tail (p - m v)^n), Eq. 32."""
    if n < 0 or order < 0:
        raise ValueError("rep_apply needs n >= 0 and order >= 0")
    ctx = TensorContext((group2d,))
    tau_gi = group2d.gen_index("tau")
    a_gi = group2d.gen_index("a")
    v_gi = group2d.gen_index("v")
    that, ghat = rep_prefactor_series(order)
    f_tau = ExpFactor(series_to_element(that, ctx, {}, (((tau_gi, 1),),)))
    f_a = ExpFactor(series_to_element(ghat, ctx, {}, (((a_gi, 1),),)))
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
        coeff = RationalFn((p ** (n - k)) * ((m ** k).scale((-1) ** k)).scale(binom))
        word = (((v_gi, 1),) * k,)
        tail = tail + NCElement(ctx, {word: HSeries.const(coeff)})
    return pre, normal_order(tail).truncate(order)


def rep_compose_check(group2d, degrees, order, omega="paper", budget=None,
                      n_cap=4, order_cap=4):
    """Both sides of Eq. 19 on psi = p^n in two group slots, for each n in
    degrees; returns (log_residual, tail_differences), one tail difference
    per degree.  The prefactor exponents never read n, so the log residual
    is built once for all degrees."""
    degrees = list(degrees)
    if max(degrees, default=0) > n_cap or order > order_cap:
        raise OrderCapError(f"rep_compose_check caps exceeded (n<={n_cap}, "
                            f"order<={order_cap})")
    ctx2 = TensorContext((group2d,) * 2)
    v_gi = group2d.gen_index("v")
    tau_gi = group2d.gen_index("tau")
    a_gi = group2d.gen_index("a")
    m = _sym("m")
    p = _sym("p")

    def letter(slot, gi):
        w = [(), ()]
        w[slot] = ((gi, 1),)
        return tuple(w)

    # LHS: U_b(p) in slot 0, then U_a(p - m v_0) in slot 1
    that_p, ghat_p = rep_prefactor_series(order)
    shifted = p - m * _sym("v1")
    that_s, ghat_s = rep_prefactor_series(order, shift=shifted)
    vmap = {"v1": (0, v_gi)}
    lhs_exps = [
        series_to_element(that_p, ctx2, {}, letter(0, tau_gi)),
        series_to_element(ghat_p, ctx2, {}, letter(0, a_gi)),
        series_to_element(that_s, ctx2, vmap, letter(1, tau_gi)),
        series_to_element(ghat_s, ctx2, vmap, letter(1, a_gi)),
    ]
    # RHS: omega in slots (0,1), then prefactors with Delta-expanded letters
    delta_tau = NCElement(ctx2, {letter(0, tau_gi): H_ONE, letter(1, tau_gi): H_ONE})
    delta_a = NCElement(ctx2, {
        letter(0, a_gi): H_ONE,
        letter(1, a_gi): H_ONE,
        (((v_gi, 1),), ((tau_gi, 1),)): H_ONE,
    })
    rhs_exps = []
    if omega == "paper":
        om = build_omega(group2d, order)
        rhs_exps.extend(f.exponent for f in om.factors)
    elif omega == "identity":
        pass
    else:
        rhs_exps.extend(f.exponent for f in omega.factors)
    rhs_exps.append(series_to_element(that_p, ctx2, {}) * delta_tau)
    rhs_exps.append(series_to_element(ghat_p, ctx2, {}) * delta_a)

    seq = [(-x) for x in reversed(lhs_exps)] + rhs_exps
    log_residual = bch_combine_list(seq, order, budget=budget)

    # tails: (p - m v_0 - m v_1)^n on both sides, identical by construction;
    # recomputed independently on each side and compared
    def tail(vsyms, n):
        expr = p
        for vs in vsyms:
            expr = expr - m * _sym(vs)
        acc = HSeries.const(RationalFn(Poly.const(1)))
        for _ in range(n):
            acc = acc * HSeries.const(expr)
        elem = series_to_element(acc, ctx2, {"v1": (0, v_gi), "v2": (1, v_gi)})
        return normal_order(elem).truncate(order)

    tail_diffs = [normal_order(tail(("v1", "v2"), n) - tail(("v2", "v1"), n))
                  for n in degrees]
    return log_residual, tail_diffs
