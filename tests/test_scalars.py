"""Exact coefficient arithmetic: field axioms, canonical forms, series."""

import operator
import random
from fractions import Fraction as F
from math import gcd

import pytest

from kappa_hopf import scalars
from kappa_hopf.dsl import parse_presentation
from kappa_hopf.ncalg import NCElement, TensorContext
from kappa_hopf.scalars import (
    MOD_I,
    MOD_P,
    GaussianRational,
    GR_I,
    GR_ONE,
    GR_ZERO,
    HSeries,
    Poly,
    POLY_ONE,
    RationalFn,
    SeriesDomainError,
    as_gaussian,
    as_hseries,
    eval_mod,
    levi_civita,
    poly_exact_div,
    poly_gcd,
    series_exp,
    series_inverse_one_plus,
    series_log1p,
)


def rand_gaussian(rng, span=20):
    return GaussianRational(F(rng.randint(-span, span), rng.randint(1, 7)),
                            F(rng.randint(-span, span), rng.randint(1, 7)))


def test_gaussian_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (rand_gaussian(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == GR_ONE
            assert (b / a) * a == b
    assert GR_I * GR_I == GaussianRational(-1)


class RefGaussian:
    """Reference a + b*i as a pair of Fractions, with the formulas of the
    Fraction-pair GaussianRational that the integer form replaced."""

    def __init__(self, re, im=0):
        self.re, self.im = F(re), F(im)

    def __add__(self, o):
        return RefGaussian(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return RefGaussian(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return RefGaussian(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def conjugate(self):
        return RefGaussian(self.re, -self.im)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return RefGaussian(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, n):
        out = RefGaussian(1)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __hash__(self):
        # a real value hashes as the equal Fraction
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        def imag(q):
            return {1: "i", -1: "-i"}.get(q, f"{q}*i")
        if not self.im:
            return str(self.re)
        if not self.re:
            return imag(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{imag(abs(self.im))})"


def assert_matches(got, ref):
    assert type(got) is GaussianRational
    assert (got.re, got.im) == (ref.re, ref.im)
    assert (str(got), repr(got), hash(got), bool(got)) == (str(ref), repr(ref), hash(ref), bool(ref))
    a, b, d = got._a, got._b, got._d
    assert d > 0 and gcd(a, b, d) == 1
    assert (a or b) or d == 1
    # the same value built from its parts: same fields, equal, same hash
    again = GaussianRational(ref.re, ref.im)
    assert (again._a, again._b, again._d) == (a, b, d)
    assert again == got and hash(again) == hash(got)


def test_gaussian_matches_fraction_pair_reference():
    rng = random.Random(2024)

    def rand_pair():
        re, im = F(rng.randint(-9, 9), rng.randint(1, 12)), F(rng.randint(-9, 9), rng.randint(1, 12))
        if rng.random() < 0.2:
            re = F(0) if rng.random() < 0.5 else re
            im = F(0)
        return GaussianRational(re, im), RefGaussian(re, im)

    for _ in range(2000):
        (x, rx), (y, ry) = rand_pair(), rand_pair()
        assert_matches(x, rx)
        assert_matches(x + y, rx + ry)
        assert_matches(x - y, rx - ry)
        assert_matches(x * y, rx * ry)
        if ry:
            assert_matches(x / y, rx / ry)
        assert_matches(-x, -rx)
        assert_matches(x.conjugate(), rx.conjugate())
        if rx:
            assert_matches(x.inverse(), rx.inverse())
        n = rng.randint(0, 5)
        assert_matches(x ** n, rx ** n)
        assert (x == y) == ((rx.re, rx.im) == (ry.re, ry.im))
        for s in (rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 12))):
            rs = RefGaussian(s)
            assert_matches(x + s, rx + rs)
            assert_matches(s + x, rs + rx)
            assert_matches(x - s, rx - rs)
            assert_matches(s - x, rs - rx)
            assert_matches(x * s, rx * rs)
            assert_matches(s * x, rs * rx)
            if s:
                assert_matches(x / s, rx / rs)
            if rx:
                assert_matches(s / x, rs / rx)
            assert (x == s) == (s == x) == (rx.re == s and not rx.im)


def test_gaussian_zero_division_and_immutability():
    for f in (GR_ZERO.inverse, lambda: GR_ONE / 0, lambda: 1 / GR_ZERO,
              lambda: GR_I / F(0)):
        with pytest.raises(ZeroDivisionError):
            f()
    g = GaussianRational(F(1, 2), 3)
    for name in ("_a", "_d", "re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
    assert g == GaussianRational(F(1, 2), 3)


def test_complex_values_are_not_coerced():
    for z in (1j, complex(2, 0), complex("inf"), complex("nan")):
        with pytest.raises(TypeError):
            as_gaussian(z)
        with pytest.raises(TypeError):
            GR_ONE + z
        assert (GR_ONE == z) is False
        assert GR_ONE != z


def test_poly_arithmetic_and_eval():
    rng = random.Random(5)
    x, y = Poly.var("x"), Poly.var("y")
    p = x * x + y.scale(2) - Poly.const(3)
    q = x * y - Poly.const(F(1, 2))
    for _ in range(50):
        pt = {"x": rand_gaussian(rng, 9), "y": rand_gaussian(rng, 9)}
        pt = {s: eval_mod(v, {}) for s, v in pt.items()}
        assert eval_mod(p * q, pt) == eval_mod(p, pt) * eval_mod(q, pt) % MOD_P
        assert eval_mod(p + q, pt) == (eval_mod(p, pt) + eval_mod(q, pt)) % MOD_P
    assert (p - p) == Poly()
    assert p.derivative("x") == x.scale(2)
    assert p.derivative("y") == Poly.const(2)


def test_poly_gcd_and_rationalfn_canonicalization():
    m, v = Poly.var("m"), Poly.var("v")
    # m v (m - 1) and m (m - 1) share the full factor m (m - 1)
    g = poly_gcd(m * m * v - m * v, m * m - m)
    assert g == m * m - m
    r = RationalFn(m * m * v - m * v, m * m - m)
    assert r == RationalFn(v)
    assert r.is_poly()
    r2 = RationalFn(v, m)
    assert r2 + r2 == RationalFn(v.scale(2), m)
    # equality by cross-multiplication
    assert RationalFn(v * m, m * m) == RationalFn(v, m)
    with pytest.raises(ZeroDivisionError):
        RationalFn(v, Poly())


def test_long_division_by_multi_term_divisors():
    # (x^2 - y^2) / (x + y) stalled when the leading terms were taken in
    # the print order of Poly._lead, which is not a term order
    x, y = Poly.var("x"), Poly.var("y")
    assert poly_exact_div(x * x - y * y, x + y) == x - y
    assert RationalFn(x * x - y * y, x + y) == RationalFn(x - y)
    rng = random.Random(19)
    for _ in range(60):
        a, b = _rand_poly(rng, rng.randint(1, 3)), _rand_poly(rng, rng.randint(2, 3))
        if len(b.terms) > 1:
            assert scalars._long_div(a * b, b) == a
            with pytest.raises(ArithmeticError):
                scalars._long_div(a * b + Poly.var("q"), b)


def _rand_poly(rng, terms):
    out = Poly()
    for _ in range(terms):
        mono = Poly.const(rand_gaussian(rng))
        for sym in ("p", "m", "v1"):
            mono = mono * Poly.var(sym, rng.randint(0, 3))
        out = out + mono
    return out


def _prs_gcd(a, b):
    return scalars._monic(scalars._gcd_rec(a, b, sorted(a.symbols() | b.symbols())))


def test_monomial_fast_paths_agree_with_prs(monkeypatch):
    rng = random.Random(23)
    cases = []
    while len(cases) < 150:
        a = _rand_poly(rng, rng.randint(1, 4))
        mono = _rand_poly(rng, 1)
        if a and not a.is_const() and not mono.is_const():
            cases.append((a, mono))
    for a, mono in cases:
        assert poly_gcd(a, mono) == poly_gcd(mono, a) == _prs_gcd(a, mono)
        assert poly_exact_div(a * mono, mono) == a
        assert scalars._long_div(a * mono, mono) == a
        # one more power of a symbol than its least exponent in a: inexact
        sym = sorted(a.symbols())[0]
        low = min(dict(m).get(sym, 0) for m in a.terms)
        with pytest.raises(ArithmeticError):
            poly_exact_div(a, Poly.var(sym, low + 1))
    fast = [str(RationalFn(a, mono)) for a, mono in cases]
    monkeypatch.setattr(scalars, "_common_monomial", _prs_gcd)
    monkeypatch.setattr(scalars, "_monomial_div", scalars._long_div)
    assert fast == [str(RationalFn(a, mono)) for a, mono in cases]


# The general paths, as they ran before the constant fast paths: every Poly
# product pairs all terms through _mono_mul, every RationalFn is renormalised
# by __init__, and HSeries.scale and NCElement.scale lift c to a series.


def _general_poly_mul(self, other):
    other = scalars.as_poly(other)
    t = {}
    for m1, c1 in self.terms.items():
        for m2, c2 in other.terms.items():
            m = scalars._mono_mul(m1, m2)
            old = t.get(m)
            nc = c1 * c2 if old is None else old + c1 * c2
            if nc:
                t[m] = nc
            else:
                t.pop(m, None)
    return Poly(t)


def _general_rfn_init(self, num, den=POLY_ONE):
    num, den = scalars.as_poly(num), scalars.as_poly(den)
    if not num:
        den = POLY_ONE
    elif den.is_const():
        num, den = num.scale(den.const_value().inverse()), POLY_ONE
    else:
        g = poly_gcd(num, den)
        if not g.is_const():
            num, den = poly_exact_div(num, g), poly_exact_div(den, g)
        inv = den._lead()[1].inverse()
        num, den = num.scale(inv), den.scale(inv)
    object.__setattr__(self, "num", num)
    object.__setattr__(self, "den", den)


def _general_rfn_add(self, other):
    other = scalars.as_rationalfn(other)
    if self.den == other.den:
        return RationalFn(self.num + other.num, self.den)
    return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)


def _general_rfn_mul(self, other):
    other = scalars.as_rationalfn(other)
    return RationalFn(self.num * other.num, self.den * other.den)


def _general_as_rationalfn(x):
    return x if isinstance(x, RationalFn) else RationalFn(scalars.as_poly(x))


def _general_hseries_scale(self, c):
    c = scalars.as_rationalfn(c)
    return HSeries({k: v * c for k, v in self.coeffs.items()} if c else {}, self.truncation)


def _general_ncelement_scale(self, c):
    c = as_hseries(c)
    return NCElement(self.context, {w: v * c for w, v in self.terms.items()} if c else {})


def _use_general_paths(monkeypatch):
    monkeypatch.setattr(Poly, "__mul__", _general_poly_mul)
    monkeypatch.setattr(Poly, "__rmul__", _general_poly_mul)
    monkeypatch.setattr(RationalFn, "__init__", _general_rfn_init)
    for name in ("__add__", "__radd__"):
        monkeypatch.setattr(RationalFn, name, _general_rfn_add)
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(RationalFn, name, _general_rfn_mul)
    monkeypatch.setattr(RationalFn, "__eq__",
                        lambda a, b: a.num * b.den == b.num * a.den)
    monkeypatch.setattr(RationalFn, "is_poly", lambda r: r.den == POLY_ONE)
    monkeypatch.setattr(RationalFn, "__str__", lambda r: str(r.num) if r.den == POLY_ONE
                        else f"({r.num})/({r.den})")
    monkeypatch.setattr(scalars, "as_rationalfn", _general_as_rationalfn)
    monkeypatch.setattr(HSeries, "scale", _general_hseries_scale)
    monkeypatch.setattr(NCElement, "scale", _general_ncelement_scale)


def _shape(x, fast=False):
    """What the two paths must share: the string, the hash and every key
    order, down to the Poly terms.  With fast, also check that a
    denominator equal to one is POLY_ONE."""
    if isinstance(x, Poly):
        return str(x), hash(x), list(x.terms)
    if isinstance(x, RationalFn):
        assert not fast or (x.den == POLY_ONE) == (x.den is POLY_ONE)
        return str(x), hash(x), list(x.num.terms), list(x.den.terms)
    if isinstance(x, HSeries):
        return (str(x), hash(x), x.truncation,
                [(k, _shape(v, fast)) for k, v in x.coeffs.items()])
    return [(w, _shape(c, fast)) for w, c in x.terms.items()]


def test_constant_fast_paths_agree_with_general_path(monkeypatch):
    rng = random.Random(31)
    x, y = Poly.var("x"), Poly.var("y")
    pres = parse_presentation(
        "presentation two { generators: A B; relation B*A - A*B = A; }")
    ctx = TensorContext((pres,))

    def constant(lifted=True):
        # the general Poly product takes no RationalFn or NCElement operand,
        # so a left factor is never a Poly (lifted=False)
        c = rand_gaussian(rng, 9)
        plain = [c.re.numerator, c.re, 0, c, GR_ZERO]
        return rng.choice(plain + [Poly.const(c)] if lifted else plain)

    def poly():
        return Poly.const(rand_gaussian(rng)) if rng.random() < 0.3 else _rand_poly(rng, 3)

    def rfn():
        roll = rng.random()
        if roll < 0.4:
            return RationalFn(rand_gaussian(rng))
        if roll < 0.7:
            return RationalFn(poly())
        return RationalFn(poly(), _rand_poly(rng, 1))

    def series():
        return HSeries({k: rfn() for k in range(rng.randint(0, 3))},
                       rng.choice([None, 1, 2]))

    def element():
        words = [((),), (((0, 1), (1, 1)),), (((1, 1),),)]
        return NCElement(ctx, {w: series() for w in words})

    ops = [
        lambda: poly() * constant(),
        lambda: constant(False) * poly(),
        lambda: poly() * poly(),
        lambda: poly().scale(rand_gaussian(rng)),
        lambda: RationalFn(poly(), _rand_poly(rng, 1)),
        lambda: rfn() + rfn(),
        lambda: rfn() - constant(),
        lambda: rfn() * rfn(),
        lambda: rfn() * constant(),
        lambda: rfn() * RationalFn(constant()),
        lambda: constant(False) * rfn(),
        lambda: rfn().scale(rand_gaussian(rng)),
        lambda: scalars.as_rationalfn(constant()),
        lambda: series().scale(constant()),
        lambda: series().scale(RationalFn(constant())),
        lambda: series().scale(rfn()),
        lambda: series() * series(),
        lambda: series() + series(),
        lambda: element().scale(constant()),
        lambda: element().scale(series()),
        lambda: constant(False) * element(),
    ]
    # denominators that reduce to one, through the constant and gcd routes
    fixed = [(RationalFn, (x * y, x * y)), (RationalFn, (x.scale(2) * y, x * y)),
             (RationalFn, (x + y, Poly.const(F(1, 3)))), (RationalFn, (x * x - y * y, x + y)),
             (operator.add, (RationalFn(x, y), RationalFn(y - x, y))),
             (operator.mul, (RationalFn(x, y), RationalFn(y.scale(3), x)))]
    seeded = []
    for _ in range(300):
        i = rng.randrange(len(ops))
        seeded.append((i, rng.getstate()))
        ops[i]()

    def run_all():
        out = [f(*args) for f, args in fixed]
        for i, state in seeded:
            rng.setstate(state)
            out.append(ops[i]())
        return out

    fast = run_all()
    _use_general_paths(monkeypatch)
    general = run_all()
    general_shapes = [_shape(v) for v in general]
    monkeypatch.undo()
    assert [_shape(v, fast=True) for v in fast] == general_shapes
    assert fast == general
    assert all(v.den is POLY_ONE for v in fast[:6])


def test_rationalfn_equal_values_hash_equal():
    # __eq__ cross-multiplies while __hash__ hashes (num, den), so equal
    # values built by different routes must reach one canonical form
    x, y = Poly.var("x"), Poly.var("y")
    r = RationalFn(x, y)
    pairs = [
        (RationalFn(x.scale(2), y.scale(4)), RationalFn(x, y.scale(2))),
        (RationalFn(x * y, x * y), RationalFn(1)),
        (RationalFn(x * x - y * y, x.scale(3) + y.scale(3)), RationalFn(x - y, Poly.const(3))),
        (r + RationalFn(-x, y) + 3, RationalFn(3)),
        (RationalFn(x + y, x) - RationalFn(y, x), RationalFn(GR_ONE)),
        (r * RationalFn(y, x), RationalFn(POLY_ONE)),
        (r.scale(F(1, 2)), r * F(1, 2)),
        (r.scale(GR_I), RationalFn(Poly.const(GR_I)) * r),
        (r.scale(-1), -r),
        (RationalFn(x + 1, y) / RationalFn(x + 1, y * y), RationalFn(y)),
    ]
    rng = random.Random(41)
    for _ in range(60):
        a, b, g = _rand_poly(rng, 2), _rand_poly(rng, 1), _rand_poly(rng, 2)
        if a and g:
            pairs.append((RationalFn(a * g, b * g), RationalFn(a, b)))
            pairs.append((RationalFn(a, b) + RationalFn(g) - RationalFn(g), RationalFn(a, b)))
    for a, b in pairs:
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert str(a) == str(b)
    assert not (RationalFn(x, y) == RationalFn(y, x))


def test_mixed_operands_reflect_to_the_wider_type():
    # an operand the left type cannot coerce hands the operation to the
    # right operand's reflected operator: each order gives the mirrored value
    x = Poly.var("x")
    r = RationalFn(x, x + 1)
    h = HSeries.h(1)
    lifted_i = RationalFn(Poly.const(GR_I))
    pairs = [
        (GR_I * x, x * GR_I),
        (GR_I - x, -(x - GR_I)),
        (GR_I / x, lifted_i / x),
        (GR_I + r, r + GR_I),
        (GR_I - r, -(r - GR_I)),
        (GR_I / r, lifted_i / r),
        (x * r, r * x),
        (x + r, r + x),
        (x - r, -(r - x)),
        (x / r, RationalFn(x) / r),
        (r / x, r / RationalFn(x)),
        (GR_I * h, h * GR_I),
        (GR_I + h, h + GR_I),
        (GR_I - h, -(h - GR_I)),
        (x * h, h * x),
        (x + h, h + x),
        (x - h, -(h - x)),
        (r * h, h * r),
        (r + h, h + r),
        (r - h, -(h - r)),
    ]
    for got, want in pairs:
        assert type(got) is type(want)
        assert got == want, (got, want)
    assert 1 / x == RationalFn(POLY_ONE, x)
    assert x / GR_I == RationalFn(x.scale(-GR_I))


def test_equal_scalars_hash_equal():
    # equal values of the four domains, ints and Fractions make one set
    one = [GR_ONE, 1, F(1), Poly.const(1), scalars.RFN_ONE, scalars.H_ONE,
           RationalFn(1), HSeries.const(1)]
    assert all(a == b for a in one for b in one)
    assert len(set(one)) == 1
    half = [GaussianRational(F(1, 2)), F(1, 2), Poly.const(F(1, 2)),
            RationalFn(F(1, 2)), HSeries.const(F(1, 2))]
    assert len({hash(v) for v in half}) == 1
    assert len({GR_ZERO, 0, Poly(), scalars.RFN_ZERO, HSeries()}) == 1
    x = Poly.var("x")
    assert len({x, RationalFn(x), HSeries.const(x)}) == 1
    assert len({GR_I, Poly.const(GR_I), RationalFn(GR_I), scalars.H_I}) == 1
    assert hash(GaussianRational(-3)) == hash(-3)
    assert hash(GaussianRational(F(-7, 3))) == hash(F(-7, 3))


def test_hseries_truncation_is_multiplicative():
    # trunc(a*b) == trunc(trunc(a)*trunc(b)) at the common truncation order
    rng = random.Random(7)
    for _ in range(40):
        a = HSeries({k: rand_gaussian(rng, 5) for k in range(0, 5)})
        b = HSeries({k: rand_gaussian(rng, 5) for k in range(0, 5)})
        n = rng.randint(0, 4)
        assert (a * b).truncate(n) == (a.truncate(n) * b.truncate(n)).truncate(n)
    # truncation metadata propagates as the min of the operands
    a = HSeries({0: 1, 1: 2}, truncation=3)
    b = HSeries({0: 1, 2: 5}, truncation=2)
    assert (a * b).truncation == 2
    assert (a + b).truncation == 2
    exact = HSeries({0: 1, 4: 1})
    assert exact.is_exact()
    assert (exact * exact).is_exact()


def test_hseries_laurent_powers():
    inv_h = HSeries.h(-1)
    assert (inv_h * HSeries.h(1)) == HSeries.const(1)
    x = HSeries({1: 3, 2: 5})
    assert (x / HSeries.h(1)) == HSeries({0: 3, 1: 5})
    assert x.has_negative_powers() is False
    assert inv_h.has_negative_powers()


def _log1p_oracle(x_coeffs, order):
    """Coefficients of ln(1 + x(t)) via the ODE (1+x) f' = x', solved term by
    term; independent of the implementation's direct power sum."""
    f = [F(0)] * (order + 1)
    x = list(x_coeffs) + [F(0)] * (order + 1 - len(x_coeffs))
    # f'_n-1 coefficient relation: (n) f_n = x'_{n-1+1}... build recursively:
    # sum_{k>=1} k f_k t^{k-1} * (1 + sum x_j t^j) = sum_{j>=1} j x_j t^{j-1}
    for n in range(1, order + 1):
        rhs = n * x[n] if n < len(x) else F(0)
        acc = F(0)
        for k in range(1, n):
            j = n - k
            if j < len(x):
                acc += k * f[k] * x[j]
        f[n] = (rhs - acc) / n
    return f


def test_series_log1p_matches_taylor_oracle():
    # x = (m v^2/2) h, order 2 -> (m v^2/2) h - (m^2 v^4/8) h^2
    m, v = Poly.var("m"), Poly.var("v")
    x = HSeries({1: RationalFn((m * v * v).scale(F(1, 2)))})
    lg = series_log1p(x, 2)
    want = HSeries({1: RationalFn((m * v * v).scale(F(1, 2))),
                    2: RationalFn((m * m * v ** 4).scale(F(-1, 8)))}, 2)
    assert lg == want
    # rational-coefficient oracle comparison across orders
    coeffs = [F(0), F(3, 2), F(-1, 3), F(2)]
    x2 = HSeries({k: c for k, c in enumerate(coeffs) if c})
    got = series_log1p(x2, 6)
    oracle = _log1p_oracle(coeffs, 6)
    for k in range(1, 7):
        assert got.coeff(k) == RationalFn(Poly.const(oracle[k])), k


def test_series_log1p_trivial_and_inverse_identity():
    assert series_log1p(HSeries(), 3) == HSeries().truncate(3)
    m, v = Poly.var("m"), Poly.var("v")
    x = HSeries({1: RationalFn((m * v * v).scale(F(1, 2)))})
    # exp(log1p(x, N)) = 1 + x through h^N for N = 4
    assert series_exp(series_log1p(x, 4), 4) == (HSeries.const(1) + x).truncate(4)


def test_series_exp_examples():
    p0 = Poly.var("P0")
    x = HSeries({1: RationalFn(p0.scale(F(1, 2)))})
    got = series_exp(x, 2)
    want = HSeries({0: RationalFn(POLY_ONE),
                    1: RationalFn(p0.scale(F(1, 2))),
                    2: RationalFn((p0 * p0).scale(F(1, 8)))}, 2)
    assert got == want
    assert series_exp(HSeries(), 5) == HSeries.const(1).truncate(5)
    m, v = Poly.var("m"), Poly.var("v")
    a = HSeries({1: RationalFn(m * v)})
    assert (series_exp(a, 3) * series_exp(-a, 3)).truncate(3) \
        == HSeries.const(1).truncate(3)


def test_series_domain_errors():
    with pytest.raises(SeriesDomainError):
        series_log1p(HSeries.const(1), 2)
    with pytest.raises(SeriesDomainError):
        series_exp(HSeries.const(F(1, 2)), 2)
    with pytest.raises(ValueError):
        series_log1p(HSeries({1: 1}), 0)
    with pytest.raises(SeriesDomainError):
        series_inverse_one_plus(HSeries({-1: 1}), 2)


def test_random_evaluation_oracle_is_exact():
    # substituting random rationals into an asserted identity gives exact
    # equality, no tolerances anywhere
    rng = random.Random(3)
    m, v = Poly.var("m"), Poly.var("v")
    lhs = (RationalFn(m) + RationalFn(v, m)) ** 2
    rhs = RationalFn(m * m) + RationalFn(v.scale(2)) + RationalFn(v * v, m * m)
    for _ in range(30):
        pt = {"m": rand_gaussian(rng, 9), "v": rand_gaussian(rng, 9)}
        if not pt["m"]:
            continue
        pt = {s: eval_mod(v, {}) for s, v in pt.items()}
        assert eval_mod(lhs, pt) == eval_mod(rhs, pt)
    assert lhs == rhs


def _is_prime(n):
    """Miller-Rabin with the first 12 prime bases: exact below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modular_field_has_a_square_root_of_minus_one():
    assert _is_prime(MOD_P)
    assert not _is_prime(MOD_P + 2)
    assert MOD_P % 4 == 1
    assert MOD_I * MOD_I % MOD_P == MOD_P - 1
    assert eval_mod(GR_I, {}) == MOD_I


def test_modular_image_is_a_ring_map():
    rng = random.Random(13)
    for _ in range(100):
        a, b = rand_gaussian(rng), rand_gaussian(rng)
        ma, mb = eval_mod(a, {}), eval_mod(b, {})
        assert eval_mod(a * b, {}) == ma * mb % MOD_P
        assert eval_mod(a - b, {}) == (ma - mb) % MOD_P
        if b:
            assert eval_mod(a / b, {}) * mb % MOD_P == ma
    # Laurent series at a nonzero h, negative powers included
    m = Poly.var("m")
    s = HSeries({-1: RationalFn(m), 0: 1, 2: RationalFn(POLY_ONE, m)})
    t = HSeries({-2: 3, 1: RationalFn(m * m)})
    pt, h = {"m": 12345}, 678
    assert eval_mod(s * t, pt, h) == eval_mod(s, pt, h) * eval_mod(t, pt, h) % MOD_P
    assert eval_mod(HSeries.h(), pt, h) == h


def test_modular_image_rejects_denominators_divisible_by_p():
    with pytest.raises(ZeroDivisionError):
        eval_mod(GaussianRational(F(1, MOD_P)), {})
    with pytest.raises(ZeroDivisionError):
        eval_mod(RationalFn(POLY_ONE, Poly.var("m")), {"m": MOD_P})
    assert eval_mod(GaussianRational(F(MOD_P, 2)), {}) == 0


def test_levi_civita_all_index_triples():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                # sign of the permutation, 0 on a repeated index
                assert levi_civita(i, j, k) == (i - j) * (j - k) * (k - i) // 2
    assert levi_civita(1, 2, 3) == levi_civita(3, 1, 2) == 1
    assert levi_civita(2, 1, 3) == -1
