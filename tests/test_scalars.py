"""Exact coefficient arithmetic: field axioms, canonical forms, series."""

import operator
import random
from fractions import Fraction as F
from functools import partial
from itertools import product
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


def test_poly_gcd_and_rationalfn_canonicalization():
    m, v = Poly.var("m"), Poly.var("v")
    r2 = HSeries.const(v) / m
    assert r2 + r2 == HSeries.const(v.scale(2)) / m
    assert (r2 + r2).terms == {(0, (("v", 1),)): GaussianRational(2)} and (r2 + r2).den == m
    # the denominator is made monic, its constant moving to the numerator
    r3 = HSeries.const(v) / m.scale(3)
    assert r3.den == m and r3.terms == {(0, (("v", 1),)): GaussianRational(F(1, 3))}
    assert RationalFn(v, m.scale(3)).den == m
    # a common factor cancels
    assert HSeries.const(v * m) / (m * m) == r2
    assert RationalFn(v * m, m * m) == RationalFn(v, m)
    with pytest.raises(ZeroDivisionError):
        RationalFn(v, Poly())
    with pytest.raises(ZeroDivisionError):
        HSeries.const(v) / Poly()


def test_multi_term_denominators_and_divisors_raise():
    # every denominator is a monomial: a value that would need any other
    # kind is refused, not reduced
    m, v, x = Poly.var("m"), Poly.var("v"), Poly.var("x")
    refused = [
        lambda: poly_exact_div(x, x + 1),
        lambda: poly_gcd(m * m - m, m * v + v),
        lambda: RationalFn(v, m + 1),
        lambda: HSeries.const(v) / (m + 1),
        lambda: (HSeries.const(v) / m).subs({"m": m + 1}),
    ]
    for f in refused:
        with pytest.raises(ArithmeticError):
            f()
    # a single-term divisor or a substituted monomial still divides
    assert poly_exact_div(x * x + x, x) == x + 1
    assert poly_gcd(m * m - m, m * v) == m
    assert (HSeries.const(v) / m).subs({"m": x * x}) == HSeries.const(v) / (x * x)


def _rand_poly(rng, terms):
    out = Poly()
    for _ in range(terms):
        mono = Poly.const(rand_gaussian(rng))
        for sym in ("p", "m", "v1"):
            mono = mono * Poly.var(sym, rng.randint(0, 3))
        out = out + mono
    return out


def _brute_gcd(a, b):
    """The largest monic monomial that divides every term of a and b, found
    by trying every monomial up to their largest exponents."""
    monos = [dict(m) for m in [*a.terms, *b.terms]]
    syms = sorted({s for m in monos for s in m})
    best = ()
    for exps in product(*(range(max(m.get(s, 0) for m in monos) + 1) for s in syms)):
        if sum(exps) > sum(e for _, e in best) \
                and all(all(m.get(s, 0) >= e for s, e in zip(syms, exps)) for m in monos):
            best = tuple((s, e) for s, e in zip(syms, exps) if e)
    return Poly({best: 1})


def test_monomial_fast_paths_agree_with_brute_force(monkeypatch):
    rng = random.Random(23)
    cases = []
    while len(cases) < 150:
        a = _rand_poly(rng, rng.randint(1, 4))
        mono = _rand_poly(rng, 1)
        if a and not a.is_const() and not mono.is_const():
            cases.append((a, mono))
    for a, mono in cases:
        assert poly_gcd(a, mono) == poly_gcd(mono, a) == _brute_gcd(a, mono)
        assert poly_exact_div(a * mono, mono) == a
        # one more power of a symbol than its least exponent in a: inexact
        sym = sorted(a.symbols())[0]
        low = min(dict(m).get(sym, 0) for m in a.terms)
        with pytest.raises(ArithmeticError):
            poly_exact_div(a, Poly.var(sym, low + 1))
    fast = [str(RationalFn(a, mono)) for a, mono in cases]
    # the reference reduction takes no one-pass path: the gcd by brute
    # force, one division per power of h
    monkeypatch.setattr(scalars, "_canonical", partial(_general_canonical, gcd=_brute_gcd))
    assert fast == [str(RationalFn(a, mono)) for a, mono in cases]


# The general paths, as they ran before the constant fast paths: every Poly
# product pairs all terms through _mono_mul, every fraction is reduced per
# power of h through poly_exact_div, even over a denominator of one, and
# HSeries.scale and NCElement.scale lift c to a series.


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


def _general_canonical(terms, den, gcd=poly_gcd, div=poly_exact_div):
    if not terms:
        return terms, POLY_ONE
    parts = scalars._by_power(terms)
    g = den
    for p in parts.values():
        g = gcd(g, p)
    den = div(den, g)
    terms = {(k, m): c for k, p in parts.items() for m, c in div(p, g).terms.items()}
    inv = den._lead()[1].inverse()
    den = POLY_ONE if den.is_const() else den.scale(inv)
    return {key: c * inv for key, c in terms.items()}, den


def _general_rfn_init(self, num, den=POLY_ONE):
    num, den = scalars.as_poly(num), scalars.as_poly(den)
    terms, den = _general_canonical({(0, m): c for m, c in num.terms.items()}, den)
    object.__setattr__(self, "num", Poly({m: c for (_, m), c in terms.items()}))
    object.__setattr__(self, "den", den)


def _general_mul_through(self, other, order):
    t = scalars._mul_flat(self.terms, other.terms, order)
    return scalars._hseries(*_general_canonical(t, self.den * other.den))


def _general_hseries_scale(self, c):
    return self.mul_through(as_hseries(c), None)


def _general_ncelement_scale(self, c):
    c = as_hseries(c)
    out = NCElement(self.context, {w: v * c for w, v in self.terms.items()} if c else {})
    if self.order is None or not c:
        return out
    return out.truncate(self.order + min(c.min_power(), 0))


def _use_general_paths(monkeypatch):
    monkeypatch.setattr(Poly, "__mul__", _general_poly_mul)
    monkeypatch.setattr(Poly, "__rmul__", _general_poly_mul)
    monkeypatch.setattr(scalars, "_canonical", _general_canonical)
    monkeypatch.setattr(RationalFn, "__init__", _general_rfn_init)
    monkeypatch.setattr(RationalFn, "is_poly", lambda r: r.den == POLY_ONE)
    monkeypatch.setattr(RationalFn, "__str__", lambda r: str(r.num) if r.den == POLY_ONE
                        else f"({r.num})/({r.den})")
    monkeypatch.setattr(HSeries, "mul_through", _general_mul_through)
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
        assert not fast or (x.den == POLY_ONE) == (x.den is POLY_ONE)
        return str(x), hash(x), [(k, _shape(v, fast)) for k, v in x.coeffs.items()]
    return x.order, [(w, _shape(c, fast)) for w, c in x.terms.items()]


def test_constant_fast_paths_agree_with_general_path(monkeypatch):
    rng = random.Random(31)
    x, y = Poly.var("x"), Poly.var("y")
    pres = parse_presentation(
        "presentation two { generators: A B; relation B*A - A*B = A; }")
    ctx = TensorContext((pres,))

    def constant(lifted=True):
        # the general Poly product takes no HSeries or NCElement operand,
        # so a left factor is never a Poly (lifted=False)
        c = rand_gaussian(rng, 9)
        plain = [c.re.numerator, c.re, 0, c, GR_ZERO]
        return rng.choice(plain + [Poly.const(c)] if lifted else plain)

    def poly():
        return Poly.const(rand_gaussian(rng)) if rng.random() < 0.3 else _rand_poly(rng, 3)

    def mono():
        return _rand_poly(rng, 1) or Poly.var("m")

    def fraction():
        # an h^0 series: a constant, a Poly or one over a monomial
        roll = rng.random()
        if roll < 0.4:
            return HSeries.const(rand_gaussian(rng))
        if roll < 0.7:
            return HSeries.const(poly())
        return HSeries.const(poly()) / mono()

    def divisor():
        # a nonzero h^0 series with a single-term numerator
        if rng.random() < 0.4:
            return HSeries.const(rand_gaussian(rng) or GR_ONE)
        return HSeries.const(mono()) / mono()

    def series():
        return HSeries({k: RationalFn(poly(), mono()) if rng.random() < 0.3 else poly()
                        for k in range(rng.randint(0, 3))})

    def element():
        words = [((),), (((0, 1), (1, 1)),), (((1, 1),),)]
        el = NCElement(ctx, {w: series() for w in words})
        order = rng.choice([None, 1, 2])
        return el if order is None else el.truncate(order)

    ops = [
        lambda: poly() * constant(),
        lambda: constant(False) * poly(),
        lambda: poly() * poly(),
        lambda: poly().scale(rand_gaussian(rng)),
        lambda: RationalFn(poly(), mono()),
        lambda: fraction() + fraction(),
        lambda: fraction() - constant(),
        lambda: fraction() * fraction(),
        lambda: fraction() * constant(),
        lambda: fraction() / divisor(),
        lambda: constant(False) * fraction(),
        lambda: fraction().scale(rand_gaussian(rng)),
        lambda: HSeries.const(constant()),
        lambda: series().scale(constant()),
        lambda: series().scale(RationalFn(constant())),
        lambda: series().scale(fraction()),
        lambda: series() * series(),
        lambda: series() + series(),
        lambda: element().scale(constant()),
        lambda: element().scale(series()),
        lambda: constant(False) * element(),
    ]
    # denominators that reduce to one, through the constant and common-monomial routes
    quotients = [(x * y, x * y), (x.scale(2) * y, x * y), (x + y, Poly.const(F(1, 3))),
                 (x * x * y - x * y, x * y.scale(3))]
    fixed = [(RationalFn, q) for q in quotients]
    fixed += [(operator.truediv, (HSeries.const(a), b)) for a, b in quotients]
    fixed += [(operator.add, (HSeries.const(x) / y, HSeries.const(y - x) / y)),
              (operator.mul, (HSeries.const(x) / y, HSeries.const(y.scale(3)) / x))]
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
    assert all(v.den is POLY_ONE for v in fast[:len(fixed)])


def test_rationalfn_equal_values_hash_equal():
    # __eq__ compares canonical fields and __hash__ hashes them, so equal
    # values built by different routes must reach one canonical form
    x, y = Poly.var("x"), Poly.var("y")
    c = HSeries.const
    r = c(x) / y
    pairs = [
        (RationalFn(x.scale(2), y.scale(4)), RationalFn(x, y.scale(2))),
        (RationalFn(x * y, x * y), RationalFn(1)),
        (RationalFn(x * x * y - x * y, x.scale(3) * y), RationalFn(x - 1, Poly.const(3))),
        (c(x.scale(2)) / y.scale(4), c(x) / y.scale(2)),
        (c(x * y) / (x * y), c(1)),
        (c(x * x * y - x * y) / (x.scale(3) * y), c(x - 1) / 3),
        (r + c(-x) / y + 3, c(3)),
        (c(x + y) / x - c(y) / x, c(GR_ONE)),
        (r * (c(y) / x), c(POLY_ONE)),
        (r.scale(F(1, 2)), r * F(1, 2)),
        (r.scale(GR_I), c(GR_I) * r),
        (r.scale(-1), -r),
        ((c(x + 1) / y) / (c(x.scale(2)) / (y * y)), c(x * y + y) / x.scale(2)),
    ]
    rng = random.Random(41)
    for _ in range(60):
        a, b, g = _rand_poly(rng, 2), _rand_poly(rng, 1), _rand_poly(rng, 1)
        if a and b and g:
            pairs.append((RationalFn(a * g, b * g), RationalFn(a, b)))
            pairs.append((c(a * g) / (b * g), c(a) / b))
            pairs.append((c(a) / b + c(g) - c(g), c(a) / b))
    for a, b in pairs:
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert str(a) == str(b)
    assert not (RationalFn(x, y) == RationalFn(y, x))
    assert not (c(x) / y == c(y) / x)


def test_mixed_operands_reflect_to_the_wider_type():
    # an operand the left type cannot coerce hands the operation to the
    # right operand's reflected operator: each order gives the mirrored value
    x = Poly.var("x")
    r = HSeries.const(x + 1) / (x * x)
    view = RationalFn(x + 1, x * x)
    h = HSeries.h(1)
    pairs = [
        (GR_I * x, x * GR_I),
        (GR_I - x, -(x - GR_I)),
        (GR_I + r, r + GR_I),
        (GR_I - r, -(r - GR_I)),
        (x * r, r * x),
        (x + r, r + x),
        (x - r, -(r - x)),
        (r / x, r / HSeries.const(x)),
        (GR_I * h, h * GR_I),
        (GR_I + h, h + GR_I),
        (GR_I - h, -(h - GR_I)),
        (x * h, h * x),
        (x + h, h + x),
        (x - h, -(h - x)),
        (view * h, h * view),
        (view + h, h + view),
        (view - h, -(h - view)),
    ]
    for got, want in pairs:
        assert type(got) is type(want)
        assert got == want, (got, want)
    one_over_x = scalars.H_ONE / x
    assert one_over_x.terms == {(0, ()): GR_ONE} and one_over_x.den == x
    assert one_over_x == RationalFn(POLY_ONE, x)
    assert HSeries.const(x) / GR_I == HSeries.const(x.scale(-GR_I))
    # a fraction is an HSeries: Poly and RationalFn do no division
    for a, b in ((x, GR_I), (1, x), (x, r), (view, 2)):
        with pytest.raises(TypeError):
            a / b


def test_equal_scalars_hash_equal():
    # equal values of the four domains, ints and Fractions make one set
    one = [GR_ONE, 1, F(1), Poly.const(1), RationalFn(POLY_ONE), scalars.H_ONE,
           RationalFn(1), HSeries.const(1)]
    assert all(a == b for a in one for b in one)
    assert len(set(one)) == 1
    half = [GaussianRational(F(1, 2)), F(1, 2), Poly.const(F(1, 2)),
            RationalFn(F(1, 2)), HSeries.const(F(1, 2))]
    assert len({hash(v) for v in half}) == 1
    assert len({GR_ZERO, 0, Poly(), RationalFn(0), HSeries()}) == 1
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
        assert a.mul_through(b, n) == (a * b).truncate(n)


def test_hseries_laurent_powers():
    inv_h = HSeries.h(-1)
    assert (inv_h * HSeries.h(1)) == HSeries.const(1)
    x = HSeries({1: 3, 2: 5})
    assert (x / HSeries.h(1)) == HSeries({0: 3, 1: 5})
    assert x.has_negative_powers() is False
    assert inv_h.has_negative_powers()
    # division by an h-monomial is exact, and undoes the product
    x = HSeries({0: 2, 3: F(1, 3)})
    d = HSeries({1: GR_I})
    q = x / d
    assert q == HSeries({-1: GaussianRational(0, -2), 2: GaussianRational(0, F(-1, 3))})
    assert q * d == x
    with pytest.raises(ArithmeticError):
        x / HSeries({0: 1, 1: 1})


def _through(order, low):
    """The order through which a product of a factor known through h^order
    and an exact factor with lowest h power low is known."""
    return order + min(low, 0)


def test_hseries_product_truncation_with_negative_powers():
    # h^-1 (1 + h + O(h^3)) = h^-1 + 1 + O(h^2): the unknown h^3 term
    # reaches the product at h^2, in either order
    inv_h = HSeries.h(-1)
    a = HSeries({0: 1, 1: 1, 3: 7})
    n = _through(2, -1)
    assert n == 1
    for q in ((inv_h * a.truncate(2)).truncate(n), (a.truncate(2) * inv_h).truncate(n),
              a.truncate(2).mul_through(inv_h, n), (inv_h * a).truncate(n)):
        assert q == HSeries({-1: 1, 0: 1})
    # h^-2 drops two orders, and the known terms past the new order go
    wide = HSeries({0: 1, 1: 2, 2: 5, 3: 11})
    q = HSeries({-2: 3}).mul_through(wide.truncate(2), _through(2, -2))
    assert q == HSeries({-2: 3, -1: 6, 0: 15})
    assert q == (HSeries({-2: 3}) * wide).truncate(0)
    # the precision rule min(order_x + low_y, order_y + low_x) is exactly what
    # truncating both factors keeps of the product
    rng = random.Random(11)
    for _ in range(40):
        la, lb = rng.randint(-2, 1), rng.randint(-2, 1)
        x = HSeries({k: rand_gaussian(rng, 5) for k in range(la, la + 5)})
        y = HSeries({k: rand_gaussian(rng, 5) for k in range(lb, lb + 5)})
        nx, ny = rng.randint(la, la + 4), rng.randint(lb, lb + 4)
        m = min(_through(nx, lb), _through(ny, la))
        assert (x.truncate(nx) * y.truncate(ny)).truncate(m) == (x * y).truncate(m)
    # a product the projrep tau exponent forms: -i/h times log1p through h^3
    # is known through h^2, and log1p through h^4 agrees there
    lg3 = series_log1p(HSeries({1: F(1, 2)}), 3)
    lg4 = series_log1p(HSeries({1: F(1, 2)}), 4)
    tau = HSeries({-1: -GR_I})
    assert (lg3 * tau).truncate(_through(3, -1)) == (lg4 * tau).truncate(2)
    assert lg3 * tau != (lg4 * tau).truncate(3)


def test_hseries_division_truncation():
    h = HSeries.h(1)
    # (1 + 7h^4) / h = h^-1 + 7h^3: dividing by h^k moves the order down by k,
    # so (1 + O(h^4)) / h = h^-1 + O(h^3)
    x = HSeries({0: 1, 4: 7})
    assert x / h == HSeries({-1: 1, 3: 7})
    assert (x.truncate(3) / h) == (x / h).truncate(2) == HSeries({-1: 1})
    # (h + h^2 + O(h^3)) / h = 1 + h + O(h^2)
    y = HSeries({1: 1, 2: 1, 3: 4})
    assert y.truncate(2) / h == (y / h).truncate(1) == HSeries({0: 1, 1: 1})
    # division by c*h^k commutes with truncation at the shifted order
    rng = random.Random(5)
    for _ in range(30):
        x = HSeries({k: rand_gaussian(rng, 5) for k in range(-2, 4)})
        k, n = rng.randint(-2, 2), rng.randint(-2, 3)
        d = HSeries({k: rand_gaussian(rng, 5) or GR_ONE})
        assert x.truncate(n) / d == (x / d).truncate(n - k)
        assert (x / d) * d == x
    # a truncated non-monomial divisor has no quotient here
    with pytest.raises(ArithmeticError):
        HSeries.const(1) / HSeries({1: 1, 3: 1})


# The per-power layout HSeries had before its terms were flattened: a dict
# {k: (num, den)} with no zero coefficient, each power reduced on its own.
# The reference computes it by cross-multiplying Polys and dividing by their
# poly_gcd, not by the flat code under test.  The flat series must give the
# same values, strings and per-power views.


def _ref(num, den=POLY_ONE):
    """num/den gcd-reduced, with a monic denominator."""
    if not num:
        return Poly(), POLY_ONE
    g = poly_gcd(num, den)
    num, den = poly_exact_div(num, g), poly_exact_div(den, g)
    inv = den._lead()[1].inverse()
    return num.scale(inv), den.scale(inv)


def _ref_sum(x, y):
    return _ref(x[0] * y[1] + y[0] * x[1], x[1] * y[1])


def _ref_prod(x, y):
    return _ref(x[0] * y[0], x[1] * y[1])


def _ref_add(a, b):
    c = dict(a)
    for k, v in b.items():
        nv = _ref_sum(c[k], v) if k in c else v
        if nv[0]:
            c[k] = nv
        else:
            c.pop(k, None)
    return c


def _ref_mul_through(a, b, order):
    c = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = k1 + k2
            if order is not None and k > order:
                continue
            v = _ref_prod(v1, v2)
            nv = _ref_sum(c[k], v) if k in c else v
            if nv[0]:
                c[k] = nv
            else:
                c.pop(k, None)
    return c


def _ref_truncate(a, order):
    return {k: v for k, v in a.items() if k <= order}


def _ref_str(a):
    if not a:
        return "0"
    bits = []
    for k in sorted(a):
        num, den = a[k]
        vs = str(num) if den == POLY_ONE else f"({num})/({den})"
        needs_par = ("+" in vs[1:]) or ("-" in vs[1:]) or "/" in vs
        if k == 0:
            bits.append(f"({vs})" if needs_par else vs)
        else:
            hpow = "h" if k == 1 else f"h^{k}"
            if vs == "1":
                bits.append(hpow)
            elif vs == "-1":
                bits.append(f"-{hpow}")
            else:
                bits.append(f"({vs})*{hpow}" if needs_par else f"{vs}*{hpow}")
    return " + ".join(bits).replace("+ -", "- ")


def _ref_coeff(rng, kinds, num_terms=None):
    """A random nonzero reduced (num, den) of one of kinds: a constant, a
    Poly in p, m and v1, one over m^k (projrep's denominators) or one over
    a scaled monomial in p and v1, which _ref makes monic.  The numerator
    has num_terms terms (None: one or two)."""
    kind = rng.choice(kinds)
    if kind == "const":
        return _ref(Poly.const(rand_gaussian(rng, 5) or GR_ONE))
    num = _rand_poly(rng, num_terms or rng.randint(1, 2)) or POLY_ONE
    if kind == "poly":
        return _ref(num)
    if kind == "monomial":
        return _ref(num, Poly.var("m", rng.randint(1, 3)))
    p, v = Poly.var("p"), Poly.var("v1")
    return _ref(num, rng.choice([v.scale(3), p.scale(2) * v, (p * p * v).scale(GR_I)]))


@pytest.mark.parametrize("kinds", [("const",), ("const", "poly"), ("const", "poly", "monomial"),
                                   ("const", "poly", "monomial", "scaled_monomial")])
def test_flat_series_match_the_per_power_reference(kinds):
    rng = random.Random(len(kinds))

    def series(a):
        return HSeries({k: RationalFn(*v) for k, v in a.items()})

    def operand():
        return {k: _ref_coeff(rng, kinds) for k in rng.sample(range(-2, 4), rng.randint(0, 3))}

    def check(got, want):
        assert sorted(got.coeffs) == sorted(want)
        assert {k: (v.num.terms, v.den.terms) for k, v in got.coeffs.items()} \
            == {k: (num.terms, den.terms) for k, (num, den) in want.items()}
        assert str(got) == _ref_str(want)
        built = series(want)
        assert got == built and built == got
        assert hash(got) == hash(built)

    for _ in range(60):
        a, b = operand(), operand()
        x, y = series(a), series(b)
        check(x, a)
        order = rng.choice([None, -1, 0, 1, 2, 3])
        check(x.mul_through(y, order), _ref_mul_through(a, b, order))
        check(x * y, _ref_mul_through(a, b, None))
        check(x + y, _ref_add(a, b))
        check(x - x, {})
        n = rng.randint(-2, 3)
        check(x.truncate(n), _ref_truncate(a, n))
        c = rand_gaussian(rng, 5)
        check(x.scale(c), {k: _ref(num.scale(c), den) for k, (num, den) in a.items()} if c else {})
        r = _ref_coeff(rng, kinds)
        check(x.scale(RationalFn(*r)), {k: _ref_prod(v, r) for k, v in a.items()})
        # division by c*h^k, for c with a single-term numerator, is the
        # product with (1/c)*h^-k
        k, d = rng.randint(-2, 2), _ref_coeff(rng, kinds, num_terms=1)
        check(x / HSeries({k: RationalFn(*d)}), _ref_mul_through(a, {-k: _ref(d[1], d[0])}, None))
    # a constant hashes as its GaussianRational, and an h^0 series as its
    # coefficient
    for _ in range(20):
        g = rand_gaussian(rng)
        assert hash(HSeries.const(g)) == hash(g) and HSeries.const(g) == g
        r = RationalFn(*_ref_coeff(rng, kinds))
        assert hash(HSeries({0: r})) == hash(r) and HSeries({0: r}) == r


def test_monomial_common_factor_is_divided_in_one_pass(monkeypatch):
    # every projrep denominator is a power of m: the common factor m of the
    # denominator and each power's numerator is found as the common monomial
    # of the flat terms and divided out by monomial division over them, with
    # no poly_gcd and no poly_exact_div per power
    m, p, v = Poly.var("m"), Poly.var("p"), Poly.var("v1")
    x = HSeries({0: RationalFn(p, m * m), 1: RationalFn(v, m * m), 2: RationalFn(p * v, m * m)})
    calls = []
    real_gcd, real_div = scalars.poly_gcd, scalars.poly_exact_div
    monkeypatch.setattr(scalars, "poly_gcd", lambda a, b: calls.append(b) or real_gcd(a, b))
    monkeypatch.setattr(scalars, "poly_exact_div", lambda a, b: calls.append(b) or real_div(a, b))
    got = x * m
    assert calls == []
    assert got.den == m
    assert got == HSeries({0: RationalFn(p, m), 1: RationalFn(v, m), 2: RationalFn(p * v, m)})
    assert str(got) == "((p)/(m)) + ((v1)/(m))*h + ((p*v1)/(m))*h^2"


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
                    2: RationalFn((m * m * v ** 4).scale(F(-1, 8)))})
    assert lg == want
    # rational-coefficient oracle comparison across orders
    coeffs = [F(0), F(3, 2), F(-1, 3), F(2)]
    x2 = HSeries({k: c for k, c in enumerate(coeffs) if c})
    got = series_log1p(x2, 6)
    oracle = _log1p_oracle(coeffs, 6)
    for k in range(1, 7):
        assert got.coeff(k) == RationalFn(Poly.const(oracle[k])), k


def test_series_log1p_trivial_and_inverse_identity():
    assert series_log1p(HSeries(), 3) == HSeries()
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
                    2: RationalFn((p0 * p0).scale(F(1, 8)))})
    assert got == want
    assert series_exp(HSeries(), 5) == HSeries.const(1)
    m, v = Poly.var("m"), Poly.var("v")
    a = HSeries({1: RationalFn(m * v)})
    assert (series_exp(a, 3) * series_exp(-a, 3)).truncate(3) == HSeries.const(1)


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
    lhs = (HSeries.const(m) + HSeries.const(v) / m) ** 2
    rhs = HSeries.const(m * m) + HSeries.const(v.scale(2)) + HSeries.const(v * v) / (m * m)
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
