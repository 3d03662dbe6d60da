"""Exact coefficient arithmetic: field axioms, canonical forms, series."""

import random
from fractions import Fraction as F

import pytest

from kappa_hopf import scalars
from kappa_hopf.scalars import (
    GaussianRational,
    GR_I,
    GR_ONE,
    HSeries,
    Poly,
    POLY_ONE,
    RationalFn,
    SeriesDomainError,
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


def test_poly_arithmetic_and_eval():
    rng = random.Random(5)
    x, y = Poly.var("x"), Poly.var("y")
    p = x * x + y.scale(2) - Poly.const(3)
    q = x * y - Poly.const(F(1, 2))
    for _ in range(50):
        pt = {"x": rand_gaussian(rng, 9), "y": rand_gaussian(rng, 9)}
        assert (p * q).eval_gaussian(pt) == p.eval_gaussian(pt) * q.eval_gaussian(pt)
        assert (p + q).eval_gaussian(pt) == p.eval_gaussian(pt) + q.eval_gaussian(pt)
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
        assert lhs.eval_gaussian(pt) == rhs.eval_gaussian(pt)
    assert lhs == rhs


def test_levi_civita_all_index_triples():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                # sign of the permutation, 0 on a repeated index
                assert levi_civita(i, j, k) == (i - j) * (j - k) * (k - i) // 2
    assert levi_civita(1, 2, 3) == levi_civita(3, 1, 2) == 1
    assert levi_civita(2, 1, 3) == -1
