"""Exact coefficient arithmetic.

The whole engine runs on four nested coefficient domains:

    GaussianRational  ->  Poly  ->  RationalFn  ->  HSeries

* ``GaussianRational``: (a + b*i)/d with ints a, b and d, kept canonical
  (d > 0 and gcd(a, b, d) = 1), so that equal values have equal fields.
  ``int`` and ``Fraction`` values are accepted wherever one is expected.
* ``Poly``: multivariate polynomial in commuting symbols (strings) with
  GaussianRational coefficients, stored sparsely as {monomial: coeff}.
  The deformation symbol ``h`` is *never* a Poly symbol; powers of h are
  tracked by HSeries.
* ``RationalFn``: quotient of two Polys, gcd-reduced, denominator
  normalized so its leading coefficient (in a fixed monomial order) is 1.
  A denominator of one is always the shared ``POLY_ONE``.
* ``HSeries``: Laurent-style series sum_k c_k h^k with RationalFn
  coefficients.  ``truncation`` is None for exact values (no truncation
  ever happened) or the integer N such that terms beyond h^N were
  dropped.  Arithmetic propagates the minimum truncation order.

All values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Rational = Fraction


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to Fraction")


class GaussianRational:
    """Exact complex rational (a + b*i)/d, stored as the three ints a, b, d.

    The form is canonical: d > 0 and gcd(a, b, d) = 1, and zero is
    (0, 0, 1).  Equal values therefore have equal fields.  The constructor
    takes the real and imaginary parts as ints or Fractions; ``re`` and
    ``im`` read them back as Fractions.  Arithmetic stays in ints.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = _as_fraction(re), _as_fraction(im)
            dr, di = re.denominator, im.denominator
            d = dr * di // gcd(dr, di)
            # reduced parts over their lcm already have gcd(a, b, d) = 1
            a, b = re.numerator * (d // dr), im.numerator * (d // di)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    # -- arithmetic -------------------------------------------------
    # an operand as_gaussian cannot take (a Poly, RationalFn or HSeries)
    # gives NotImplemented, so Python asks the operand's reflected operator
    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = as_gaussian(other)
            except TypeError:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _gaussian(self._a + other._a, self._b + other._b, d)
        return _gaussian(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _gaussian(-self._a, -self._b, self._d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = as_gaussian(other)
            except TypeError:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _gaussian(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def conjugate(self):
        return _gaussian(self._a, -self._b, self._d)

    def inverse(self):
        a, b, d = self._a, self._b, self._d
        if not (a or b):
            raise ZeroDivisionError("division by zero GaussianRational")
        return _gaussian(a * d, -b * d, a * a + b * b)

    def __truediv__(self, other):
        try:
            other = as_gaussian(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        try:
            other = as_gaussian(other)
        except TypeError:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("GaussianRational powers must be non-negative ints")
        out = GR_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons / hashing --------------------------------------
    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = as_gaussian(other)
            except TypeError:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # a real value hashes as the equal int or Fraction
        a, b, d = self._a, self._b, self._d
        if not b:
            return hash(a) if d == 1 else hash(Fraction(a, d))
        return hash((a, b)) if d == 1 else hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return _frac_str(re)
        if not re:
            return _imag_str(im)
        sign = "+" if im > 0 else "-"
        return f"({_frac_str(re)}{sign}{_imag_str(abs(im))})"


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
_new = object.__new__


def _gaussian(a, b, d):
    """The canonical GaussianRational (a + b*i)/d, for ints a, b and d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    out = _new(GaussianRational)
    _set_a(out, a)
    _set_b(out, b)
    _set_d(out, d)
    return out


def _frac_str(q):
    return str(q)


def _imag_str(q):
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return f"{q}*i"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
# the types of a constant coefficient; GaussianRational comes first because
# an isinstance test against Fraction, an ABC, is slow
CONSTANT_TYPES = (GaussianRational, int, Fraction)


def as_gaussian(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {x!r} to GaussianRational")


def levi_civita(i, j, k):
    """The Levi-Civita symbol on indices 1..3: the sign of the permutation
    (i, j, k) of (1, 2, 3), and 0 when an index repeats."""
    if {i, j, k} != {1, 2, 3}:
        return 0
    return 1 if (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1


# ---------------------------------------------------------------------------
# Poly: sparse multivariate polynomial over GaussianRational
# ---------------------------------------------------------------------------

# monomial = tuple of (symbol, exponent) pairs, symbols sorted, exponents > 0
MONOMIAL_ONE = ()


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for s, e in m2:
        d[s] = d.get(s, 0) + e
    return tuple(sorted((s, e) for s, e in d.items() if e))


def _mono_degree(m):
    return sum(e for _, e in m)


class Poly:
    """Multivariate polynomial in commuting symbols, exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict {monomial: GaussianRational}, zero coeffs stripped
        t = {}
        if terms:
            for m, c in terms.items():
                c = as_gaussian(c)
                if c:
                    t[m] = c
        object.__setattr__(self, "terms", t)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def const(c):
        c = as_gaussian(c)
        return _poly({MONOMIAL_ONE: c}) if c else POLY_ZERO

    @staticmethod
    def var(name, power=1):
        if name == "h":
            raise ValueError("'h' is the distinguished series symbol; use HSeries.h()")
        if power < 0:
            raise ValueError("Poly variables need non-negative powers")
        if power == 0:
            return POLY_ONE
        return _poly({((name, power),): GR_ONE})

    # -- queries ----------------------------------------------------
    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and MONOMIAL_ONE in self.terms)

    def const_value(self):
        if not self.is_const():
            raise ValueError(f"not a constant: {self}")
        return self.terms.get(MONOMIAL_ONE, GR_ZERO)

    def symbols(self):
        out = set()
        for m in self.terms:
            for s, _ in m:
                out.add(s)
        return out

    def degree(self):
        if not self.terms:
            return -1
        return max(_mono_degree(m) for m in self.terms)

    def degree_in(self, sym):
        d = 0
        for m in self.terms:
            for s, e in m:
                if s == sym and e > d:
                    d = e
        return d

    # -- arithmetic -------------------------------------------------
    # a RationalFn or HSeries operand gives NotImplemented, so Python asks
    # its reflected operator
    def __add__(self, other):
        if other.__class__ is not Poly:
            try:
                other = as_poly(other)
            except TypeError:
                return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        t = dict(self.terms)
        for m, c in other.terms.items():
            nc = t.get(m, GR_ZERO) + c
            if nc:
                t[m] = nc
            else:
                t.pop(m, None)
        return _poly(t)

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ is not Poly:
            if other.__class__ is not GaussianRational:
                try:
                    other = as_gaussian(other)
                except TypeError:
                    return NotImplemented
            return self.scale(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return POLY_ZERO
        # a constant factor scales the other's terms in their own order,
        # which is the order the loop below would give
        if len(b) == 1 and MONOMIAL_ONE in b:
            return self.scale(b[MONOMIAL_ONE])
        if len(a) == 1 and MONOMIAL_ONE in a:
            return other.scale(a[MONOMIAL_ONE])
        t = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                old = t.get(m)
                nc = c if old is None else old + c
                if nc:
                    t[m] = nc
                else:
                    t.pop(m, None)
        return _poly(t)

    __rmul__ = __mul__

    # a quotient of Polys is a RationalFn
    def __truediv__(self, other):
        return RationalFn(self) / other

    def __rtruediv__(self, other):
        return as_rationalfn(other) / RationalFn(self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Poly powers must be non-negative ints")
        out = POLY_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c):
        if c.__class__ is not GaussianRational:
            c = as_gaussian(c)
        if not c:
            return POLY_ZERO
        return _poly({m: v * c for m, v in self.terms.items()})

    # -- calculus / substitution ------------------------------------
    def derivative(self, sym):
        t = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(sym, 0)
            if not e:
                continue
            if e == 1:
                del d[sym]
            else:
                d[sym] = e - 1
            mm = tuple(sorted(d.items()))
            t[mm] = t.get(mm, GR_ZERO) + c * e
        return _poly({m: c for m, c in t.items() if c})

    def subs(self, mapping):
        """Substitute symbols; values may be Poly, GaussianRational, Fraction, int."""
        out = POLY_ZERO
        for m, c in self.terms.items():
            term = Poly.const(c)
            for s, e in m:
                if s in mapping:
                    term = term * (as_poly(mapping[s]) ** e)
                else:
                    term = term * Poly.var(s, e)
            out = out + term
        return out

    # -- comparisons ------------------------------------------------
    def __eq__(self, other):
        try:
            other = as_poly(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes as its GaussianRational value
        if self.is_const():
            return hash(self.const_value())
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: (_mono_degree(m), m)):
            c = self.terms[m]
            factors = [f"{s}^{e}" if e > 1 else s for s, e in m]
            body = "*".join(factors)
            if not body:
                bits.append(str(c))
            elif c == GR_ONE:
                bits.append(body)
            elif c == -GR_ONE:
                bits.append(f"-{body}")
            else:
                bits.append(f"{c}*{body}")
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    # -- leading data in a fixed (grevlex-ish) order ------------------
    def _lead(self):
        key = max(self.terms, key=lambda m: (_mono_degree(m), m))
        return key, self.terms[key]


_set_terms = Poly.terms.__set__


def _poly(terms):
    """The Poly with these terms, taken as they are: GaussianRational
    coefficients, none of them zero (what Poly() would make of them)."""
    out = _new(Poly)
    _set_terms(out, terms)
    return out


POLY_ZERO = Poly()
POLY_ONE = Poly({MONOMIAL_ONE: GR_ONE})


def as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, CONSTANT_TYPES):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {x!r} to Poly")


# ---------------------------------------------------------------------------
# multivariate gcd (primitive PRS, recursing on the symbol set)
# ---------------------------------------------------------------------------


def _poly_to_univariate(p, sym):
    """View p as dense coefficient list in sym: [c0, c1, ...] with Poly coeffs."""
    deg = p.degree_in(sym)
    coeffs = [POLY_ZERO] * (deg + 1)
    for m, c in p.terms.items():
        d = dict(m)
        e = d.pop(sym, 0)
        rest = tuple(sorted(d.items()))
        coeffs[e] = coeffs[e] + _poly({rest: c})
    return coeffs


def _univariate_to_poly(coeffs, sym):
    out = POLY_ZERO
    for e, c in enumerate(coeffs):
        if c:
            out = out + c * Poly.var(sym, e)
    return out


def _uni_degree(coeffs):
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return -1


def _uni_prem(a, b, sym_order):
    """Pseudo-remainder of dense Poly-coefficient lists a by b."""
    a = list(a)
    da, db = _uni_degree(a), _uni_degree(b)
    lb = b[db]
    while da >= db >= 0:
        la = a[da]
        # a := lb*a - la*x^(da-db)*b
        a = [lb * x for x in a]
        shift = da - db
        for i in range(db + 1):
            a[i + shift] = a[i + shift] - la * b[i]
        nda = _uni_degree(a)
        if nda == da:  # defensive; lead must drop
            raise ArithmeticError("pseudo-remainder failed to reduce degree")
        da = nda
    return a[: da + 1] if da >= 0 else []

def _content(p, symbols):
    """gcd of the coefficients of p viewed in symbols[0]."""
    coeffs = _poly_to_univariate(p, symbols[0])
    cs = [c for c in coeffs if c]
    g = cs[0]
    for c in cs[1:]:
        g = poly_gcd(g, c)
        if g.is_const():
            break
    return g


def poly_gcd(a, b):
    """gcd of two Polys, monic-normalized in the fixed monomial order.

    If either argument is a single term the gcd is their common monomial,
    with no PRS (every non-unit denominator of the projective calculus is a
    monomial).  Other denominators occurring in this engine are small
    (1 + h-corrections), so a primitive PRS is plenty.
    """
    a, b = as_poly(a), as_poly(b)
    if not a:
        return _monic(b)
    if not b:
        return _monic(a)
    if a.is_const() or b.is_const():
        return POLY_ONE
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _common_monomial(a, b)
    syms = sorted(a.symbols() | b.symbols())
    return _monic(_gcd_rec(a, b, syms))


def _common_monomial(a, b):
    """The monic gcd when a or b is a single term: each symbol to its least
    exponent over all terms of both (a symbol missing from a term has 0)."""
    monos = list(a.terms) + list(b.terms)
    low = dict(monos[0])
    for m in monos[1:]:
        d = dict(m)
        low = {s: min(e, d[s]) for s, e in low.items() if s in d}
    return _poly({tuple(sorted(low.items())): GR_ONE})


def _gcd_rec(a, b, syms):
    if not a:
        return b
    if not b:
        return a
    if a.is_const() or b.is_const():
        return POLY_ONE
    sym = syms[0]
    da, db = a.degree_in(sym), b.degree_in(sym)
    if da == 0 and db == 0:
        return _gcd_rec(a, b, syms[1:])
    ca, cb = _content(a, syms), _content(b, syms)
    cont = _gcd_rec(ca, cb, syms[1:]) if not (ca.is_const() and cb.is_const()) else POLY_ONE
    pa = poly_exact_div(a, ca)
    pb = poly_exact_div(b, cb)
    ua = _poly_to_univariate(pa, sym)
    ub = _poly_to_univariate(pb, sym)
    if _uni_degree(ua) < _uni_degree(ub):
        ua, ub = ub, ua
    while True:
        dub = _uni_degree(ub)
        if dub < 0:
            g = _univariate_to_poly(ua, sym)
            break
        if dub == 0:
            g = POLY_ONE
            break
        r = _uni_prem(ua, ub, syms)
        ua, ub = ub, r
        if ub:
            # primitive part to tame growth
            p = _univariate_to_poly(ub, sym)
            c = _content(p, [sym] + syms)
            p = poly_exact_div(p, c)
            ub = _poly_to_univariate(p, sym)
    gp = g
    c = _content(gp, [sym] + syms) if not gp.is_const() else POLY_ONE
    gp = poly_exact_div(gp, c)
    return cont * gp


def poly_exact_div(a, b):
    """Exact division a / b; raises if not divisible."""
    a, b = as_poly(a), as_poly(b)
    if not b:
        raise ZeroDivisionError("Poly division by zero")
    if b.is_const():
        inv = b.const_value().inverse()
        return a.scale(inv)
    if len(b.terms) == 1:
        return _monomial_div(a, b)
    return _long_div(a, b)


def _long_div(a, b):
    """a / b by repeated division of leading terms in graded lex order.

    The order must be a term order, for an exact division to end with no
    remainder; the order of _lead is not one (it puts y before x but x^2
    before x*y)."""
    syms = sorted(a.symbols() | b.symbols())

    def grlex(m):
        d = dict(m)
        e = tuple(d.get(s, 0) for s in syms)
        return sum(e), e

    rem = a
    quot = POLY_ZERO
    bl_m = max(b.terms, key=grlex)
    bl_c_inv = b.terms[bl_m].inverse()
    while rem:
        rl_m = max(rem.terms, key=grlex)
        qm = _mono_div(rl_m, bl_m)
        if qm is None:
            raise ArithmeticError(f"inexact Poly division: {a} / {b}")
        qterm = _poly({qm: rem.terms[rl_m] * bl_c_inv})
        quot = quot + qterm
        rem = rem - qterm * b
    return quot


def _monomial_div(a, b):
    """a / b for a single-term b: divide every term of a by it."""
    ((bm, bc),) = b.terms.items()
    inv = bc.inverse()
    out = {}
    for m, c in a.terms.items():
        qm = _mono_div(m, bm)
        if qm is None:
            raise ArithmeticError(f"inexact Poly division: {a} / {b}")
        out[qm] = c * inv
    return _poly(out)


def _mono_div(m, d):
    """The monomial m / d, or None if d does not divide m."""
    q = dict(m)
    for s, e in d:
        r = q.get(s, 0) - e
        if r < 0:
            return None
        if r:
            q[s] = r
        else:
            del q[s]
    return tuple(sorted(q.items()))


def _monic(p):
    if not p:
        return p
    _, lc = p._lead()
    return p.scale(lc.inverse())


# ---------------------------------------------------------------------------
# RationalFn
# ---------------------------------------------------------------------------


class RationalFn:
    """Quotient of Polys, canonicalized (gcd-reduced, monic denominator).

    A denominator that reduces to one is always the shared ``POLY_ONE``, so
    ``den is POLY_ONE`` tells a polynomial value; every other denominator
    is a non-constant Poly."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=POLY_ONE):
        num, den = as_poly(num), as_poly(den)
        if not den:
            raise ZeroDivisionError("RationalFn with zero denominator")
        if num and not den.is_const():
            g = poly_gcd(num, den)
            if not g.is_const():
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
        if not num:
            den = POLY_ONE
        elif den.is_const():
            if den is not POLY_ONE:
                num = num.scale(den.const_value().inverse())
                den = POLY_ONE
        else:
            _, lc = den._lead()
            if lc != GR_ONE:
                inv = lc.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFn is immutable")

    # -- arithmetic -------------------------------------------------
    # an HSeries operand gives NotImplemented, so Python asks its reflected
    # operator
    def __add__(self, other):
        if other.__class__ is not RationalFn:
            try:
                other = as_rationalfn(other)
            except TypeError:
                return NotImplemented
        if self.den is POLY_ONE and other.den is POLY_ONE:
            return _rfn(self.num + other.num, POLY_ONE)
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return _rfn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ is not RationalFn:
            if isinstance(other, CONSTANT_TYPES):
                return self.scale(other)
            try:
                other = as_rationalfn(other)
            except TypeError:
                return NotImplemented
        if self.den is POLY_ONE and other.den is POLY_ONE:
            return _rfn(self.num * other.num, POLY_ONE)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_rationalfn(other)
        if not other.num:
            raise ZeroDivisionError("RationalFn division by zero")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return as_rationalfn(other) / self

    def __pow__(self, n):
        if n < 0:
            return (RFN_ONE / self) ** (-n)
        return RationalFn(self.num ** n, self.den ** n)

    def scale(self, c):
        """self * c for an int, Fraction or GaussianRational c: the same
        canonical value as the product, from one pass over the numerator."""
        if c.__class__ is not GaussianRational:
            c = as_gaussian(c)
        if not c:
            return RFN_ZERO
        return _rfn(self.num.scale(c), self.den)

    # -- structure ----------------------------------------------------
    def is_poly(self):
        return self.den is POLY_ONE

    def as_poly(self):
        if not self.is_poly():
            raise ValueError(f"not polynomial: {self}")
        return self.num

    def is_const(self):
        return self.is_poly() and self.num.is_const()

    def const_value(self):
        return self.as_poly().const_value()

    def symbols(self):
        return self.num.symbols() | self.den.symbols()

    def derivative(self, sym):
        return RationalFn(
            self.num.derivative(sym) * self.den - self.num * self.den.derivative(sym),
            self.den * self.den,
        )

    def subs(self, mapping):
        num = self.num.subs(mapping)
        den = self.den.subs(mapping)
        return RationalFn(num, den)

    # -- comparisons: cross-multiplication ---------------------------
    def __eq__(self, other):
        try:
            other = as_rationalfn(other)
        except TypeError:
            return NotImplemented
        if self.den is POLY_ONE and other.den is POLY_ONE:
            return self.num.terms == other.num.terms
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # a polynomial value hashes as its numerator, so a constant as its
        # GaussianRational value
        if self.is_poly():
            return hash(self.num)
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return f"RationalFn({self})"

    def __str__(self):
        if self.den is POLY_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"


_set_num = RationalFn.num.__set__
_set_den = RationalFn.den.__set__


def _rfn(num, den):
    """The RationalFn num/den, for a pair that is already canonical."""
    out = _new(RationalFn)
    _set_num(out, num)
    _set_den(out, den)
    return out


RFN_ZERO = RationalFn(POLY_ZERO)
RFN_ONE = RationalFn(POLY_ONE)


def as_rationalfn(x):
    if isinstance(x, RationalFn):
        return x
    if isinstance(x, CONSTANT_TYPES):
        return _rfn(Poly.const(x), POLY_ONE)
    if isinstance(x, Poly):
        return RationalFn(x)
    raise TypeError(f"cannot coerce {x!r} to RationalFn")


# ---------------------------------------------------------------------------
# HSeries: Laurent series in the deformation symbol h = 1/kappa
# ---------------------------------------------------------------------------


class HSeries:
    """sum_k coeff[k] * h^k with RationalFn coefficients.

    truncation is None when the value is exact (a finite h-polynomial no
    truncation ever touched), otherwise the order N through which the
    series is trusted.  Terms beyond the truncation are never stored.
    """

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs=None, truncation=None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                v = as_rationalfn(v)
                if v:
                    if truncation is not None and k > truncation:
                        continue
                    c[k] = v
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, *a):
        raise AttributeError("HSeries is immutable")

    @staticmethod
    def const(c):
        c = as_rationalfn(c)
        return _hseries({0: c}, None) if c else H_ZERO

    @staticmethod
    def h(power=1):
        return HSeries({power: RFN_ONE})

    # -- structure ----------------------------------------------------
    def is_exact(self):
        return self.truncation is None

    def min_power(self):
        return min(self.coeffs) if self.coeffs else None

    def max_power(self):
        return max(self.coeffs) if self.coeffs else None

    def coeff(self, k):
        return self.coeffs.get(k, RFN_ZERO)

    def constant_term(self):
        return self.coeffs.get(0, RFN_ZERO)

    def has_negative_powers(self):
        return any(k < 0 for k in self.coeffs)

    def symbols(self):
        out = set()
        for v in self.coeffs.values():
            out |= v.symbols()
        return out

    @staticmethod
    def _join(t1, t2):
        if t1 is None:
            return t2
        if t2 is None:
            return t1
        return min(t1, t2)

    def truncate(self, order):
        t = self.truncation if self.truncation is not None and self.truncation < order else order
        return HSeries({k: v for k, v in self.coeffs.items() if k <= t}, t)

    # -- arithmetic -------------------------------------------------
    def __add__(self, other):
        if other.__class__ is not HSeries:
            other = as_hseries(other)
        t = self._join(self.truncation, other.truncation)
        c = dict(self.coeffs)
        for k, v in other.coeffs.items():
            nv = c.get(k, RFN_ZERO) + v
            if nv:
                c[k] = nv
            else:
                c.pop(k, None)
        if t is not None:
            c = {k: v for k, v in c.items() if k <= t}
        return _hseries(c, t)

    __radd__ = __add__

    def __neg__(self):
        return _hseries({k: -v for k, v in self.coeffs.items()}, self.truncation)

    def __sub__(self, other):
        return self + (-as_hseries(other))

    def __rsub__(self, other):
        return as_hseries(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not HSeries:
            other = as_hseries(other)
        t = self._join(self.truncation, other.truncation)
        c = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                if t is not None and k > t:
                    continue
                v = v1 * v2
                old = c.get(k)
                nv = v if old is None else old + v
                if nv:
                    c[k] = nv
                else:
                    c.pop(k, None)
        return _hseries(c, t)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("HSeries powers must be non-negative ints")
        out = H_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        other = as_hseries(other)
        ks = list(other.coeffs)
        if len(ks) == 1:
            k = ks[0]
            inv = HSeries({-k: RFN_ONE / other.coeffs[k]}, other.truncation)
            return self * inv
        raise ArithmeticError("HSeries division only by h-monomials; expand instead")

    def scale(self, c):
        """self * c for a constant c (int, Fraction, GaussianRational) or a
        Poly or RationalFn c; the truncation is kept."""
        if isinstance(c, CONSTANT_TYPES):
            c, mul = as_gaussian(c), RationalFn.scale
        else:
            c, mul = as_rationalfn(c), RationalFn.__mul__
        if not c:
            return _hseries({}, self.truncation)
        return _hseries({k: mul(v, c) for k, v in self.coeffs.items()}, self.truncation)

    def subs(self, mapping):
        return HSeries({k: v.subs(mapping) for k, v in self.coeffs.items()}, self.truncation)

    # -- comparisons ------------------------------------------------
    def __eq__(self, other):
        try:
            other = as_hseries(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a series with no power of h but h^0 hashes as that coefficient
        if not self.coeffs.keys() - {0}:
            return hash(self.constant_term())
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"HSeries({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k in sorted(self.coeffs):
            v = self.coeffs[k]
            vs = str(v)
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


_set_coeffs = HSeries.coeffs.__set__
_set_truncation = HSeries.truncation.__set__


def _hseries(coeffs, truncation):
    """The HSeries with these coefficients, taken as they are: nonzero
    RationalFns, none beyond the truncation."""
    out = _new(HSeries)
    _set_coeffs(out, coeffs)
    _set_truncation(out, truncation)
    return out


H_ZERO = HSeries()
H_ONE = HSeries({0: RFN_ONE})
H_I = HSeries({0: RationalFn(Poly.const(GR_I))})


def as_hseries(x):
    if isinstance(x, HSeries):
        return x
    if isinstance(x, (RationalFn, GaussianRational, Poly, int, Fraction)):
        return HSeries.const(as_rationalfn(x))
    raise TypeError(f"cannot coerce {x!r} to HSeries")


# ---------------------------------------------------------------------------
# images in F_p for a prime p = 1 (mod 4), so F_p holds a square root of -1
# ---------------------------------------------------------------------------

MOD_P = 2305843009213693973
MOD_I = pow(3, (MOD_P - 1) // 4, MOD_P)


def inverse_mod(x):
    """x^-1 in F_p; ZeroDivisionError when p divides x."""
    if not x % MOD_P:
        raise ZeroDivisionError("value is 0 mod p")
    return pow(x, -1, MOD_P)


def _poly_mod(poly, values):
    total = 0
    for m, c in poly.terms.items():
        v = c._a + c._b * MOD_I
        if c._d != 1:
            v = v * inverse_mod(c._d)
        for s, e in m:
            v = v * (values[s] if e == 1 else pow(values[s], e, MOD_P)) % MOD_P
        total += v
    return total % MOD_P


def eval_mod(x, values, h=1):
    """The image of the scalar x in F_p at the symbol residues `values` and
    at h = `h`: (a + b*i)/d maps to (a + b*MOD_I) * d^-1.  It is a ring map
    wherever no denominator is 0 mod p; one that is raises ZeroDivisionError."""
    total = 0
    for k, v in as_hseries(x).coeffs.items():
        val = _poly_mod(v.num, values)
        if v.den is not POLY_ONE:
            val = val * inverse_mod(_poly_mod(v.den, values))
        total += val * pow(h if k >= 0 else inverse_mod(h), abs(k), MOD_P)
    return total % MOD_P


# ---------------------------------------------------------------------------
# series utilities
# ---------------------------------------------------------------------------


class SeriesDomainError(ValueError):
    """Argument outside a series operation's domain (nonzero constant term)."""


def series_log1p(x, order):
    """log(1 + x) = sum_{k>=1} (-1)^(k+1) x^k / k through h^order.

    x must vanish at h = 0 (no constant term); exponentials and logs with
    O(1) arguments belong to the projective-representation layer, never here.
    """
    x = as_hseries(x)
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"series_log1p order must be >= 1, got {order!r}")
    if x.constant_term() or (x.min_power() is not None and x.min_power() < 0):
        raise SeriesDomainError("series_log1p needs an argument with no h^0 term")
    x = x.truncate(order)
    out = H_ZERO.truncate(order)
    power = H_ONE.truncate(order)
    for k in range(1, order + 1):
        power = (power * x).truncate(order)
        if not power:
            break
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
    return out


def series_exp(x, order):
    """exp(x) = sum x^k / k! through h^order; x must have no h^0 term."""
    x = as_hseries(x)
    if not isinstance(order, int) or order < 0:
        raise ValueError(f"series_exp order must be >= 0, got {order!r}")
    if x.constant_term() or (x.min_power() is not None and x.min_power() < 0):
        raise SeriesDomainError("series_exp needs an argument with no h^0 term")
    x = x.truncate(order)
    out = H_ONE.truncate(order)
    power = H_ONE.truncate(order)
    fact = 1
    for k in range(1, order + 1):
        power = (power * x).truncate(order)
        fact *= k
        if not power:
            break
        out = out + power.scale(Fraction(1, fact))
    return out


def series_inverse_one_plus(x, order):
    """1/(1+x) through h^order for x with no h^0 term (geometric series)."""
    x = as_hseries(x)
    if x.constant_term() or (x.min_power() is not None and x.min_power() < 0):
        raise SeriesDomainError("series_inverse_one_plus needs a vanishing h^0 term")
    x = x.truncate(order)
    out = H_ONE.truncate(order)
    power = H_ONE.truncate(order)
    for k in range(1, order + 1):
        power = (power * x).truncate(order)
        if not power:
            break
        out = out + power.scale(Fraction((-1) ** k))
    return out
