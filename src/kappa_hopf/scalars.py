"""Exact coefficient arithmetic.

Every coefficient of the engine is an ``HSeries``, built on three domains:

* ``GaussianRational``: (a + b*i)/d with ints a, b and d, kept canonical
  (d > 0 and gcd(a, b, d) = 1), so that equal values have equal fields.
  ``int`` and ``Fraction`` values are accepted wherever one is expected.
* ``Poly``: multivariate polynomial in commuting symbols (strings) with
  GaussianRational coefficients, stored sparsely as {monomial: coeff}.
  The deformation symbol ``h`` is *never* a Poly symbol.
* ``HSeries``: exact Laurent polynomial sum_k c_k h^k, stored flat as one
  sparse map {(k, monomial): GaussianRational} over one monic monomial
  denominator Poly (Monagan & Pearce's distributed layout, ISSAC 2009), so
  a product of constants is one GaussianRational product.  It is the only
  type that computes with fractions; ``_canonical`` reduces them.  The
  paper's fractions divide by m, v and p^2/(2 m kappa) only, so a division
  that would need a multi-term denominator raises ArithmeticError.  A value
  known only through some power of h is an ``NCElement`` with an
  ``order``; its coefficients stay exact.

``RationalFn`` is the read-only value of one power: ``HSeries.coeffs`` and
``coeff(k)`` give num/den reduced on its own, and ``HSeries({k: ...})``
takes it back.  It compares, hashes and prints, and does no arithmetic.

All values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd


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
    # an operand as_gaussian cannot take (a Poly or HSeries) gives
    # NotImplemented, so Python asks the operand's reflected operator
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
        return _power(self, n, GR_ONE)

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
            return str(re)
        if not re:
            return _imag_str(im)
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{_imag_str(abs(im))})"


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


def _power(base, n, one):
    """base ** n for an int n >= 0 by square-and-multiply; one is the
    value of base ** 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"{type(base).__name__} powers must be non-negative ints")
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


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

    # -- arithmetic -------------------------------------------------
    # an HSeries operand gives NotImplemented, so Python asks its reflected
    # operator
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

    def __pow__(self, n):
        return _power(self, n, POLY_ONE)

    def scale(self, c):
        if c.__class__ is not GaussianRational:
            c = as_gaussian(c)
        if not c:
            return POLY_ZERO
        return _poly({m: v * c for m, v in self.terms.items()})

    # -- substitution -----------------------------------------------
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
# gcd and exact division by a monomial (every denominator is one)
# ---------------------------------------------------------------------------


def poly_gcd(a, b):
    """gcd of two Polys, monic-normalized in the fixed monomial order: the
    common monomial when either is a single term.  Every denominator is a
    monomial, so two multi-term Polys raise ArithmeticError."""
    a, b = as_poly(a), as_poly(b)
    if not a:
        return _monic(b)
    if not b:
        return _monic(a)
    if a.is_const() or b.is_const():
        return POLY_ONE
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _poly({_common_monomial([*a.terms, *b.terms]): GR_ONE})
    raise ArithmeticError(f"gcd of two multi-term Polys: {a}, {b}")


def _common_monomial(monos):
    """The gcd of the monomials monos: each symbol to its least exponent
    over all of them (a symbol missing from one has 0).  With a single-term
    Poly among them, it is the monic gcd of the Polys they come from."""
    low = dict(monos[0])
    for m in monos[1:]:
        if not low:
            break
        d = dict(m)
        low = {s: min(e, d[s]) for s, e in low.items() if s in d}
    return tuple(sorted(low.items()))


def poly_exact_div(a, b):
    """Exact division a / b by a constant or single-term b; raises
    ArithmeticError if b does not divide a or has more than one term."""
    a, b = as_poly(a), as_poly(b)
    if not b:
        raise ZeroDivisionError("Poly division by zero")
    if b.is_const():
        inv = b.const_value().inverse()
        return a.scale(inv)
    if len(b.terms) == 1:
        return _monomial_div(a, b)
    raise ArithmeticError(f"Poly division by a multi-term divisor: {a} / {b}")


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
    """The value num/den of one power of an HSeries, read-only: reduced by
    ``_canonical`` (the common monomial divided out, one monic monomial
    denominator, the shared ``POLY_ONE`` for a polynomial value, so ``den is
    POLY_ONE`` tells one).  A multi-term den raises ArithmeticError.  It has
    no arithmetic; compute with ``HSeries.const(...)`` values."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=POLY_ONE):
        num, den = as_poly(num), as_poly(den)
        if not den:
            raise ZeroDivisionError("RationalFn with zero denominator")
        if den is not POLY_ONE:
            terms, den = _canonical({(0, m): c for m, c in num.terms.items()}, den)
            num = _poly({m: c for (_, m), c in terms.items()})
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFn is immutable")

    def is_poly(self):
        return self.den is POLY_ONE

    def is_const(self):
        return self.is_poly() and self.num.is_const()

    def const_value(self):
        if not self.is_poly():
            raise ValueError(f"not polynomial: {self}")
        return self.num.const_value()

    # -- comparisons: canonical fields --------------------------------
    def __eq__(self, other):
        if isinstance(other, (Poly,) + CONSTANT_TYPES):
            other = RationalFn(other)
        elif other.__class__ is not RationalFn:
            return NotImplemented
        return self.num.terms == other.num.terms and self.den == other.den

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


# ---------------------------------------------------------------------------
# HSeries: Laurent series in the deformation symbol h = 1/kappa
# ---------------------------------------------------------------------------


def _mul_flat(a, b, order=None):
    """The product of two flat term dicts {(k, monomial): coefficient}
    through h^order (None: all of it); pairs past h^order are not multiplied."""
    t = {}
    for (k1, m1), c1 in a.items():
        for (k2, m2), c2 in b.items():
            k = k1 + k2
            if order is not None and k > order:
                continue
            key = (k, _mono_mul(m1, m2))
            old = t.get(key)
            if old is None:
                t[key] = c1 * c2
            else:
                c = old + c1 * c2
                if c:
                    t[key] = c
                else:
                    del t[key]
    return t


def _by_power(terms):
    """{k: the Poly of the h^k terms}, powers in their first order in terms."""
    parts = {}
    for (k, m), c in terms.items():
        parts.setdefault(k, {})[m] = c
    return {k: _poly(t) for k, t in parts.items()}


def _canonical(terms, den):
    """The fields of the value terms/den (den a single nonzero term):
    both divided by the common monomial of den and every flat monomial, in
    one pass, den monic, and the shared POLY_ONE when it is constant.  The
    only code that reduces a fraction; a multi-term den raises
    ArithmeticError."""
    if den is POLY_ONE:
        return terms, den
    if not terms:
        return terms, POLY_ONE
    if len(den.terms) != 1:
        raise ArithmeticError(f"denominator {den} is not a monomial")
    ((dm, dc),) = den.terms.items()
    g = _common_monomial([dm, *(m for _, m in terms)])
    if g:
        dm = _mono_div(dm, g)
        terms = {(k, _mono_div(m, g)): c for (k, m), c in terms.items()}
    inv = dc.inverse()
    if inv != GR_ONE:
        terms = {key: c * inv for key, c in terms.items()}
    return terms, _poly({dm: GR_ONE}) if dm else POLY_ONE


class HSeries:
    """sum_k c_k h^k, an exact Laurent polynomial in h with rational-function
    coefficients, stored flat: ``terms`` maps (k, monomial) to a nonzero
    GaussianRational, over one monic monomial denominator ``den`` that shares
    no symbol with all of the flat monomials at once.  A polynomial
    value has the shared ``POLY_ONE``.  Equal values have equal fields.  A
    value known only through some order of h is an NCElement with an
    ``order``."""

    __slots__ = ("terms", "den")

    def __init__(self, coeffs=None):
        # coeffs: {k: c_k}, each c_k a RationalFn, a Poly or a constant,
        # brought over the lcm of their denominators
        parts = [(k, v.num, v.den) if isinstance(v, RationalFn) else (k, as_poly(v), POLY_ONE)
                 for k, v in coeffs.items()] if coeffs else []
        den = POLY_ONE
        for _, _, d in parts:
            if d is not POLY_ONE:
                den = den * poly_exact_div(d, poly_gcd(den, d))
        terms = {}
        for k, num, d in parts:
            if d is not den:
                num = num * poly_exact_div(den, d)
            terms.update(((k, m), c) for m, c in num.terms.items())
        terms, den = _canonical(terms, den)
        _set_hterms(self, terms)
        _set_hden(self, den)

    def __setattr__(self, *a):
        raise AttributeError("HSeries is immutable")

    @staticmethod
    def const(c):
        return as_hseries(c)

    @staticmethod
    def from_terms(terms):
        """The polynomial series with these flat terms {(k, monomial):
        GaussianRational}, zero ones dropped."""
        return _hseries({key: c for key, c in terms.items() if c}, POLY_ONE)

    @staticmethod
    def h(power=1):
        return _hseries({(power, MONOMIAL_ONE): GR_ONE}, POLY_ONE)

    # -- structure ----------------------------------------------------
    @property
    def coeffs(self):
        """The read-only view {k: c_k}, each power reduced on its own."""
        return {k: RationalFn(p, self.den) for k, p in _by_power(self.terms).items()}

    def min_power(self):
        return min((k for k, _ in self.terms), default=None)

    def max_power(self):
        return max((k for k, _ in self.terms), default=None)

    def coeff(self, k):
        return RationalFn(_poly({m: c for (j, m), c in self.terms.items() if j == k}), self.den)

    def constant_term(self):
        return self.coeff(0)

    def has_negative_powers(self):
        return any(k < 0 for k, _ in self.terms)

    def symbols(self):
        out = self.den.symbols()
        for _, m in self.terms:
            out.update(s for s, _ in m)
        return out

    def truncate(self, order):
        """The powers of h up to h^order; their numerators may share a
        factor with den that a dropped power did not."""
        return _hseries(*_canonical(
            {key: c for key, c in self.terms.items() if key[0] <= order}, self.den))

    # -- arithmetic -------------------------------------------------
    def __add__(self, other):
        if other.__class__ is not HSeries:
            other = as_hseries(other)
        a, b, den = self.terms, other.terms, self.den
        if den is not other.den and den != other.den:
            g = poly_gcd(den, other.den)
            a = _mul_flat(a, as_hseries(poly_exact_div(other.den, g)).terms)
            b = _mul_flat(b, as_hseries(poly_exact_div(den, g)).terms)
            den = poly_exact_div(den * other.den, g)
        t = dict(a)
        for key, c in b.items():
            old = t.get(key)
            if old is None:
                t[key] = c
            else:
                c = old + c
                if c:
                    t[key] = c
                else:
                    del t[key]
        return _hseries(*_canonical(t, den))

    __radd__ = __add__

    def __neg__(self):
        return _hseries({key: -c for key, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + (-as_hseries(other))

    def __rsub__(self, other):
        return as_hseries(other) + (-self)

    def __mul__(self, other):
        return self.mul_through(as_hseries(other), None)

    __rmul__ = __mul__

    def mul_through(self, other, order):
        """self * other for an HSeries other through h^order (None: all of
        it); pairs past h^order are not multiplied."""
        t = _mul_flat(self.terms, other.terms, order)
        if self.den is POLY_ONE and other.den is POLY_ONE:
            return _hseries(t, POLY_ONE)
        return _hseries(*_canonical(t, self.den * other.den))

    def __pow__(self, n):
        return _power(self, n, H_ONE)

    def __truediv__(self, other):
        """self / other for an h-monomial other = (num/den)*h^k: the terms
        shifted by h^-k and times den, over self.den * num, so num must be
        a single term."""
        other = as_hseries(other)
        if not other:
            raise ZeroDivisionError("HSeries division by zero")
        k = other.min_power()
        if k != other.max_power():
            raise ArithmeticError("HSeries division only by h-monomials; expand instead")
        terms = {(p - k, m): c for (p, m), c in self.terms.items()}
        if other.den is not POLY_ONE:
            terms = _mul_flat(terms, {(0, m): c for m, c in other.den.terms.items()})
        num = _poly({m: c for (_, m), c in other.terms.items()})
        return _hseries(*_canonical(terms, self.den * num))

    def scale(self, c):
        """self * c for a constant c (int, Fraction, GaussianRational) or
        any other scalar."""
        if isinstance(c, CONSTANT_TYPES):
            c = as_gaussian(c)
            if not c:
                return H_ZERO
            return _hseries({key: v * c for key, v in self.terms.items()}, self.den)
        return self.mul_through(as_hseries(c), None)

    def subs(self, mapping):
        """Substitute symbols (as Poly.subs does) in every power's
        numerator and in den; den must stay a single term."""
        terms = {(k, m): c for k, p in _by_power(self.terms).items()
                 for m, c in p.subs(mapping).terms.items()}
        return _hseries(terms, POLY_ONE) / self.den.subs(mapping)

    # -- comparisons ------------------------------------------------
    def __eq__(self, other):
        try:
            other = as_hseries(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms and self.den == other.den

    def __hash__(self):
        # a series with no power of h but h^0 hashes as that coefficient
        if all(k == 0 for k, _ in self.terms):
            return hash(self.constant_term())
        return hash((frozenset(self.terms.items()), self.den))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"HSeries({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        coeffs = self.coeffs
        for k in sorted(coeffs):
            vs = str(coeffs[k])
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


_set_hterms = HSeries.terms.__set__
_set_hden = HSeries.den.__set__


def _hseries(terms, den):
    """The HSeries with these fields, taken as they are (what _canonical
    gives)."""
    out = _new(HSeries)
    _set_hterms(out, terms)
    _set_hden(out, den)
    return out


H_ZERO = HSeries()
H_ONE = HSeries({0: 1})
H_I = HSeries({0: GR_I})


def as_hseries(x):
    if isinstance(x, HSeries):
        return x
    if isinstance(x, RationalFn):
        num, den = x.num, x.den
    elif isinstance(x, (Poly,) + CONSTANT_TYPES):
        num, den = as_poly(x), POLY_ONE
    else:
        raise TypeError(f"cannot coerce {x!r} to HSeries")
    return _hseries({(0, m): c for m, c in num.terms.items()}, den)


# the types NCElement arithmetic takes as a scalar
SCALAR_TYPES = CONSTANT_TYPES + (Poly, RationalFn, HSeries)


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


def _term_mod(m, c, values):
    v = c._a + c._b * MOD_I
    if c._d != 1:
        v = v * inverse_mod(c._d)
    for s, e in m:
        v = v * (values[s] if e == 1 else pow(values[s], e, MOD_P)) % MOD_P
    return v


def eval_mod(x, values, h=1):
    """The image of the scalar x in F_p at the symbol residues `values` and
    at h = `h`: (a + b*i)/d maps to (a + b*MOD_I) * d^-1.  It is a ring map
    wherever no denominator is 0 mod p; one that is raises ZeroDivisionError."""
    x = as_hseries(x)
    total = 0
    for (k, m), c in x.terms.items():
        total += _term_mod(m, c, values) * pow(h if k >= 0 else inverse_mod(h), abs(k), MOD_P)
    if x.den is not POLY_ONE:
        total *= inverse_mod(sum(_term_mod(m, c, values) for m, c in x.den.terms.items()))
    return total % MOD_P


# ---------------------------------------------------------------------------
# series utilities
# ---------------------------------------------------------------------------


class SeriesDomainError(ValueError):
    """Argument outside a series operation's domain (nonzero constant term)."""


def _power_sum(x, order, coeff, domain_error):
    """The exact polynomial sum_k coeff(k) x^k through h^order, for x with no
    h^0 term and no negative power (else SeriesDomainError(domain_error));
    the sum stops at the first power of x with no term through h^order."""
    x = as_hseries(x)
    if any(k <= 0 for k, _ in x.terms):
        raise SeriesDomainError(domain_error)
    x = x.truncate(order)
    power = H_ONE
    out = power.scale(coeff(0))
    for k in range(1, order + 1):
        power = power.mul_through(x, order)
        if not power:
            break
        out = out + power.scale(coeff(k))
    return out


def series_log1p(x, order):
    """log(1 + x) = sum_{k>=1} (-1)^(k+1) x^k / k through h^order.

    x must vanish at h = 0 (no constant term); exponentials and logs with
    O(1) arguments belong to the projective-representation layer, never here.
    """
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"series_log1p order must be >= 1, got {order!r}")
    return _power_sum(x, order, lambda k: Fraction((-1) ** (k + 1), k) if k else 0,
                      "series_log1p needs an argument with no h^0 term")


def series_exp(x, order):
    """exp(x) = sum x^k / k! through h^order; x must have no h^0 term."""
    if not isinstance(order, int) or order < 0:
        raise ValueError(f"series_exp order must be >= 0, got {order!r}")
    return _power_sum(x, order, lambda k: Fraction(1, factorial(k)),
                      "series_exp needs an argument with no h^0 term")


def series_inverse_one_plus(x, order):
    """1/(1+x) through h^order for x with no h^0 term (geometric series)."""
    return _power_sum(x, order, lambda k: (-1) ** k,
                      "series_inverse_one_plus needs a vanishing h^0 term")
