"""Fixed-input layer kernels.

Each kernel times one layer on an input built from the shipped models only,
and checks its result against a value recorded at the seed commit, so a
kernel that returns a wrong answer counts as a failed check.  Element
results are compared by a digest of their canonical rendering.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from itertools import product

REPEATS = 3


def _digest(element):
    return hashlib.sha256(element.render().encode()).hexdigest()[:16]


def _gaussian_muladd_input(kh):
    # the distinct constant coefficients of the Eq. 1 rewrite rules
    kappa = kh.load_model("galilei_algebra_kappa")
    consts = {g for corr in kappa.rules.values() for c, _ in corr
              for rf in c.coeffs.values() for g in rf.num.terms.values()}
    return sorted(consts, key=str)


def _gaussian_muladd(kh, vals):
    acc = kh.GaussianRational(0)
    for _ in range(400):
        for x in vals:
            for y in vals:
                acc = acc + x * y
    return str(acc)


def _poly_gcd_input(kh):
    # the shape every projrep denominator has: i (p - m v1)^k m^(k mod 3)
    # against m^j
    p, m, v = (kh.Poly.var(s) for s in ("p", "m", "v1"))
    base = p - m * v
    return [((base ** k).scale(kh.GaussianRational(0, 1)) * m ** (k % 3), m ** j)
            for k in range(2, 7) for j in range(1, 4)]


def _poly_gcd_monomial(kh, pairs):
    return ",".join(str(kh.scalars.poly_gcd(a, b)) for a, b in pairs)


def _normal_order_input(kh):
    kappa = kh.load_model("galilei_algebra_kappa")
    letters = [kappa.gen_element(n, i) for n, i in
               (("L", (1,)), ("L", (2,)), ("M", (3,)), ("P", (1,)), ("P0", ()))]
    words = [a * b * c * d for a, b, c, d in product(letters, repeat=4)]
    return sum(words[1:], words[0])


def _normal_order(kh, el):
    return _digest(kh.normal_order(el))


def _zero_mod_quotient_input(kh):
    # (R R^T - I)_{ij} v[i] a[j] vanishes modulo the orthogonality quotient;
    # adding R[1,1] v[1] must not
    group = kh.load_model("galilei_group_kappa")
    g = group.gen_element
    terms = []
    for i, j in product((1, 2, 3), repeat=2):
        e = sum((g("R", (i, k)) * g("R", (j, k)) for k in (2, 3)),
                g("R", (i, 1)) * g("R", (j, 1)))
        if i == j:
            e = e - group.one()
        terms.append(e * g("v", (i,)) * g("a", (j,)))
    res = sum(terms[1:], terms[0])
    return res, res + g("R", (1, 1)) * g("v", (1,))


def _zero_mod_quotient(kh, pair):
    return tuple(kh.zero_mod_quotient(el) for el in pair)


def _bch_input(kh):
    g2 = kh.load_model("galilei_group_2d")
    return [f.exponent for f in kh.build_omega(g2, 3).factors]


def _bch_combine(kh, exponents):
    return _digest(kh.projrep.bch_combine_exponents(*exponents, 3))


# metric name -> (input maker, timed kernel, expected result at the seed)
KERNELS = {
    "kernel.gaussian_muladd_s": (_gaussian_muladd_input, _gaussian_muladd, "-100"),
    "kernel.poly_gcd_monomial_s": (_poly_gcd_input, _poly_gcd_monomial,
                                   "m,m^2,m^2,1,1,1,m,m,m,m,m^2,m^2,1,1,1"),
    "kernel.normal_order_s": (_normal_order_input, _normal_order, "2629c9c2333f8808"),
    "kernel.zero_mod_quotient_s": (_zero_mod_quotient_input, _zero_mod_quotient,
                                   (True, False)),
    "kernel.bch_combine_s": (_bch_input, _bch_combine, "6ee38f9c26fc94b5"),
}


def run_kernels(kh):
    """{metric: median seconds}, and the names of kernels whose result was wrong."""
    times, wrong = {}, []
    for name, (build, fn, expected) in KERNELS.items():
        arg = build(kh)
        samples = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            got = fn(kh, arg)
            samples.append(time.perf_counter() - t0)
            if got != expected:
                wrong.append(name)
                break
        times[name] = statistics.median(samples)
    return times, wrong
