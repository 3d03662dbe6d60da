"""Shipped model catalog: golden structure, cross-model consistency."""

from fractions import Fraction as F

import pytest

from kappa_hopf.hopf import classical_limit
from kappa_hopf.models import (
    CATALOG_NAMES,
    ModelError,
    load_model,
    load_printed_variant,
    reduce_group_to_2d,
    strip_quotient,
)
from kappa_hopf.ncalg import NCElement, commutator, normal_order
from kappa_hopf.scalars import GaussianRational, HSeries, Poly, RationalFn


def test_catalog_complete_and_loadable():
    for name in CATALOG_NAMES:
        assert load_model(name) is not None
    with pytest.raises(ModelError):
        load_model("nonexistent_model")


# canonical prints of the shipped presentations, frozen: loading must
# reproduce them byte for byte
GOLDEN_SHA256_16 = {
    "galilei_algebra_kappa": "3a5f9e7783b44159",
    "galilei_algebra_classical": "e56200111c2d7901",
    "galilei_algebra_2d_classical": "73ba2cfc5d214ca3",
    "galilei_group_kappa": "cafb69f90bc85ec3",
    "galilei_group_2d": "4c7d1ab26de15ac7",
}


def test_golden_canonical_presentations():
    import hashlib

    from kappa_hopf.dsl import print_presentation
    from kappa_hopf.ncalg import Presentation

    for name, want in GOLDEN_SHA256_16.items():
        m = load_model(name)
        assert isinstance(m, Presentation)
        got = hashlib.sha256(print_presentation(m).encode()).hexdigest()[:16]
        assert got == want, f"{name}: canonical print drifted"


def test_galilei_group_2d_has_exactly_eq24():
    g2 = load_model("galilei_group_2d")
    assert [g.label() for g in g2.gens] == ["v", "a", "tau"]
    v, a, tau = (g2.gen_element(n) for n in ("v", "a", "tau"))
    ih = HSeries({1: RationalFn(Poly.const(GaussianRational(0, 1)))})
    assert commutator(tau, a) == a.scale(ih)
    assert commutator(tau, v) == v.scale(ih)
    assert commutator(v, a) == (v * v).scale(ih.scale(F(-1, 2)))
    assert len(g2.rules) == 3


def test_classical_model_is_the_classical_limit():
    kappa = load_model("galilei_algebra_kappa")
    classical = load_model("galilei_algebra_classical")
    assert classical_limit(kappa, name="galilei_algebra_classical") == classical


def test_casimirs_match_eq2():
    kappa = load_model("galilei_algebra_kappa")
    cas = load_model("casimirs")
    p2 = sum((kappa.gen_element("P", (i,)) * kappa.gen_element("P", (i,))
              for i in (1, 2, 3)),
             NCElement.zero(kappa.gen_element("P0").context))
    assert cas["C1"] == normal_order(p2)
    # C2 carries the 1/4kappa^2 prefactor on (P.M)^2 and the (P x L)^2 tail
    assert cas["C2"].max_h_power() == 2
    assert cas["C2"].degree() == 6


def test_2d_model_is_the_dimensional_reduction():
    g4 = load_model("galilei_group_kappa")
    g2 = load_model("galilei_group_2d")
    assert reduce_group_to_2d(g4, g2) == g2.rules


def test_printed_variant_differs_only_in_LL():
    kappa = load_model("galilei_algebra_kappa")
    printed = load_printed_variant()
    diff = []
    for key in kappa.rules:
        if kappa.rules[key] != printed.rules[key]:
            diff.append(key)
    names = {(kappa.gens[a].name, kappa.gens[b].name) for a, b in diff}
    assert names == {("L", "L")}


def test_strip_quotient_round_trip():
    g = load_model("galilei_group_kappa")
    s = strip_quotient(g)
    assert s.quotient is None and g.quotient is not None
    assert s.rules == g.rules
    # elements of the stripped clone work with its own hopf data
    from kappa_hopf.hopf import coproduct
    el = s.gen_element("tau")
    assert not coproduct(el).is_zero()


def test_model_overrides(tmp_path):
    # an override file replaces the 2D group; a broken one raises
    good = tmp_path / "g2.hopf"
    good.write_text("""
presentation galilei_group_2d {
  generators: v a tau;
  relation tau*a - a*tau = 2*I*h*a;
  relation tau*v - v*tau = I*h*v;
  relation v*a - a*v = -(I*h/2)*v*v;
  coproduct v = v (x) 1 + 1 (x) v;
  coproduct tau = tau (x) 1 + 1 (x) tau;
  coproduct a = a (x) 1 + 1 (x) a + v (x) tau;
  counit v = 0; counit a = 0; counit tau = 0;
  antipode v = -v; antipode tau = -tau; antipode a = -a + v*tau;
}
""")
    g2 = load_model("galilei_group_2d", {"galilei_group_2d": str(good)})
    tau, a = g2.gen_element("tau"), g2.gen_element("a")
    two_ih = HSeries({1: RationalFn(Poly.const(GaussianRational(0, 2)))})
    assert commutator(tau, a) == a.scale(two_ih)
    with pytest.raises(ModelError):
        load_model("galilei_group_2d", {"no_such_model": str(good)})


def test_edited_override_is_reloaded(tmp_path):
    # the catalog cache follows the override's content, not its path
    path = tmp_path / "casimirs.hopf"
    text = ("element C1 in galilei_algebra_kappa = {};\n"
            "element C2 in galilei_algebra_kappa = P[k]*P[k];\n")
    path.write_text(text.format("P[k]*P[k]"))
    first = load_model("casimirs", {"casimirs": str(path)})["C1"]
    path.write_text(text.format("2*P[k]*P[k]"))
    second = load_model("casimirs", {"casimirs": str(path)})["C1"]
    assert second == first + first
