"""Verification suites: each suite runs one family of claims against the
shipped (or overridden) models and assembles a VerificationReport.

Suites: algebra, group, casimirs, bicross, cocommutator, rmatrix, duality,
spacetime, projrep, all.  Exit-code mapping and report serialization live in
the CLI; everything here is pure given a SuiteConfig.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import hopf
from .cohom import CoboundarySolver, LieData, co_jacobi_check, coboundary_of
from .duality import (
    EQ13_TABLE,
    PairingEngine,
    PoissonQuery,
    model_4d,
    pair,
    poisson_family_verify,
    quantization_crosscheck,
    sigma_matrix_terms,
)
from .hopf import (
    cocommutator,
    verify_bialgebra,
    verify_bicross,
    verify_casimir,
    verify_comodule,
)
from .models import load_casimirs_in, load_model, load_printed_variant, strip_quotient
from .ncalg import (
    NCElement,
    TensorContext,
    confluence_residual,
    confluence_triples,
    normal_order,
)
from .projrep import (
    ExpFactor,
    build_omega,
    classical_phi0,
    cocycle_residual_for_omega,
    omega_log_phi,
    phi1_particular,
    phi1_residual,
    rep_compose_check,
    series_to_element,
    triviality_probe,
)
from .quotient import PrefilterOracle
from .report import Check, FAIL, INFO, PASS, VerificationReport, run_check
from .scalars import (
    GR_I,
    GaussianRational,
    HSeries,
    Poly,
    RationalFn,
    levi_civita,
    series_log1p,
)

SUITE_NAMES = ("algebra", "group", "casimirs", "bicross", "cocommutator",
               "rmatrix", "duality", "spacetime", "projrep")

MAX_ORDER = 6
MAX_DEGREE = 8
# the duality suite's Eq. A4 candidates have coordinate degree 2, and a
# Poisson check needs a monomial degree bound above its candidate's
MIN_DUALITY_DEGREE = 3


# the catalog models each suite verifies
SUITE_MODELS = {
    "algebra": ("galilei_algebra_kappa",),
    "group": ("galilei_group_kappa",),
    "casimirs": ("galilei_algebra_kappa", "casimirs"),
    "bicross": ("tilde_bicross", "group_bicross"),
    "cocommutator": ("galilei_algebra_kappa", "galilei_algebra_classical"),
    "rmatrix": ("galilei_algebra_kappa", "galilei_algebra_classical"),
    "duality": ("galilei_algebra_kappa", "galilei_algebra_classical", "galilei_group_kappa"),
    "spacetime": ("spacetime",),
    "projrep": ("galilei_group_2d", "galilei_algebra_2d_classical"),
}


class ConfigError(ValueError):
    pass


@dataclass
class SuiteConfig:
    suite: str = "all"
    order: int = 4
    degree: int = 6
    mode: str = "both"
    seed: int = 0
    rep_order: int = 3
    rep_degree: int = 3
    overrides: dict = field(default_factory=dict)
    # the models of the suite by catalog name, loaded with the overrides when
    # the configuration is made: a model that does not load fails here,
    # before any check runs
    models: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.suite != "all" and self.suite not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from "
                              f"{', '.join(SUITE_NAMES + ('all',))}")
        if not (0 <= self.order <= MAX_ORDER):
            raise ConfigError(f"order must be in 0..{MAX_ORDER}")
        if not (0 <= self.degree <= MAX_DEGREE):
            raise ConfigError(f"degree must be in 0..{MAX_DEGREE}")
        if self.suite in ("duality", "all") and self.degree < MIN_DUALITY_DEGREE:
            raise ConfigError(f"degree must be in {MIN_DUALITY_DEGREE}..{MAX_DEGREE} for "
                              "duality, whose Eq. A4 candidates have coordinate degree 2")
        if self.mode not in ("formal", "series", "both"):
            raise ConfigError("mode must be formal, series or both")
        suites = SUITE_NAMES if self.suite == "all" else (self.suite,)
        self.models = {name: load_model(name, self.overrides)
                       for suite in suites for name in SUITE_MODELS[suite]}

    def echo(self):
        return {
            "suite": self.suite, "order": self.order, "degree": self.degree,
            "mode": self.mode, "seed": self.seed,
            "rep_order": self.rep_order, "rep_degree": self.rep_degree,
            "overrides": {k: str(v) for k, v in sorted(self.overrides.items())},
        }


def _confluence_check(p, label, anchor, expect="zero"):
    def build():
        nonzero = 0
        worst = None
        triples = confluence_triples(p)
        for t in triples:
            r = confluence_residual(p, t)
            if not r.is_zero():
                nonzero += 1
                if worst is None:
                    worst = (t, r)
        if nonzero == 0:
            return Check(f"confluence[{label}]", anchor, PASS,
                         detail=f"{len(triples)} overlap triples resolved")
        t, r = worst
        lab = "*".join(p.gens[g].label() + ("" if pw == 1 else f"^{pw}") for g, pw in t)
        status = FAIL if expect == "zero" else INFO
        return Check(f"confluence[{label}]", anchor, status,
                     residual=f"{nonzero} of {len(triples)} triples break; "
                              f"first at {lab}: {r.render()}")

    return run_check(build)


def _sigma_table(kappa, classical):
    comps = {}
    for gi, g in enumerate(classical.gens):
        w, _ = cocommutator(kappa, (g.name, g.index))
        comps[gi] = {k: v.coeff(0).const_value() for k, v in w.pairs.items()}
    return comps


# the Eq. 9 table, frozen: sigma values as {(label_a, label_b): coefficient}
def _eq9_expected(classical):
    def gi(name, idx=()):
        return classical.gen_index(name, idx)

    table = {}
    for i in (1, 2, 3):
        table[gi("M", (i,))] = {}
        table[gi("P", (i,))] = {(gi("P", (i,)), gi("P0")): GaussianRational(-1)}
        w = {(gi("L", (i,)), gi("P0")): GaussianRational(-1)}
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                e = levi_civita(i, k, l)
                if e:
                    a, b = gi("M", (k,)), gi("P", (l,))
                    w[(a, b)] = w.get((a, b), GaussianRational(0)) + GaussianRational(-e)
        table[gi("L", (i,))] = {k: v for k, v in w.items() if v}
    table[gi("P0")] = {}
    return table


def suite_algebra(cfg, oracle):
    rep = VerificationReport("algebra", cfg.echo())
    kappa = cfg.models["galilei_algebra_kappa"]
    rep.add(_confluence_check(kappa, "galilei_algebra_kappa", "Eq. 1"))
    rep.extend(verify_bialgebra(kappa, order=cfg.order, mode=cfg.mode, oracle=oracle))

    # the verbatim-printed [L,L] variant: confluence passes, but the coproduct
    # is then not an algebra map; surfaced as findings, never auto-corrected
    printed = load_printed_variant()
    rep.add(_confluence_check(printed, "printed_variant", "Eq. 1 as printed",
                              expect="report"))
    for (hi, lo) in sorted(printed.rules):
        if printed.gens[hi].name == "L" and printed.gens[lo].name == "L":
            def raw():
                lhs, rhs = hopf._rule_sides(printed, hi, lo, 1, 1)
                return hopf.apply_coproduct(lhs - rhs, 0)

            lab = f"{printed.gens[hi].label()}*{printed.gens[lo].label()}"
            rep.add(hopf._identity_check(
                f"printed_variant:delta_respects[{lab}]", "Eq. 1 as printed vs Eqs. 2, 5",
                raw, "formal", cfg.order, "report",
                detail="nonzero residual: the printed [L,L] bracket "
                       "(no factor i) breaks the coproduct homomorphism",
                oracle=oracle))
    return rep


def suite_group(cfg, oracle):
    rep = VerificationReport("group", cfg.echo())
    group = cfg.models["galilei_group_kappa"]
    rep.add(_confluence_check(group, "galilei_group_kappa", "Eq. 11"))
    rep.extend(verify_bialgebra(group, order=min(cfg.order, 2), mode="formal",
                                oracle=oracle))
    stripped = strip_quotient(group)
    rep.add(_confluence_check(stripped, "no_orthogonality", "Eq. 11 bare",
                              expect="report"))
    for c in verify_bialgebra(stripped, order=min(cfg.order, 2), mode="formal",
                              expect="report", oracle=oracle):
        c.check_id = "no_orthogonality:" + c.check_id
        rep.add(c)
    return rep


def suite_casimirs(cfg, oracle):
    rep = VerificationReport("casimirs", cfg.echo())
    kappa = cfg.models["galilei_algebra_kappa"]
    cas = cfg.models["casimirs"]
    rep.extend(verify_casimir(cas["C1"], kappa, order=cfg.order, mode=cfg.mode,
                              name="C1", oracle=oracle))
    rep.extend(verify_casimir(cas["C2"], kappa, order=cfg.order, mode=cfg.mode,
                              name="C2", oracle=oracle))
    # printed-variant finding: with the bracket exactly as printed, C2 is not
    # central; the residual against L_i is reported verbatim
    printed = load_printed_variant()
    cas_printed = load_casimirs_in(printed)
    for c in verify_casimir(cas_printed["C2"], printed, order=cfg.order,
                            mode="formal", expect="report", name="C2_printed",
                            oracle=oracle):
        c.check_id = "printed_variant:" + c.check_id
        rep.add(c)
    return rep


def suite_cocommutator(cfg, oracle):
    rep = VerificationReport("cocommutator", cfg.echo())
    kappa = cfg.models["galilei_algebra_kappa"]
    classical = cfg.models["galilei_algebra_classical"]
    expected = _eq9_expected(classical)

    def sigma_check(gi, g):
        w, info = cocommutator(kappa, (g.name, g.index), higher_order=2)
        got = {k: v.coeff(0).const_value() for k, v in w.pairs.items()}
        want = expected[gi]
        ok = got == want
        detail = ""
        if info:
            detail = "higher-order antisymmetric parts: " + "; ".join(
                f"h^{k}: {v.render()}" for k, v in sorted(info.items()))
        return Check(f"sigma[{g.label()}]", "Eq. 9", PASS if ok else FAIL,
                     residual="0" if ok else f"got {_fmt_wedge(classical, got)}, "
                                             f"expected {_fmt_wedge(classical, want)}",
                     detail=detail or "matches Eq. 9 exactly")

    for gi, g in enumerate(classical.gens):
        rep.add(run_check(lambda: sigma_check(gi, g)))
    lie = LieData.from_presentation(classical)
    sigma = _sigma_table(kappa, classical)
    rep.extend(co_jacobi_check(lie, sigma))
    return rep


def _fmt_wedge(p, comps):
    if not comps:
        return "0"
    return " + ".join(f"({c})*{p.gens[a].label()}^{p.gens[b].label()}"
                      for (a, b), c in sorted(comps.items()))


def suite_rmatrix(cfg, oracle):
    rep = VerificationReport("rmatrix", cfg.echo())
    kappa = cfg.models["galilei_algebra_kappa"]
    classical = cfg.models["galilei_algebra_classical"]
    lie = LieData.from_presentation(classical)
    sigma = _sigma_table(kappa, classical)

    solver = CoboundarySolver(lie)

    def nonexistence():
        cert = solver.solve(sigma)
        ok = cert.status == "infeasible" and cert.revalidate(lie, sigma)
        return Check("rmatrix_nonexistence", "no classical r-matrix (direct calculation)",
                     PASS if ok else FAIL,
                     residual="0" if ok else f"unexpected status {cert.status}",
                     detail=f"coboundary system infeasible, rank data attached: "
                            f"rank(A) = {cert.rank_a} < rank(A|b) = {cert.rank_aug}; "
                            f"{cert.n_equations} equations, {cert.n_unknowns} unknowns; "
                            f"certificate re-validates")

    def roundtrip():
        rng = random.Random(cfg.seed)
        trials = 20
        good = 0
        for _ in range(trials):
            r0 = [GaussianRational(Fraction(rng.randint(-6, 6)),
                                   Fraction(rng.randint(-6, 6)))
                  for _ in lie.pair_index()]
            sig = coboundary_of(lie, r0)
            c2 = solver.solve(sig)
            if c2.status == "solution" and c2.revalidate(lie, sig):
                back = coboundary_of(lie, c2.witness)
                if back == sig:
                    good += 1
        return Check("rmatrix_roundtrip", "coboundary construct-then-solve",
                     PASS if good == trials else FAIL,
                     residual="0" if good == trials else f"{good} of {trials}",
                     detail=f"{trials} random coboundaries solved and re-validated")

    rep.add(run_check(nonexistence))
    rep.add(run_check(roundtrip))
    return rep


def suite_duality(cfg, oracle):
    rep = VerificationReport("duality", cfg.echo())
    model = model_4d()
    kappa = cfg.models["galilei_algebra_kappa"]
    classical = cfg.models["galilei_algebra_classical"]
    group = cfg.models["galilei_group_kappa"]
    # the mask product of each pairing word, built once in this run
    products = {}

    def pairing(coord, word):
        return pair(Poly.var(coord), word, model=model, products=products)

    def eq13():
        bad = []
        for coord, gen, want in EQ13_TABLE:
            got = pairing(coord, (gen,))
            if got != HSeries.const(want):
                bad.append((coord, gen, str(got), str(want)))
        return Check("eq13_table", "Eq. 13", PASS if not bad else FAIL,
                     residual="0" if not bad else str(bad[:3]),
                     detail=f"{len(EQ13_TABLE)} single-generator pairings")

    rep.add(run_check(eq13))
    rep.extend(_a2_checks(pairing))

    sigma = _sigma_table(kappa, classical)
    engine = PairingEngine(model, [g.label() for g in classical.gens],
                           sigma_matrix_terms(classical, sigma))

    h = HSeries.h(1)
    queries = []
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for r in (1, 2, 3):
                cand = [(-h, (f"v[{m}]", f"R[{r},{n}]"))]
                if m == r:
                    for p_ in (1, 2, 3):
                        cand.append((h, (f"v[{p_}]", f"R[{p_},{n}]")))
                queries.append(PoissonQuery(
                    f"R[{m},{n}]", f"a[{r}]", cand, cfg.degree,
                    check_id=f"appendix_bracket[R[{m},{n}],a[{r}]]",
                    anchor="Eq. A4"))
    rep.extend(poisson_family_verify(engine, queries))
    rep.extend(quantization_crosscheck(group, engine))
    return rep


def _a2_checks(pairing):
    """The displayed identities of Eq. A2 tested verbatim (J = M, H = P0);
    any convention mismatch would be reported as a finding.  pairing(coord,
    word) is <coord, word> in the 4D matrix model."""
    def rotations():
        bad = []
        others = [(), ("L[1]",), ("P[2]",), ("P0",), ("L[1]", "P0"), ("P[1]", "P[3]")]
        for k in (0, 1, 2):
            for ns in product((1, 2, 3), repeat=k):
                js = tuple(f"M[{n}]" for n in ns)
                for x in others:
                    word = js + x
                    for i in (1, 2, 3):
                        for j in (1, 2, 3):
                            got = pairing(f"R[{i},{j}]", word)
                            want = HSeries() if x else _a2_rotation_value(ns, i, j)
                            if got != want:
                                bad.append(("R", word, i, j, str(got), str(want)))
        return Check("a2_rotations", "Eq. A2 line 1", PASS if not bad else INFO,
                     residual="0" if not bad else str(bad[:2]),
                     detail="(-i)^k epsilon chain, delta_{X,I}; J = M, H = P0 "
                            "as assumed")

    def tau():
        bad = []
        for k in (0, 1, 2, 3):
            for x in [(), ("M[1]",), ("L[2]",), ("P[3]",)]:
                word = x + ("P0",) * k
                got = pairing("tau", word)
                want = HSeries.const(GR_I) if (not x and k == 1) else HSeries()
                if got != want:
                    bad.append((word, str(got), str(want)))
        return Check("a2_tau", "Eq. A2 line 2", PASS if not bad else INFO,
                     residual="0" if not bad else str(bad[:3]))

    def velocity_translation():
        bad = []
        for k in (0, 1, 2):
            for ns in product((1, 2, 3), repeat=k):
                js = tuple(f"M[{n}]" for n in ns)
                for i in (1, 2, 3):
                    for m in (1, 2, 3):
                        ref = pairing(f"R[{i},{m}]", js)
                        got_v = pairing(f"v[{i}]", js + (f"L[{m}]",))
                        got_a = pairing(f"a[{i}]", js + (f"P[{m}]",))
                        got_ap = pairing(f"a[{i}]", js + (f"L[{m}]", "P0"))
                        mi = HSeries.const(-GR_I)
                        if got_v != mi * ref:
                            bad.append(("v", ns, i, m))
                        if got_a != mi * ref:
                            bad.append(("a", ns, i, m))
                        if got_ap != ref:
                            bad.append(("aLP0", ns, i, m))
        return Check("a2_velocity_translation", "Eq. A2 lines 3-5",
                     PASS if not bad else INFO,
                     residual="0" if not bad else str(bad[:3]))

    return [run_check(rotations), run_check(tau), run_check(velocity_translation)]


def _a2_rotation_value(ns, i, j):
    """<R[i,j], M[n1]...M[nk]>: the (-i)^k epsilon chain from i to j."""
    acc = {(i,): GaussianRational(1)}
    for n in ns:
        nxt = {}
        for pre, c in acc.items():
            for l in (1, 2, 3):
                e = levi_civita(pre[-1], l, n)
                if e:
                    key = pre + (l,)
                    nxt[key] = nxt.get(key, GaussianRational(0)) \
                        + c * GaussianRational(0, -1) * e
        acc = nxt
    tot = GaussianRational(0)
    for pre, c in acc.items():
        if pre[-1] == j:
            tot = tot + c
    return HSeries.const(tot) if tot else HSeries()


def suite_bicross(cfg, oracle):
    rep = VerificationReport("bicross", cfg.echo())
    tilde = cfg.models["tilde_bicross"]
    rep.extend(verify_bicross(tilde, order=cfg.order, mode=cfg.mode, oracle=oracle))
    gb = cfg.models["group_bicross"]
    rep.extend(verify_bicross(gb, order=min(cfg.order, 2), mode="formal",
                              oracle=oracle))
    # documented Eq.-7 typo: the printed coaction coefficient i/kappa on
    # delta(Lt) does not reproduce Delta(Lt) computed from Eqs. 1+3
    rep.add(run_check(lambda: _printed_coaction_check(tilde)))
    return rep


def _printed_coaction_check(tilde):
    total, uf = tilde.total, tilde.u_factor
    ctx2 = TensorContext((total, total))
    diffs = []
    for gi, g in enumerate(uf.gens):
        if g.name != "Lt":
            continue
        beta = tilde.coaction[gi]
        printed_beta = NCElement(
            beta.context,
            {w: (c * HSeries.const(GR_I) if len(w[0]) == 1 and len(w[1]) == 1
                 and uf.gens[w[0][0][0]].name == "Mt" else c)
             for w, c in beta.terms.items()})
        emb1 = hopf._embed_elem(hopf._gen(uf, gi), tilde.u_embed, total)
        lhs = normal_order(hopf.apply_coproduct(emb1, 0))
        assembled = hopf._embed_elem2(printed_beta, tilde.u_embed, tilde.t_embed,
                                      total, ("u", "t"))
        assembled = assembled + emb1.place_in_slots(ctx2, {0: 1})
        d = normal_order(NCElement(ctx2, lhs.terms) - assembled)
        if not d.is_zero():
            diffs.append((g.label(), d))
    if diffs:
        lab, d = diffs[0]
        return Check("printed_coaction[Lt]", "Eq. 7 as printed", INFO,
                     residual=d.render(),
                     detail="the printed delta(Lt) coefficient i/kappa does not "
                            "match Delta(Lt) from Eqs. 1+3; the shipped model "
                            "uses 1/kappa")
    return Check("printed_coaction[Lt]", "Eq. 7 as printed", FAIL,
                 residual="expected a mismatch for the printed i/kappa "
                          "coefficient, found none")


def suite_spacetime(cfg, oracle):
    rep = VerificationReport("spacetime", cfg.echo())
    sc = cfg.models["spacetime"]
    rep.extend(verify_comodule(sc["space"], sc["group"], sc["action"],
                               order=min(cfg.order, 2), mode="formal", oracle=oracle))
    return rep


def suite_projrep(cfg, oracle):
    rep = VerificationReport("projrep", cfg.echo())
    g2 = cfg.models["galilei_group_2d"]
    lie2d = LieData.from_presentation(cfg.models["galilei_algebra_2d_classical"])
    order = min(cfg.rep_order, cfg.order, 3)

    def omega_log():
        phi = omega_log_phi(g2, max(1, order))
        ok0 = phi.h_coefficient(0) == classical_phi0(g2)
        ok1 = phi.h_coefficient(1) == phi1_particular(g2)
        return Check("omega_log[h0,h1]", "Eqs. 25, 28, 31", PASS if ok0 and ok1 else FAIL,
                     residual="0" if ok0 and ok1 else f"h0 ok={ok0}, h1 ok={ok1}",
                     order=order)

    def phi1_equation():
        res = phi1_residual(g2, phi1_particular(g2))
        return Check("phi1_equation", "Eqs. 27-28", PASS if res.is_zero() else FAIL,
                     residual=res.render() if not res.is_zero() else "0")

    def cocycle(check_id, anchor, n):
        z = cocycle_residual_for_omega(g2, n)
        return Check(check_id, anchor, PASS if z.is_zero() else FAIL,
                     residual="0" if z.is_zero() else z.render(), order=n)

    rep.add(run_check(omega_log))
    rep.add(run_check(phi1_equation))
    rep.add(run_check(lambda: cocycle("cocycle_residual", "Eq. 20 for Eq. 31", order)))
    # stability: passing at order N implies the order N-1 truncation passes
    if order >= 1:
        rep.add(run_check(lambda: cocycle("cocycle_residual_stability",
                                          "Eq. 20 truncation stability", order - 1)))

    # mutations: deleted phi1 fails at h^1; omega = identity fails at h^0
    def phi1_deleted():
        def strip_h1(lhs, rhs):
            return ([ExpFactor(f.exponent.h_coefficient(0)) for f in lhs],
                    [ExpFactor(f.exponent.h_coefficient(0)) for f in rhs])

        zm = cocycle_residual_for_omega(g2, 1, mutate=strip_h1)
        ok = (not zm.is_zero()) and zm.h_coefficient(0).is_zero() \
            and not zm.h_coefficient(1).is_zero()
        return Check("mutation[phi1_deleted]", "Eq. 27 source term",
                     PASS if ok else FAIL,
                     residual="nonzero exactly at h^1 as predicted" if ok else
                              ("unexpectedly zero" if zm.is_zero() else zm.render()),
                     order=1,
                     detail="residual equals the Hausdorff source of Eq. 27")

    def omega_identity():
        logres, _ = rep_compose_check(g2, (), 0, omega="identity")
        ok = not logres.h_coefficient(0).is_zero()
        return Check("mutation[omega_identity]", "Eq. 19 without omega",
                     PASS if ok else FAIL,
                     residual="nonzero at h^0 (projective, not vector)" if ok
                              else "unexpectedly zero")

    # Eq. 30 vs Eq. 31 equivalence (reordering argument the paper omits)
    def eq30_vs_eq31():
        ok30 = _eq30_equals_eq31(g2, order)
        return Check("eq30_vs_eq31", "Eq. 30 'or, equivalently' Eq. 31",
                     PASS if ok30 else INFO,
                     residual="0" if ok30 else "forms disagree (reported, not assumed)",
                     order=order)

    def rep_compose():
        degrees = range(cfg.rep_degree + 1)
        logres, taildiffs = rep_compose_check(g2, degrees, order)
        checks = []
        for n, taildiff in zip(degrees, taildiffs):
            ok = logres.is_zero() and taildiff.is_zero()
            checks.append(Check(
                f"rep_compose[n={n}]", "Eqs. 19, 32", PASS if ok else FAIL,
                residual="0" if ok else
                         f"log: {logres.render()[:160]}; tail: {taildiff.render()[:80]}",
                order=order, degree=n))
        return checks

    rep.add(run_check(phi1_deleted))
    rep.add(run_check(omega_identity))
    rep.add(run_check(eq30_vs_eq31))
    chk, _ = triviality_probe(g2, lie2d, order=max(1, order))
    rep.add(chk)
    rep.extend(run_check(rep_compose))

    rep.add(Check("kappa_positive_note", "representation domain", INFO,
                  detail="the paper's representation is well defined only for "
                         "kappa > 0; formal verification here is sign-agnostic "
                         "(analytic remark, out of formal scope)"))
    return rep


def _eq30_equals_eq31(g2, order):
    m = Poly.var("m")
    v1 = Poly.var("v1")
    x = HSeries({1: RationalFn((m * v1 * v1).scale(Fraction(1, 2)))})
    lg = series_log1p(x, order + 1)
    texp = (lg * HSeries({-1: RationalFn(Poly.const(-GR_I))})).truncate(order)
    aexp = HSeries({k: (rf * RationalFn(Poly.const(2), v1))
                    for k, rf in texp.coeffs.items()}, texp.truncation)
    ctx2 = TensorContext((g2, g2))
    v_gi, tau_gi, a_gi = g2.gen_index("v"), g2.gen_index("tau"), g2.gen_index("a")
    el30 = (series_to_element(texp, ctx2, {"v1": (0, v_gi)}, ((), ((tau_gi, 1),)))
            + series_to_element(aexp, ctx2, {"v1": (0, v_gi)}, ((), ((a_gi, 1),))))
    el30 = normal_order(el30).truncate(order)
    log31 = build_omega(g2, order).log(order)
    return el30 == log31


# every runner takes (cfg, oracle); oracle is the run's PrefilterOracle and
# reaches every residual evaluation
SUITE_RUNNERS = {
    "algebra": suite_algebra,
    "group": suite_group,
    "casimirs": suite_casimirs,
    "bicross": suite_bicross,
    "cocommutator": suite_cocommutator,
    "rmatrix": suite_rmatrix,
    "duality": suite_duality,
    "spacetime": suite_spacetime,
    "projrep": suite_projrep,
}


def run_suite(cfg):
    """Execute one suite (or all of them) and return the merged report."""
    oracle = PrefilterOracle(cfg.seed)
    if cfg.suite == "all":
        rep = VerificationReport("all", cfg.echo())
        for name in SUITE_NAMES:
            sub = SUITE_RUNNERS[name](cfg, oracle)
            for c in sub.checks:
                c.check_id = f"{name}:{c.check_id}"
            rep.merge(sub)
    else:
        rep = SUITE_RUNNERS[cfg.suite](cfg, oracle)
    ok = oracle.disagreements == 0
    rep.add(Check("prefilter_agreement", "random-substitution oracle",
                  PASS if ok else FAIL,
                  residual="0" if ok else f"{oracle.disagreements} disagreements",
                  detail=f"{oracle.agreements} of {oracle.checked} residual evaluations "
                         "cross-checked by exact random substitution"))
    return rep
