"""The Appendix pairing machinery: Eq. 13 table, A2 identities, duality
rules, Poisson brackets, quantization."""

import random
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import comb

import pytest

from kappa_hopf import duality
from kappa_hopf.duality import (
    EQ13_TABLE,
    MatrixModel,
    PairingEngine,
    PoissonQuery,
    model_4d,
    pair,
    pair_word,
    poisson_family_verify,
    poisson_verify,
    quantization_crosscheck,
    sigma_matrix_terms,
)
from kappa_hopf.hopf import cocommutator
from kappa_hopf.models import load_model
from kappa_hopf.scalars import GR_I, GR_ONE, H_ZERO, GaussianRational, HSeries, Poly, RationalFn, as_hseries
from kappa_hopf.suites import SuiteConfig, run_suite



def pair_tensor(model, phi, psi, tensor_terms):
    """<phi (x) psi, sum c * (W1 (x) W2)> with W1, W2 generator words."""
    total = H_ZERO
    for c, w1, w2 in tensor_terms:
        v1 = pair_word(model, phi, w1)
        if not v1:
            continue
        v2 = pair_word(model, psi, w2)
        if not v2:
            continue
        total = total + as_hseries(c) * v1 * v2
    return total


def classical_coproduct_terms(word):
    """Delta_cl(x1...xk) expanded: all ordered subword splits (W_S, W_Sc)."""
    k = len(word)
    out = []
    for mask in range(1 << k):
        w1 = tuple(word[i] for i in range(k) if (mask >> i) & 1)
        w2 = tuple(word[i] for i in range(k) if not (mask >> i) & 1)
        out.append((GR_ONE, w1, w2))
    return out

def build_engine():
    model = model_4d()
    kappa = load_model("galilei_algebra_kappa")
    classical = load_model("galilei_algebra_classical")
    sigma = {}
    for gi, g in enumerate(classical.gens):
        w, _ = cocommutator(kappa, (g.name, g.index))
        sigma[gi] = {k: v.coeff(0).const_value() for k, v in w.pairs.items()}
    return model, classical, PairingEngine(
        model, [g.label() for g in classical.gens],
        sigma_matrix_terms(classical, sigma))


def test_eq13_table_exact():
    model = model_4d()
    for coord, gen, want in EQ13_TABLE:
        assert pair(Poly.var(coord), (gen,), model=model) == HSeries.const(want), \
            (coord, gen)


def test_pairing_spec_examples():
    model = model_4d()
    assert pair(Poly.var("tau"), ("P0",), model=model) == HSeries.const(GR_I)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                e = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
                     (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1}.get((i, j, k), 0)
                want = HSeries.const(GaussianRational(0, -e)) if e else HSeries()
                assert pair(Poly.var(f"R[{i},{j}]"), (f"M[{k}]",), model=model) == want
    # <a^i, M^0 L_m P_0> = <R^i_m, 1> = delta_im
    for i in (1, 2, 3):
        for m in (1, 2, 3):
            got = pair(Poly.var(f"a[{i}]"), (f"L[{m}]", "P0"), model=model)
            want = HSeries.const(1) if i == m else HSeries()
            assert got == want
            assert pair(Poly.var(f"R[{i},{m}]"), (), model=model) == want


def test_pair_rejects_non_model_generators():
    with pytest.raises(ValueError):
        pair(Poly.var("tau"), ("EE",))


def test_column_matvec_matches_row_products():
    # the walk's product reads only the vector's columns; it must give the
    # dict of the row-by-row product, zero sums dropped
    rng = random.Random(8)

    def value():
        return GaussianRational(rng.randint(-2, 2), rng.choice([0, 0, 1]))

    for _ in range(300):
        m = {r: {c: value() for c in rng.sample(range(6), rng.randint(1, 3))}
             for r in rng.sample(range(6), rng.randint(0, 4))}
        m = {r: {c: v for c, v in row.items() if v} for r, row in m.items()}
        vec = {c: value() for c in rng.sample(range(7), rng.randint(0, 3))}
        vec = {c: v for c, v in vec.items() if v}
        rows = {}
        for r, row in m.items():
            hits = [v * vec[c] for c, v in row.items() if c in vec]
            if hits and sum(hits, GaussianRational(0)):
                rows[r] = sum(hits, GaussianRational(0))
        assert duality._matvec(duality._columns(m), vec) == rows


def test_matrix_model_must_be_affine():
    # the unit coordinate (n-1, n-1) is the constant 1 only when every
    # generator matrix has a zero last row
    one = GaussianRational(1)
    assert MatrixModel(3, {"X": {0: {2: one}}}, {"x": (0, 2)}).unit == (2, 2)
    with pytest.raises(ValueError, match="not affine"):
        MatrixModel(3, {"X": {0: {2: one}}, "Y": {2: {0: one}}}, {"x": (0, 2)})


def _random_group_poly(rng, coords, deg):
    p = Poly()
    for _ in range(rng.randint(1, 3)):
        mono = Poly.const(GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)))
        for _ in range(rng.randint(0, deg)):
            mono = mono * Poly.var(rng.choice(coords))
        p = p + mono
    return p


def test_recursive_duality_rules_randomized():
    # <Phi Psi, X> = <Phi (x) Psi, Delta X> and <Phi, X Y> = <Delta Phi, X (x) Y>
    model = model_4d()
    rng = random.Random(8)
    coords = list(model.coordinates)
    gens = list(model.generators)
    for _ in range(25):
        phi = _random_group_poly(rng, coords, 2)
        psi = _random_group_poly(rng, coords, 2)
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        lhs = pair_word(model, phi * psi, word)
        rhs = pair_tensor(model, phi, psi, classical_coproduct_terms(word))
        assert lhs == rhs
    # <Phi, X Y> = <Delta Phi, X (x) Y>: Delta Phi is Phi evaluated on the
    # product of two independent group elements g(t) h(s); the mixed
    # t...s... coefficient of Phi(g h) is the right side
    from kappa_hopf.duality import _mask_product
    for _ in range(10):
        phi = _random_group_poly(rng, coords, 2)
        w1 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 2)))
        w2 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 2)))
        lhs = pair_word(model, phi, w1 + w2)
        g1 = _mask_product(model, w1)
        g2_ = _mask_product(model, w2)
        n = model.dim
        shift = len(w1)
        prod = {}
        for r in range(n):
            for c in range(n):
                acc = {}
                for k in range(n):
                    m1 = g1.get((r, k))
                    m2 = g2_.get((k, c))
                    if not m1 or not m2:
                        continue
                    for ma, va in m1.items():
                        for mb, vb in m2.items():
                            key = ma | (mb << shift)
                            nv = acc.get(key)
                            nv = va * vb if nv is None else nv + va * vb
                            if nv:
                                acc[key] = nv
                            else:
                                acc.pop(key, None)
                if acc:
                    prod[(r, c)] = acc
        full = (1 << (len(w1) + len(w2))) - 1

        def eval_phi(entries):
            total = None
            for mono, coeff in phi.terms.items():
                acc = {0: coeff}
                for sym, e in mono:
                    r, c = model.coordinates[sym]
                    masks = entries.get((r, c), {})
                    for _e in range(e):
                        nacc = {}
                        for m1, v1 in acc.items():
                            for m2, v2 in masks.items():
                                if m1 & m2:
                                    continue
                                nv = nacc.get(m1 | m2)
                                nv = v1 * v2 if nv is None else nv + v1 * v2
                                if nv:
                                    nacc[m1 | m2] = nv
                                else:
                                    nacc.pop(m1 | m2, None)
                        acc = nacc
                v = acc.get(full)
                if v:
                    total = v if total is None else total + v
            return total

        got = eval_phi(prod)
        from kappa_hopf.scalars import HSeries
        want = lhs.coeff(0).const_value() if lhs else None
        if got is None:
            assert not lhs
        else:
            assert lhs == HSeries.const(got)


def test_filtration_vanishing():
    # pair(Phi, X) = 0 when the vanishing order of Phi at the identity
    # exceeds len(X)
    model = model_4d()
    vanishing = [Poly.var("v[1]") * Poly.var("a[2]"),
                 Poly.var("tau") * Poly.var("v[3]") * Poly.var("a[1]"),
                 (Poly.var("R[1,2]")) * Poly.var("tau")]
    for phi in vanishing:
        deg = max(sum(e for _, e in mono) for mono in phi.terms)
        words = [(), ("P0",), ("L[1]",), ("M[2]", "P[1]")]
        for w in words:
            if len(w) < deg:
                assert pair_word(model, phi, w) == HSeries(), (phi, w)


def test_poisson_tau_a_hand_trace():
    # {tau, a^i} = (1/kappa) a^i: the only contributing pairing is
    # <tau (x) a^i, sigma(P_j)> = delta^i_j / kappa, matched by
    # <(1/kappa) a^i, P_j> = -(i/kappa) delta^i_j = -i * delta^i_j/kappa
    model, classical, engine = build_engine()
    # oracle by pair() on both sides for the generator monomials
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            sig_pj = [(GaussianRational(-1), (f"P[{j}]",), ("P0",)),
                      (GaussianRational(1), ("P0",), (f"P[{j}]",))]
            lhs_pairing = pair_tensor(model, Poly.var("tau"), Poly.var(f"a[{i}]"),
                                      [(c, w1, w2) for c, w1, w2 in sig_pj])
            want = HSeries.const(1) if i == j else HSeries()
            assert lhs_pairing == want
            cand_pairing = pair(Poly.var(f"a[{i}]"), (f"P[{j}]",), model=model)
            assert cand_pairing == (HSeries.const(-GR_I) if i == j else HSeries())
    # and the full orderly check through degree 3
    h = HSeries.h(1)
    for i in (1, 2, 3):
        chk = poisson_verify(engine, "tau", f"a[{i}]",
                             [(h, (f"a[{i}]",))], 3,
                             check_id=f"tau_a[{i}]")
        assert chk.status == "pass"


def test_poisson_constant_candidate():
    # a coordinate-free candidate term pairs as <1, X> = eps(X)
    _, _, engine = build_engine()
    chk = poisson_verify(engine, "tau", "a[1]", [(HSeries.h(1), ())], 3)
    assert chk.status == "fail"
    assert chk.residual == ("at X=1: <cand,X>=h vs -i<f(x)g,sigma(X)>=0 "
                            "(9 of 286 monomials disagree)")


def test_poisson_rr_zero_bracket():
    _, _, engine = build_engine()
    chk = poisson_verify(engine, "R[1,2]", "R[2,3]", [], 2, check_id="rr")
    assert chk.status == "pass"


def test_poisson_degree_bound_refused():
    _, _, engine = build_engine()
    h = HSeries.h(1)
    with pytest.raises(ValueError):
        poisson_verify(engine, "R[1,1]", "a[1]",
                       [(h, ("v[1]", "R[1,1]"))], 2, check_id="too_small")


def test_appendix_bracket_and_stability():
    # {R^m_n, a^r} at degree bound 4, then again at 5 (stability spot-check)
    _, _, engine = build_engine()
    h = HSeries.h(1)
    for bound in (4, 5):
        queries = []
        for m in (1, 2):
            for n in (1, 3):
                for r in (1, 2):
                    cand = [(-h, (f"v[{m}]", f"R[{r},{n}]"))]
                    if m == r:
                        for p_ in (1, 2, 3):
                            cand.append((h, (f"v[{p_}]", f"R[{p_},{n}]")))
                    queries.append(PoissonQuery(
                        f"R[{m},{n}]", f"a[{r}]", cand, bound,
                        check_id=f"ra[{m}{n}{r}]@{bound}"))
        checks = poisson_family_verify(engine, queries)
        assert all(c.status == "pass" for c in checks), bound


def test_quantization_crosscheck_full_table():
    _, _, engine = build_engine()
    group = load_model("galilei_group_kappa")
    checks = quantization_crosscheck(group, engine)
    assert len(checks) == len(group.rules)
    assert all(c.status == "pass" for c in checks)
    ids = {c.check_id for c in checks}
    assert "quantize[a[1],v[1]]" in ids
    assert "quantize[tau,a[1]]" in ids


def _doubled_rule_failures(f, g):
    """Residuals of the crosscheck with the group rule [f, g] doubled."""
    from kappa_hopf.ncalg import clone_presentation
    group = load_model("galilei_group_kappa")
    rules = dict(group.rules)
    key = (group.gen_index(*f), group.gen_index(*g))
    rules[key] = tuple((c.scale(2), w) for c, w in rules[key])
    mutant = clone_presentation(group, name="gm", rules=rules)
    _, _, engine = build_engine()
    checks = quantization_crosscheck(mutant, engine)
    return {c.check_id: c.residual for c in checks if c.status == "fail"}


def test_quantization_mutation_detected():
    # the residual names the least failing monomial in PBW order
    bad = _doubled_rule_failures(("tau",), ("a", (1,)))
    assert bad == {"quantize[tau,a[1]]": (
        "at X=P[1]: <cand,X>=-2*i*h vs -i<f(x)g,sigma(X)>=-i*h "
        "(8 of 286 monomials disagree)")}


def test_quantization_mutation_first_failure_of_degree_two():
    # the depth-first walk reaches the failing M[1]*M[2]*L[1]*L[1] (under
    # the suffix L[1]) before L[1]*L[2] (under L[2]); the residual still
    # names the least failing word, L[1]*L[2]
    bad = _doubled_rule_failures(("a", (1,)), ("v", (2,)))
    assert bad == {"quantize[a[1],v[2]]": (
        "at X=L[1]*L[2]: <cand,X>=-2*h vs -i<f(x)g,sigma(X)>=-h "
        "(12 of 1001 monomials disagree)")}


def _per_word_oracle(engine, queries):
    """The per-word comparison the residual scatter replaced: both sides of
    every query built as HSeries on every visited word, as (status,
    residual, detail) per query.  The PBW words are counted here, by
    listing them, not by the visits."""
    model, n = engine.model, engine.model.dim
    minus_i, h = HSeries.const(-GR_I), HSeries.h(1)
    compiled = []
    for q in queries:
        fr, fc = model.coordinates[q.f_label]
        gr, gc = model.coordinates[q.g_label]
        cand = []
        for coeff, labels in q.candidate:
            entries = [model.coordinates[x] for x in labels]
            (r1, c1), (r2, c2) = entries + [model.unit] * (2 - len(entries))
            cand.append((as_hseries(coeff), r1 * n + r2, c1 * n + c2))
        compiled.append((q, cand, fr * n + gr, fc * n + gc))
    cols = sorted({c for _, cand, _, sc in compiled for c in [sc] + [c for _, _, c in cand]})
    failures = {q.check_id: [] for q in queries}

    def visit(word, u, t):
        plain, sig = dict(zip(cols, u)), dict(zip(cols, t))
        for q, cand, srow, scol in compiled:
            if len(word) > q.degree_bound:
                continue
            lhs = HSeries()
            for coeff, row, col in cand:
                v = plain[col].get(row, GaussianRational(0))
                if v:
                    lhs = lhs + coeff.scale(v)
            rhs = minus_i.scale(sig[scol].get(srow, GaussianRational(0))) * h
            if lhs != rhs:
                failures[q.check_id].append((word, lhs, rhs))

    engine.sweep(max(q.degree_bound for q in queries), cols, visit, cols)
    rank = {label: i for i, label in enumerate(engine.gen_order)}
    out = []
    for q in queries:
        fails = failures[q.check_id]
        count = sum(1 for d in range(q.degree_bound + 1)
                    for _ in combinations_with_replacement(engine.gen_order, d))
        if not fails:
            out.append(("pass", "0", f"{count} monomials checked"))
            continue
        w, lhs, rhs = min(fails, key=lambda f: (len(f[0]), [rank[x] for x in f[0]]))
        out.append(("fail", f"at X={'*'.join(w) or '1'}: <cand,X>={lhs} vs "
                    f"-i<f(x)g,sigma(X)>={rhs} ({len(fails)} of {count} "
                    "monomials disagree)", ""))
    return out


def test_residual_scatter_agrees_with_per_word_oracle(monkeypatch):
    _, _, engine = build_engine()
    h = HSeries.h(1)
    m = Poly.var("m")
    ra = [(-h, ("v[1]", "R[2,1]"))]   # {R[1,1], a[2]}, a passing candidate
    families = {
        "sign_flip": [PoissonQuery("tau", "a[1]", [(-h, ("a[1]",))], 3, "q")],
        "h0_and_h2": [PoissonQuery("tau", "a[1]", [(HSeries({0: 1, 2: 3}), ("a[1]",)),
                                                   (h, ("a[1]",))], 3, "q")],
        "symbolic": [PoissonQuery("tau", "a[2]",
                                  [(HSeries({1: RationalFn(m, m + 1)}), ("a[2]",))], 3, "q")],
        "empty": [PoissonQuery("tau", "a[1]", [], 3, "nonzero"),
                  PoissonQuery("R[1,2]", "R[2,3]", [], 3, "zero")],
        "mixed": [PoissonQuery("tau", "a[1]", [(h, ("a[1]",))], 3, "pass"),
                  PoissonQuery("tau", "a[3]", [(h, ("a[1]",))], 4, "wrong_coord"),
                  PoissonQuery("R[1,1]", "a[2]", ra, 4, "pass_deg2"),
                  PoissonQuery("R[1,1]", "a[2]", [(h, c) for _, c in ra], 3, "flip_deg2"),
                  PoissonQuery("tau", "a[2]", [(HSeries({1: m}), ("a[2]",))], 2, "symbol")],
    }
    statuses = set()
    sides = []
    real_sides = duality._sides
    monkeypatch.setattr(duality, "_sides",
                        lambda *a: sides.append(a) or real_sides(*a))
    for name, queries in families.items():
        sides.clear()
        checks = poisson_family_verify(engine, queries)
        want = _per_word_oracle(engine, queries)
        got = [(c.status, c.residual, c.detail) for c in checks]
        assert got == want, name
        statuses.update(c.status for c in checks)
        # the series sides are built for the failing words only, apart
        # from a symbolic coefficient
        if name in ("sign_flip", "h0_and_h2", "empty"):
            fails = sum(int(r.split("(")[-1].split()[0]) for s, r, _ in want if s == "fail")
            assert len(sides) == fails, name
    assert statuses == {"pass", "fail"}


def test_monomial_counts_are_pbw_words_up_to_the_bound():
    # PBW words of degree <= b in the 10 classical generators: C(10 + b, b)
    _, _, engine = build_engine()
    assert len(engine.gen_order) == 10
    queries = [PoissonQuery("R[1,2]", "R[2,3]", [], b, f"rr@{b}") for b in range(2, 7)]
    checks = poisson_family_verify(engine, queries)
    assert [c.detail for c in checks] == [
        f"{comb(10 + b, b)} monomials checked" for b in range(2, 7)]


def test_duality_suite_builds_each_mask_product_once(monkeypatch):
    model_4d()  # its own Eq. 13 self-test pairs outside any suite run
    built = []
    build = duality._mask_product

    def spy(model, word):
        built.append(word)
        return build(model, word)

    monkeypatch.setattr(duality, "_mask_product", spy)
    runs = []
    for _ in range(2):
        run_suite(SuiteConfig(suite="duality", order=1, degree=3))
        runs.append(list(built))
        built.clear()
    # one build per distinct word, and the products do not outlive the run
    assert len(runs[0]) > 100 and len(set(runs[0])) == len(runs[0])
    assert runs[1] == runs[0]


def test_sweep_carries_sigma_only_in_queried_columns(monkeypatch):
    """The duality suite's residual texts and "N of M" counts, and those of a
    failing quantization mutant, are the same when the sweep carries sigma
    in every column; it carries fewer."""
    carried = []
    real = PairingEngine.sweep

    def every_column(self, max_degree, cols, visit, sigma_cols):
        carried.append((len(cols), len(sigma_cols)))
        return real(self, max_degree, cols, visit, cols)

    def outcomes():
        rep = run_suite(SuiteConfig(suite="duality", order=3, seed=42))
        return ([(c.check_id, c.status, c.residual, c.detail) for c in rep.checks],
                _doubled_rule_failures(("a", (1,)), ("v", (2,))))

    skipped = outcomes()
    monkeypatch.setattr(PairingEngine, "sweep", every_column)
    full = outcomes()
    assert skipped == full
    assert "(12 of 1001 monomials disagree)" in full[1]["quantize[a[1],v[2]]"]
    assert carried and all(n_sigma <= n for n, n_sigma in carried)
    assert any(n_sigma < n for n, n_sigma in carried)


def _visit_every_word(self, max_degree, cols, visit, sigma_cols):
    """A sweep that visits every PBW word of degree <= max_degree, all-zero
    blocks included."""
    carry = [c in sigma_cols for c in cols]

    def walk(word, first, u, t):
        visit(word, u, t)
        if len(word) == max_degree:
            return
        for i, label in enumerate(self.gen_order[:first + 1]):
            D, K = self.D[label], self.K[label]
            walk((label,) + word, i, [duality._matvec(D, ucol) for ucol in u],
                 [duality._vec_add(duality._matvec(D, tcol), duality._matvec(K, ucol))
                  if keep else tcol for ucol, tcol, keep in zip(u, t, carry)])

    walk((), len(self.gen_order) - 1, [{c: GR_ONE} for c in cols], [{} for _ in cols])


def test_sweep_ends_a_branch_at_an_all_zero_block_exactly(monkeypatch):
    """The duality suite's checks, and the residual texts of failing
    quantization mutants, are the same when the sweep visits every word; the
    pruned sweep visits exactly the words with a nonzero block, about a
    tenth of them."""
    sweeps = []

    def recording(sweep):
        def run(self, max_degree, cols, visit, sigma_cols):
            seen = []
            sweeps.append(seen)
            return sweep(self, max_degree, cols,
                         lambda w, u, t: seen.append((w, any(u) or any(t))) or visit(w, u, t),
                         sigma_cols)
        return run

    def outcomes(sweep):
        sweeps.clear()
        monkeypatch.setattr(PairingEngine, "sweep", recording(sweep))
        rep = run_suite(SuiteConfig(suite="duality", order=3, seed=42))
        suite_sweeps = list(sweeps)
        return ([(c.check_id, c.status, c.residual, c.detail) for c in rep.checks],
                _doubled_rule_failures(("a", (1,)), ("v", (2,))),
                _doubled_rule_failures(("tau",), ("a", (1,)))), suite_sweeps

    pruned, pruned_sweeps = outcomes(PairingEngine.sweep)
    full, full_sweeps = outcomes(_visit_every_word)
    assert pruned == full
    assert "(12 of 1001 monomials disagree)" in full[1]["quantize[a[1],v[2]]"]
    assert "(8 of 286 monomials disagree)" in full[2]["quantize[tau,a[1]]"]
    assert [[w for w, _ in seen] for seen in pruned_sweeps] == \
        [[w for w, nonzero in seen if nonzero] for seen in full_sweeps]
    # the appendix sweep to degree 6 and the quantization sweep to degree 4
    assert sum(map(len, full_sweeps)) == comb(16, 6) + comb(14, 4) == 9009
    assert sum(map(len, pruned_sweeps)) <= 1100


@pytest.mark.parametrize("degree", [6, 8])
def test_appendix_counts_are_pbw_words_at_the_degree_bound(degree):
    rep = run_suite(SuiteConfig(suite="duality", order=1, degree=degree, seed=42))
    details = [c.detail for c in rep.checks if c.check_id.startswith("appendix_bracket[")]
    want = {6: 8008, 8: 43758}[degree]
    assert want == comb(10 + degree, degree)
    assert details == [f"{want} monomials checked"] * 27
