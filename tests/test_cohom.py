"""Coboundary solving, co-Jacobi, and second cohomology: exact certificates."""

import dataclasses
import random
from fractions import Fraction as F

import pytest

from kappa_hopf import suites
from kappa_hopf.cohom import (
    CoboundarySolver,
    H2Result,
    LieData,
    LieDataError,
    LinearCertificate,
    PreparedSystem,
    co_jacobi_check,
    coboundary_of,
    lie_h2,
    solve_coboundary,
)
from kappa_hopf.hopf import cocommutator
from kappa_hopf.models import load_model
from kappa_hopf.suites import SuiteConfig, run_suite
from kappa_hopf.scalars import GR_I, GR_ONE, GR_ZERO, H_ZERO, GaussianRational, HSeries, Poly


def galilei_lie():
    return LieData.from_presentation(load_model("galilei_algebra_classical"))


def eq9_sigma():
    return cocommutator(load_model("galilei_algebra_kappa"),
                        load_model("galilei_algebra_classical"))[0]


def test_liedata_rejects_broken_jacobi():
    # [p,q] = i z together with [p,z] = i p leaves [[z,p],q] = z uncancelled
    with pytest.raises(LieDataError):
        LieData(["p", "q", "z"], {(0, 1): {2: GR_I}, (0, 2): {0: GR_I}})


def test_rmatrix_infeasibility_certificate():
    lie = galilei_lie()
    sigma = eq9_sigma()
    cert = solve_coboundary(lie, sigma)
    assert cert.status == "infeasible"
    assert cert.n_unknowns == 45
    assert cert.n_equations == 450
    assert cert.rank_a < cert.rank_aug
    assert (cert.rank_a, cert.rank_aug) == (44, 45)
    assert cert.revalidate(lie, sigma)


def test_sigma_zero_gives_zero_solution():
    lie = galilei_lie()
    cert = solve_coboundary(lie, {})
    assert cert.status == "solution"
    assert all(not x for x in cert.witness)
    assert cert.revalidate(lie, {})


def test_roundtrip_random_coboundaries():
    lie = galilei_lie()
    solver = CoboundarySolver(lie)
    rng = random.Random(12)
    for _ in range(20):
        r0 = [GaussianRational(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
              for _ in lie.pair_index()]
        sig = coboundary_of(lie, r0)
        cert = solver.solve(sig)
        assert cert.status == "solution"
        assert cert.revalidate(lie, sig)
        # the witness's coboundary reproduces sigma (the witness itself may
        # differ from r0 by an invariant of the wedge action)
        assert coboundary_of(lie, cert.witness) == sig


def test_solver_is_basis_permutation_invariant():
    lie = galilei_lie()
    sigma = eq9_sigma()
    rng = random.Random(3)
    perm = list(range(lie.dim))
    rng.shuffle(perm)
    inv = {p: k for k, p in enumerate(perm)}
    labels = [lie.labels[perm[k]] for k in range(lie.dim)]
    brackets = {}
    for i in range(lie.dim):
        for j in range(i + 1, lie.dim):
            comp = lie.bracket(perm[i], perm[j])
            brackets[(i, j)] = {inv[t]: c for t, c in comp.items()}
    lie2 = LieData(labels, brackets)
    sigma2 = {}
    for x, w in sigma.items():
        nw = {}
        for (a, b), c in w.items():
            na, nb = inv[a], inv[b]
            if na < nb:
                nw[(na, nb)] = nw.get((na, nb), GaussianRational(0)) + c
            else:
                nw[(nb, na)] = nw.get((nb, na), GaussianRational(0)) - c
        sigma2[inv[x]] = {k: v for k, v in nw.items() if v}
    c1 = solve_coboundary(lie, sigma)
    c2 = solve_coboundary(lie2, sigma2)
    assert c1.status == c2.status == "infeasible"
    assert (c1.rank_a, c1.rank_aug) == (c2.rank_a, c2.rank_aug)


def test_co_jacobi_passes_and_mutation_fails():
    lie = galilei_lie()
    sigma = eq9_sigma()
    checks = co_jacobi_check(lie, sigma)
    assert len(checks) == 45
    assert all(c.status == "pass" for c in checks)
    # sigma == 0 trivially passes
    assert all(c.status == "pass" for c in co_jacobi_check(lie, {}))
    # flipping the sign of sigma(P_i) fails on (L_j, P_i) pairs
    classical = load_model("galilei_algebra_classical")
    mutated = dict(sigma)
    for i in (1, 2, 3):
        gi = classical.gen_index("P", (i,))
        mutated[gi] = {k: -v for k, v in sigma[gi].items()}
    checks = co_jacobi_check(lie, mutated)
    failed = [c.check_id for c in checks if c.status == "fail"]
    assert failed
    assert any("L[" in cid and "P[" in cid for cid in failed)


def test_lie_h2_examples():
    # 1+1 classical Galilei: dim >= 1 with the mass cocycle as representative
    lie2d = LieData.from_presentation(load_model("galilei_algebra_2d_classical"))
    h2 = lie_h2(lie2d)
    assert h2.dimension >= 1
    # hand enumeration of the 3-dimensional cochain spaces: all three
    # 2-cochains are closed, coboundaries are spanned by (L,P0)*
    assert h2.n_cochains == 3
    assert h2.rank_d2 == 0
    assert h2.rank_d1 == 1
    assert h2.dimension == 2
    li, pi = lie2d.labels.index("L"), lie2d.labels.index("P")
    mass = (min(li, pi), max(li, pi))
    assert any(mass in rep for rep in h2.representatives)

    # abelian 2-dimensional algebra: a single antisymmetric form, no
    # coboundaries
    ab = LieData(["x", "y"], {})
    assert lie_h2(ab).dimension == 1

    # semisimple so(3): Whitehead's lemma instance
    so3 = LieData(["M1", "M2", "M3"],
                  {(0, 1): {2: GR_I}, (1, 2): {0: GR_I}, (0, 2): {1: -GR_I}})
    assert lie_h2(so3).dimension == 0


# ---------------------------------------------------------------------------
# the shared elimination against the code it replaced
# ---------------------------------------------------------------------------


def _nullspace_oracle(rows, ncols):
    """The dense kernel basis that cohom.nullspace computed."""
    m = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col].inverse()
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [GR_ZERO] * ncols
        v[fc] = GR_ONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def _reduce_oracle(rows, vec, zero):
    """The loop projrep._classical_class used: echelon the rows in order,
    then eliminate their pivot entries from vec."""
    reduced = []
    for row in rows:
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
    sym = {k: v for k, v in enumerate(vec) if v}
    for prow, ppos in reduced:
        f = sym.get(ppos)
        if f:
            for k, b in enumerate(prow):
                if b:
                    nv = sym.get(k, zero) - f * b
                    if nv:
                        sym[k] = nv
                    else:
                        sym.pop(k, None)
    return [sym.get(k, zero) for k in range(len(vec))]


def _h2_oracle(lie):
    """lie_h2 as it was: kernel by the dense nullspace, representatives by
    one rank per kernel vector."""
    pairs = lie.pair_index()
    npairs = len(pairs)
    n = lie.dim

    def rank(rows):
        return PreparedSystem(rows, npairs).rank

    d2_rows = []
    for i, j, k in ((i, j, k) for i in range(n) for j in range(i + 1, n)
                    for k in range(j + 1, n)):
        row = [GR_ZERO] * npairs
        for sgn, br, other in ((-1, lie.bracket(i, j), k), (1, lie.bracket(i, k), j),
                               (-1, lie.bracket(j, k), i)):
            for m, c in br.items():
                if m != other:
                    t = pairs.index((min(m, other), max(m, other)))
                    row[t] = row[t] + (c * sgn if m < other else -(c * sgn))
        d2_rows.append(row)
    kernel = _nullspace_oracle(d2_rows, npairs) if d2_rows else [
        [GR_ONE if t == s else GR_ZERO for t in range(npairs)] for s in range(npairs)]
    d1_rows = [[-lie.bracket(i, j).get(t, GR_ZERO) for (i, j) in pairs] for t in range(n)]
    current = [r for r in d1_rows if any(r)]
    reps = []
    for v in kernel:
        if rank(current + [v]) > rank(current):
            current = current + [v]
            reps.append({pairs[t]: v[t] for t in range(npairs) if v[t]})
    return H2Result(len(kernel) - rank(d1_rows), reps, npairs, npairs - len(kernel),
                    rank(d1_rows))


def _random_rows(rng, nrows, ncols):
    """Gaussian-rational rows, sparse-ish, with zero, repeated and
    dependent rows mixed in."""
    def entry():
        if rng.random() < 0.4:
            return GR_ZERO
        return GaussianRational(F(rng.randint(-4, 4), rng.randint(1, 3)),
                                F(rng.randint(-4, 4), rng.randint(1, 3)))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(("zero", "repeat", "combination"))
        if kind == "zero" or not rows:
            new = [GR_ZERO] * ncols
        elif kind == "repeat":
            new = list(rng.choice(rows))
        else:
            a, b, c = rng.choice(rows), rng.choice(rows), entry()
            new = [x + c * y for x, y in zip(a, b)]
        rows.insert(rng.randint(0, len(rows)), new)
    return rows


def test_kernel_and_reduce_match_the_replaced_elimination():
    rng = random.Random(2024)
    syms = [Poly.var(s) for s in ("m", "v1", "p")]
    for trial in range(150):
        ncols = rng.randint(1, 7)
        rows = _random_rows(rng, rng.randint(0, 6), ncols)
        system = PreparedSystem(rows, ncols)
        assert system.kernel() == _nullspace_oracle(rows, ncols), trial
        assert system.rank + len(system.kernel()) == ncols
        vec = [GaussianRational(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(ncols)]
        assert system.reduce(vec) == _reduce_oracle(rows, vec, GR_ZERO), trial
        series = [HSeries({k: rng.choice(syms).scale(rng.randint(-3, 3)) * rng.choice(syms)
                           for k in range(rng.randint(0, 2))})
                  for _ in range(ncols)]
        assert system.reduce(series) == _reduce_oracle(rows, series, H_ZERO), trial
        # the row space reduces to zero
        assert not any(x for row in rows for x in system.reduce(row)), trial


@pytest.mark.parametrize("name", ["galilei_algebra_2d_classical", "galilei_algebra_classical"])
def test_lie_h2_matches_the_replaced_computation(name):
    lie = LieData.from_presentation(load_model(name))
    assert lie_h2(lie) == _h2_oracle(lie)


def test_lie_h2_skips_a_kernel_vector_dependent_modulo_the_coboundaries():
    # [a,b] = [a,d] = c: d(c*) = -(a^b)* - (a^d)*, so once (a^b)* is a
    # representative, (a^d)* is not, although neither is a coboundary
    lie = LieData(["a", "b", "c", "d"], {(0, 1): {2: GR_ONE}, (0, 3): {2: GR_ONE}})
    h2 = lie_h2(lie)
    assert h2 == _h2_oracle(lie)
    assert (0, 1) in h2.representatives[0] and h2.dimension == len(h2.representatives)
    assert not any((0, 3) in rep and len(rep) == 1 for rep in h2.representatives)


# ---------------------------------------------------------------------------
# the operators each LieData builds once
# ---------------------------------------------------------------------------


def so3_lie():
    return LieData(["M1", "M2", "M3"],
                   {(0, 1): {2: GR_I}, (1, 2): {0: GR_I}, (0, 2): {1: -GR_I}})


def _ad_reference(lie, x):
    """ad_x on Lambda^2 through g (x) g: the dense matrix of ad_x from the
    brackets acts as ad_x (x) 1 + 1 (x) ad_x on e_a (x) e_b - e_b (x) e_a,
    and the e_i (x) e_j coefficients with i < j are read off.  One column
    {row pair: value} per pair."""
    n = lie.dim
    ad = [[lie.bracket(x, a).get(i, GR_ZERO) for a in range(n)] for i in range(n)]
    cols = []
    for a, b in lie.pair_index():
        tensor = [[GR_ZERO] * n for _ in range(n)]
        for (p, q), sign in (((a, b), GR_ONE), ((b, a), -GR_ONE)):
            for i in range(n):
                tensor[i][q] = tensor[i][q] + sign * ad[i][p]
                tensor[p][i] = tensor[p][i] + sign * ad[i][q]
        cols.append({(i, j): tensor[i][j] for i in range(n) for j in range(i + 1, n)
                     if tensor[i][j]})
    return cols


@pytest.mark.parametrize("make", [
    so3_lie,
    galilei_lie,
    lambda: LieData.from_presentation(load_model("galilei_algebra_2d_classical")),
], ids=["so3", "galilei_algebra_classical", "galilei_algebra_2d_classical"])
def test_ad_table_matches_the_brackets(make):
    lie = make()
    pairs = lie.pair_index()
    assert lie.ad_rows == tuple(
        {cpos: v for cpos, col in enumerate(lie.ad[x]) for r, v in col if r == rpos}
        for x in range(lie.dim) for rpos in range(len(pairs)))
    for x in range(lie.dim):
        got = [{pairs[r]: v for r, v in col if v} for col in lie.ad[x]]
        assert got == _ad_reference(lie, x), lie.labels[x]


def _count_calls(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_ad_table_is_built_once_per_liedata(monkeypatch):
    built = _count_calls(monkeypatch, LieData, "_ad_columns")
    sigma = eq9_sigma()
    for run in range(2):
        del built[:]
        lie = galilei_lie()
        solver = CoboundarySolver(lie)
        assert solver.solve(sigma).revalidate(lie, sigma)
        rng = random.Random(5)
        for _ in range(20):
            sig = coboundary_of(lie, [GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))
                                      for _ in lie.pair_index()])
            cert = solver.solve(sig)
            assert cert.revalidate(lie, sig) and coboundary_of(lie, cert.witness) == sig
        assert all(c.status == "pass" for c in co_jacobi_check(lie, sigma))
        assert len(built) == 10, run
        assert all(args[0] is lie for args in built)
        # and the same through the suites: one LieData, 10 columns tables, per run
        for suite in ("rmatrix", "cocommutator"):
            del built[:]
            assert run_suite(SuiteConfig(suite=suite, order=1, seed=42)).passed
            assert len(built) == 10, (suite, run)


def _two_pass_certificate(solver, sigma):
    """The certificate as the solver made it before: one replay of the
    elimination for the solution, a second one for rank(A|b)."""
    system = solver.system
    b = [sigma.get(x, {}).get(p, GR_ZERO) for x in range(solver.lie.dim) for p in solver.pairs]
    pivot_rows = {pr for pr, _ in system.pivots}
    reduced = system.apply(b)
    x = None
    if not any(v for r, v in enumerate(reduced) if r not in pivot_rows):
        x = [GR_ZERO] * system.ncols
        for pr, pc in system.pivots:
            x[pc] = reduced[pr]
    reduced = system.apply(b)
    raug = system.rank + any(v for r, v in enumerate(reduced) if r not in pivot_rows)
    return LinearCertificate("infeasible" if x is None else "solution", len(solver.pairs),
                             len(b), system.rank, raug, x, solver.pairs)


def test_solve_eliminates_each_right_side_once(monkeypatch):
    lie = galilei_lie()
    solver = CoboundarySolver(lie)
    rng = random.Random(31)
    sigmas = [eq9_sigma()] + [
        coboundary_of(lie, [GaussianRational(F(rng.randint(-6, 6), rng.randint(1, 3)),
                                             rng.randint(-6, 6)) for _ in lie.pair_index()])
        for _ in range(20)]
    expected = [_two_pass_certificate(solver, sigma) for sigma in sigmas]
    applied = _count_calls(monkeypatch, PreparedSystem, "apply")
    got = [solver.solve(sigma) for sigma in sigmas]
    assert len(applied) == len(sigmas)
    assert got == expected
    assert got[0].status == "infeasible" and (got[0].rank_a, got[0].rank_aug) == (44, 45)
    assert all(c.status == "solution" and c.rank_aug == 44 for c in got[1:])


def test_liedata_is_immutable():
    lie = so3_lie()
    for name, value in (("labels", ("a", "b", "c")), ("brackets", {}), ("ad", ()),
                        ("ad_rows", ()), ("pairs", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lie, name, value)
    with pytest.raises(TypeError):
        lie.brackets[(0, 1)] = {}
    with pytest.raises(TypeError):
        lie.brackets[(0, 1)][2] = GR_ONE
    with pytest.raises(TypeError):
        lie.ad_rows[0][0] = GR_ONE
    assert lie == so3_lie()


def test_cocommutator_suite_reuses_the_eq9_wedges(monkeypatch):
    # the h^1 table of an order-2 expansion is the order-1 one, so the
    # co-Jacobi checks read the table the sigma[...] checks computed: one
    # cocommutator call per suite run, at higher_order 2 for cocommutator
    kappa = load_model("galilei_algebra_kappa")
    classical = load_model("galilei_algebra_classical")
    assert cocommutator(kappa, classical, higher_order=2)[0] == cocommutator(kappa, classical)[0]
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("higher_order", 1))
        return cocommutator(*args, **kwargs)

    monkeypatch.setattr(suites, "cocommutator", spy)
    for suite, higher_order in (("cocommutator", 2), ("rmatrix", 1), ("duality", 1)):
        del calls[:]
        report = run_suite(SuiteConfig(suite=suite, order=1, seed=42))
        assert calls == [higher_order], suite
        assert report.passed
        if suite == "cocommutator":
            assert sum(c.check_id.startswith("sigma[") for c in report.checks) == 10
            assert sum(c.check_id.startswith("co_jacobi[") for c in report.checks) == 45
