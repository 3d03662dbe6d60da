"""Exact linear algebra over the classical Lie algebra: coboundary
(r-matrix) solving, co-Jacobi verification, and second cohomology with
trivial coefficients (central extensions).

Everything runs over exact Gaussian rationals; certificates re-validate by
substitution, and infeasibility is reported as auditable rank data
(rank(A) < rank(A|b)).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType

from .report import Check, FAIL, PASS, run_check
from .scalars import GR_ONE, GR_ZERO, as_gaussian


# ---------------------------------------------------------------------------
# exact sparse linear algebra (Gaussian-rational entries)
# ---------------------------------------------------------------------------


def _sparse_rows(rows):
    out = []
    for r in rows:
        if isinstance(r, Mapping):
            out.append({c: v for c, v in r.items() if v})
        else:
            out.append({c: v for c, v in enumerate(r) if v})
    return out


def _row_axpy(row, f, prow):
    # row -= f * prow, in place
    for c, v in prow.items():
        nv = row.get(c, GR_ZERO) - f * v
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)


class PreparedSystem:
    """RREF of a fixed matrix A with the row operations recorded, so many
    right-hand sides solve in O(ops) each (the r-matrix round-trips reuse
    one factorization)."""

    def __init__(self, rows, ncols):
        work = _sparse_rows(rows)
        self.ncols = ncols
        self.ops = []       # ("swap", i, j) | ("scale", i, inv) | ("axpy", i, f_ref, j)
        self.pivots = []    # (row, col)
        rank = 0
        for col in range(ncols):
            piv = None
            for r in range(rank, len(work)):
                if col in work[r]:
                    piv = r
                    break
            if piv is None:
                continue
            if piv != rank:
                work[rank], work[piv] = work[piv], work[rank]
                self.ops.append(("swap", rank, piv))
            inv = work[rank][col].inverse()
            if inv != GR_ONE:
                work[rank] = {c: v * inv for c, v in work[rank].items()}
                self.ops.append(("scale", rank, inv))
            prow = work[rank]
            for r in range(len(work)):
                if r != rank and col in work[r]:
                    f = work[r][col]
                    _row_axpy(work[r], f, prow)
                    self.ops.append(("axpy", r, f, rank))
            self.pivots.append((rank, col))
            rank += 1
        self.rank = rank
        self.rref = work

    def apply(self, rhs):
        b = list(rhs)
        for op in self.ops:
            if op[0] == "swap":
                _, i, j = op
                b[i], b[j] = b[j], b[i]
            elif op[0] == "scale":
                _, i, inv = op
                b[i] = b[i] * inv
            else:
                _, i, f, j = op
                b[i] = b[i] - f * b[j]
        return b

    def solve(self, rhs):
        """(x, rank(A|b)) from one pass of the recorded elimination over b:
        x is a solution vector, or None when b is inconsistent (then
        rank(A|b) = rank(A) + 1).  Pivot rows are the first rank rows."""
        b = self.apply(rhs)
        if any(b[self.rank:]):
            return None, self.rank + 1
        x = [GR_ZERO] * self.ncols
        for pr, pc in self.pivots:
            x[pc] = b[pr]
        return x, self.rank

    def kernel(self):
        """The standard basis of the kernel of A, one vector per free column
        in increasing order: 1 there, and minus each pivot row's entry in that
        column at the row's pivot column."""
        pivot_cols = {pc for _, pc in self.pivots}
        basis = []
        for fc in range(self.ncols):
            if fc in pivot_cols:
                continue
            v = [GR_ZERO] * self.ncols
            v[fc] = GR_ONE
            for pr, pc in self.pivots:
                x = self.rref[pr].get(fc)
                if x:
                    v[pc] = -x
            basis.append(v)
        return basis

    def reduce(self, vec):
        """vec modulo the row space of A: the one representative that is zero
        at every pivot column.  Entries may be HSeries (the rows' entries
        scale them)."""
        out = list(vec)
        for pr, pc in self.pivots:
            f = out[pc]
            if f:
                for c, v in self.rref[pr].items():
                    out[c] = out[c] - f * v
        return out


# ---------------------------------------------------------------------------
# LieData
# ---------------------------------------------------------------------------


class LieDataError(ValueError):
    pass


@dataclass(frozen=True)
class LieData:
    """Finite-dimensional Lie algebra: basis labels and exact structure
    constants [e_i, e_j] = sum_k c[i,j][k] e_k (antisymmetry and Jacobi are
    checked at construction).

    The operators every cohomology check reads are built once, at
    construction, and never change, since the instance is immutable (its
    brackets are read-only mappings):
      pairs     the ordered basis of Lambda^2, (i, j) with i < j;
      pair_pos  (i, j) -> its position in pairs;
      ad        per generator x, the sparse columns of ad_x (x) 1 + 1 (x) ad_x
                on Lambda^2, each a tuple of (row position, value);
      ad_rows   the coboundary matrix A of sigma(X) = ad_X . r over all
                generators: row x * len(pairs) + t is component t of ad_X,
                a read-only {pair position of r: value}.
    """

    labels: tuple
    brackets: Mapping  # (i, j) with i < j -> {k: GaussianRational}
    pairs: tuple = field(init=False, repr=False, compare=False)
    pair_pos: Mapping = field(init=False, repr=False, compare=False)
    ad: tuple = field(init=False, repr=False, compare=False)
    ad_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.labels)
        clean = {}
        for (i, j), comp in self.brackets.items():
            if not (0 <= i < j < n):
                raise LieDataError(f"bracket key ({i},{j}) out of range or unordered")
            comp = {k: as_gaussian(c) for k, c in comp.items() if as_gaussian(c)}
            if comp:
                clean[(i, j)] = MappingProxyType(comp)
        assign = partial(object.__setattr__, self)
        assign("labels", tuple(self.labels))
        assign("brackets", MappingProxyType(clean))
        self._check_jacobi()
        pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        assign("pairs", pairs)
        assign("pair_pos", MappingProxyType({p: k for k, p in enumerate(pairs)}))
        assign("ad", tuple(self._ad_columns(x) for x in range(n)))
        rows = []
        for cols in self.ad:
            sparse = [{} for _ in pairs]
            for cpos, col in enumerate(cols):
                for rpos, v in col:
                    sparse[rpos][cpos] = v
            rows.extend(MappingProxyType(row) for row in sparse)
        assign("ad_rows", tuple(rows))

    @property
    def dim(self):
        return len(self.labels)

    def bracket(self, i, j):
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def _check_jacobi(self):
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, cm in self.bracket(a, b).items():
                            for l, cl in self.bracket(m, c).items():
                                acc[l] = acc.get(l, GR_ZERO) + cm * cl
                    if any(v for v in acc.values()):
                        raise LieDataError(
                            f"Jacobi fails on ({self.labels[i]},{self.labels[j]},{self.labels[k]})")

    @staticmethod
    def from_presentation(p):
        """Extract structure constants from a classical presentation whose
        rule corrections are linear in the generators with h-free scalars."""
        labels = [g.label() for g in p.gens]
        brackets = {}
        for (hi, lo), corr in p.rules.items():
            comp = {}
            for c, w in corr:
                if c.has_negative_powers() or c.max_power() not in (None, 0):
                    raise LieDataError(f"{p.name}: rule ({hi},{lo}) is not classical")
                if len(w) != 1:
                    raise LieDataError(f"{p.name}: rule ({hi},{lo}) is not Lie-linear")
                v = c.coeff(0)
                if not v.is_const():
                    raise LieDataError(f"{p.name}: non-constant structure constant")
                comp[w[0][0]] = comp.get(w[0][0], GR_ZERO) + v.const_value()
            # rules store [hi, lo]; brackets are keyed (lo, hi) with lo < hi
            brackets[(lo, hi)] = {k: -c for k, c in comp.items()}
        return LieData(labels, brackets)

    def pair_index(self):
        """Ordered basis of Lambda^2: (i, j) with i < j."""
        return self.pairs

    def coboundary_rows(self):
        """d1 of each dual basis form e^t, as a sparse row over pair_index:
        (d e^t)(e_i, e_j) = -c[i,j][t].  They span the 2-coboundaries."""
        rows = [{} for _ in range(self.dim)]
        for k, ij in enumerate(self.pairs):
            for t, c in self.brackets.get(ij, {}).items():
                rows[t][k] = -c
        return rows

    def _ad_columns(self, x):
        """The columns of ad_x (x) 1 + 1 (x) ad_x on Lambda^2, one per pair
        position; built once per generator, into self.ad."""
        pos = self.pair_pos
        cols = []
        for (a, b) in self.pairs:
            col = {}

            def put(i, j, c):
                if i == j or not c:
                    return
                if i < j:
                    col[pos[(i, j)]] = col.get(pos[(i, j)], GR_ZERO) + c
                else:
                    col[pos[(j, i)]] = col.get(pos[(j, i)], GR_ZERO) - c

            for m, cm in self.bracket(x, a).items():
                put(m, b, cm)
            for m, cm in self.bracket(x, b).items():
                put(a, m, cm)
            cols.append(tuple(col.items()))
        return tuple(cols)


# ---------------------------------------------------------------------------
# coboundary solving (classical r-matrix)
# ---------------------------------------------------------------------------


@dataclass
class LinearCertificate:
    """Outcome of the coboundary system; re-checks by substitution."""

    status: str                 # "solution" | "infeasible"
    n_unknowns: int
    n_equations: int
    rank_a: int
    rank_aug: int
    witness: list | None = None   # r in Lambda^2 components (pair order)
    pairs: tuple = ()

    def revalidate(self, lie, sigma):
        """Check the certificate against the system it claims to answer,
        independently of the elimination that produced it: a witness is
        substituted into every equation, and an infeasibility is re-ranked
        by a fresh PreparedSystem.  Only the rows of A are shared with the
        solver: both read the coboundary matrix lie.ad_rows."""
        rows, rhs = _coboundary_system(lie, sigma)
        if self.status == "solution":
            for row, b in zip(rows, rhs):
                acc = GR_ZERO
                for c, v in row.items():
                    acc = acc + v * self.witness[c]
                if acc != b:
                    return False
            return True
        ps = PreparedSystem(rows, len(lie.pairs))
        ra = ps.rank
        _, raug = ps.solve(rhs)
        return ra == self.rank_a and raug == self.rank_aug and ra < raug


def _coboundary_system(lie, sigma):
    """Rows of lie.ad_rows with their right sides sigma(X) component by
    component.  All-zero equations 0 = 0 are dropped (they carry no rank);
    an all-zero row with nonzero rhs is kept (it certifies infeasibility)."""
    npairs = len(lie.pairs)
    rows, rhs = [], []
    for x in range(lie.dim):
        target = {lie.pair_pos[p]: c for p, c in sigma.get(x, {}).items()}
        for rpos, row in enumerate(lie.ad_rows[x * npairs:(x + 1) * npairs]):
            b = target.get(rpos, GR_ZERO)
            if row or b:
                rows.append(row)
                rhs.append(b)
    return rows, rhs


class CoboundarySolver:
    """Factor the coboundary system once per Lie algebra; solve many sigma
    tables cheaply (the round-trip tests reuse this).  The matrix is the
    algebra's own lie.ad_rows, so nothing is transposed here, and each
    right side is eliminated once: one pass gives both the solution and
    rank(A|b)."""

    def __init__(self, lie):
        self.lie = lie
        self.pairs = lie.pairs
        self.system = PreparedSystem(lie.ad_rows, len(self.pairs))

    def _rhs(self, sigma):
        return [sigma.get(x, {}).get(p) or GR_ZERO
                for x in range(self.lie.dim) for p in self.pairs]

    def solve(self, sigma):
        x, raug = self.system.solve(self._rhs(sigma))
        status = "infeasible" if x is None else "solution"
        return LinearCertificate(status, len(self.pairs), len(self.lie.ad_rows),
                                 self.system.rank, raug, x, self.pairs)


def solve_coboundary(lie, sigma):
    """sigma: {gen_index: {(a,b): coeff}} with antisymmetric wedge values.
    Returns a LinearCertificate (solution witness or infeasibility ranks)."""
    for x, w in sigma.items():
        for (a, b) in w:
            if not (0 <= a < b < lie.dim):
                raise LieDataError("sigma table must use ordered pairs a < b")
    return CoboundarySolver(lie).solve(sigma)


def coboundary_of(lie, r_components):
    """sigma(X) = ad_X . r for every generator; r given in pair components."""
    pairs = lie.pairs
    out = {}
    for x, cols in enumerate(lie.ad):
        acc = {}
        for col, c in zip(cols, r_components):
            if not c:
                continue
            for rpos, v in col:
                acc[rpos] = acc.get(rpos, GR_ZERO) + v * c
        out[x] = {pairs[rpos]: v for rpos, v in acc.items() if v}
    return out


# ---------------------------------------------------------------------------
# co-Jacobi (1-cocycle condition)
# ---------------------------------------------------------------------------


def co_jacobi_check(lie, sigma):
    """sigma([X,Y]) = X.sigma(Y) - Y.sigma(X) for all basis pairs."""
    pairs, pos = lie.pairs, lie.pair_pos

    def act(x, w):
        cols = lie.ad[x]
        acc = {}
        for p, c in w.items():
            for rpos, v in cols[pos[p]]:
                acc[rpos] = acc.get(rpos, GR_ZERO) + v * c
        return {pairs[r]: v for r, v in acc.items() if v}

    def pair_check(i, j):
        lhs = {}
        for k, c in lie.bracket(i, j).items():
            for pr, v in sigma.get(k, {}).items():
                lhs[pr] = lhs.get(pr, GR_ZERO) + c * v
        rhs = act(i, sigma.get(j, {}))
        for pr, v in act(j, sigma.get(i, {})).items():
            rhs[pr] = rhs.get(pr, GR_ZERO) - v
        diff = dict(lhs)
        for pr, v in rhs.items():
            diff[pr] = diff.get(pr, GR_ZERO) - v
        diff = {pr: v for pr, v in diff.items() if v}
        status = PASS if not diff else FAIL
        res = render_wedge(lie.labels, diff)
        return Check(f"co_jacobi[{lie.labels[i]},{lie.labels[j]}]", "Eq. 8 consistency",
                     status, residual=res)

    return [run_check(lambda: pair_check(i, j))
            for i in range(lie.dim) for j in range(i + 1, lie.dim)]


def render_wedge(labels, w):
    """The wedge sum w ({(a, b): coefficient}) as text, the generators
    named by labels: (c)*a^b terms in key order; '0' when w is empty."""
    return " + ".join(f"({c})*{labels[a]}^{labels[b]}" for (a, b), c in sorted(w.items())) or "0"


# ---------------------------------------------------------------------------
# H^2 with trivial coefficients
# ---------------------------------------------------------------------------


@dataclass
class H2Result:
    dimension: int
    representatives: list  # list of {(i,j): coeff} cocycles
    n_cochains: int
    rank_d2: int
    rank_d1: int


def lie_h2(lie):
    """dim H^2(g, trivial) = dim ker d2 - rank d1, by exact ranks."""
    pairs, pos = lie.pairs, lie.pair_pos
    n = lie.dim
    npairs = len(pairs)
    triples = [(i, j, k) for i in range(n) for j in range(i + 1, n)
               for k in range(j + 1, n)]

    # d2: Lambda^2* -> Lambda^3*, (d w)(x,y,z) = -w([x,y],z)+w([x,z],y)-w([y,z],x)
    def pair_coeff_row(i, j, k):
        row = [GR_ZERO] * npairs
        contributions = (
            (-1, lie.bracket(i, j), k),
            (+1, lie.bracket(i, k), j),
            (-1, lie.bracket(j, k), i),
        )
        for sgn, br, other in contributions:
            for m, c in br.items():
                if m == other:
                    continue
                if m < other:
                    row[pos[(m, other)]] = row[pos[(m, other)]] + c * sgn
                else:
                    row[pos[(other, m)]] = row[pos[(other, m)]] - c * sgn
        return row

    kernel = PreparedSystem([pair_coeff_row(i, j, k) for (i, j, k) in triples],
                            npairs).kernel()
    rank_d2 = npairs - len(kernel)

    # d1: g* -> Lambda^2*, (d a)(x,y) = -a([x,y]); its rows span the coboundaries
    span = PreparedSystem(lie.coboundary_rows(), npairs)
    rank_d1 = span.rank

    # representatives: in order, each kernel vector not in the span of the
    # coboundaries and of the representatives before it
    reps = []
    for v in kernel:
        if any(span.reduce(v)):
            reps.append({pairs[t]: v[t] for t in range(npairs) if v[t]})
            span = PreparedSystem(span.rref + [v], npairs)
    return H2Result(len(kernel) - rank_d1, reps, npairs, rank_d2, rank_d1)
