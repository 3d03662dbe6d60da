"""Exact linear algebra over the classical Lie algebra: coboundary
(r-matrix) solving, co-Jacobi verification, and second cohomology with
trivial coefficients (central extensions).

Everything runs over exact Gaussian rationals; certificates re-validate by
substitution, and infeasibility is reported as auditable rank data
(rank(A) < rank(A|b)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .report import Check, FAIL, PASS, run_check
from .scalars import GR_ONE, GR_ZERO, as_gaussian


# ---------------------------------------------------------------------------
# exact sparse linear algebra (Gaussian-rational entries)
# ---------------------------------------------------------------------------


def _sparse_rows(rows):
    out = []
    for r in rows:
        if isinstance(r, dict):
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
        self.nrows = len(work)
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
        """Solution vector or None (inconsistent)."""
        b = self.apply(rhs)
        pivot_rows = {pr for pr, _ in self.pivots}
        for r, val in enumerate(b):
            if val and r not in pivot_rows:
                return None
        x = [GR_ZERO] * self.ncols
        for pr, pc in self.pivots:
            x[pc] = b[pr]
        return x

    def rank_augmented(self, rhs):
        b = self.apply(rhs)
        pivot_rows = {pr for pr, _ in self.pivots}
        extra = any(v for r, v in enumerate(b) if r not in pivot_rows)
        return self.rank + (1 if extra else 0)

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


@dataclass
class LieData:
    """Finite-dimensional Lie algebra: basis labels and exact structure
    constants [e_i, e_j] = sum_k c[i,j][k] e_k (antisymmetry and Jacobi are
    checked at construction)."""

    labels: list
    brackets: dict  # (i, j) with i < j -> {k: GaussianRational}

    def __post_init__(self):
        n = len(self.labels)
        clean = {}
        for (i, j), comp in self.brackets.items():
            if not (0 <= i < j < n):
                raise LieDataError(f"bracket key ({i},{j}) out of range or unordered")
            comp = {k: as_gaussian(c) for k, c in comp.items() if as_gaussian(c)}
            if comp:
                clean[(i, j)] = comp
        self.brackets = clean
        self._check_jacobi()

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
        """Ordered basis of Lambda^2: list of (i, j) with i < j."""
        n = self.dim
        return [(i, j) for i in range(n) for j in range(i + 1, n)]

    def coboundary_rows(self):
        """d1 of each dual basis form e^t, as a sparse row over pair_index:
        (d e^t)(e_i, e_j) = -c[i,j][t].  They span the 2-coboundaries."""
        rows = [{} for _ in range(self.dim)]
        for k, ij in enumerate(self.pair_index()):
            for t, c in self.brackets.get(ij, {}).items():
                rows[t][k] = -c
        return rows

    def ad_on_wedge(self, x, pairs=None):
        """Matrix of ad_x (x) 1 + 1 (x) ad_x on Lambda^2 (columns/rows indexed
        by pairs)."""
        pairs = pairs or self.pair_index()
        pos = {p: k for k, p in enumerate(pairs)}
        cols = []
        for (a, b) in pairs:
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
            cols.append(col)
        return cols  # list of sparse columns


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
    pairs: list = field(default_factory=list)

    def revalidate(self, lie, sigma):
        """Substitute the witness (or re-rank from scratch) against the
        original system."""
        rows, rhs, pairs = _coboundary_system(lie, sigma)
        if self.status == "solution":
            for row, b in zip(rows, rhs):
                acc = GR_ZERO
                for c, v in row.items():
                    acc = acc + v * self.witness[c]
                if acc != b:
                    return False
            return True
        ps = PreparedSystem(rows, len(pairs))
        ra = ps.rank
        raug = ps.rank_augmented(rhs)
        return ra == self.rank_a and raug == self.rank_aug and ra < raug


def _coboundary_system(lie, sigma):
    """Sparse rows of sigma(X) = (ad_X (x) 1 + 1 (x) ad_X) r over all
    generators X.  All-zero equations 0 = 0 are dropped (they carry no rank);
    an all-zero row with nonzero rhs is kept (it certifies infeasibility)."""
    pairs = lie.pair_index()
    pos = {p: k for k, p in enumerate(pairs)}
    rows, rhs = [], []
    for x in range(lie.dim):
        cols = lie.ad_on_wedge(x, pairs)
        sx = sigma.get(x, {})
        target = {}
        for (a, b), c in sx.items():
            target[pos[(a, b)]] = c
        sparse = {}
        for cpos, col in enumerate(cols):
            for rpos, v in col.items():
                sparse.setdefault(rpos, {})[cpos] = v
        for rpos in set(sparse) | set(target):
            row = sparse.get(rpos, {})
            b = target.get(rpos, GR_ZERO)
            if row or b:
                rows.append(row)
                rhs.append(b)
    return rows, rhs, pairs


class CoboundarySolver:
    """Factor the coboundary system once per Lie algebra; solve many sigma
    tables cheaply (the round-trip tests reuse this)."""

    def __init__(self, lie):
        self.lie = lie
        self.pairs = lie.pair_index()
        self.row_index = []  # (generator, pair position)
        rows = []
        for x in range(lie.dim):
            cols = lie.ad_on_wedge(x, self.pairs)
            sparse = {}
            for cpos, col in enumerate(cols):
                for rpos, v in col.items():
                    sparse.setdefault(rpos, {})[cpos] = v
            for rpos in range(len(self.pairs)):
                self.row_index.append((x, rpos))
                rows.append(sparse.get(rpos, {}))
        self.system = PreparedSystem(rows, len(self.pairs))

    def _rhs(self, sigma):
        b = [GR_ZERO] * len(self.row_index)
        for r, (x, rpos) in enumerate(self.row_index):
            w = sigma.get(x, {})
            val = w.get(self.pairs[rpos])
            if val:
                b[r] = val
        return b

    def solve(self, sigma):
        b = self._rhs(sigma)
        x = self.system.solve(b)
        ra = self.system.rank
        raug = self.system.rank_augmented(b)
        if x is None:
            return LinearCertificate("infeasible", len(self.pairs),
                                     len(self.row_index), ra, raug, None, self.pairs)
        return LinearCertificate("solution", len(self.pairs),
                                 len(self.row_index), ra, raug, x, self.pairs)


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
    pairs = lie.pair_index()
    out = {}
    for x in range(lie.dim):
        cols = lie.ad_on_wedge(x, pairs)
        acc = {}
        for cpos, col in enumerate(cols):
            c = r_components[cpos]
            if not c:
                continue
            for rpos, v in col.items():
                acc[rpos] = acc.get(rpos, GR_ZERO) + v * c
        w = {}
        for rpos, v in acc.items():
            if v:
                w[pairs[rpos]] = v
        out[x] = w
    return out


# ---------------------------------------------------------------------------
# co-Jacobi (1-cocycle condition)
# ---------------------------------------------------------------------------


def co_jacobi_check(lie, sigma):
    """sigma([X,Y]) = X.sigma(Y) - Y.sigma(X) for all basis pairs."""
    pairs = lie.pair_index()
    pos = {p: k for k, p in enumerate(pairs)}

    def act(x, w):
        cols = lie.ad_on_wedge(x, pairs)
        acc = {}
        for (a, b), c in w.items():
            col = cols[pos[(a, b)]]
            for rpos, v in col.items():
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
        res = "0" if not diff else _render_wedge(lie, diff)
        return Check(f"co_jacobi[{lie.labels[i]},{lie.labels[j]}]", "Eq. 8 consistency",
                     status, residual=res)

    return [run_check(lambda: pair_check(i, j))
            for i in range(lie.dim) for j in range(i + 1, lie.dim)]


def _render_wedge(lie, w):
    bits = []
    for (a, b) in sorted(w):
        bits.append(f"({w[(a,b)]})*{lie.labels[a]}^{lie.labels[b]}")
    return " + ".join(bits) if bits else "0"


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
    pairs = lie.pair_index()
    pos = {p: k for k, p in enumerate(pairs)}
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
