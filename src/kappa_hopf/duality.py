"""Classical group <-> algebra duality via a faithful matrix model, ordered
monomial pairings, and verification of Poisson-bracket candidates that
quantize to the quantum group relations.

The classical Galilei group element is the 5x5 block matrix
[[R, v, a], [0, 1, tau], [0, 0, 1]] acting on (x1,x2,x3,t,1); coordinate
functions read off matrix entries.  Generator matrices are fixed by
requiring the single-generator pairing table exactly (a startup self-test
asserts all of it):

    <tau, P0> = i,  <v^i, L_k> = -i d^i_k,  <a^i, P_k> = -i d^i_k,
    <R^i_j, M_k> = -i eps_ijk

which forces M_k = -i*eps(.,.,k), L_k = -i*E[k,3], P_k = -i*E[k,4],
P0 = +i*E[3,4] (0-indexed).  These matrices represent the classical algebra
faithfully, and the monomial pairing

    <Phi, X1...Xk> = coefficient of t1...tk in Phi((1 + t1 X1)...(1 + tk Xk))

needs only first-order factors because only mixed first derivatives are
taken.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import Check, FAIL, PASS, run_check
from .scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    H_ZERO,
    HSeries,
    Poly,
    RationalFn,
    as_gaussian,
    as_hseries,
    levi_civita,
)


# ---------------------------------------------------------------------------
# matrix model
# ---------------------------------------------------------------------------


def _smat(entries):
    m = {}
    for (r, c), v in entries.items():
        v = as_gaussian(v)
        if v:
            m.setdefault(r, {})[c] = v
    return m


def _smul(a, b):
    out = {}
    for r, row in a.items():
        acc = {}
        for k, v in row.items():
            brow = b.get(k)
            if not brow:
                continue
            for c, w in brow.items():
                nv = acc.get(c, GR_ZERO) + v * w
                if nv:
                    acc[c] = nv
                else:
                    acc.pop(c, None)
        if acc:
            out[r] = acc
    return out


def _skron(a, b, n):
    out = {}
    for r1, row1 in a.items():
        for c1, v1 in row1.items():
            for r2, row2 in b.items():
                for c2, v2 in row2.items():
                    out.setdefault(r1 * n + r2, {})[c1 * n + c2] = v1 * v2
    return out


class MatrixModel:
    """Faithful matrix model of a classical Galilei algebra/group pair.  The
    model is affine: every generator matrix has a zero last row, so the group
    element's entry (dim-1, dim-1) is the constant coordinate 1 (`unit`)."""

    def __init__(self, dim, generators, coordinates):
        for label, m in generators.items():
            if any(m.get(dim - 1, {}).values()):
                raise ValueError(f"generator {label} has a nonzero last row; "
                                 "the matrix model is not affine")
        self.dim = dim
        self.generators = generators      # label -> sparse matrix
        self.coordinates = coordinates    # label -> (row, col)
        self.unit = (dim - 1, dim - 1)

    def gen_matrix(self, label):
        return self.generators[label]

    def check_commutation(self, brackets):
        """[X,Y] = sum c Z as matrices; returns offending triples."""
        bad = []
        for (x, y), comp in brackets.items():
            lhs = _sub(_smul(self.generators[x], self.generators[y]),
                       _smul(self.generators[y], self.generators[x]))
            rhs = {}
            for z, c in comp.items():
                for r, row in self.generators[z].items():
                    for col, v in row.items():
                        nv = rhs.setdefault(r, {}).get(col, GR_ZERO) + c * v
                        if nv:
                            rhs[r][col] = nv
                        else:
                            rhs[r].pop(col, None)
            if _sub(lhs, {r: dict(row) for r, row in rhs.items() if row}):
                bad.append((x, y))
        return bad


def _sub(a, b):
    out = {r: dict(row) for r, row in a.items()}
    for r, row in b.items():
        for c, v in row.items():
            nv = out.setdefault(r, {}).get(c, GR_ZERO) - v
            if nv:
                out[r][c] = nv
            else:
                out[r].pop(c, None)
    return {r: row for r, row in out.items() if row}


def galilei_matrix_model():
    """The 5x5 model; generator labels match the algebra presentations."""
    gens = {}
    for k in (1, 2, 3):
        gens[f"M[{k}]"] = _smat({(i - 1, j - 1): -GR_I * levi_civita(i, j, k)
                                 for i in (1, 2, 3) for j in (1, 2, 3)
                                 if levi_civita(i, j, k)})
        gens[f"L[{k}]"] = _smat({(k - 1, 3): -GR_I})
        gens[f"P[{k}]"] = _smat({(k - 1, 4): -GR_I})
    gens["P0"] = _smat({(3, 4): GR_I})
    coords = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            coords[f"R[{i},{j}]"] = (i - 1, j - 1)
        coords[f"v[{i}]"] = (i - 1, 3)
        coords[f"a[{i}]"] = (i - 1, 4)
    coords["tau"] = (3, 4)
    return MatrixModel(5, gens, coords)


def galilei_2d_matrix_model():
    """3x3 model for the 1+1 case: rows (x, t, 1); L = boost, P = momentum,
    P0 = energy, normalized exactly like the 4D model."""
    gens = {
        "L": _smat({(0, 1): -GR_I}),
        "P": _smat({(0, 2): -GR_I}),
        "P0": _smat({(1, 2): GR_I}),
    }
    coords = {"v": (0, 1), "a": (0, 2), "tau": (1, 2)}
    return MatrixModel(3, gens, coords)


EQ13_TABLE = [
    ("tau", "P0", GR_I),
    *[(f"v[{i}]", f"L[{k}]", -GR_I if i == k else GR_ZERO)
      for i in (1, 2, 3) for k in (1, 2, 3)],
    *[(f"a[{i}]", f"P[{k}]", -GR_I if i == k else GR_ZERO)
      for i in (1, 2, 3) for k in (1, 2, 3)],
    *[(f"R[{i},{j}]", f"M[{k}]", as_gaussian(-levi_civita(i, j, k)) * GR_I)
      for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)],
    # the remaining single-generator pairings vanish
    *[(c, g, GR_ZERO) for c in ("tau",) for g in
      [f"M[{k}]" for k in (1, 2, 3)] + [f"L[{k}]" for k in (1, 2, 3)]
      + [f"P[{k}]" for k in (1, 2, 3)]],
    *[(f"v[{i}]", g, GR_ZERO) for i in (1, 2, 3) for g in
      [f"M[{k}]" for k in (1, 2, 3)] + [f"P[{k}]" for k in (1, 2, 3)] + ["P0"]],
    *[(f"a[{i}]", g, GR_ZERO) for i in (1, 2, 3) for g in
      [f"M[{k}]" for k in (1, 2, 3)] + [f"L[{k}]" for k in (1, 2, 3)] + ["P0"]],
    *[(f"R[{i},{j}]", g, GR_ZERO) for i in (1, 2, 3) for j in (1, 2, 3) for g in
      [f"L[{k}]" for k in (1, 2, 3)] + [f"P[{k}]" for k in (1, 2, 3)] + ["P0"]],
]


_MODEL4D = None


def model_4d():
    global _MODEL4D
    if _MODEL4D is None:
        m = galilei_matrix_model()
        _selftest_model(m)
        _MODEL4D = m
    return _MODEL4D


def _selftest_model(m):
    for coord, gen, want in EQ13_TABLE:
        got = pair_word(m, Poly.var(coord), (gen,))
        if got != HSeries.const(want):
            raise AssertionError(f"matrix model breaks Eq. 13 at <{coord},{gen}>")
    brackets = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i < j:
                brackets[(f"M[{i}]", f"M[{j}]")] = {
                    f"M[{k}]": GR_I * levi_civita(i, j, k)
                    for k in (1, 2, 3) if levi_civita(i, j, k)}
                brackets[(f"L[{i}]", f"L[{j}]")] = {}
            brackets[(f"M[{i}]", f"L[{j}]")] = {
                f"L[{k}]": GR_I * levi_civita(i, j, k)
                for k in (1, 2, 3) if levi_civita(i, j, k)}
            brackets[(f"M[{i}]", f"P[{j}]")] = {
                f"P[{k}]": GR_I * levi_civita(i, j, k)
                for k in (1, 2, 3) if levi_civita(i, j, k)}
        brackets[(f"L[{i}]", "P0")] = {f"P[{i}]": GR_I}
        brackets[(f"M[{i}]", "P0")] = {}
        for j in (1, 2, 3):
            brackets[(f"L[{i}]", f"P[{j}]")] = {}
    bad = m.check_commutation(brackets)
    if bad:
        raise AssertionError(f"matrix model breaks classical brackets: {bad}")


# ---------------------------------------------------------------------------
# the pairing <Phi, X>
# ---------------------------------------------------------------------------


def _mask_product(model, word):
    """Entries of (1 + t1 X1)...(1 + tk Xk) as {(r,c): {mask: coeff}}; the
    full mask (all t's) coefficient implements the mixed derivative."""
    n = model.dim
    acc = {(r, r): {0: GR_ONE} for r in range(n)}
    for bit, label in enumerate(word):
        x = model.gen_matrix(label)
        out = {}
        for (r, c), masks in acc.items():
            # times identity
            dst = out.setdefault((r, c), {})
            for mk, v in masks.items():
                nv = dst.get(mk, GR_ZERO) + v
                if nv:
                    dst[mk] = nv
                else:
                    dst.pop(mk, None)
            # times t*X
            row = x.get(c)
            if not row:
                continue
            for c2, w in row.items():
                dst = out.setdefault((r, c2), {})
                for mk, v in masks.items():
                    nmk = mk | (1 << bit)
                    nv = dst.get(nmk, GR_ZERO) + v * w
                    if nv:
                        dst[nmk] = nv
                    else:
                        dst.pop(nmk, None)
        acc = {k: v for k, v in out.items() if v}
    return acc


def pair_word(model, phi, word, products=None):
    """<phi, x1...xk> for phi a Poly in coordinate symbols (coefficients may
    carry other commuting symbols, which pass through).  Returns an HSeries
    (exact).  products, when given, is a dict {word: mask product} of this
    model that the caller keeps for one run of checks; each word's product
    is then built once in it."""
    phi = phi if isinstance(phi, HSeries) else HSeries.const(RationalFn(phi))
    k = len(word)
    full = (1 << k) - 1
    if products is None:
        products = {}
    entries = products.get(word)
    if entries is None:
        entries = products[word] = _mask_product(model, word)

    def eval_poly(p):
        total = {}
        for mono, coeff in p.terms.items():
            acc = {0: GR_ONE}
            passthrough = []
            for sym, e in mono:
                if sym in model.coordinates:
                    r, c = model.coordinates[sym]
                    masks = entries.get((r, c), {})
                    for _ in range(e):
                        nacc = {}
                        for m1, v1 in acc.items():
                            for m2, v2 in masks.items():
                                if m1 & m2:
                                    continue
                                nm = m1 | m2
                                nv = nacc.get(nm, GR_ZERO) + v1 * v2
                                if nv:
                                    nacc[nm] = nv
                                else:
                                    nacc.pop(nm, None)
                        acc = nacc
                        if not acc:
                            break
                else:
                    passthrough.append((sym, e))
                if not acc:
                    break
            v = acc.get(full, GR_ZERO)
            if v:
                key = tuple(passthrough)
                total[key] = total.get(key, GR_ZERO) + v * coeff
        return Poly({k2: v for k2, v in total.items() if v})

    out = {}
    for hp, rf in phi.coeffs.items():
        if not rf.is_poly():
            raise ValueError("pairing arguments must be polynomial in the coordinates")
        val = eval_poly(rf.num)
        if val:
            out[hp] = RationalFn(val)
    return HSeries(out)


def pair(phi, word, model=None, products=None):
    """Spec-facing pairing: <Phi, X> with X a tuple of generator labels in
    the 4D model (or any provided model); products as for pair_word."""
    model = model or model_4d()
    for label in word:
        if label not in model.generators:
            raise ValueError(f"monomial contains non-model generator {label}")
    return pair_word(model, phi, tuple(word), products)


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


# ---------------------------------------------------------------------------
# sigma-paired sweeps (efficient <f (x) g, sigma(X)> for coordinate f, g)
# ---------------------------------------------------------------------------


class PairingEngine:
    """Pairings of every PBW monomial X of bounded degree with all
    single-coordinate pairs (f, g), f at entry (r1, c1) and g at (r2, c2):

        plain = <f g, X>            (via Delta_cl splits)
        sigma = <f (x) g, sigma(X)> (1-cocycle extension)

    both read at row r1*n + r2, column c1*n + c2 of n*n-dimensional blocks.
    With D(a) = a (x) 1 + 1 (x) a and K(a) the sigma image of a, the blocks of
    a word a*w are one letter step from those of w:

        u(a*w) = D(a) u(w),   t(a*w) = D(a) t(w) + K(a) u(w).

    A PBW word without its first letter is a PBW word, so `sweep` walks the
    suffix tree depth first and reaches each word from its suffix.  Because
    the model is affine, <f, X> = <f 1, X> with 1 the unit coordinate, so a
    candidate term of one coordinate (or none) is padded with the unit and
    read from the same plain block."""

    def __init__(self, model, gen_order, sigma_table):
        self.model = model
        self.n = model.dim
        self.gen_order = list(gen_order)   # labels in PBW order
        # D(a) and K(a) by column: the walk multiplies them by sparse vectors
        self.D = {}
        self.K = {}
        eye = {r: {r: GR_ONE} for r in range(self.n)}
        for label in self.gen_order:
            x = model.gen_matrix(label)
            self.D[label] = _columns(_merge(_skron(x, eye, self.n), _skron(eye, x, self.n)))
            terms = sigma_table.get(label, [])
            k = {}
            for c, a_lab, b_lab in terms:
                contrib = _skron(model.gen_matrix(a_lab), model.gen_matrix(b_lab), self.n)
                for r, row in contrib.items():
                    for col, v in row.items():
                        nv = k.setdefault(r, {}).get(col, GR_ZERO) + c * v
                        if nv:
                            k[r][col] = nv
                        else:
                            k[r].pop(col, None)
            self.K[label] = _columns(k)

    def sweep(self, max_degree, cols, visit):
        """Call visit(word, plain, sigma) for every PBW word of degree <=
        max_degree, depth first; plain and sigma are lists of sparse columns
        {row -> value}, one per entry of cols.  One partial state is held
        per level."""
        def walk(word, first, u, t):
            visit(word, u, t)
            if len(word) == max_degree:
                return
            for i, label in enumerate(self.gen_order[:first + 1]):
                D, K = self.D[label], self.K[label]
                walk((label,) + word, i, [_matvec(D, ucol) for ucol in u],
                     [_vec_add(_matvec(D, tcol), _matvec(K, ucol))
                      for ucol, tcol in zip(u, t)])

        walk((), len(self.gen_order) - 1, [{c: GR_ONE} for c in cols],
             [{} for _ in cols])


def _merge(a, b):
    out = {r: dict(row) for r, row in a.items()}
    for r, row in b.items():
        for c, v in row.items():
            nv = out.setdefault(r, {}).get(c, GR_ZERO) + v
            if nv:
                out[r][c] = nv
            else:
                out[r].pop(c, None)
    return {r: row for r, row in out.items() if row}


def _columns(m):
    """The column view {col: [(row, value), ...]} of a sparse matrix
    {row: {col: value}}."""
    out = {}
    for r, row in m.items():
        for c, v in row.items():
            out.setdefault(c, []).append((r, v))
    return out


def _matvec(cols, vec):
    """The sparse product m vec from the column view of m: only the columns
    where vec has an entry are read."""
    if not vec:
        return {}
    out = {}
    for c, w in vec.items():
        for r, v in cols.get(c, ()):
            old = out.get(r)
            out[r] = v * w if old is None else old + v * w
    return {r: v for r, v in out.items() if v}


def _vec_add(a, b):
    for r, v in b.items():
        nv = a.get(r, GR_ZERO) + v
        if nv:
            a[r] = nv
        else:
            a.pop(r, None)
    return a


# ---------------------------------------------------------------------------
# sigma table plumbing
# ---------------------------------------------------------------------------


def sigma_matrix_terms(classical, sigma_components):
    """{label: [(coeff, A_label, B_label), ...]} from wedge components
    {gen_idx: {(a,b): coeff}} (both tensor orders expanded)."""
    out = {}
    for gi, comps in sigma_components.items():
        terms = []
        for (a, b), c in comps.items():
            terms.append((c, classical.gens[a].label(), classical.gens[b].label()))
            terms.append((-c, classical.gens[b].label(), classical.gens[a].label()))
        out[classical.gens[gi].label()] = terms
    return out


# ---------------------------------------------------------------------------
# Poisson verification
# ---------------------------------------------------------------------------


def _candidate_terms(candidate):
    """Normalize a candidate to [(HSeries coeff, (coord_label, ...))], with
    words of coordinate labels of length <= 2."""
    out = []
    for coeff, labels in candidate:
        labels = tuple(labels)
        if len(labels) > 2:
            raise ValueError("Poisson candidates of coordinate degree > 2 "
                             "are not produced by this Poisson structure")
        out.append((as_hseries(coeff), labels))
    return out


@dataclass
class PoissonQuery:
    """One bracket candidate: {f,g} should pair like -i<f(x)g, sigma(.)>."""

    f_label: str
    g_label: str
    candidate: list       # [(HSeries coeff, (coord labels...))]
    degree_bound: int
    check_id: str
    anchor: str = "Eq. 12"


def _compile_query(model, q):
    """The query's candidate terms as [(coeff, row, col)] of the plain block
    and its sigma entry as (row, col) of the sigma block."""
    n = model.dim
    cand = _candidate_terms(q.candidate)
    maxdeg = max((len(labels) for _, labels in cand), default=0)
    if q.degree_bound < maxdeg + 1:
        raise ValueError(
            f"{q.check_id}: degree_bound {q.degree_bound} too small, need at "
            f"least candidate degree + 1 = {maxdeg + 1}")
    fr, fc = model.coordinates[q.f_label]
    gr, gc = model.coordinates[q.g_label]
    cand_cols = []
    for coeff, labels in cand:
        # pad to two coordinates with the unit: <f 1, X> = <f, X>
        entries = [model.coordinates[label] for label in labels]
        (r1, c1), (r2, c2) = entries + [model.unit] * (2 - len(entries))
        cand_cols.append((coeff, r1 * n + r2, c1 * n + c2))
    return cand_cols, (fr * n + gr, fc * n + gc)


def _constant_powers(coeff):
    """{h power: GaussianRational} of an exact series of constants, else
    None: a symbol or a truncation is left to _sides."""
    if coeff.truncation is not None:
        return None
    out = {}
    for k, rf in coeff.coeffs.items():
        if not rf.is_const():
            return None
        out[k] = rf.const_value()
    return out


_MINUS_I = HSeries.const(-GR_I)
_H = HSeries.h(1)


def _sides(compiled_query, plain, sig):
    """<cand, X> and -i <f (x) g, sigma(X)> as HSeries, from the columns
    {col -> {row -> value}} of the plain and sigma blocks at X."""
    cand_cols, (sigma_row, sigma_col) = compiled_query
    lhs = H_ZERO
    for coeff, row, col in cand_cols:
        v = plain[col].get(row, GR_ZERO)
        if v:
            lhs = lhs + coeff.scale(v)
    return lhs, _MINUS_I.scale(sig[sigma_col].get(sigma_row, GR_ZERO)) * _H


def poisson_family_verify(engine, queries):
    """Run many PoissonQuery checks on one sweep of the PBW monomials (the
    sweep dominates; all queries share it, and share the elapsed time)."""
    return run_check(lambda: _poisson_family_checks(engine, queries))


def _poisson_family_checks(engine, queries):
    """Both sides are linear in the pairing values, so a word is decided by
    the residual sum c v - (-i s) per (query, power of h), scattered from
    the nonzero block entries only.  The HSeries sides are built (by
    _sides) only for a query whose residual is nonzero, and on every word
    for a query with a symbolic or truncated coefficient."""
    compiled = [_compile_query(engine.model, q) for q in queries]
    bounds = [q.degree_bound for q in queries]
    cols = sorted({col for cand_cols, (_, sigma_col) in compiled
                   for col in [sigma_col] + [col for _, _, col in cand_cols]})
    at = {col: i for i, col in enumerate(cols)}
    # per column position: {row -> [((query, power), factor), ...]}
    plain_index = [{} for _ in cols]
    sigma_index = [{} for _ in cols]
    always = []
    for qi, (cand_cols, (sigma_row, sigma_col)) in enumerate(compiled):
        powers = [_constant_powers(coeff) for coeff, _, _ in cand_cols]
        if None in powers:
            always.append(qi)
            continue
        for terms, (_, row, col) in zip(powers, cand_cols):
            for k, c in terms.items():
                plain_index[at[col]].setdefault(row, []).append(((qi, k), c))
        # the residual subtracts the right side -i s h, so s enters as +i s
        sigma_index[at[sigma_col]].setdefault(sigma_row, []).append(((qi, 1), GR_I))
    per_degree = [0] * (max(bounds) + 1)
    failures = [[] for _ in queries]

    def visit(word, u, t):
        deg = len(word)
        per_degree[deg] += 1
        res = {}
        for index, block in ((plain_index, u), (sigma_index, t)):
            for rows, vec in zip(index, block):
                if rows and vec:
                    for r, v in vec.items():
                        for key, c in rows.get(r, ()):
                            x = c * v
                            old = res.get(key)
                            res[key] = x if old is None else old + x
        flagged = {qi for (qi, _), x in res.items() if x and deg <= bounds[qi]}
        flagged.update(qi for qi in always if deg <= bounds[qi])
        if flagged:
            plain, sig = dict(zip(cols, u)), dict(zip(cols, t))
            for qi in flagged:
                lhs, rhs = _sides(compiled[qi], plain, sig)
                if lhs != rhs:
                    failures[qi].append((word, lhs, rhs))

    engine.sweep(max(bounds), cols, visit)
    rank = {label: i for i, label in enumerate(engine.gen_order)}
    checks = []
    for q, fails in zip(queries, failures):
        count = sum(per_degree[:q.degree_bound + 1])
        if fails:
            # name the least failing word in PBW order, not in walk order
            w, lhs, rhs = min(fails, key=lambda f: (len(f[0]), [rank[x] for x in f[0]]))
            res = (f"at X={'*'.join(w) or '1'}: <cand,X>={lhs} vs "
                   f"-i<f(x)g,sigma(X)>={rhs} ({len(fails)} of "
                   f"{count} monomials disagree)")
            checks.append(Check(q.check_id, q.anchor, FAIL, residual=res,
                                degree=q.degree_bound))
        else:
            checks.append(Check(q.check_id, q.anchor, PASS, degree=q.degree_bound,
                                detail=f"{count} monomials checked"))
    return checks


def poisson_verify(engine, f_label, g_label, candidate, degree_bound,
                   check_id="poisson", anchor="Eq. 12"):
    """Check <candidate, X> = -i <f (x) g, sigma(X)> for every PBW monomial X
    with deg X <= degree_bound.  Exact; returns a single Check."""
    q = PoissonQuery(f_label, g_label, candidate, degree_bound, check_id, anchor)
    return poisson_family_verify(engine, [q])[0]


def quantization_crosscheck(group, engine, degree_margin=2, degree_cap=8):
    """Quantize Eq. 11: every group bracket read as {f,g} = -i[f,g] must be
    reproduced by the Poisson structure of the cocommutator (Eq. 12), checked
    through deg(candidate) + degree_margin."""
    queries = []
    for (hi, lo), corr in sorted(group.rules.items()):
        f = group.gens[hi].label()
        g = group.gens[lo].label()
        cand = []
        maxdeg = 0
        for coeff, w in corr:
            labels = tuple(group.gens[gi].label() for gi, _ in w)
            maxdeg = max(maxdeg, len(labels))
            cand.append((_MINUS_I * coeff, labels))
        bound = min(degree_cap, max(maxdeg + degree_margin, 2))
        queries.append(PoissonQuery(f, g, cand, bound,
                                    check_id=f"quantize[{f},{g}]",
                                    anchor="Eq. 11 via Eqs. 9, 12"))
    return poisson_family_verify(engine, queries)
