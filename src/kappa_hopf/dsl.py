"""The presentation description language (.hopf files).

Declarations::

    presentation NAME {
      params: m;                      # commuting scalar parameters
      generators: M[1] M[2] EE grouplike;   # PBW order = declaration order
      order: M[1] M[2] EE;            # optional explicit PBW order
      relation tau*a[i] - a[i]*tau = I*h*a[i];
      coproduct P[i] = P[i] (x) EE^-1 + EE (x) P[i];
      counit EE = 1;
      antipode L[i] = -L[i] - (3*I*h/2)*P[i];
      log EE = (h/2)*P0;              # grouplike log, enables series mode
      quotient orthogonal R;          # R R^T = R^T R = I, a Groebner normal form
    }
    element C1 in galilei_algebra_kappa = P[k]*P[k];
    map NAME : SRC -> DST { L[i] |-> ...; }
    bicross NAME { total: ...; ufactor: ...; tfactor: ...;
                   uembed g |-> expr; tembed g |-> expr;
                   action u, t = expr; action_codomain: t;
                   coaction g = texpr; coacted: u; missing: one_otimes_x; }
    comodule NAME { group: ...; space: ...; action x[i] = texpr; }

Expressions: rational literals, I (imaginary unit), h (= 1/kappa), kappa
(sugar for 1/h, normalized away), params, indexed generators with free index
variables, eps(i,j,k), delta(i,j), products, sums, integer powers, and the
infix tensor separator (x).  Index variables free on a declaration's left
side are instantiated over the declared index range; variables appearing
only on the right are summed (ranges inferred from the generator table,
defaulting to 1..3).

Every rejection carries a Diagnostic with a line/column span; parsing never
throws on malformed input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .ncalg import (
    DivergenceError,
    GenDecl,
    HopfData,
    NCElement,
    Presentation,
    PresentationError,
    QuotientSpec,
    TensorContext,
    normal_order,
)
from .scalars import (
    GR_I,
    H_ONE,
    H_ZERO,
    HSeries,
    Poly,
    RationalFn,
    levi_civita,
)


class DslError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class Diagnostic:
    severity: str
    message: str
    line: int
    col: int
    path: str = "<string>"

    def __str__(self):
        return f"{self.path}:{self.line}:{self.col}: {self.severity}: {self.message}"


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<TENSOR>\(x\))
  | (?P<MAPSTO>\|->)
  | (?P<ARROW>->)
  | (?P<INT>\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>[{}()\[\],;:=^*+\-/])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text, path="<string>"):
    tokens = []
    diagnostics = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            diagnostics.append(Diagnostic("error", f"unexpected character {text[pos]!r}",
                                          line, col, path))
            pos += 1
            col += 1
            continue
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind if kind != "OP" else chunk, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens, diagnostics


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass
class Num:
    value: int


@dataclass
class Sym:
    name: str
    line: int = 0
    col: int = 0


@dataclass
class GenRef:
    name: str
    idx: tuple  # ints or variable-name strings
    line: int = 0
    col: int = 0


@dataclass
class Call:
    fn: str
    args: tuple
    line: int = 0
    col: int = 0


@dataclass
class Pow:
    base: object
    n: int


@dataclass
class Neg:
    arg: object


@dataclass
class BinOp:
    op: str  # + - * / (x)
    left: object
    right: object


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class Parser:
    def __init__(self, tokens, path="<string>"):
        self.toks = tokens
        self.i = 0
        self.path = path
        self.diagnostics = []

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def error(self, message, tok=None):
        tok = tok or self.peek()
        d = Diagnostic("error", message, tok.line, tok.col, self.path)
        self.diagnostics.append(d)
        raise _ParseAbort(d)

    def expect(self, kind, what=None):
        t = self.peek()
        if t.kind != kind:
            self.error(f"expected {what or kind}, got {t.text!r}")
        return self.next()

    def accept(self, kind):
        if self.peek().kind == kind:
            return self.next()
        return None

    # -- expression grammar  ----------------------------------------
    # expr := tensor (("+"|"-") tensor)*
    # tensor := mul ("(x)" mul)*
    # mul := unary (("*"|"/") unary)*
    # unary := "-" unary | power
    # power := atom ("^" "-"? INT)?
    def parse_expr(self):
        node = self.parse_tensor()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.parse_tensor()
            node = BinOp(op, node, rhs)
        return node

    def parse_tensor(self):
        node = self.parse_mul()
        while self.peek().kind == "TENSOR":
            self.next()
            rhs = self.parse_mul()
            node = BinOp("(x)", node, rhs)
        return node

    def parse_mul(self):
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.parse_unary()
            node = BinOp(op, node, rhs)
        return node

    def parse_unary(self):
        if self.peek().kind == "-":
            self.next()
            return Neg(self.parse_unary())
        if self.peek().kind == "+":
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
            sign = 1
            if self.accept("-"):
                sign = -1
            t = self.expect("INT", "integer exponent")
            node = Pow(node, sign * int(t.text))
        return node

    def parse_atom(self):
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return Num(int(t.text))
        if t.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if t.kind == "IDENT":
            self.next()
            if t.text in ("eps", "delta") and self.peek().kind == "(":
                self.next()
                args = [self.parse_index_arg()]
                while self.accept(","):
                    args.append(self.parse_index_arg())
                self.expect(")")
                return Call(t.text, tuple(args), t.line, t.col)
            if self.peek().kind == "[":
                self.next()
                idx = [self.parse_index_arg()]
                while self.accept(","):
                    idx.append(self.parse_index_arg())
                self.expect("]")
                return GenRef(t.text, tuple(idx), t.line, t.col)
            return Sym(t.text, t.line, t.col)
        self.error(f"unexpected token {t.text!r} in expression")

    def parse_index_arg(self):
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return int(t.text)
        if t.kind == "IDENT":
            self.next()
            return t.text
        self.error("expected index (integer or variable)")

    # -- declarations ------------------------------------------------
    def parse_file(self):
        decls = []
        while self.peek().kind != "EOF":
            try:
                t = self.peek()
                if t.kind != "IDENT":
                    self.error(f"expected declaration, got {t.text!r}")
                if t.text == "presentation":
                    decls.append(self.parse_presentation_decl())
                elif t.text == "element":
                    decls.append(self.parse_element_decl())
                elif t.text == "map":
                    decls.append(self.parse_map_decl())
                elif t.text == "bicross":
                    decls.append(self.parse_bicross_decl())
                elif t.text == "comodule":
                    decls.append(self.parse_comodule_decl())
                else:
                    self.error(f"unknown declaration kind {t.text!r}")
            except _ParseAbort:
                self._sync()
        return decls

    def _sync(self):
        # skip to the next top-level keyword
        depth = 0
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.kind == "{":
                depth += 1
            elif t.kind == "}":
                depth = max(0, depth - 1)
            elif depth == 0 and t.kind == "IDENT" and t.text in (
                    "presentation", "element", "map", "bicross", "comodule"):
                return
            self.next()

    def parse_presentation_decl(self):
        self.next()  # presentation
        name = self.expect("IDENT", "presentation name").text
        self.expect("{")
        sections = []
        while self.peek().kind != "}":
            t = self.peek()
            if t.kind != "IDENT":
                self.error(f"expected section, got {t.text!r}")
            kw = t.text
            if kw == "params":
                self.next()
                self.expect(":")
                names = []
                while self.peek().kind == "IDENT":
                    names.append(self.next().text)
                    self.accept(",")
                self.expect(";")
                sections.append(("params", names))
            elif kw == "generators" or kw == "order":
                self.next()
                self.expect(":")
                gens = []
                while self.peek().kind == "IDENT":
                    gt = self.next()
                    idx = ()
                    if self.peek().kind == "[":
                        self.next()
                        ix = [self.expect("INT").text]
                        while self.accept(","):
                            ix.append(self.expect("INT").text)
                        self.expect("]")
                        idx = tuple(int(s) for s in ix)
                    grouplike = False
                    if self.peek().kind == "IDENT" and self.peek().text == "grouplike":
                        self.next()
                        grouplike = True
                    gens.append((gt.text, idx, grouplike, gt))
                    self.accept(",")
                self.expect(";")
                sections.append((kw, gens))
            elif kw == "relation":
                tok = self.next()
                lhs = self.parse_expr()
                self.expect("=")
                rhs = self.parse_expr()
                self.expect(";")
                sections.append(("relation", (lhs, rhs, tok)))
            elif kw == "quotient":
                self.next()
                kind = self.expect("IDENT", "quotient kind").text
                fam = self.expect("IDENT", "generator family").text
                self.expect(";")
                sections.append(("quotient", (kind, fam, t)))
            elif kw in ("coproduct", "counit", "antipode", "log", "star"):
                self.next()
                ref = self.parse_atom()
                if not isinstance(ref, (GenRef, Sym)):
                    self.error(f"{kw} needs a generator reference")
                self.expect("=")
                rhs = self.parse_expr()
                self.expect(";")
                sections.append((kw, (ref, rhs, t)))
            else:
                self.error(f"unknown section {kw!r}")
        self.expect("}")
        return ("presentation", name, sections)

    def parse_element_decl(self):
        self.next()
        name = self.expect("IDENT", "element name").text
        kw = self.expect("IDENT")
        if kw.text != "in":
            self.error("expected 'in'", kw)
        pres = self.expect("IDENT", "presentation name").text
        self.expect("=")
        rhs = self.parse_expr()
        self.expect(";")
        return ("element", name, pres, rhs)

    def parse_map_decl(self):
        self.next()
        name = self.expect("IDENT", "map name").text
        self.expect(":")
        src = self.expect("IDENT").text
        self.expect("ARROW")
        dst = self.expect("IDENT").text
        self.expect("{")
        rules = []
        while self.peek().kind != "}":
            ref = self.parse_atom()
            self.expect("MAPSTO")
            rhs = self.parse_expr()
            self.expect(";")
            rules.append((ref, rhs))
        self.expect("}")
        return ("map", name, src, dst, rules)

    def parse_bicross_decl(self):
        self.next()
        name = self.expect("IDENT", "bicross name").text
        self.expect("{")
        fields = {"uembed": [], "tembed": [], "action": [], "coaction": []}
        while self.peek().kind != "}":
            kw = self.expect("IDENT").text
            if kw in ("total", "ufactor", "tfactor", "action_codomain", "coacted", "missing"):
                self.expect(":")
                val = self.expect("IDENT").text
                self.expect(";")
                fields[kw] = val
            elif kw in ("uembed", "tembed"):
                ref = self.parse_atom()
                self.expect("MAPSTO")
                rhs = self.parse_expr()
                self.expect(";")
                fields[kw].append((ref, rhs))
            elif kw == "action":
                r1 = self.parse_atom()
                self.expect(",")
                r2 = self.parse_atom()
                self.expect("=")
                rhs = self.parse_expr()
                self.expect(";")
                fields["action"].append((r1, r2, rhs))
            elif kw == "coaction":
                ref = self.parse_atom()
                self.expect("=")
                rhs = self.parse_expr()
                self.expect(";")
                fields["coaction"].append((ref, rhs))
            else:
                self.error(f"unknown bicross field {kw!r}")
        self.expect("}")
        return ("bicross", name, fields)

    def parse_comodule_decl(self):
        self.next()
        name = self.expect("IDENT", "comodule name").text
        self.expect("{")
        fields = {"action": []}
        while self.peek().kind != "}":
            kw = self.expect("IDENT").text
            if kw in ("group", "space"):
                self.expect(":")
                fields[kw] = self.expect("IDENT").text
                self.expect(";")
            elif kw == "action":
                ref = self.parse_atom()
                self.expect("=")
                rhs = self.parse_expr()
                self.expect(";")
                fields["action"].append((ref, rhs))
            else:
                self.error(f"unknown comodule field {kw!r}")
        self.expect("}")
        return ("comodule", name, fields)


class _ParseAbort(Exception):
    def __init__(self, diagnostic):
        self.diagnostic = diagnostic


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------


class ExprVal:
    """Evaluated expression: scalar (slots == 0) or tensor element whose
    per-slot presentations may still be undetermined (None) for unit slots."""

    __slots__ = ("slots", "scalar", "pres", "terms")

    def __init__(self, scalar=None, pres=None, terms=None):
        if scalar is not None:
            self.slots = 0
            self.scalar = scalar
            self.pres = ()
            self.terms = None
        else:
            self.slots = len(pres)
            self.scalar = None
            self.pres = tuple(pres)
            self.terms = terms

    @staticmethod
    def from_scalar(h):
        return ExprVal(scalar=h)

    @staticmethod
    def from_gen(p, gi):
        return ExprVal(pres=(p,), terms={(((gi, 1),),): H_ONE})

    def is_scalar(self):
        return self.slots == 0

    def _unify_pres(self, other):
        if self.slots != other.slots:
            raise _EvalError(f"slot mismatch: {self.slots} vs {other.slots}")
        out = []
        for a, b in zip(self.pres, other.pres):
            if a is None:
                out.append(b)
            elif b is None or a is b:
                out.append(a)
            else:
                raise _EvalError(f"slot presentation mismatch: {a.name} vs {b.name}")
        return tuple(out)

    def add(self, other):
        if self.is_scalar() and other.is_scalar():
            return ExprVal(scalar=self.scalar + other.scalar)
        if self.is_scalar():
            return other.add(self)
        if other.is_scalar():
            other = ExprVal(pres=(None,) * self.slots,
                            terms={((),) * self.slots: other.scalar})
        pres = self._unify_pres(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            nc = t.get(w, H_ZERO) + c
            if nc:
                t[w] = nc
            else:
                t.pop(w, None)
        return ExprVal(pres=pres, terms=t)

    def neg(self):
        if self.is_scalar():
            return ExprVal(scalar=-self.scalar)
        return ExprVal(pres=self.pres, terms={w: -c for w, c in self.terms.items()})

    def mul(self, other):
        if self.is_scalar() and other.is_scalar():
            return ExprVal(scalar=self.scalar * other.scalar)
        if self.is_scalar():
            if not self.scalar:
                return ExprVal(scalar=H_ZERO)
            return ExprVal(pres=other.pres,
                           terms={w: c * self.scalar for w, c in other.terms.items()})
        if other.is_scalar():
            return other.mul(self)
        pres = self._unify_pres(other)
        t = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(a + b for a, b in zip(w1, w2))
                c = c1 * c2
                nc = t.get(w, H_ZERO) + c
                if nc:
                    t[w] = nc
                else:
                    t.pop(w, None)
        return ExprVal(pres=pres, terms=t)

    def tensor(self, other):
        a = self if not self.is_scalar() else ExprVal(pres=(None,), terms={((),): self.scalar})
        b = other if not other.is_scalar() else ExprVal(pres=(None,), terms={((),): other.scalar})
        pres = a.pres + b.pres
        t = {}
        for w1, c1 in a.terms.items():
            for w2, c2 in b.terms.items():
                t[w1 + w2] = t.get(w1 + w2, H_ZERO) + c1 * c2
        return ExprVal(pres=pres, terms=t)

    def power(self, n):
        if self.is_scalar():
            if n >= 0:
                return ExprVal(scalar=self.scalar ** n)
            if len(self.scalar.coeffs) == 1:
                return ExprVal(scalar=(H_ONE / self.scalar) ** (-n))
            raise _EvalError("negative power of a non-monomial scalar")
        if n >= 0:
            out = ExprVal(scalar=H_ONE)
            for _ in range(n):
                out = out.mul(self)
            return out
        # negative powers: single grouplike letter only
        if len(self.terms) == 1:
            (w, c), = self.terms.items()
            letters = [(s, l) for s, sw in enumerate(w) for l in sw]
            if c == H_ONE and len(letters) == 1:
                s, (gi, p) = letters[0]
                pr = self.pres[s]
                if pr is not None and pr.gens[gi].grouplike:
                    nw = list(w)
                    nw[s] = ((gi, p * n),)
                    return ExprVal(pres=self.pres, terms={tuple(nw): H_ONE})
        raise _EvalError("negative power only on grouplike generators or scalar monomials")

    def conform(self, slot_pres):
        """Fix the context to the given per-slot presentations; scalars
        broadcast; unit slots accept any presentation."""
        if self.is_scalar():
            ctx = TensorContext(slot_pres)
            return NCElement.scalar(ctx, self.scalar)
        if self.slots != len(slot_pres):
            raise _EvalError(f"expected {len(slot_pres)} tensor slots, found {self.slots}")
        for got, want in zip(self.pres, slot_pres):
            if got is not None and got is not want:
                raise _EvalError(f"expression slot in {got.name}, expected {want.name}")
        ctx = TensorContext(slot_pres)
        return NCElement(ctx, self.terms)


class _EvalError(Exception):
    """A load error; its diagnostic names tok's line and column, if given."""

    def __init__(self, message, tok=None):
        super().__init__(message)
        self.tok = tok


class Evaluator:
    """Evaluates ASTs against one or more resolution presentations."""

    def __init__(self, resolution, params, path="<string>"):
        self.resolution = list(resolution)  # presentations for genref lookup
        self.params = set(params)
        self.path = path

    def lookup(self, name, idx):
        for p in self.resolution:
            key = (name, idx)
            if key in p.by_key:
                return p, p.by_key[key]
        return None

    def index_range(self, name, pos):
        vals = sorted({g.index[pos] for p in self.resolution for g in p.gens
                       if g.name == name and len(g.index) > pos})
        return vals

    def collect_vars(self, node, out):
        if isinstance(node, GenRef):
            for k, a in enumerate(node.idx):
                if isinstance(a, str):
                    rng = self.index_range(node.name, k)
                    cur = out.get(a)
                    out[a] = sorted(set(rng) & set(cur)) if cur is not None else rng
        elif isinstance(node, Call):
            for a in node.args:
                if isinstance(a, str) and a not in out:
                    out[a] = [1, 2, 3]
        elif isinstance(node, (BinOp,)):
            self.collect_vars(node.left, out)
            self.collect_vars(node.right, out)
        elif isinstance(node, (Neg, Pow)):
            self.collect_vars(node.arg if isinstance(node, Neg) else node.base, out)
        return out

    def eval(self, node, assign):
        if isinstance(node, Num):
            return ExprVal.from_scalar(HSeries.const(Fraction(node.value)))
        if isinstance(node, Sym):
            if node.name == "I":
                return ExprVal.from_scalar(HSeries.const(GR_I))
            if node.name == "h":
                return ExprVal.from_scalar(HSeries.h(1))
            if node.name == "kappa":
                return ExprVal.from_scalar(HSeries.h(-1))
            if node.name in self.params:
                return ExprVal.from_scalar(HSeries.const(RationalFn(Poly.var(node.name))))
            hit = self.lookup(node.name, ())
            if hit is not None:
                return ExprVal.from_gen(hit[0], hit[1])
            raise _EvalError(f"unknown symbol {node.name!r}")
        if isinstance(node, GenRef):
            idx = tuple(assign[a] if isinstance(a, str) else a for a in node.idx)
            for a in node.idx:
                if isinstance(a, str) and a not in assign:
                    raise _EvalError(f"unbound index variable {a!r}")
            hit = self.lookup(node.name, idx)
            if hit is None:
                raise _EvalError(f"unknown generator {node.name}{list(idx)}")
            return ExprVal.from_gen(hit[0], hit[1])
        if isinstance(node, Call):
            vals = [assign[a] if isinstance(a, str) else a for a in node.args]
            if node.fn == "eps":
                if len(vals) != 3:
                    raise _EvalError("eps takes three indices")
                return ExprVal.from_scalar(HSeries.const(Fraction(levi_civita(*vals))))
            if node.fn == "delta":
                if len(vals) != 2:
                    raise _EvalError("delta takes two indices")
                return ExprVal.from_scalar(HSeries.const(Fraction(1 if vals[0] == vals[1] else 0)))
            raise _EvalError(f"unknown function {node.fn!r}")
        if isinstance(node, Neg):
            return self.eval(node.arg, assign).neg()
        if isinstance(node, Pow):
            return self.eval(node.base, assign).power(node.n)
        if isinstance(node, BinOp):
            lv = self.eval(node.left, assign)
            rv = self.eval(node.right, assign)
            if node.op == "+":
                return lv.add(rv)
            if node.op == "-":
                return lv.add(rv.neg())
            if node.op == "*":
                return lv.mul(rv)
            if node.op == "/":
                if not rv.is_scalar():
                    raise _EvalError("division only by scalars")
                return lv.mul(rv.power(-1))
            if node.op == "(x)":
                return lv.tensor(rv)
        raise _EvalError(f"cannot evaluate {node!r}")

    def _expand_terms(self, node, sign=1):
        """Distribute products over sums: list of (sign, sum-free AST)."""
        if isinstance(node, Neg):
            return self._expand_terms(node.arg, -sign)
        if isinstance(node, BinOp) and node.op in ("+", "-"):
            right_sign = sign if node.op == "+" else -sign
            return (self._expand_terms(node.left, sign)
                    + self._expand_terms(node.right, right_sign))
        if isinstance(node, BinOp):  # * / (x)
            lt = self._expand_terms(node.left)
            rt = self._expand_terms(node.right)
            if node.op == "/" and len(rt) != 1:
                raise _EvalError("division only by a single scalar term")
            return [(sign * s1 * s2, BinOp(node.op, a, b))
                    for s1, a in lt for s2, b in rt]
        if isinstance(node, Pow):
            if self.collect_vars(node.base, {}):
                raise _EvalError("powers of index-bearing subexpressions are not "
                                 "supported; write the product out explicitly")
            return [(sign, node)]
        return [(sign, node)]

    def _count_var_occurrences(self, node, counts):
        if isinstance(node, GenRef):
            for a in node.idx:
                if isinstance(a, str):
                    counts[a] = counts.get(a, 0) + 1
        elif isinstance(node, Call):
            for a in node.args:
                if isinstance(a, str):
                    counts[a] = counts.get(a, 0) + 1
        elif isinstance(node, BinOp):
            self._count_var_occurrences(node.left, counts)
            self._count_var_occurrences(node.right, counts)
        elif isinstance(node, Neg):
            self._count_var_occurrences(node.arg, counts)
        elif isinstance(node, Pow):
            self._count_var_occurrences(node.base, counts)
        return counts

    def eval_summed(self, node, free_assign):
        """Einstein-convention evaluation: expand into product terms, then sum
        each term over its own repeated non-free index variables."""
        from itertools import product as iproduct
        total = None
        for sign, term in self._expand_terms(node):
            vars_ = self.collect_vars(term, {})
            summed = sorted(v for v in vars_ if v not in free_assign)
            counts = self._count_var_occurrences(term, {})
            for v in summed:
                if counts.get(v, 0) < 2:
                    raise _EvalError(
                        f"unbalanced index {v!r}: appears once and is not bound "
                        "on the left side")
            ranges = [vars_[v] for v in summed]
            for combo in iproduct(*ranges) if summed else [()]:
                assign = dict(free_assign)
                assign.update(dict(zip(summed, combo)))
                val = self.eval(term, assign)
                if sign < 0:
                    val = val.neg()
                total = val if total is None else total.add(val)
        return total if total is not None else ExprVal.from_scalar(H_ZERO)


# ---------------------------------------------------------------------------
# loading declarations into engine structures
# ---------------------------------------------------------------------------


@dataclass
class ModelModule:
    """Everything defined by one or more .hopf sources."""

    presentations: dict = field(default_factory=dict)
    elements: dict = field(default_factory=dict)      # name -> (pres_name, NCElement)
    maps: dict = field(default_factory=dict)          # name -> (src, dst, {gi: NCElement})
    bicross: dict = field(default_factory=dict)       # name -> dict (resolved)
    comodules: dict = field(default_factory=dict)     # name -> dict (resolved)


def parse_declarations(text, path="<string>"):
    """The syntactic pass of parse_source: (declarations, diagnostics)."""
    tokens, diags = tokenize(text, path)
    parser = Parser(tokens, path)
    decls = parser.parse_file()
    diags.extend(parser.diagnostics)
    return decls, diags


def parse_source(text, path="<string>", env=None, declarations=None):
    """Parse and load a .hopf source.  Returns (ModelModule, diagnostics);
    the module is None when errors were found.  A caller that has already
    run parse_declarations on text passes its error-free declarations, and
    text is not tokenized again."""
    decls = declarations
    if decls is None:
        decls, diags = parse_declarations(text, path)
        if diags:
            return None, diags
    module = ModelModule()
    env_pres = dict(env.presentations) if env else {}
    try:
        for decl in decls:
            kind = decl[0]
            if kind == "presentation":
                p = _load_presentation(decl, path)
                module.presentations[p.name] = p
                env_pres[p.name] = p
            elif kind == "element":
                _, name, pres_name, rhs = decl
                p = env_pres.get(pres_name) or module.presentations.get(pres_name)
                if p is None:
                    raise _EvalError(f"element {name}: unknown presentation {pres_name}")
                ev = Evaluator([p], p.params, path)
                el = ev.eval_summed(rhs, {}).conform((p,))
                module.elements[name] = (pres_name, el)
            elif kind == "map":
                _, name, src, dst, rules = decl
                ps = env_pres.get(src)
                pd = env_pres.get(dst)
                if ps is None or pd is None:
                    raise _EvalError(f"map {name}: unknown presentation {src} or {dst}")
                images = _load_map(ps, pd, rules, path)
                module.maps[name] = (src, dst, images)
            elif kind == "bicross":
                _, name, fields = decl
                module.bicross[name] = _load_bicross(name, fields, env_pres, path)
            elif kind == "comodule":
                _, name, fields = decl
                module.comodules[name] = _load_comodule(name, fields, env_pres, path)
    except _EvalError as e:
        line, col = (e.tok.line, e.tok.col) if e.tok else (0, 0)
        return None, [Diagnostic("error", str(e), line, col, path)]
    except (PresentationError, DivergenceError) as e:
        return None, [Diagnostic("error", str(e), 0, 0, path)]
    return module, []


def parse_presentation(text, path="<string>"):
    """Single-presentation convenience: Presentation or raises DslError."""
    module, diags = parse_source(text, path)
    if module is None:
        raise DslError(diags)
    if len(module.presentations) != 1:
        raise DslError([Diagnostic("error", "expected exactly one presentation", 0, 0, path)])
    return next(iter(module.presentations.values()))


def _load_presentation(decl, path):
    _, name, sections = decl
    params = []
    genspecs = None
    order = None
    for kind, payload in sections:
        if kind == "params":
            params.extend(payload)
        elif kind == "generators":
            genspecs = payload
        elif kind == "order":
            order = payload
    if genspecs is None:
        genspecs = []
    if order is not None:
        declared = {(n, i) for n, i, _, _ in genspecs}
        ordered = [(n, i) for n, i, _, _ in order]
        if set(ordered) != declared or len(ordered) != len(declared):
            raise _EvalError(f"{name}: order section must list every generator exactly once")
        flagmap = {(n, i): g for n, i, g, _ in genspecs}
        genspecs = [(n, i, flagmap[(n, i)], None) for n, i in ordered]
    gens = [GenDecl(n, i, grouplike=g) for n, i, g, _ in genspecs]
    # single shared object: rules/hopf/quotient are attached after evaluation,
    # so every stored element's context references this same presentation
    proto = Presentation(name, gens, params=params)

    ev = Evaluator([proto], params, path)
    raw_rules = {}
    rule_toks = {}
    hopf_delta, hopf_counit, hopf_antipode = {}, {}, {}
    logs = {}
    star = {}
    quotient = None
    has_hopf = False

    for kind, payload in sections:
        if kind == "relation":
            lhs, rhs, tok = payload
            _load_relation(proto, ev, lhs, rhs, raw_rules, rule_toks, tok, path)
        elif kind in ("coproduct", "counit", "antipode", "log", "star"):
            ref, rhs, tok = payload
            refs = _instantiate_ref(proto, ev, ref)
            for gi, assign in refs:
                val = ev.eval_summed(rhs, assign)
                if kind == "coproduct":
                    has_hopf = True
                    hopf_delta[gi] = val.conform((proto, proto))
                elif kind == "counit":
                    has_hopf = True
                    if not val.is_scalar():
                        raise _EvalError(f"{name}: counit value must be scalar")
                    hopf_counit[gi] = val.scalar
                elif kind == "antipode":
                    has_hopf = True
                    hopf_antipode[gi] = val.conform((proto,))
                elif kind == "log":
                    logs[gi] = val.conform((proto,))
                elif kind == "star":
                    star[gi] = val.conform((proto,))
        elif kind == "quotient":
            qkind, fam, tok = payload
            if qkind != "orthogonal":
                raise _EvalError(f"{name}: unknown quotient kind {qkind!r}")
            idxmap = {}
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    key = (fam, (i, j))
                    if key not in proto.by_key:
                        raise _EvalError(f"{name}: quotient family {fam} needs {fam}[{i},{j}]")
                    idxmap[(i, j)] = proto.by_key[key]
            quotient = QuotientSpec("orthogonal", fam, idxmap)

    proto.rules.update(raw_rules)
    proto._validate()
    missing = proto.missing_digrams()
    if missing:
        raise _EvalError(f"{name}: no relation covers digrams: {missing[:6]}"
                         + ("..." if len(missing) > 6 else ""))

    if has_hopf:
        allgi = set(range(len(gens)))
        for label, table in (("coproduct", hopf_delta), ("counit", hopf_counit),
                             ("antipode", hopf_antipode)):
            missing_h = allgi - set(table)
            if missing_h:
                labels = [gens[gi].label() for gi in sorted(missing_h)]
                raise _EvalError(f"{name}: missing {label} for {labels}")
        proto.hopf = HopfData(hopf_delta, hopf_counit, hopf_antipode)

    proto.grouplike_logs.update(logs)
    proto.quotient = quotient
    proto.star.update(star)
    proto._validate()
    _normalize_rule_corrections(proto, rule_toks)
    return proto


def _instantiate_ref(proto, ev, ref):
    """A generator reference with index variables -> list of (gen_idx, assignment)."""
    if isinstance(ref, Sym):
        key = (ref.name, ())
        if key not in proto.by_key:
            raise _EvalError(f"unknown generator {ref.name}")
        return [(proto.by_key[key], {})]
    if not isinstance(ref, GenRef):
        raise _EvalError("expected a generator reference")
    vars_ = {}
    for k, a in enumerate(ref.idx):
        if isinstance(a, str):
            vars_[a] = ev.index_range(ref.name, k)
    from itertools import product as iproduct
    names = sorted(vars_)
    out = []
    for combo in iproduct(*(vars_[v] for v in names)) if names else [()]:
        assign = dict(zip(names, combo))
        idx = tuple(assign[a] if isinstance(a, str) else a for a in ref.idx)
        key = (ref.name, idx)
        if key not in proto.by_key:
            raise _EvalError(f"unknown generator {ref.name}{list(idx)} (index out of range)")
        out.append((proto.by_key[key], assign))
    return out


def _load_relation(proto, ev, lhs, rhs, raw_rules, rule_toks, tok, path):
    vars_ = ev.collect_vars(lhs, {})
    from itertools import product as iproduct
    names = sorted(vars_)
    for combo in iproduct(*(vars_[v] for v in names)) if names else [()]:
        assign = dict(zip(names, combo))
        lv = ev.eval(lhs, assign)
        rv = ev.eval_summed(rhs, assign)
        lel = lv.conform((proto,))
        rel = rv.conform((proto,))
        rule = _orient(proto, lel, rel, tok, path)
        if rule is None:
            continue
        digram, corr = rule
        if digram in raw_rules:
            if raw_rules[digram] != corr:
                raise _EvalError(
                    f"conflicting rules for digram "
                    f"{proto.gens[digram[0]].label()}*{proto.gens[digram[1]].label()}")
        else:
            raw_rules[digram] = corr
            rule_toks[digram] = tok


def _orient(proto, lel, rel, tok, path):
    """relation c*(X*Y - Y*X) = rhs  ->  rule (hi,lo) -> correction terms."""
    terms = lel.terms
    if not terms:
        if rel.terms:
            raise _EvalError("relation instance with zero left side but nonzero right side")
        return None
    if len(terms) != 2:
        raise _EvalError("relation left side must be a commutator difference X*Y - Y*X")
    (w1, c1), (w2, c2) = sorted(terms.items())
    if len(w1) != 1 or len(w1[0]) != 2 or len(w2[0]) != 2:
        raise _EvalError("relation left side must be quadratic in the generators")
    a, b = w1[0]
    b2, a2 = w2[0]
    if (a, b) != (a2, b2) or c1 != -c2:
        raise _EvalError("relation left side must be a commutator difference X*Y - Y*X")
    (ga, pa), (gb, pb) = a, b
    if ga == gb:
        raise _EvalError("relation digram needs two distinct generators")
    # identify which term is hi*lo (the disordered digram)
    if ga > gb:
        hi, lo = (ga, pa), (gb, pb)
        coeff = c1
        sign = 1
    else:
        hi, lo = (gb, pb), (ga, pa)
        coeff = c1
        sign = -1
    if proto.gens[hi[0]].grouplike and hi[1] != 1:
        raise _EvalError("declare grouplike relations at power 1")
    if proto.gens[lo[0]].grouplike and lo[1] != 1:
        raise _EvalError("declare grouplike relations at power 1")
    # lel = coeff*(a b) - coeff*(b a) = sign*coeff*(hi lo - lo hi)
    corr_el = rel.scale(_invert_scalar(coeff, sign))
    corr = []
    for w, c in sorted(corr_el.terms.items()):
        if c.has_negative_powers():
            raise _EvalError("relation right side has a pole at h=0 "
                             "(net negative kappa power)")
        corr.append((c, w[0]))
    return (hi[0], lo[0]), tuple(corr)


def _invert_scalar(coeff, sign):
    if len(coeff.coeffs) != 1:
        raise _EvalError("relation commutator prefactor must be an h-monomial scalar")
    (v,) = coeff.coeffs.values()
    if not v.is_const():
        raise _EvalError("relation commutator prefactor must be constant")
    return HSeries.const(sign) / coeff


# rewrite steps allowed per rule correction while a model loads; the
# shipped models need at most 9, and rules that never terminate (such as
# B*A - A*B = B*A) must fail fast instead of growing without bound
CORRECTION_BUDGET = 1_000


def _normalize_rule_corrections(p, rule_toks):
    """Canonicalize every rule's correction to its PBW normal form; a
    correction that does not normalize within the budget is an error at the
    relation of its digram (rule_toks: digram -> relation token)."""
    ctx = TensorContext((p,))
    new_rules = {}
    for digram, corr in p.rules.items():
        terms = {}
        for c, w in corr:
            terms[(w,)] = terms.get((w,), H_ZERO) + c
        try:
            el = normal_order(NCElement(ctx, terms), budget=CORRECTION_BUDGET)
        except DivergenceError as e:
            raise _EvalError(str(e), rule_toks[digram]) from None
        new_rules[digram] = tuple((c, w[0]) for w, c in sorted(el.terms.items()))
    p.rules.clear()
    p.rules.update(new_rules)


def _load_map(ps, pd, rules, path):
    ev_src = Evaluator([ps], ps.params, path)
    ev_dst = Evaluator([pd], pd.params, path)
    images = {}
    for ref, rhs in rules:
        for gi, assign in _instantiate_ref(ps, ev_src, ref):
            images[gi] = ev_dst.eval_summed(rhs, assign).conform((pd,))
    missing = set(range(len(ps.gens))) - set(images)
    if missing:
        labels = [ps.gens[gi].label() for gi in sorted(missing)]
        raise _EvalError(f"map does not cover generators {labels}")
    return images


def _load_bicross(name, fields, env_pres, path):
    for req in ("total", "ufactor", "tfactor", "action_codomain", "coacted", "missing"):
        if req not in fields or not isinstance(fields[req], str):
            raise _EvalError(f"bicross {name}: missing field {req}")
    total = env_pres.get(fields["total"])
    uf = env_pres.get(fields["ufactor"])
    tf = env_pres.get(fields["tfactor"])
    if total is None or uf is None or tf is None:
        raise _EvalError(f"bicross {name}: unresolved presentation reference")
    ev_total = Evaluator([total], total.params, path)
    ev_u = Evaluator([uf], uf.params, path)
    ev_t = Evaluator([tf], tf.params, path)
    ev_ut = Evaluator([uf, tf], tuple(uf.params) + tuple(tf.params), path)

    u_embed = {}
    for ref, rhs in fields["uembed"]:
        for gi, assign in _instantiate_ref(uf, ev_u, ref):
            u_embed[gi] = ev_total.eval_summed(rhs, assign).conform((total,))
    t_embed = {}
    for ref, rhs in fields["tembed"]:
        for gi, assign in _instantiate_ref(tf, ev_t, ref):
            t_embed[gi] = ev_total.eval_summed(rhs, assign).conform((total,))

    codomain = fields["action_codomain"]
    if codomain not in ("u", "t"):
        raise _EvalError(f"bicross {name}: action_codomain must be u or t")
    ev_cod = ev_u if codomain == "u" else ev_t
    cod_pres = uf if codomain == "u" else tf
    action = {}
    for r1, r2, rhs in fields["action"]:
        for gi, a1 in _instantiate_ref(uf, ev_u, r1):
            for gj, a2 in _instantiate_ref(tf, ev_t, r2):
                assign = dict(a1)
                for k, v in a2.items():
                    if k in assign and assign[k] != v:
                        break
                    assign[k] = v
                else:
                    action[(gi, gj)] = ev_cod.eval_summed(rhs, assign).conform((cod_pres,))

    coacted = fields["coacted"]
    if coacted not in ("u", "t"):
        raise _EvalError(f"bicross {name}: coacted must be u or t")
    co_pres = uf if coacted == "u" else tf
    ev_co = ev_u if coacted == "u" else ev_t
    coaction = {}
    for ref, rhs in fields["coaction"]:
        for gi, assign in _instantiate_ref(co_pres, ev_co, ref):
            coaction[gi] = ev_ut.eval_summed(rhs, assign).conform((uf, tf))
    missing = fields["missing"]
    if missing not in ("one_otimes_x", "x_otimes_one"):
        raise _EvalError(f"bicross {name}: missing must be one_otimes_x or x_otimes_one")

    from .hopf import BicrossData
    return BicrossData(name=name, total=total, u_factor=uf, t_factor=tf,
                       u_embed=u_embed, t_embed=t_embed, action=action,
                       action_codomain=codomain, coaction=coaction,
                       coacted_factor=coacted, coaction_missing=missing)


def _load_comodule(name, fields, env_pres, path):
    group = env_pres.get(fields.get("group"))
    space = env_pres.get(fields.get("space"))
    if group is None or space is None:
        raise _EvalError(f"comodule {name}: unresolved presentation reference")
    ev = Evaluator([group, space], tuple(group.params) + tuple(space.params), path)
    ev_space = Evaluator([space], space.params, path)
    action = {}
    for ref, rhs in fields["action"]:
        for gi, assign in _instantiate_ref(space, ev_space, ref):
            action[gi] = ev.eval_summed(rhs, assign).conform((group, space))
    missing = set(range(len(space.gens))) - set(action)
    if missing:
        labels = [space.gens[gi].label() for gi in sorted(missing)]
        raise _EvalError(f"comodule {name}: action does not cover {labels}")
    return {"name": name, "group": group, "space": space, "action": action}


# ---------------------------------------------------------------------------
# printing (canonical, round-trippable)
# ---------------------------------------------------------------------------


def _scalar_to_dsl(c):
    """HSeries -> DSL expression text (h-Laurent, Gaussian-rational * params)."""
    if not c:
        return "0"
    bits = []
    for k in sorted(c.coeffs):
        v = c.coeffs[k]
        if not v.is_poly():
            raise ValueError(f"cannot print non-polynomial coefficient {v}")
        for mono, g in sorted(v.num.terms.items()):
            factors = []
            coef = _gaussian_to_dsl(g)
            if coef:
                factors.append(coef)
            for s, e in mono:
                factors.append(s if e == 1 else f"{s}^{e}")
            if k:
                factors.append("h" if k == 1 else f"h^{k}")
            if not factors:
                factors = ["1"]
            bits.append("*".join(factors))
    return " + ".join(bits).replace("+ -", "- ")


def _gaussian_to_dsl(g):
    def frac(q):
        return str(q) if q.denominator == 1 else f"({q.numerator}/{q.denominator})"
    if not g.im:
        if g.re == 1:
            return ""
        if g.re == -1:
            return "-1"
        return frac(g.re)
    if not g.re:
        if g.im == 1:
            return "I"
        if g.im == -1:
            return "-I"
        return f"{frac(g.im)}*I"
    return f"({frac(g.re)} + {frac(g.im)}*I)".replace("+ -", "- ")


def _word_to_dsl(p, word):
    if not word:
        return "1"
    return "*".join(
        p.gens[gi].label() if pw == 1 else f"{p.gens[gi].label()}^{pw}"
        for gi, pw in word)


def element_to_dsl(el):
    """Multi-slot element -> DSL expression text."""
    if not el.terms:
        return "0"
    bits = []
    for w in sorted(el.terms):
        c = el.terms[w]
        body = " (x) ".join(_word_to_dsl(p, sw) for p, sw in zip(el.context.slots, w))
        cs = _scalar_to_dsl(c)
        if cs == "1":
            bits.append(body)
        elif cs == "-1":
            bits.append(f"-1*{body}")
        else:
            par = "+" in cs or "- " in cs
            bits.append(f"({cs})*{body}" if par else f"{cs}*{body}")
    return " + ".join(bits)


def print_presentation(p):
    lines = [f"presentation {p.name} {{"]
    if p.params:
        lines.append(f"  params: {' '.join(p.params)};")
    gens = " ".join(g.label() + (" grouplike" if g.grouplike else "") for g in p.gens)
    lines.append(f"  generators: {gens};")
    ctx = TensorContext((p,))
    for (hi, lo) in sorted(p.rules):
        corr = p.rules[(hi, lo)]
        el = NCElement(ctx, {(w,): c for c, w in corr})
        lh = f"{p.gens[hi].label()}*{p.gens[lo].label()}"
        rh = f"{p.gens[lo].label()}*{p.gens[hi].label()}"
        lines.append(f"  relation {lh} - {rh} = {element_to_dsl(el)};")
    if p.quotient is not None:
        lines.append(f"  quotient orthogonal {p.quotient.family};")
    if p.hopf is not None:
        for gi, g in enumerate(p.gens):
            lines.append(f"  coproduct {g.label()} = {element_to_dsl(p.hopf.delta[gi])};")
        for gi, g in enumerate(p.gens):
            lines.append(f"  counit {g.label()} = {_scalar_to_dsl(p.hopf.counit[gi])};")
        for gi, g in enumerate(p.gens):
            lines.append(f"  antipode {g.label()} = {element_to_dsl(p.hopf.antipode[gi])};")
    for gi, log in sorted(p.grouplike_logs.items()):
        lines.append(f"  log {p.gens[gi].label()} = {element_to_dsl(log)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
