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

A right side is evaluated straight into the tensor context of the table it
fills (one slot for an antipode or a map image, two for a coproduct or a
coaction): tensor factors fill the slots in order, a scalar factor taking
one slot, and a generator is looked up in the presentation of its own slot.
A scalar right side fills no slot and stands for itself times 1.

Every rejection carries a Diagnostic with a line/column span; parsing never
throws on malformed input.  A load error names its presentation section, or
else the keyword of its declaration.
"""

from __future__ import annotations

import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

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

    def parse_binding(self, what, sep):
        """ref sep expr ; -- a generator reference bound to an expression.
        what names the presentation section whose ref is checked here; with
        None, ref is checked when it loads."""
        ref = self.parse_atom()
        if what and not isinstance(ref, (GenRef, Sym)):
            self.error(f"{what} needs a generator reference")
        self.expect(sep)
        rhs = self.parse_expr()
        self.expect(";")
        return ref, rhs

    def parse_presentation_decl(self):
        tok = self.next()  # presentation
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
                payload = []
                while self.peek().kind == "IDENT":
                    payload.append(self.next().text)
                    self.accept(",")
                self.expect(";")
            elif kw == "generators" or kw == "order":
                self.next()
                self.expect(":")
                payload = []
                while self.peek().kind == "IDENT":
                    gname = self.next().text
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
                    payload.append((gname, idx, grouplike))
                    self.accept(",")
                self.expect(";")
            elif kw == "relation":
                self.next()
                lhs = self.parse_expr()
                self.expect("=")
                payload = (lhs, self.parse_expr())
                self.expect(";")
            elif kw == "quotient":
                self.next()
                kind = self.expect("IDENT", "quotient kind").text
                payload = (kind, self.expect("IDENT", "generator family").text)
                self.expect(";")
            elif kw in ("coproduct", "counit", "antipode", "log", "star"):
                self.next()
                payload = self.parse_binding(kw, "=")
            else:
                self.error(f"unknown section {kw!r}")
            sections.append((kw, payload, t))
        self.expect("}")
        return ("presentation", name, sections, tok)

    def parse_element_decl(self):
        tok = self.next()
        name = self.expect("IDENT", "element name").text
        kw = self.expect("IDENT")
        if kw.text != "in":
            self.error("expected 'in'", kw)
        pres = self.expect("IDENT", "presentation name").text
        self.expect("=")
        rhs = self.parse_expr()
        self.expect(";")
        return ("element", name, pres, rhs, tok)

    def parse_map_decl(self):
        tok = self.next()
        name = self.expect("IDENT", "map name").text
        self.expect(":")
        src = self.expect("IDENT").text
        self.expect("ARROW")
        dst = self.expect("IDENT").text
        self.expect("{")
        rules = []
        while self.peek().kind != "}":
            # no token: a rule's load error names the map declaration
            rules.append((*self.parse_binding(None, "MAPSTO"), None))
        self.expect("}")
        return ("map", name, src, dst, rules, tok)

    def parse_bicross_decl(self):
        """Every field keeps its keyword token, so a load error in it names
        its line: a name field is (value, token), a list field holds
        (ref, rhs, token) bindings and (ref, ref, rhs, token) actions."""
        tok = self.next()
        name = self.expect("IDENT", "bicross name").text
        self.expect("{")
        fields = {"uembed": [], "tembed": [], "action": [], "coaction": []}
        while self.peek().kind != "}":
            kw_tok = self.expect("IDENT")
            kw = kw_tok.text
            if kw in ("total", "ufactor", "tfactor", "action_codomain", "coacted", "missing"):
                self.expect(":")
                val = self.expect("IDENT").text
                self.expect(";")
                fields[kw] = (val, kw_tok)
            elif kw in ("uembed", "tembed"):
                fields[kw].append((*self.parse_binding(None, "MAPSTO"), kw_tok))
            elif kw == "action":
                r1 = self.parse_atom()
                self.expect(",")
                r2 = self.parse_atom()
                self.expect("=")
                rhs = self.parse_expr()
                self.expect(";")
                fields["action"].append((r1, r2, rhs, kw_tok))
            elif kw == "coaction":
                fields["coaction"].append((*self.parse_binding(None, "="), kw_tok))
            else:
                self.error(f"unknown bicross field {kw!r}")
        self.expect("}")
        return ("bicross", name, fields, tok)

    def parse_comodule_decl(self):
        """Fields keep their keyword tokens, as in parse_bicross_decl."""
        tok = self.next()
        name = self.expect("IDENT", "comodule name").text
        self.expect("{")
        fields = {"action": []}
        while self.peek().kind != "}":
            kw_tok = self.expect("IDENT")
            kw = kw_tok.text
            if kw in ("group", "space"):
                self.expect(":")
                fields[kw] = (self.expect("IDENT").text, kw_tok)
                self.expect(";")
            elif kw == "action":
                fields["action"].append((*self.parse_binding(None, "="), kw_tok))
            else:
                self.error(f"unknown comodule field {kw!r}")
        self.expect("}")
        return ("comodule", name, fields, tok)


class _ParseAbort(Exception):
    def __init__(self, diagnostic):
        self.diagnostic = diagnostic


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------


class _EvalError(Exception):
    """A load error; its diagnostic names tok's line and column, if given."""

    def __init__(self, message, tok=None):
        super().__init__(message)
        self.tok = tok


def _index_ranges(presentations):
    """{(generator family, index position): the values it takes}."""
    ranges = {}
    for p in presentations:
        for g in p.gens:
            for pos, v in enumerate(g.index):
                ranges.setdefault((g.name, pos), set()).add(v)
    return {key: sorted(vals) for key, vals in ranges.items()}


def _assignments(ranges, base):
    """base extended by every combination of ranges ({variable: values}),
    the variables taken in sorted order."""
    names = sorted(ranges)
    for combo in product(*(ranges[v] for v in names)):
        yield {**base, **dict(zip(names, combo))}


def _var_uses(node):
    """(variable, generator family, index position) for each index variable
    in node, in reading order; family and position are None in eps or delta."""
    if isinstance(node, GenRef):
        for k, a in enumerate(node.idx):
            if isinstance(a, str):
                yield a, node.name, k
    elif isinstance(node, Call):
        for a in node.args:
            if isinstance(a, str):
                yield a, None, None
    elif isinstance(node, BinOp):
        yield from _var_uses(node.left)
        yield from _var_uses(node.right)
    elif isinstance(node, Neg):
        yield from _var_uses(node.arg)
    elif isinstance(node, Pow):
        yield from _var_uses(node.base)


def _expand_terms(node, sign):
    """Distribute products over sums: list of (sign, sum-free AST)."""
    if isinstance(node, Neg):
        return _expand_terms(node.arg, -sign)
    if isinstance(node, BinOp) and node.op in ("+", "-"):
        right_sign = sign if node.op == "+" else -sign
        return _expand_terms(node.left, sign) + _expand_terms(node.right, right_sign)
    if isinstance(node, BinOp):  # * / (x)
        lt = _expand_terms(node.left, 1)
        rt = _expand_terms(node.right, 1)
        if node.op == "/" and len(rt) != 1:
            raise _EvalError("division only by a single scalar term")
        return [(sign * s1 * s2, BinOp(node.op, a, b)) for s1, a in lt for s2, b in rt]
    if isinstance(node, Pow) and any(_var_uses(node.base)):
        raise _EvalError("powers of index-bearing subexpressions are not "
                         "supported; write the product out explicitly")
    return [(sign, node)]


def _plus(a, b):
    """a + b; an element's terms come before a scalar's."""
    if isinstance(a, HSeries) and not isinstance(b, HSeries):
        return b + a
    return a + b


def _times(a, b):
    """a * b; a scalar scales an element's coefficients."""
    if isinstance(a, HSeries) and not isinstance(b, HSeries):
        return b.scale(a)
    return a * b


def _power(v, n):
    if isinstance(v, HSeries):
        if n >= 0:
            return v ** n
        if len(v.coeffs) == 1:
            return (H_ONE / v) ** (-n)
        raise _EvalError("negative power of a non-monomial scalar")
    if n >= 0:
        out = H_ONE
        for _ in range(n):
            out = _times(out, v)
        return out
    # negative powers: single grouplike letter only
    if len(v.terms) == 1:
        (w, c), = v.terms.items()
        letters = [(s, l) for s, sw in enumerate(w) for l in sw]
        if c == H_ONE and len(letters) == 1:
            s, (gi, p) = letters[0]
            if v.context.slots[s].gens[gi].grouplike:
                nw = list(w)
                nw[s] = ((gi, p * n),)
                return NCElement(v.context, {tuple(nw): H_ONE})
    raise _EvalError("negative power only on grouplike generators or scalar monomials")


class Evaluator:
    """Evaluates expressions in the tensor context of the table they fill:
    slot k holds slots[k], tensor factors fill slots in order, and a
    generator is looked up in the presentation of its own slot."""

    def __init__(self, slots):
        self.slots = tuple(slots)
        self.context = TensorContext(self.slots)
        self.params = {n for p in self.slots for n in p.params}
        self.names = {g.name for p in self.slots for g in p.gens}
        self.ranges = _index_ranges(self.slots)

    def width(self, node):
        """The tensor slots node fills: 0 for a scalar, 1 for a generator.
        A name that is no generator counts as a scalar; eval rejects it."""
        if isinstance(node, Sym):
            return int(node.name not in ("I", "h", "kappa") and node.name not in self.params
                       and any((node.name, ()) in p.by_key for p in self.slots))
        if isinstance(node, GenRef):
            return int(node.name in self.names)
        if isinstance(node, Neg):
            return self.width(node.arg)
        if isinstance(node, Pow):
            return self.width(node.base)
        if isinstance(node, BinOp):
            wl, wr = self.width(node.left), self.width(node.right)
            if node.op == "(x)":
                return max(wl, 1) + max(wr, 1)
            if node.op == "/" and wr:
                raise _EvalError("division only by scalars")
            if wl and wr and wl != wr:
                raise _EvalError(f"slot mismatch: {wl} vs {wr}")
            return wl or wr
        return 0

    def collect_vars(self, uses):
        """{index variable: the values it ranges over} of uses (see
        _var_uses): those its generator positions share, 1..3 where only eps
        or delta takes it."""
        out = {}
        for a, name, k in uses:
            if name is None:
                out.setdefault(a, [1, 2, 3])
            else:
                rng = self.ranges.get((name, k), [])
                cur = out.get(a)
                out[a] = sorted(set(rng) & set(cur)) if cur is not None else rng
        return out

    def generator(self, name, idx, slot):
        """The generator (name, idx) of slot's presentation, or None."""
        p = self.slots[slot]
        gi = p.by_key.get((name, idx))
        if gi is None:
            for q in self.slots:
                if (name, idx) in q.by_key:
                    raise _EvalError(f"expression slot in {q.name}, expected {p.name}")
            return None
        word = [()] * len(self.slots)
        word[slot] = ((gi, 1),)
        return NCElement(self.context, {tuple(word): H_ONE})

    def eval(self, node, assign, slot):
        """node with its first tensor factor in slot: an HSeries for a
        scalar, an NCElement of the table's context otherwise."""
        if isinstance(node, Num):
            return HSeries.const(Fraction(node.value))
        if isinstance(node, Sym):
            if node.name == "I":
                return HSeries.const(GR_I)
            if node.name == "h":
                return HSeries.h(1)
            if node.name == "kappa":
                return HSeries.h(-1)
            if node.name in self.params:
                return HSeries.const(RationalFn(Poly.var(node.name)))
            gen = self.generator(node.name, (), slot)
            if gen is None:
                raise _EvalError(f"unknown symbol {node.name!r}")
            return gen
        if isinstance(node, GenRef):
            idx = tuple(assign[a] if isinstance(a, str) else a for a in node.idx)
            gen = self.generator(node.name, idx, slot)
            if gen is None:
                raise _EvalError(f"unknown generator {node.name}{list(idx)}")
            return gen
        if isinstance(node, Call):
            vals = [assign[a] if isinstance(a, str) else a for a in node.args]
            if node.fn == "eps":
                if len(vals) != 3:
                    raise _EvalError("eps takes three indices")
                return HSeries.const(Fraction(levi_civita(*vals)))
            if node.fn == "delta":
                if len(vals) != 2:
                    raise _EvalError("delta takes two indices")
                return HSeries.const(Fraction(1 if vals[0] == vals[1] else 0))
            raise _EvalError(f"unknown function {node.fn!r}")
        if isinstance(node, Neg):
            return -self.eval(node.arg, assign, slot)
        if isinstance(node, Pow):
            return _power(self.eval(node.base, assign, slot), node.n)
        lv = self.eval(node.left, assign, slot)
        if node.op == "(x)":
            right = slot + max(self.width(node.left), 1)
            return _times(lv, self.eval(node.right, assign, right))
        rv = self.eval(node.right, assign, slot)
        if node.op == "+":
            return _plus(lv, rv)
        if node.op == "-":
            return _plus(lv, -rv)
        if node.op == "*":
            return _times(lv, rv)
        return _times(lv, _power(rv, -1))

    def element(self, node, assign):
        """node as an NCElement of the table's context, a scalar filling no
        slot; Einstein convention: after expanding node into product terms,
        each term is summed over its own repeated variables not in assign."""
        terms = _expand_terms(node, 1)
        found = self.width(node)
        if found not in (0, len(self.slots)):
            raise _EvalError(f"expected {len(self.slots)} tensor slots, found {found}")
        total = None
        for sign, term in terms:
            uses = list(_var_uses(term))
            vars_ = self.collect_vars(uses)
            summed = sorted(v for v in vars_ if v not in assign)
            counts = Counter(a for a, _, _ in uses)
            for v in summed:
                if counts[v] < 2:
                    raise _EvalError(
                        f"unbalanced index {v!r}: appears once and is not bound "
                        "on the left side")
            for full in _assignments({v: vars_[v] for v in summed}, assign):
                val = self.eval(term, full, 0)
                if sign < 0:
                    val = -val
                total = val if total is None else _plus(total, val)
        if total is None or isinstance(total, HSeries):
            return NCElement.scalar(self.context, total or H_ZERO)
        return total


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
    text is not tokenized again.  A load error names the line and column of
    its presentation section, or else of its declaration's keyword."""
    decls = declarations
    if decls is None:
        decls, diags = parse_declarations(text, path)
        if diags:
            return None, diags
    module = ModelModule()
    env_pres = dict(env.presentations) if env else {}
    try:
        for decl in decls:
            kind, name, tok = decl[0], decl[1], decl[-1]
            if kind == "presentation":
                p = _load_presentation(decl)
                module.presentations[p.name] = p
                env_pres[p.name] = p
            elif kind == "element":
                pres_name, rhs = decl[2:4]
                p = env_pres.get(pres_name)
                if p is None:
                    raise _EvalError(f"element {name}: unknown presentation {pres_name}")
                module.elements[name] = (pres_name, Evaluator((p,)).element(rhs, {}))
            elif kind == "map":
                src, dst, rules = decl[2:5]
                ps = env_pres.get(src)
                pd = env_pres.get(dst)
                if ps is None or pd is None:
                    raise _EvalError(f"map {name}: unknown presentation {src} or {dst}")
                images = _table(ps, rules, Evaluator((pd,)))
                if _uncovered(ps, images):
                    raise _EvalError(f"map does not cover generators {_uncovered(ps, images)}")
                module.maps[name] = (src, dst, images)
            elif kind == "bicross":
                module.bicross[name] = _load_bicross(name, decl[2], env_pres)
            elif kind == "comodule":
                module.comodules[name] = _load_comodule(name, decl[2], env_pres)
    except (_EvalError, PresentationError, DivergenceError) as e:
        at = getattr(e, "tok", None) or tok
        return None, [Diagnostic("error", str(e), at.line, at.col, path)]
    return module, []


def parse_presentation(text, path="<string>"):
    """Single-presentation convenience: Presentation or raises DslError.  A
    source with two or more presentations is an error at the second one; a
    source with none declares nothing that loads (every other declaration
    names a presentation), so its error is at line 1."""
    decls, diags = parse_declarations(text, path)
    if not diags:
        module, diags = parse_source(text, path, declarations=decls)
    if diags:
        raise DslError(diags)
    if len(module.presentations) != 1:
        pres = [d[-1] for d in decls if d[0] == "presentation"]
        line, col = (pres[1].line, pres[1].col) if len(pres) > 1 else (1, 1)
        raise DslError([Diagnostic("error", "expected exactly one presentation", line, col, path)])
    return next(iter(module.presentations.values()))


def _uncovered(p, table):
    """Labels of p's generators that table has no entry for."""
    return [g.label() for gi, g in enumerate(p.gens) if gi not in table]


@contextmanager
def _located(tok):
    """A load error raised inside names tok, unless it names a token already."""
    try:
        yield
    except (_EvalError, PresentationError, DivergenceError) as e:
        raise _EvalError(str(e), getattr(e, "tok", None) or tok) from None


def _table(source, bindings, ev):
    """{generator index of source: value} of bindings ((ref, rhs, tok)
    triples), each rhs evaluated by ev for every instance of its ref; a load
    error names the tok of its binding."""
    table = {}
    for ref, rhs, tok in bindings:
        with _located(tok):
            for gi, assign in _instantiate_ref(source, ref):
                table[gi] = ev.element(rhs, assign)
    return table


def _load_presentation(decl):
    _, name, sections, _ = decl
    params = []
    genspecs = []
    order = None
    for kind, payload, _ in sections:
        if kind == "params":
            params.extend(payload)
        elif kind == "generators":
            genspecs = payload
        elif kind == "order":
            order = payload
    if order is not None:
        declared = {(n, i) for n, i, _ in genspecs}
        ordered = [(n, i) for n, i, _ in order]
        if set(ordered) != declared or len(ordered) != len(declared):
            raise _EvalError(f"{name}: order section must list every generator exactly once")
        flagmap = {(n, i): g for n, i, g in genspecs}
        genspecs = [(n, i, flagmap[(n, i)]) for n, i in ordered]
    gens = [GenDecl(n, i, grouplike=g) for n, i, g in genspecs]
    # single shared object: rules/hopf/quotient are attached after evaluation,
    # so every stored element's context references this same presentation
    proto = Presentation(name, gens, params=params)

    ev = Evaluator((proto,))
    ev_delta = Evaluator((proto, proto))
    raw_rules = {}
    rule_toks = {}
    tables = {"coproduct": {}, "counit": {}, "antipode": {}, "log": {}, "star": {}}
    quotient = None

    for kind, payload, tok in sections:
        with _located(tok):
            if kind == "relation":
                _load_relation(proto, ev, payload, raw_rules, rule_toks, tok)
            elif kind in tables:
                ref, rhs = payload
                for gi, assign in _instantiate_ref(proto, ref):
                    if kind == "counit":
                        if ev.width(rhs):
                            raise _EvalError(f"{name}: counit value must be scalar")
                        tables[kind][gi] = ev.element(rhs, assign).scalar_part()
                    else:
                        table_ev = ev_delta if kind == "coproduct" else ev
                        tables[kind][gi] = table_ev.element(rhs, assign)
            elif kind == "quotient":
                qkind, fam = payload
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

    hopf = [(label, tables[label]) for label in ("coproduct", "counit", "antipode")]
    if any(table for _, table in hopf):
        for label, table in hopf:
            if _uncovered(proto, table):
                raise _EvalError(f"{name}: missing {label} for {_uncovered(proto, table)}")
        proto.hopf = HopfData(*(table for _, table in hopf))

    proto.grouplike_logs.update(tables["log"])
    proto.quotient = quotient
    proto.star.update(tables["star"])
    proto._validate()
    _normalize_rule_corrections(proto, rule_toks)
    return proto


def _instantiate_ref(p, ref):
    """A generator reference of p with index variables -> list of
    (gen_idx, assignment)."""
    if isinstance(ref, Sym):
        key = (ref.name, ())
        if key not in p.by_key:
            raise _EvalError(f"unknown generator {ref.name}")
        return [(p.by_key[key], {})]
    if not isinstance(ref, GenRef):
        raise _EvalError("expected a generator reference")
    p_ranges = _index_ranges((p,))
    ranges = {a: p_ranges.get((ref.name, k), [])
              for k, a in enumerate(ref.idx) if isinstance(a, str)}
    out = []
    for assign in _assignments(ranges, {}):
        idx = tuple(assign[a] if isinstance(a, str) else a for a in ref.idx)
        key = (ref.name, idx)
        if key not in p.by_key:
            raise _EvalError(f"unknown generator {ref.name}{list(idx)} (index out of range)")
        out.append((p.by_key[key], assign))
    return out


def _load_relation(proto, ev, sides, raw_rules, rule_toks, tok):
    lhs, rhs = sides
    for assign in _assignments(ev.collect_vars(_var_uses(lhs)), {}):
        rule = _orient(proto, ev.element(lhs, assign), ev.element(rhs, assign))
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


def _orient(proto, lel, rel):
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
    ga, gb = a[0], b[0]
    if ga == gb:
        raise _EvalError("relation digram needs two distinct generators")
    # identify which term is hi*lo (the disordered digram)
    hi, lo, sign = (a, b, 1) if ga > gb else (b, a, -1)
    if proto.gens[hi[0]].grouplike and hi[1] != 1:
        raise _EvalError("declare grouplike relations at power 1")
    if proto.gens[lo[0]].grouplike and lo[1] != 1:
        raise _EvalError("declare grouplike relations at power 1")
    # lel = c1*(a b) - c1*(b a) = sign*c1*(hi lo - lo hi)
    corr_el = rel.scale(_invert_scalar(c1, sign))
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


def _load_bicross(name, fields, env_pres):
    for req in ("total", "ufactor", "tfactor", "action_codomain", "coacted", "missing"):
        if req not in fields:
            raise _EvalError(f"bicross {name}: missing field {req}")

    def choice(key, allowed, message):
        val, tok = fields[key]
        if val not in allowed:
            raise _EvalError(f"bicross {name}: {message}", tok)
        return val

    total, uf, tf = (env_pres[choice(key, env_pres, "unresolved presentation reference")]
                     for key in ("total", "ufactor", "tfactor"))
    ev_total = Evaluator((total,))
    u_embed = _table(uf, fields["uembed"], ev_total)
    t_embed = _table(tf, fields["tembed"], ev_total)

    codomain = choice("action_codomain", ("u", "t"), "action_codomain must be u or t")
    ev_cod = Evaluator((uf if codomain == "u" else tf,))
    action = {}
    for r1, r2, rhs, tok in fields["action"]:
        with _located(tok):
            for gi, a1 in _instantiate_ref(uf, r1):
                for gj, a2 in _instantiate_ref(tf, r2):
                    if all(a1.get(k, v) == v for k, v in a2.items()):
                        action[(gi, gj)] = ev_cod.element(rhs, {**a1, **a2})

    coacted = choice("coacted", ("u", "t"), "coacted must be u or t")
    coaction = _table(uf if coacted == "u" else tf, fields["coaction"], Evaluator((uf, tf)))
    missing = choice("missing", ("one_otimes_x", "x_otimes_one"),
                     "missing must be one_otimes_x or x_otimes_one")

    from .hopf import BicrossData
    return BicrossData(name=name, total=total, u_factor=uf, t_factor=tf,
                       u_embed=u_embed, t_embed=t_embed, action=action,
                       action_codomain=codomain, coaction=coaction,
                       coacted_factor=coacted, coaction_missing=missing)


def _load_comodule(name, fields, env_pres):
    pres = []
    for key in ("group", "space"):
        ref, tok = fields.get(key, (None, None))
        if ref not in env_pres:
            raise _EvalError(f"comodule {name}: unresolved presentation reference", tok)
        pres.append(env_pres[ref])
    group, space = pres
    action = _table(space, fields["action"], Evaluator((group, space)))
    if _uncovered(space, action):
        raise _EvalError(f"comodule {name}: action does not cover {_uncovered(space, action)}")
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
