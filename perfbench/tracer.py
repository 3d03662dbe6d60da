"""Outside-in layer tracer for the kappa_hopf engine.

The tracer replaces each named layer function with a timing wrapper in every
module namespace that bound it (``from .quotient import zero_mod_quotient``
in ``hopf`` is its own binding), and wraps methods on their class.  Nothing
inside ``src/`` changes; the wrappers are removed again by ``uninstall``.

Every wrapped call pushes a frame on one stack, so a layer's self time is
its duration minus the time of the wrapped calls nested in it.  "span"
layers record (name, start, end, parent span) per call; "leaf" layers are
called too often for that and are aggregated per enclosing span instead.
The scalar operators (``GaussianRational``/``Poly`` arithmetic) are not
wrapped: they run millions of times, so their cost stays in the caller's
self time and the scalar layer is seen through ``poly_gcd``,
``poly_exact_div`` and the fixed-input kernels.
"""

from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "kappa_hopf"

# (module, attribute, kind, scope).  scope "all" rebinds every alias of the
# function in the package; "local" wraps only the one binding named: a method
# on its class, or projrep.commutator, which counts the BCH brackets and not
# every commutator.
LAYERS = (
    ("scalars", "poly_gcd", "leaf", "all"),
    ("scalars", "poly_exact_div", "leaf", "all"),
    ("ncalg", "normal_order", "span", "all"),
    ("ncalg", "h_expand_raw", "span", "all"),
    ("ncalg", "confluence_residual", "span", "all"),
    ("hopf", "evaluate_raw", "span", "all"),
    ("hopf", "apply_coproduct", "span", "all"),
    ("hopf", "apply_antipode", "span", "all"),
    ("quotient", "zero_mod_quotient", "span", "all"),
    ("quotient", "prefilter_zero", "span", "all"),
    ("quotient", "cayley_data", "span", "all"),
    ("projrep", "bch_combine_exponents", "span", "all"),
    ("projrep", "commutator", "leaf", "local"),
    ("projrep", "rep_compose_check", "span", "all"),
    ("duality", "PairingEngine.sweep", "span", "local"),
    ("duality", "pair_word", "span", "all"),
    ("cohom", "CoboundarySolver.solve", "span", "local"),
    ("dsl", "parse_source", "span", "all"),
    ("models", "load_model", "span", "all"),
)


class LayerStat:
    __slots__ = ("calls", "self_s", "incl_s", "depth", "terms_out",
                 "monomial", "nonzero", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0
        self.terms_out = 0
        self.monomial = 0
        self.nonzero = 0
        self.distinct = set()


def _binding(mod_name, attr):
    """(namespace, key) of the named binding: a module or class attribute."""
    owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def _ratio(num, den):
    return num / den if den else 0.0


# per-layer argument/result observers; they define the counted ratios
def _gcd_args(stat, args):
    if any(len(getattr(a, "terms", ())) == 1 for a in args[:2]):
        stat.monomial += 1


def _zero_test_args(stat, args):
    if not args[0].is_zero():
        stat.nonzero += 1
        stat.distinct.add(args[0])


def _distinct_args(stat, args):
    stat.distinct.add(args)


def _terms_out(stat, result):
    stat.terms_out += len(result.terms)


ARG_OBSERVERS = {
    "scalars.poly_gcd": _gcd_args,
    "quotient.zero_mod_quotient": _zero_test_args,
    "projrep.bch_combine_exponents": _distinct_args,
    "projrep.commutator": _distinct_args,
}
RESULT_OBSERVERS = {
    "ncalg.normal_order": _terms_out,
    "ncalg.h_expand_raw": _terms_out,
}


class Tracer:
    def __init__(self):
        self.stack = []      # open frames: [child seconds, span id]
        self.spans = []      # (name, start, end, parent span id or -1)
        self.leaves = {}     # (parent span id, name) -> [calls, seconds]
        self.stats = {}
        self._originals = {}  # layer name -> unwrapped function
        self._patches = []    # (namespace, attribute, original)
        self._wrappers = {}

    # -- wrapping -------------------------------------------------------
    def _wrapper(self, name, fn, kind):
        stat = self.stats.setdefault(name, LayerStat())
        on_args = ARG_OBSERVERS.get(name)
        on_result = RESULT_OBSERVERS.get(name)
        is_span = kind == "span"
        stack, spans, leaves = self.stack, self.spans, self.leaves
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_args is not None:
                on_args(stat, args)
            parent = stack[-1][1] if stack else -1
            if is_span:
                span = len(spans)
                spans.append(None)
            else:
                span = parent
            frame = [0.0, span]
            stack.append(frame)
            stat.depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                stat.depth -= 1
                dur = t1 - t0
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if stat.depth == 0:
                    stat.incl_s += dur
                if stack:
                    stack[-1][0] += dur
                if is_span:
                    spans[span] = (name, t0, t1, parent)
                else:
                    agg = leaves.setdefault((parent, name), [0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
            if on_result is not None:
                on_result(stat, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _package_modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, kind, scope in LAYERS:
            name = f"{mod_name}.{attr}"
            owner, key = _binding(mod_name, attr)
            if name not in self._wrappers:  # a reinstall keeps the same wrappers
                self._originals[name] = owner.__dict__[key]
                self._wrappers[name] = self._wrapper(name, self._originals[name], kind)
            original, wrapper = self._originals[name], self._wrappers[name]
            if scope == "local":
                self._patch(owner, key, wrapper)
                continue
            for ns in self._package_modules():
                for k, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, k, wrapper)
        escaped = self.escaped()
        if escaped:
            self.uninstall()
            raise RuntimeError(f"untraced aliases of layer functions: {escaped}")

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def escaped(self):
        """Bindings of a named layer function that are not its wrapper."""
        out = []
        for mod_name, attr, _, scope in LAYERS:
            name = f"{mod_name}.{attr}"
            if scope == "local":
                owner, key = _binding(mod_name, attr)
                if owner.__dict__[key] is not self._wrappers[name]:
                    out.append(name)
                continue
            for ns in self._package_modules():
                out.extend(f"{ns.__name__}.{key}" for key, value in vars(ns).items()
                           if value is self._originals[name])
        return out

    # -- results ----------------------------------------------------------
    def metrics(self):
        """The per-layer metrics by name (counts, seconds and ratios)."""
        s = self.stats
        out = {}
        for name, stat in sorted(s.items()):
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.incl_s"] = stat.incl_s
        out["scalars.poly_gcd.monomial_ratio"] = _ratio(
            s["scalars.poly_gcd"].monomial, s["scalars.poly_gcd"].calls)
        zq = s["quotient.zero_mod_quotient"]
        out["quotient.zero_mod_quotient.distinct_ratio"] = _ratio(len(zq.distinct), zq.nonzero)
        for name in ("projrep.bch_combine_exponents", "projrep.commutator"):
            out[f"{name}.distinct_ratio"] = _ratio(len(s[name].distinct), s[name].calls)
        for name in RESULT_OBSERVERS:
            out[f"{name}.terms_out"] = s[name].terms_out
        return out

    def write_spans(self, path):
        """Spans and per-span leaf aggregates as tab-separated text."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{t0 - t_base:.9f}\t{t1 - t_base:.9f}\n")
            fh.write("\nparent\tleaf\tcalls\tseconds\n")
            for (parent, name), (calls, secs) in sorted(self.leaves.items()):
                fh.write(f"{parent}\t{name}\t{calls}\t{secs:.9f}\n")
