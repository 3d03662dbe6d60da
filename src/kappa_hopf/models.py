"""Shipped model catalog.

Every structure the engine verifies is written in the .hopf DSL and lives
under models/ in this package; loading re-parses the files (dogfooding the
parser) and runs cheap structural self-tests.  Each relation in the files
carries a comment naming the structure it encodes.
"""

from __future__ import annotations

from importlib import resources

from .dsl import DslError, ModelModule, parse_source
from .ncalg import (
    clone_presentation,
    commutator,
    h_expand,
    h_expand_raw,
    normal_order,
)

# every shipped file in load order, with every name it declares; an override
# whose declarations match any of these replaces that file
FILE_DECLARATIONS = {
    "galilei_algebra_kappa.hopf": ("galilei_algebra_kappa",),
    "galilei_algebra_classical.hopf": ("galilei_algebra_classical",),
    "galilei_algebra_2d_classical.hopf": ("galilei_algebra_2d_classical",),
    "casimirs.hopf": ("C1", "C2"),
    "tilde_bicross.hopf": ("e3_tilde", "t_translations", "tilde_bicross"),
    "galilei_group_kappa.hopf": ("galilei_group_kappa",),
    "group_bicross.hopf": ("e3_functions", "t_star", "group_bicross"),
    "spacetime.hopf": ("kappa_spacetime", "spacetime"),
    "galilei_group_2d.hopf": ("galilei_group_2d",),
}

CATALOG_NAMES = tuple(f.rsplit(".", 1)[0] for f in FILE_DECLARATIONS)


class ModelError(ValueError):
    pass


def _read_model_text(filename):
    return resources.files("kappa_hopf").joinpath("models").joinpath(filename).read_text()


def read_variant_text(filename):
    return resources.files("kappa_hopf").joinpath("models/variants").joinpath(filename).read_text()


# keyed by the overrides' (name, file content) pairs, so an edited override
# file is parsed again
_CACHE = {}


def _load_all(overrides=None):
    """Parse every shipped file (plus overrides) into one environment."""
    texts = {}
    file_override = {}
    for name, path in (overrides or {}).items():
        hits = [f for f, decls in FILE_DECLARATIONS.items()
                if name in decls or name == f.rsplit(".", 1)[0]]
        if not hits:
            raise ModelError(f"unknown model override name: {name!r}")
        with open(path) as fh:
            texts[name] = fh.read()
        file_override[hits[0]] = texts[name]
    key = tuple(sorted(texts.items()))
    if key in _CACHE:
        return _CACHE[key]
    env = ModelModule()
    for filename in FILE_DECLARATIONS:
        if filename in file_override:
            text = file_override[filename]
            path = f"override:{filename}"
        else:
            text = _read_model_text(filename)
            path = filename
        module, diags = parse_source(text, path, env=env)
        if module is None:
            raise DslError(diags)
        env.presentations.update(module.presentations)
        env.elements.update(module.elements)
        env.maps.update(module.maps)
        env.bicross.update(module.bicross)
        env.comodules.update(module.comodules)
    _selftest(env)
    _CACHE[key] = env
    return env


def load_model(name, overrides=None):
    """Catalog lookup; returns a Presentation, a Casimir dict, a BicrossData
    or a comodule bundle depending on the name."""
    if name not in CATALOG_NAMES:
        raise ModelError(f"unknown model {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    env = _load_all(overrides)
    if name == "casimirs":
        return {el_name: el for el_name, (_, el) in env.elements.items()}
    if name in env.presentations:
        return env.presentations[name]
    if name in env.bicross:
        return env.bicross[name]
    if name in env.comodules:
        return env.comodules[name]
    raise ModelError(f"model {name!r} missing from shipped files")


def load_printed_variant():
    """The Eq.-1 presentation with the [L,L] bracket exactly as printed
    (no factor i); used to surface the paper's internal inconsistency."""
    module, diags = parse_source(
        read_variant_text("galilei_algebra_kappa_printed.hopf"),
        "variants/galilei_algebra_kappa_printed.hopf")
    if module is None:
        raise DslError(diags)
    return module.presentations["galilei_algebra_kappa_printed"]


def load_casimirs_in(p):
    """C1 and C2 of the shipped casimirs.hopf with galilei_algebra_kappa
    bound to the Eq.-1-shaped presentation p (e.g. the printed variant),
    normal-ordered in p."""
    env = ModelModule(presentations={"galilei_algebra_kappa": p})
    module, diags = parse_source(_read_model_text("casimirs.hopf"), "casimirs.hopf", env=env)
    if module is None:
        raise DslError(diags)
    return {name: normal_order(el) for name, (_, el) in module.elements.items()}


def strip_quotient(p):
    """Same presentation without the implied R-orthogonality quotient."""
    return clone_presentation(p, name=p.name + "_no_orthogonality", quotient=None)


def _selftest(env):
    """Startup self-tests: cheap invariants every load re-establishes."""
    kappa = env.presentations["galilei_algebra_kappa"]
    # The L-E rewrite rule is derived, not postulated: re-derive it by series.
    ee = kappa.gen_element("EE")
    for i in (1, 2, 3):
        li = kappa.gen_element("L", (i,))
        formal = commutator(li, ee)
        via_series = normal_order(h_expand_raw(li * ee - ee * li, 3))
        if h_expand(formal, 3) != via_series:
            raise ModelError(f"L[{i}]-EE rule fails its series re-derivation")
    cas = {name: el for name, (_, el) in env.elements.items()}
    if set(cas) < {"C1", "C2"}:
        raise ModelError("casimirs model must define C1 and C2")
    group = env.presentations["galilei_group_kappa"]
    if group.quotient is None:
        raise ModelError("group model must carry the implied orthogonality quotient")


def reduce_group_to_2d(group_4d, target_2d):
    """Dimensional reduction of the 4D group model: drop rotations and the
    indices 2,3, map v[1] -> v, a[1] -> a.  Returns the reduced rule table
    keyed like the 2D model's for cross-model comparison."""
    keep = {
        group_4d.gen_index("v", (1,)): target_2d.gen_index("v"),
        group_4d.gen_index("a", (1,)): target_2d.gen_index("a"),
        group_4d.gen_index("tau"): target_2d.gen_index("tau"),
    }
    rules = {}
    for (hi, lo), corr in group_4d.rules.items():
        if hi not in keep or lo not in keep:
            continue
        ncorr = []
        for c, w in corr:
            if any(gi not in keep for gi, _ in w):
                # dropped components (v2, v3, ...) are set to zero
                continue
            ncorr.append((c, tuple((keep[gi], pw) for gi, pw in w)))
        key = (keep[hi], keep[lo])
        if key[0] < key[1]:
            continue
        rules[key] = tuple(ncorr)
    return rules
