"""Shipped model catalog.

Every structure the engine verifies is written in the .hopf DSL and lives
under models/ in this package, one structure with its factors per file; each
relation in the files carries a comment naming the structure it encodes.

A file may name the presentations of the files it depends on
(FILE_DEPENDENCIES).  `load_model` loads the requested file after its
dependencies and nothing else, so the first load of the kappa algebra parses
one file and the first load of the spacetime comodule two.  Every parse
(dogfooding the parser) is cached by the text and by the presentations it
was loaded over: a text is parsed once per process, and an edited override
file is parsed again.  The first load of a file runs that file's cheap
structural self-test.  Presentations are immutable after construction, so
every caller shares the cached ones.
"""

from __future__ import annotations

from importlib import resources

from .dsl import DslError, ModelModule, parse_declarations, parse_source
from .ncalg import (
    clone_presentation,
    commutator,
    h_expand,
    h_expand_raw,
    normal_order,
)

# every shipped file, with every name it declares; an override whose
# declarations match any of these replaces that file
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

# every shipped file, with the files whose presentations it names; a file is
# loaded over the presentations of these
FILE_DEPENDENCIES = {
    "galilei_algebra_kappa.hopf": (),
    "galilei_algebra_classical.hopf": (),
    "galilei_algebra_2d_classical.hopf": (),
    "casimirs.hopf": ("galilei_algebra_kappa.hopf",),
    "tilde_bicross.hopf": ("galilei_algebra_kappa.hopf",),
    "galilei_group_kappa.hopf": (),
    "group_bicross.hopf": ("galilei_group_kappa.hopf",),
    "spacetime.hopf": ("galilei_group_kappa.hopf",),
    "galilei_group_2d.hopf": (),
}

CATALOG_NAMES = tuple(f.rsplit(".", 1)[0] for f in FILE_DECLARATIONS)

# the declaration kinds whose names select the file an override replaces
OVERRIDE_KINDS = ("presentation", "element", "bicross", "comodule")


class ModelError(ValueError):
    pass


def _read_model_text(filename):
    return resources.files("kappa_hopf").joinpath("models").joinpath(filename).read_text()


def read_variant_text(filename):
    return resources.files("kappa_hopf").joinpath("models/variants").joinpath(filename).read_text()


# (path, text, (name, id) of each presentation loaded over, hook) ->
# (those presentations, ModelModule).  An entry holds its presentations, so
# the ids in its key are not reused by other objects while it lives.
_PARSED = {}


def _parse(text, path, env=None, hook=None, declarations=None):
    """The ModelModule of text loaded over the presentations env ({name:
    Presentation}), parsed once per key of _PARSED.  hook runs once on the
    fresh module, before it is cached: a file's self-test, or a step whose
    result the cached module keeps."""
    env = env or {}
    key = (path, text, tuple((name, id(p)) for name, p in env.items()), hook)
    hit = _PARSED.get(key)
    if hit is None:
        module, diags = parse_source(text, path, env=ModelModule(presentations=env),
                                     declarations=declarations)
        if module is None:
            raise DslError(diags)
        if hook is not None:
            hook(module)
        hit = _PARSED[key] = (env, module)
    return hit[1]


def _override_texts(overrides):
    """{catalog file: (path, text)} of the files that overrides ({declared
    name: path}) replace.  Every file is read, so an edited one is seen."""
    texts = {}
    for name, path in (overrides or {}).items():
        hits = [f for f, decls in FILE_DECLARATIONS.items()
                if name in decls or name == f.rsplit(".", 1)[0]]
        if not hits:
            raise ModelError(f"unknown model override name: {name!r}")
        with open(path) as fh:
            texts[hits[0]] = (str(path), fh.read())
    return texts


def _load_file(filename, texts, declarations=None):
    """The ModelModule of one catalog file, or of the override text that
    texts (see _override_texts) holds for it, loaded over its dependencies.
    declarations: {(path, text): parsed declarations} of override texts."""
    env = {}
    for dep in FILE_DEPENDENCIES[filename]:
        env.update(_load_file(dep, texts, declarations).presentations)
    path, text = texts.get(filename) or (filename, _read_model_text(filename))
    return _parse(text, path, env, SELFTESTS.get(filename),
                  (declarations or {}).get((path, text)))


def resolve_overrides(paths):
    """{declared name: path} for override files given by path.  Each file is
    parsed once: its declarations name the catalog files it replaces, and
    those files are loaded here, with their dependencies, into the cache
    that load_model reads.  A broken override therefore fails here even
    when nothing loads it later."""
    overrides = {}
    declarations = {}
    for path in paths:
        with open(path) as fh:
            text = fh.read()
        decls, diags = parse_declarations(text, str(path))
        if diags:
            raise DslError(diags)
        names = [d[1] for d in decls if d[0] in OVERRIDE_KINDS]
        if not names:
            raise ModelError(f"{path}: no loadable declaration found")
        declarations[str(path), text] = decls
        for name in names:
            overrides[name] = path
    texts = _override_texts(overrides)
    for filename in texts:
        _load_file(filename, texts, declarations)
    return overrides


def load_model(name, overrides=None):
    """Catalog lookup; returns a Presentation, a Casimir dict, a BicrossData
    or a comodule bundle depending on the name.  Only the model's own file
    and its dependencies are loaded."""
    if name not in CATALOG_NAMES:
        raise ModelError(f"unknown model {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    module = _load_file(name + ".hopf", _override_texts(overrides))
    if name == "casimirs":
        return {el_name: el for el_name, (_, el) in module.elements.items()}
    for table in (module.presentations, module.bicross, module.comodules):
        if name in table:
            return table[name]
    raise ModelError(f"model {name!r} missing from shipped files")


def load_printed_variant():
    """The Eq.-1 presentation with the [L,L] bracket exactly as printed
    (no factor i); used to surface the paper's internal inconsistency."""
    module = _parse(read_variant_text("galilei_algebra_kappa_printed.hopf"),
                    "variants/galilei_algebra_kappa_printed.hopf")
    return module.presentations["galilei_algebra_kappa_printed"]


def _normal_order_elements(module):
    module.elements = {name: (pres, normal_order(el))
                       for name, (pres, el) in module.elements.items()}


def load_casimirs_in(p):
    """C1 and C2 of the shipped casimirs.hopf with galilei_algebra_kappa
    bound to the Eq.-1-shaped presentation p (e.g. the printed variant),
    normal-ordered in p once per p."""
    module = _parse(_read_model_text("casimirs.hopf"), "casimirs.hopf",
                    {"galilei_algebra_kappa": p}, _normal_order_elements)
    return {name: el for name, (_, el) in module.elements.items()}


def strip_quotient(p):
    """Same presentation without the implied R-orthogonality quotient."""
    return clone_presentation(p, name=p.name + "_no_orthogonality", quotient=None)


def _selftest_kappa(module):
    """The L-E rewrite rule is derived, not postulated: re-derive it by series."""
    kappa = module.presentations["galilei_algebra_kappa"]
    ee = kappa.gen_element("EE")
    for i in (1, 2, 3):
        li = kappa.gen_element("L", (i,))
        formal = commutator(li, ee)
        via_series = normal_order(h_expand_raw(li * ee - ee * li, 3))
        if h_expand(formal, 3) != via_series:
            raise ModelError(f"L[{i}]-EE rule fails its series re-derivation")


def _selftest_casimirs(module):
    if not {"C1", "C2"} <= set(module.elements):
        raise ModelError("casimirs model must define C1 and C2")


def _selftest_group(module):
    if module.presentations["galilei_group_kappa"].quotient is None:
        raise ModelError("group model must carry the implied orthogonality quotient")


# the structural self-test of each file, run when the file is first loaded
SELFTESTS = {
    "galilei_algebra_kappa.hopf": _selftest_kappa,
    "casimirs.hopf": _selftest_casimirs,
    "galilei_group_kappa.hopf": _selftest_group,
}


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
