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

Two catalog names have no file (DERIVED): the classical Galilei algebra, the
kappa -> infinity limit of the shipped kappa algebra, and the 1+1 classical
Galilei algebra, the sub-Hopf algebra of that limit on L[1], P[1] and P0.
They, the printed Eq.-1 variant (load_printed_variant) and the quotient-free
clone of a presentation (strip_quotient) are derived in code, once each, not
written out again.  An override file that declares a derived name replaces
the derivation.  Override files are read as UTF-8.
"""

from __future__ import annotations

from functools import cache
from importlib import resources

from . import dsl, ncalg
from .dsl import DslError, ModelModule, parse_declarations
from .ncalg import (
    clone_presentation,
    commutator,
    h_expand,
)
from .scalars import GR_I

# every shipped file, with every name it declares; an override whose
# declarations match any of these replaces that file
FILE_DECLARATIONS = {
    "galilei_algebra_kappa.hopf": ("galilei_algebra_kappa",),
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
    "casimirs.hopf": ("galilei_algebra_kappa.hopf",),
    "tilde_bicross.hopf": ("galilei_algebra_kappa.hopf",),
    "galilei_group_kappa.hopf": (),
    "group_bicross.hopf": ("galilei_group_kappa.hopf",),
    "spacetime.hopf": ("galilei_group_kappa.hopf",),
    "galilei_group_2d.hopf": (),
}


@cache
def _classical_galilei():
    """The kappa -> infinity limit of the shipped galilei_algebra_kappa (never
    an override).  hopf is imported on the first call, so that a load of the
    kappa algebra alone does not compile it."""
    from .hopf import classical_limit

    return classical_limit(load_model("galilei_algebra_kappa"), name="galilei_algebra_classical")


@cache
def _classical_galilei_2d():
    """The 1+1 classical Galilei algebra: the sub-Hopf algebra of the kappa ->
    infinity limit of the shipped galilei_algebra_kappa (never an override)
    on boost L[1], momentum P[1] and energy P0, renamed L, P and P0."""
    from .hopf import classical_limit

    return classical_limit(load_model("galilei_algebra_kappa"), name="galilei_algebra_2d_classical",
                           gens={"L[1]": "L", "P[1]": "P", "P0": "P0"})


# the catalog names derived in code, with their derivations; an override file
# that declares one of these names stands alone, with no dependencies
DERIVED = {"galilei_algebra_classical": _classical_galilei,
           "galilei_algebra_2d_classical": _classical_galilei_2d}

CATALOG_NAMES = tuple(f.rsplit(".", 1)[0] for f in FILE_DECLARATIONS) + tuple(DERIVED)

# the declaration kinds whose names select the file an override replaces
OVERRIDE_KINDS = ("presentation", "element", "bicross", "comodule")


class ModelError(ValueError):
    pass


def _read_model_text(filename):
    return resources.files("kappa_hopf").joinpath("models").joinpath(filename).read_text()


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
        module, diags = dsl.parse_source(text, path, env=ModelModule(presentations=env),
                                         declarations=declarations)
        if module is None:
            raise DslError(diags)
        if hook is not None:
            hook(module)
        hit = _PARSED[key] = (env, module)
    return hit[1]


def _read_override(path):
    """The text of an override file; one that is not UTF-8 is a model error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ModelError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _override_texts(overrides):
    """{catalog file: (path, text)} of the files that overrides ({declared
    name: path}) replace, a derived name keyed as the file it would have
    (name + ".hopf").  Every file is read, so an edited one is seen."""
    texts = {}
    for name, path in (overrides or {}).items():
        hits = [name + ".hopf"] if name in DERIVED else [
            f for f, decls in FILE_DECLARATIONS.items()
            if name in decls or name == f.rsplit(".", 1)[0]]
        if not hits:
            raise ModelError(f"unknown model override name: {name!r}")
        texts[hits[0]] = (str(path), _read_override(path))
    return texts


def _load_file(filename, texts, declarations=None):
    """The ModelModule of one catalog file, or of the override text that
    texts (see _override_texts) holds for it, loaded over its dependencies.
    declarations: {(path, text): parsed declarations} of override texts."""
    env = {}
    for dep in FILE_DEPENDENCIES.get(filename, ()):
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
        text = _read_override(path)
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
    and its dependencies are loaded; a derived name without an override is
    derived instead."""
    if name not in CATALOG_NAMES:
        raise ModelError(f"unknown model {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    texts = _override_texts(overrides)
    if name in DERIVED and name + ".hopf" not in texts:
        return DERIVED[name]()
    module = _load_file(name + ".hopf", texts)
    if name == "casimirs":
        return dict(module.elements)
    for table in (module.presentations, module.bicross, module.comodules):
        if name in table:
            return table[name]
    raise ModelError(f"model {name!r} missing from shipped files")


@cache
def load_printed_variant():
    """The Eq.-1 presentation with the [L_i,L_j] bracket exactly as the paper
    prints it, without the factor i: the shipped galilei_algebra_kappa (never
    an override) with each L*L rule correction times -i.  Confluence still
    holds (Jacobi is insensitive to the overall normalization of this
    bracket), but the coproduct is then not an algebra map, C2 of Eq. 2 is
    not central, and the tilde boosts of Eq. 3 no longer commute; the algebra
    and casimirs suites surface those residuals as findings."""
    kappa = load_model("galilei_algebra_kappa")
    rules = {key: tuple((c.scale(-GR_I), w) for c, w in corr)
             if all(kappa.gens[gi].name == "L" for gi in key) else corr
             for key, corr in kappa.rules.items()}
    return clone_presentation(kappa, name="galilei_algebra_kappa_printed", rules=rules)


def _normal_order_elements(module):
    module.elements = {name: ncalg.normal_order(el) for name, el in module.elements.items()}


def load_casimirs_in(p):
    """C1 and C2 of the shipped casimirs.hopf with galilei_algebra_kappa
    bound to the Eq.-1-shaped presentation p (e.g. the printed variant),
    normal-ordered in p once per p."""
    module = _parse(_read_model_text("casimirs.hopf"), "casimirs.hopf",
                    {"galilei_algebra_kappa": p}, _normal_order_elements)
    return dict(module.elements)


@cache
def strip_quotient(p):
    """Same presentation without the implied R-orthogonality quotient, cloned
    once per p (an equal p shares the clone): a clone per call would leave its
    reference cycles with its Hopf data to the cyclic collector."""
    return clone_presentation(p, name=p.name + "_no_orthogonality", quotient=None)


def _selftest_kappa(module):
    """The L-E rewrite rule is derived, not postulated: re-derive it by series."""
    kappa = module.presentations["galilei_algebra_kappa"]
    ee = kappa.gen_element("EE")
    for i in (1, 2, 3):
        li = kappa.gen_element("L", (i,))
        formal = commutator(li, ee)
        via_series = ncalg.normal_order(ncalg.h_expand_raw(li * ee - ee * li, 3))
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
