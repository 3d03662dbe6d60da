"""kappa-hopf: exact symbolic verification of the kappa-deformed Galilei
algebra and group.

The package represents finitely presented noncommutative algebras with Hopf
structure, normal-orders expressions exactly over Gaussian rationals, and
mechanically verifies the structure's identities: Hopf axioms, Casimir
centrality, bicrossproduct reconstructions, cocommutator and r-matrix
claims, duality-pairing Poisson brackets, and the projective-representation
multiplier of the two-dimensional quantum Galilei group, order by order in
the deformation parameter h = 1/kappa.

The package is lazy (PEP 562): `import kappa_hopf` runs no submodule, and
reading an exported name or a submodule imports its module on first use.
So `kappa_hopf.load_model(...)` compiles only scalars, ncalg, dsl and
models, and no suite module.  The names are looked up afresh on every read
and never stored here, so each one is bound only in its defining module.
"""

import importlib

# exported name -> defining module, grouped by module
_EXPORTS = {
    "scalars": ("GaussianRational", "HSeries", "Poly", "RationalFn",
                "SeriesDomainError", "series_exp", "series_log1p"),
    "ncalg": ("DivergenceError", "GenDecl", "HopfData", "LimitError", "NCElement",
              "Presentation", "PresentationError", "TensorContext", "clone_presentation",
              "commutator", "confluence_residual", "confluence_triples", "h_expand",
              "normal_order"),
    "quotient": ("equal_mod_quotient", "zero_mod_quotient"),
    "hopf": ("BicrossData", "apply_antipode", "apply_coproduct", "apply_counit",
             "classical_limit", "cocommutator", "coproduct", "verify_bialgebra",
             "verify_bicross", "verify_casimir", "verify_comodule"),
    "cohom": ("H2Result", "LieData", "LinearCertificate", "co_jacobi_check",
              "coboundary_of", "lie_h2", "solve_coboundary"),
    "duality": ("MatrixModel", "PairingEngine", "PoissonQuery", "model_4d", "pair",
                "poisson_family_verify", "quantization_crosscheck"),
    "projrep": ("ExpFactor", "ExpProduct", "bch_combine", "build_omega",
                "cocycle_residual", "phi1_particular", "phi1_residual",
                "rep_apply", "rep_compose_check", "triviality_probe"),
    "dsl": ("Diagnostic", "DslError", "parse_presentation", "parse_source",
            "print_presentation"),
    "models": ("load_model", "load_printed_variant", "strip_quotient"),
    "report": ("Check", "VerificationReport"),
    "suites": ("SuiteConfig", "run_suite"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
