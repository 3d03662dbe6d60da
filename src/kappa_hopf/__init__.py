"""kappa-hopf: exact symbolic verification of the kappa-deformed Galilei
algebra and group.

The package represents finitely presented noncommutative algebras with Hopf
structure, normal-orders expressions exactly over Gaussian rationals, and
mechanically verifies the structure's identities: Hopf axioms, Casimir
centrality, bicrossproduct reconstructions, cocommutator and r-matrix
claims, duality-pairing Poisson brackets, and the projective-representation
multiplier of the two-dimensional quantum Galilei group, order by order in
the deformation parameter h = 1/kappa.
"""

from .scalars import (
    GaussianRational,
    HSeries,
    Poly,
    Rational,
    RationalFn,
    SeriesDomainError,
    series_exp,
    series_log1p,
)
from .ncalg import (
    DivergenceError,
    GenDecl,
    HopfData,
    LimitError,
    NCElement,
    Presentation,
    PresentationError,
    TensorContext,
    clone_presentation,
    commutator,
    confluence_residual,
    confluence_triples,
    h_expand,
    normal_order,
    substitute,
)
from .quotient import equal_mod_quotient, zero_mod_quotient
from .hopf import (
    BicrossData,
    Wedge,
    apply_antipode,
    apply_coproduct,
    apply_counit,
    classical_limit,
    cocommutator,
    coproduct,
    verify_bialgebra,
    verify_bicross,
    verify_casimir,
    verify_comodule,
)
from .cohom import (
    H2Result,
    LieData,
    LinearCertificate,
    co_jacobi_check,
    coboundary_of,
    lie_h2,
    solve_coboundary,
)
from .duality import (
    MatrixModel,
    PairingEngine,
    PoissonQuery,
    model_4d,
    pair,
    poisson_family_verify,
    poisson_verify,
    quantization_crosscheck,
)
from .projrep import (
    ExpFactor,
    ExpProduct,
    bch_combine,
    build_omega,
    cocycle_residual,
    cocycle_residual_for_omega,
    conjugate,
    phi1_particular,
    phi1_residual,
    rep_apply,
    rep_compose_check,
    triviality_probe,
)
from .dsl import Diagnostic, DslError, parse_presentation, parse_source, print_presentation
from .models import load_model, load_printed_variant, strip_quotient
from .report import Check, VerificationReport
from .suites import SuiteConfig, run_suite

__version__ = "0.1.0"
