"""Sparse Gaussian-mixture estimation by total-variation-regularized least
squares over reparametrized component measures, with closed-form kernels,
information-geometric tooling, dual-certificate verification, a conic
particle-descent solver, and Monte-Carlo rate experiments."""

from .measures import (
    DiscreteMeasure,
    DomainBox,
    min_pairwise_semidistance,
    reparametrize,
    tv_norm,
    weight_function,
)
from .kernel import KernelContext, data_witness, lambda_pair
from .geometry import geodesic_spec
from .certificates import (
    CertificateSet,
    CertificateSystem,
    GridSpec,
    LpcConstants,
    NondegeneracyReport,
    SingularSystemError,
    build_upsilon,
    certificate_gradients,
    certificate_values,
    lpc_constants,
    separation_check,
    solve_certificates,
    verify_nondegeneracy,
)
from .solver import (
    ObjectiveContext,
    RecommendedParameters,
    SolverConfig,
    SolverResult,
    acceptance_check,
    cpgd_solve,
    initial_measure,
    objective,
    objective_gradient,
    prune_merge,
    recommended_parameters,
)
from .experiments import (
    ExperimentReport,
    GroundTruthMixture,
    prediction_error,
    rate_sweep,
    region_mass_errors,
    renormalized_mass_errors,
    sample,
    sparsity_check,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteMeasure", "DomainBox", "min_pairwise_semidistance",
    "reparametrize", "tv_norm", "weight_function",
    "KernelContext", "data_witness", "lambda_pair", "geodesic_spec",
    "CertificateSet", "CertificateSystem", "GridSpec", "LpcConstants",
    "NondegeneracyReport", "SingularSystemError", "build_upsilon",
    "certificate_values", "certificate_gradients", "lpc_constants",
    "separation_check", "solve_certificates",
    "verify_nondegeneracy",
    "ObjectiveContext", "RecommendedParameters", "SolverConfig", "SolverResult",
    "acceptance_check", "cpgd_solve", "initial_measure", "objective",
    "objective_gradient", "prune_merge", "recommended_parameters",
    "ExperimentReport", "GroundTruthMixture", "prediction_error", "rate_sweep",
    "region_mass_errors", "renormalized_mass_errors", "sample", "sparsity_check",
    "__version__",
]
