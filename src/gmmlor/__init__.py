"""Continuous Gaussian-mixture reconstruction of 2D activity from
lines of response.

The package models detected coincidence lines in sinogram form (s,
phi) and estimates a mixture of bivariate Gaussians directly from
them, without any intermediate image.  See the README for the CLI and
a worked example.
"""

from .errors import (
    ComponentDeathError,
    DegenerateCovarianceError,
    DegenerateGeometryError,
    GmmLorError,
    InputError,
    NumericalError,
    SingularCovarianceError,
)
from .estimate import (
    DEFAULT_VARIANCE_FLOOR,
    FitConfig,
    FitResult,
    TraceRecord,
    WeightedMoments,
    center_offsets,
    config_from_dict,
    config_to_dict,
    estimate_covariance,
    fit,
    fit_mean,
    invert_moments,
    moments_from_offsets,
    refine_sigmas,
    solve_orientation,
    trace_to_jsonl,
)
from .metrics import (
    FitReport,
    evaluate_against_truth,
    kl_divergence,
    match_components,
    parameter_errors,
    report_to_dict,
)
from .model import (
    FORMAT_VERSION,
    EigenDecomposition2D,
    GaussianComponent2D,
    LineOfResponse,
    MixtureModel2D,
    canonicalize_orientation,
    covariance_from_eigen,
    density,
    density_at_points,
    eigen_from_covariance,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from .projection import (
    mean_sinusoid,
    projection_variance,
    theoretical_moments,
)
from .quartic import solve_quartic
from .rng import SeededStream, derive_seed
from .simulate import (
    SimulationResult,
    read_lors_csv,
    simulate_lors,
    write_lors_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ComponentDeathError",
    "DegenerateCovarianceError",
    "DegenerateGeometryError",
    "EigenDecomposition2D",
    "DEFAULT_VARIANCE_FLOOR",
    "FORMAT_VERSION",
    "FitConfig",
    "FitReport",
    "FitResult",
    "GaussianComponent2D",
    "GmmLorError",
    "InputError",
    "LineOfResponse",
    "MixtureModel2D",
    "NumericalError",
    "SeededStream",
    "SimulationResult",
    "SingularCovarianceError",
    "TraceRecord",
    "WeightedMoments",
    "canonicalize_orientation",
    "center_offsets",
    "config_from_dict",
    "config_to_dict",
    "covariance_from_eigen",
    "density",
    "density_at_points",
    "derive_seed",
    "eigen_from_covariance",
    "estimate_covariance",
    "evaluate_against_truth",
    "fit",
    "fit_mean",
    "invert_moments",
    "kl_divergence",
    "load_model",
    "match_components",
    "mean_sinusoid",
    "model_from_dict",
    "model_to_dict",
    "moments_from_offsets",
    "parameter_errors",
    "projection_variance",
    "report_to_dict",
    "read_lors_csv",
    "refine_sigmas",
    "save_model",
    "simulate_lors",
    "solve_orientation",
    "solve_quartic",
    "theoretical_moments",
    "trace_to_jsonl",
    "write_lors_csv",
]
