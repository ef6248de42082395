"""The package's export list, pinned so that any change to it is a diff."""

import pytest

import gmmlor

PUBLIC = {
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
}


def test_exports_are_exactly_the_public_names():
    assert len(PUBLIC) == 53
    assert len(gmmlor.__all__) == len(set(gmmlor.__all__))
    assert set(gmmlor.__all__) == PUBLIC
    assert [name for name in gmmlor.__all__ if not hasattr(gmmlor, name)] == []


@pytest.mark.parametrize("name", [
    "FitState",
    "MembershipMatrix",
    "canonicalize_lor",
    "marginal_pdf_sc",
    "update_memberships",
])
def test_removed_names_are_not_attributes(name):
    assert not hasattr(gmmlor, name)
