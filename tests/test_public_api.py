"""The package's export list, the parameters of its functions and the
fit configuration's fields, pinned so that any change to them is a diff."""

import dataclasses
import inspect

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


PARAMETERS = {
    "canonicalize_orientation": ("phi0",),
    "center_offsets": ("lors", "mean"),
    "config_from_dict": ("mapping", "overrides"),
    "config_to_dict": ("config",),
    "covariance_from_eigen": ("e",),
    "density": ("model", "point"),
    "density_at_points": ("model", "points"),
    "derive_seed": ("master_seed", "index"),
    "eigen_from_covariance": ("c",),
    "estimate_covariance": ("offsets", "weights"),
    "evaluate_against_truth": ("estimated", "truth", "kl_grid"),
    "fit": ("lors", "config", "initial_assignment", "on_iteration"),
    "fit_mean": ("lors", "weights"),
    "invert_moments": ("m", "variance_floor"),
    "kl_divergence": ("estimated", "truth", "grid_n"),
    "load_model": ("path",),
    "match_components": ("estimated", "truth"),
    "mean_sinusoid": ("phi", "mean"),
    "model_from_dict": ("obj",),
    "model_to_dict": ("model",),
    "moments_from_offsets": ("offsets", "weights"),
    "parameter_errors": ("estimated", "truth", "permutation"),
    "projection_variance": ("covariance", "phi"),
    "read_lors_csv": ("path",),
    "refine_sigmas": ("m", "phi0", "variance_floor"),
    "report_to_dict": ("report",),
    "save_model": ("model", "path"),
    "simulate_lors": ("model", "counts", "n_total", "seed", "shuffle"),
    "solve_orientation": ("m", "sigma1_sq", "sigma2_sq"),
    "solve_quartic": ("c4", "c3", "c2", "c1", "c0"),
    "theoretical_moments": ("e",),
    "trace_to_jsonl": ("trace",),
    "write_lors_csv": ("path", "s", "phi", "labels"),
}


def test_public_functions_take_exactly_the_pinned_parameters():
    got = {
        name: tuple(inspect.signature(getattr(gmmlor, name)).parameters)
        for name in gmmlor.__all__
        if inspect.isfunction(getattr(gmmlor, name))
    }
    assert got == PARAMETERS


def test_fit_config_has_exactly_the_pinned_fields():
    assert [field.name for field in dataclasses.fields(gmmlor.FitConfig)] == [
        "K", "max_iters_phase1", "max_iters_phase2", "weight_tol",
        "mean_tol", "variance_floor", "seed", "restarts",
    ]


@pytest.mark.parametrize("name", [
    "FitState",
    "MembershipMatrix",
    "canonicalize_lor",
    "marginal_pdf_sc",
    "update_memberships",
])
def test_removed_names_are_not_attributes(name):
    assert not hasattr(gmmlor, name)
