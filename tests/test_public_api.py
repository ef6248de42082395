"""The package's export list, the parameters of its functions and the
fit configuration's fields, pinned so that any change to them is a diff."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import gmmlor
from gmmlor.projection import log_line_integral_profile

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
    "evaluate_against_truth": ("estimated", "truth"),
    "fit": ("lors", "config", "initial_assignment", "on_iteration"),
    "fit_mean": ("lors", "weights"),
    "invert_moments": ("m", "variance_floor"),
    "kl_divergence": ("estimated", "truth"),
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
        "seed", "restarts",
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


PHI = np.linspace(-1.2, 1.2, 50)
EVENTS = (np.linspace(-0.5, 0.5, 50), PHI)
ROUND = gmmlor.MixtureModel2D(
    (gmmlor.GaussianComponent2D((0.0, 0.0), np.eye(2), 1.0),)
)
ANGLE_FIELDS = ("cos2w", "sin2w", "cos4w", "sin4w", "tcos2w", "tsin2w")

#: Each malformed input to a public entry point, as a call on a scratch
#: directory, with a pattern that its InputError must match: the name of
#: the value it refuses.
MALFORMED = {
    "fit, s of strings": (
        lambda tmp: gmmlor.fit((["a"] * 50, PHI), gmmlor.FitConfig(K=1)),
        "^s "),
    "fit, None": (
        lambda tmp: gmmlor.fit(None, gmmlor.FitConfig(K=1)),
        "LineOfResponse"),
    "fit, ragged rows": (
        lambda tmp: gmmlor.fit([[1, 2], [3]], gmmlor.FitConfig(K=1)),
        "LineOfResponse"),
    "fit_mean, weights of strings": (
        lambda tmp: gmmlor.fit_mean(EVENTS, weights=["a"] * 50),
        "^weights "),
    "write_lors_csv, s of strings": (
        lambda tmp: gmmlor.write_lors_csv(tmp / "lors.csv", ["a"], [0.1]),
        "^s "),
    "density_at_points, a string": (
        lambda tmp: gmmlor.density_at_points(ROUND, [["a", 1]]),
        "^points "),
    "density_at_points, NaN": (
        lambda tmp: gmmlor.density_at_points(ROUND, [[math.nan, 1]]),
        "^points holds non-finite"),
    "center_offsets, a mean of strings": (
        lambda tmp: gmmlor.center_offsets(EVENTS, ["a", "b"]),
        "^mean "),
    "center_offsets, a mean of one number": (
        lambda tmp: gmmlor.center_offsets(EVENTS, [1.0]),
        "^mean "),
    "LineOfResponse, NaN s": (
        lambda tmp: gmmlor.LineOfResponse(math.nan, 0.1), "non-finite"),
    "LineOfResponse, infinite s": (
        lambda tmp: gmmlor.LineOfResponse(math.inf, 0.1), "non-finite"),
    "LineOfResponse, s a string": (
        lambda tmp: gmmlor.LineOfResponse("abc", 0.1), r"^\(s, phi\) "),
    "EigenDecomposition2D, infinite sigma1_sq": (
        lambda tmp: gmmlor.EigenDecomposition2D(math.inf, 1.0, 0.1),
        "^sigma1_sq "),
    "EigenDecomposition2D, NaN phi0": (
        lambda tmp: gmmlor.EigenDecomposition2D(2.0, 1.0, math.nan),
        "^phi0 "),
    "EigenDecomposition2D, infinite phi0": (
        lambda tmp: gmmlor.EigenDecomposition2D(2.0, 1.0, math.inf),
        "^phi0 "),
    "EigenDecomposition2D, phi0 a string": (
        lambda tmp: gmmlor.EigenDecomposition2D(2.0, 1.0, "0.1"),
        "^phi0 "),
    **{
        f"WeightedMoments, NaN {field}": (
            lambda tmp, field=field: gmmlor.WeightedMoments(
                0.1, 0.05, 1.0, **{field: math.nan}),
            f"^{field} ")
        for field in ANGLE_FIELDS
    },
    "WeightedMoments, sin4w a string": (
        lambda tmp: gmmlor.WeightedMoments(0.1, 0.05, 1.0, sin4w="0"),
        "^sin4w "),
    "projection_variance, a covariance holding a string": (
        lambda tmp: gmmlor.projection_variance([[1, "a"], [0, 1]], 0.1),
        "^covariance "),
    "projection_variance, an infinite covariance": (
        lambda tmp: gmmlor.projection_variance([[math.inf, 0], [0, 1]], 0.1),
        "^covariance holds non-finite"),
    "projection_variance, phi of strings": (
        lambda tmp: gmmlor.projection_variance(np.eye(2), ["x"]), "^phi "),
    "projection_variance, NaN phi": (
        lambda tmp: gmmlor.projection_variance(np.eye(2), math.nan),
        "^phi holds non-finite"),
    "mean_sinusoid, a mean of strings": (
        lambda tmp: gmmlor.mean_sinusoid([0.1], ["a", "b"]), "^mean "),
    "mean_sinusoid, a mean of one number": (
        lambda tmp: gmmlor.mean_sinusoid([0.1], [1.0]), "^mean "),
    "mean_sinusoid, a NaN mean": (
        lambda tmp: gmmlor.mean_sinusoid([0.1], [math.nan, 0]),
        "^mean holds non-finite"),
    "log_line_integral_profile, NaN s": (
        lambda tmp: log_line_integral_profile(
            np.eye(2), [0, 0], [math.nan], [0.1]),
        "^s holds non-finite"),
    "log_line_integral_profile, an infinite covariance": (
        lambda tmp: log_line_integral_profile(
            [[1, 0], [0, math.inf]], [0, 0], [0.0], [0.1]),
        "^covariance holds non-finite"),
}


@pytest.mark.parametrize("call, match", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_is_an_input_error(tmp_path, call, match):
    with pytest.raises(gmmlor.InputError, match=match):
        call(tmp_path)
