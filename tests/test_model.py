"""Model containers: components, mixtures, eigen forms, LoR canonicalization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gmmlor
from gmmlor import (
    GaussianComponent2D,
    InputError,
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
from gmmlor.model import _sym2_eigenvalues
from conftest import MALFORMED_MODELS, UNPARSABLE_JSON, make_component


def random_spd(rng, scale=1.0):
    a = rng.normal(size=(2, 2)) * scale
    return a @ a.T + 1e-3 * scale**2 * np.eye(2)


# ---------------------------------------------------------------- validation

def test_component_rejects_indefinite_covariance():
    with pytest.raises(InputError):
        GaussianComponent2D(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)


def test_component_rejects_asymmetric_covariance():
    with pytest.raises(InputError):
        GaussianComponent2D(np.zeros(2), np.array([[1.0, 0.2], [0.1, 1.0]]), 1.0)


def tilted_covariance(lo, turn):
    """R diag(1, lo) R^T for the rotation R by ``turn``, exactly
    symmetric; ``lo`` may be negative."""
    co, si = math.cos(turn), math.sin(turn)
    off = (1.0 - lo) * si * co
    return np.array([
        [co * co + lo * si * si, off],
        [off, si * si + lo * co * co],
    ])


@pytest.mark.parametrize("turn", [0.0, math.pi / 4, 1.1])
def test_component_psd_check_forgives_rounding_only(turn):
    # the tolerance is 1e-12 of the trace, here 1
    GaussianComponent2D(np.zeros(2), tilted_covariance(-5e-13, turn), 1.0)
    with pytest.raises(InputError, match="not PSD"):
        GaussianComponent2D(np.zeros(2), tilted_covariance(-2e-12, turn), 1.0)


@pytest.mark.parametrize("turn", [0.0, math.pi / 4, 1.1])
def test_components_and_eigensystems_share_one_psd_check(turn):
    # the same covariances pass and fail both, in the same words, and a
    # minor eigenvalue within rounding of 0 is taken as 0
    within = tilted_covariance(-5e-13, turn)
    GaussianComponent2D(np.zeros(2), within, 1.0)
    assert eigen_from_covariance(within).sigma2_sq == 0.0
    refused = [
        (tilted_covariance(-2e-12, turn), "not PSD"),
        (np.array([[1.0, 0.2], [0.1, 1.0]]), "not symmetric"),
    ]
    for cov, message in refused:
        with pytest.raises(InputError, match=message):
            GaussianComponent2D(np.zeros(2), cov, 1.0)
        with pytest.raises(InputError, match=message):
            eigen_from_covariance(cov)


def test_component_rejects_bad_weight():
    with pytest.raises(InputError):
        make_component((0, 0), np.eye(2), 0.0)
    with pytest.raises(InputError):
        make_component((0, 0), np.eye(2), -0.3)
    with pytest.raises(InputError):
        MixtureModel2D((make_component((0, 0), np.eye(2), 1.5),))


def test_component_rejects_nonfinite_mean():
    with pytest.raises(InputError):
        make_component((np.nan, 0.0), np.eye(2), 1.0)


def test_mixture_rejects_weights_not_summing_to_one():
    comps = (
        make_component((0, 0), np.eye(2), 0.5),
        make_component((1, 1), np.eye(2), 0.4),
    )
    with pytest.raises(InputError):
        MixtureModel2D(comps)


def test_mixture_rejects_empty():
    with pytest.raises(InputError):
        MixtureModel2D(())


def test_weights_accessor(benchmark_mixture):
    w = benchmark_mixture.weights
    assert np.allclose(w, [0.5, 2.5 / 7.0, 1.0 / 7.0], rtol=0, atol=1e-15)
    assert abs(math.fsum(w) - 1.0) < 1e-12


# ------------------------------------------------------------------- density

def test_density_oracle_value(benchmark_mixture):
    # independently computed with scipy.stats.multivariate_normal
    val = density(benchmark_mixture, (1.25, -1.0))
    assert val == pytest.approx(1.1917122411101275, rel=1e-12)


def test_density_is_weighted_sum_of_components(benchmark_mixture):
    rng = np.random.default_rng(42)
    for _ in range(50):
        pt = rng.normal(size=2) * 1.5
        total = 0.0
        for comp in benchmark_mixture.components:
            solo = MixtureModel2D((make_component(comp.mean, comp.covariance, 1.0),))
            total += comp.weight * density(solo, pt)
        assert density(benchmark_mixture, pt) == pytest.approx(total, rel=1e-12)


def test_density_at_points_matches_scalar(benchmark_mixture):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 2))
    vals = density_at_points(benchmark_mixture, pts)
    assert vals.shape == (40,)
    for p, v in zip(pts, vals):
        assert v == pytest.approx(density(benchmark_mixture, p), rel=1e-13)


def test_density_of_singular_component_raises():
    comp = GaussianComponent2D(np.zeros(2), np.zeros((2, 2)), 1.0)
    model = MixtureModel2D((comp,))
    with pytest.raises(gmmlor.SingularCovarianceError):
        density(model, (0.0, 0.0))


# ----------------------------------------------------------------- eigen form

def test_eigen_oracle_tilted_covariance():
    c = np.array([[0.04, 0.03], [0.03, 0.09]])
    e = eigen_from_covariance(c)
    assert e.sigma1_sq == pytest.approx(0.10405124837953328, rel=1e-12)
    assert e.sigma2_sq == pytest.approx(0.025948751620466726, rel=1e-12)
    assert e.phi0 == pytest.approx(1.1327673014958, rel=1e-10)


def test_eigen_roundtrip_random_spd():
    rng = np.random.default_rng(314)
    for _ in range(500):
        c = random_spd(rng, scale=rng.uniform(0.05, 3.0))
        e = eigen_from_covariance(c)
        assert e.sigma1_sq >= e.sigma2_sq > 0.0
        back = covariance_from_eigen(e)
        assert np.allclose(back, c, rtol=1e-12, atol=1e-14 * np.abs(c).max())


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_sym2_eigenvalues_match_eigvalsh(seed, scale):
    c = random_spd(np.random.default_rng(seed), scale)
    lo, hi = _sym2_eigenvalues(c[0, 0], c[0, 1], c[1, 1])
    want = np.linalg.eigvalsh(c)
    assert lo <= hi
    assert np.allclose((lo, hi), want, rtol=0.0, atol=1e-14 * want[1])


def test_eigen_isotropic_angle_is_zero():
    e = eigen_from_covariance(0.0625 * np.eye(2))
    assert e.sigma1_sq == e.sigma2_sq == 0.0625
    assert e.phi0 == 0.0


# --------------------------------------------------------- LoR canonical form

def test_canonicalize_lor_preserves_the_line():
    rng = np.random.default_rng(99)
    for _ in range(300):
        s = rng.normal() * 3.0
        phi = rng.uniform(-4 * math.pi, 4 * math.pi)
        lor = LineOfResponse(s, phi)
        s2, phi2 = lor.s, lor.phi
        assert -math.pi / 2 <= phi2 <= math.pi / 2
        # any point on the original line stays on the canonical one
        n = np.array([-math.sin(phi), math.cos(phi)])
        d = np.array([math.cos(phi), math.sin(phi)])
        for t in (-1.7, 0.0, 2.3):
            x, y = s * n + t * d
            assert -x * math.sin(phi2) + y * math.cos(phi2) == pytest.approx(
                s2, abs=1e-12
            )


def test_canonicalize_lor_is_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(100):
        once = LineOfResponse(rng.normal(), rng.uniform(-7, 7))
        twice = LineOfResponse(once.s, once.phi)
        assert (twice.s, twice.phi) == (once.s, once.phi)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_lor_rejects_a_non_finite_angle(phi):
    with pytest.raises(InputError):
        LineOfResponse(0.5, phi)


def test_canonicalize_orientation_range_and_direction():
    rng = np.random.default_rng(23)
    for _ in range(200):
        phi0 = rng.uniform(-9, 9)
        out = canonicalize_orientation(phi0)
        assert -math.pi / 2 < out <= math.pi / 2
        # same axis modulo pi
        assert abs(math.remainder(out - phi0, math.pi)) < 1e-12


# -------------------------------------------------------------- serialization

def test_model_save_load_roundtrip(tmp_path, benchmark_mixture):
    path = tmp_path / "model.json"
    save_model(benchmark_mixture, path)
    loaded = load_model(path)
    assert len(loaded.components) == 3
    for a, b in zip(loaded.components, benchmark_mixture.components):
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.covariance, b.covariance)
        assert a.weight == b.weight


def test_model_dict_roundtrip(benchmark_mixture):
    d = model_to_dict(benchmark_mixture)
    assert d["format_version"] == gmmlor.FORMAT_VERSION
    assert len(d["components"]) == 3
    back = model_from_dict(d)
    for a, b in zip(back.components, benchmark_mixture.components):
        assert np.array_equal(a.covariance, b.covariance)


def test_load_rejects_unknown_format_version(tmp_path, benchmark_mixture):
    d = model_to_dict(benchmark_mixture)
    d["format_version"] = "99.0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(InputError):
        load_model(path)


def test_load_rejects_garbage_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all {")
    with pytest.raises(InputError):
        load_model(path)


@pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
def test_load_refuses_a_malformed_model(tmp_path, name):
    obj, message = MALFORMED_MODELS[name]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InputError, match=message):
        load_model(path)


@pytest.mark.parametrize("name", sorted(UNPARSABLE_JSON))
def test_load_refuses_a_model_file_the_parser_refuses(tmp_path, name):
    path = tmp_path / "model.json"
    path.write_bytes(UNPARSABLE_JSON[name])
    with pytest.raises(InputError, match="not valid JSON"):
        load_model(path)
