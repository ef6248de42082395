"""Projected variance, line-integral density, offset marginal, moments."""

import functools
import math

import numpy as np
import pytest
from scipy import integrate

import gmmlor
from gmmlor import (
    EigenDecomposition2D,
    InputError,
    MixtureModel2D,
    covariance_from_eigen,
    eigen_from_covariance,
    mean_sinusoid,
    projection_variance,
    theoretical_moments,
)
from gmmlor.projection import _Batch, log_line_integral_profile
from gmmlor.rng import _BLOCK_EVENTS
from conftest import make_component


def line_integral(comp, s, phi):
    return math.exp(log_line_integral_profile(comp.covariance, comp.mean, s, phi))


def random_spd(rng, scale=1.0):
    a = rng.normal(size=(2, 2)) * scale
    return a @ a.T + 1e-3 * scale**2 * np.eye(2)


# --------------------------------------------------------- projected variance

def test_projection_variance_equals_normal_quadratic_form():
    # n^T Sigma n with n = (-sin phi, cos phi) must equal the eigen form
    # sigma1^2 sin^2(phi - phi0) + sigma2^2 cos^2(phi - phi0)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        e = eigen_from_covariance(random_spd(rng, scale=rng.uniform(0.05, 4.0)))
        phi = rng.uniform(-math.pi / 2, math.pi / 2)
        expect = (
            e.sigma1_sq * math.sin(phi - e.phi0) ** 2
            + e.sigma2_sq * math.cos(phi - e.phi0) ** 2
        )
        got = projection_variance(covariance_from_eigen(e), phi)
        assert got == pytest.approx(expect, rel=1e-12)


def test_covariance_may_be_nested_lists_and_must_be_2x2():
    nested = [[0.04, 0.03], [0.03, 0.09]]
    cov = np.array(nested)
    phis = np.linspace(-1.5, 1.5, 7)
    assert projection_variance(nested, 0.3) == projection_variance(cov, 0.3)
    assert np.array_equal(projection_variance(nested, phis), projection_variance(cov, phis))
    mean, s = (0.1, -0.2), np.linspace(-1.0, 1.0, 7)
    assert np.array_equal(
        log_line_integral_profile(nested, mean, s, phis),
        log_line_integral_profile(cov, mean, s, phis),
    )
    for bad in (np.ones(3), np.eye(3)):
        with pytest.raises(InputError):
            projection_variance(bad, 0.0)
        with pytest.raises(InputError):
            log_line_integral_profile(bad, mean, 0.0, 0.0)


def test_projection_variance_axis_values():
    cov = np.array([[0.04, 0.03], [0.03, 0.09]])
    # phi=0 projects onto y, phi=pi/2 onto -x
    assert projection_variance(cov, 0.0) == pytest.approx(0.09, rel=1e-12)
    assert projection_variance(cov, math.pi / 2) == pytest.approx(0.04, rel=1e-12)


def test_projection_variance_isotropic_is_constant():
    cov = 0.0625 * np.eye(2)
    for phi in np.linspace(-math.pi / 2, math.pi / 2, 17):
        assert projection_variance(cov, phi) == pytest.approx(0.0625, rel=1e-14)


def test_projection_variance_vectorized():
    cov = np.array([[0.04, 0.006], [0.006, 0.01]])
    phis = np.linspace(-1.5, 1.5, 11)
    vec = projection_variance(cov, phis)
    assert vec.shape == (11,)
    for phi, v in zip(phis, vec):
        assert v == projection_variance(cov, float(phi))


def test_projection_variance_bounded_by_eigenvalues():
    rng = np.random.default_rng(8)
    for _ in range(200):
        cov = random_spd(rng)
        e = eigen_from_covariance(cov)
        v = projection_variance(cov, rng.uniform(-2, 2))
        assert e.sigma2_sq - 1e-12 <= v <= e.sigma1_sq + 1e-12


# ------------------------------------------------------- line-integral density

def test_line_integral_density_peak_value():
    comp = make_component((0.0, 0.0), 0.0625 * np.eye(2), 1.0)
    # at the mean sinusoid the value is 1/(sqrt(2 pi) sigma_p)
    got = line_integral(comp, 0.0, 0.3)
    assert got == pytest.approx(1.0 / (math.sqrt(2 * math.pi) * 0.25), rel=1e-12)


def test_line_integral_density_one_sigma_offset():
    comp = make_component((0.0, 0.0), 0.0625 * np.eye(2), 1.0)
    got = line_integral(comp, 0.25, -0.8)
    assert got == pytest.approx(0.9678828980765735, rel=1e-12)


def test_line_integral_density_far_tail():
    comp = make_component((0.0, 0.0), 0.0625 * np.eye(2), 1.0)
    v = line_integral(comp, 100.0, 0.0)
    assert 0.0 <= v < 1e-20
    assert math.isfinite(v)


def test_line_integral_density_matches_quadrature():
    # integrate the 2-D density along the line by arclength and compare
    rng = np.random.default_rng(606)
    for _ in range(100):
        mean = rng.normal(size=2)
        cov = random_spd(rng, scale=rng.uniform(0.2, 1.5))
        comp = make_component(mean, cov, 1.0)
        model = MixtureModel2D((comp,))
        phi = rng.uniform(-math.pi / 2, math.pi / 2)
        n = np.array([-math.sin(phi), math.cos(phi)])
        d = np.array([math.cos(phi), math.sin(phi)])
        # keep the line within 3 projected sigmas of the mean so the
        # reference integral is well above quadrature noise
        sig_p = math.sqrt(n @ cov @ n)
        s = mean @ n + rng.uniform(-3.0, 3.0) * sig_p

        def along(t):
            return gmmlor.density(model, s * n + t * d)

        # locate the along-line peak with a coarse scan, then refine
        ts = np.linspace(mean @ d - 30.0, mean @ d + 30.0, 4001)
        tm = float(ts[np.argmax([along(t) for t in ts])])
        ref, _ = integrate.quad(
            along, tm - 25.0, tm + 25.0, limit=300, points=[tm]
        )
        got = line_integral(comp, s, phi)
        assert got == pytest.approx(ref, rel=1e-8)


def test_angle_features_are_the_plain_sines_and_cosines():
    rng = np.random.default_rng(17)
    phi = rng.uniform(-math.pi / 2, math.pi / 2, 1001)
    idx = np.flatnonzero(rng.random(phi.size) < 0.3)
    batch = _Batch(np.zeros_like(phi), phi)
    assert np.array_equal(batch.sin, np.sin(phi))
    assert np.array_equal(batch.cos, np.cos(phi))
    rows = [np.cos(2.0 * phi), np.sin(2.0 * phi),
            np.cos(2.0 * (2.0 * phi)), np.sin(2.0 * (2.0 * phi))]
    assert batch.table.shape == (4, phi.size)
    for got, want in zip(batch.table, rows):  # from the double-angle products
        assert np.max(np.abs(got - want)) <= 1e-15
    part = batch.take(idx)
    assert set(vars(part)) == {"sin", "cos"}  # the table stays behind
    fresh = _Batch(np.zeros(idx.size), phi[idx])
    for name in ("sin", "cos", "table"):
        assert np.array_equal(getattr(part, name), getattr(fresh, name))
    assert np.array_equal(mean_sinusoid(batch, (0.3, -0.7)), mean_sinusoid(phi, (0.3, -0.7)))


B = _BLOCK_EVENTS


def random_batch(n, seed):
    rng = np.random.default_rng(seed)
    return _Batch(rng.normal(0.0, 1.0, n), rng.uniform(-1.5, 1.5, n))


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
def test_blocks_cover_every_event_once_in_order(n):
    batch = random_batch(n, n)
    walked = list(batch.blocks())
    assert all(0 < b[0].size <= B for _, b in walked)
    covered = np.concatenate([np.arange(n)[block] for block, _ in walked])
    assert np.array_equal(covered, np.arange(n))
    for block, b in walked:
        assert np.array_equal(b[0], batch[0][block])
        assert np.array_equal(b[1], batch[1][block])


@pytest.mark.parametrize("n", [1, B - 1, B])
def test_a_batch_of_one_block_is_its_own_block(n):
    batch = random_batch(n, n)
    [(block, b)] = list(batch.blocks())
    assert block == slice(0, n)
    assert b is batch
    b.table  # a feature a pass forms stays for the next pass
    assert "table" in vars(batch)


@pytest.mark.parametrize("n", [B + 1, 3 * B + 7])
def test_larger_batches_walk_views_of_their_sines_and_cosines(n):
    batch = random_batch(n, n)
    for _, b in batch.blocks():
        assert np.shares_memory(b.sin, batch.sin)
        assert np.shares_memory(b.cos, batch.cos)
        assert np.shares_memory(b[0], batch[0])
        b.table  # formed for the block only
    assert set(vars(batch)) == {"sin", "cos"}


def test_take_sin_cos_carries_s_sin_and_cos_alone():
    batch = random_batch(3 * B + 7, 18)
    batch.table  # computed features other than sin and cos stay behind
    idx = np.flatnonzero(np.random.default_rng(18).random(3 * B + 7) < 0.3)
    for sel in (slice(B, 2 * B), idx):
        part = batch.take_sin_cos(sel)
        assert part[1] is None
        assert set(vars(part)) == {"sin", "cos"}
        for got, want in zip(
            (part[0], part.sin, part.cos), (batch[0], batch.sin, batch.cos)
        ):
            assert np.array_equal(got, want[sel])
            assert np.shares_memory(got, want) == isinstance(sel, slice)
        assert np.array_equal(
            mean_sinusoid(part, (0.3, -0.7)),
            mean_sinusoid(batch, (0.3, -0.7))[sel],
        )


def test_mean_sinusoid_shape_and_values():
    mu = (1.0, 2.0)
    phis = np.array([0.0, math.pi / 4, -math.pi / 3])
    out = mean_sinusoid(phis, mu)
    expect = -1.0 * np.sin(phis) + 2.0 * np.cos(phis)
    assert np.allclose(out, expect, rtol=1e-15)


# ------------------------------------------------------------ offset marginal

@functools.cache
def legendre_nodes(n):
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [-pi/2, pi/2]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x * (math.pi / 2.0), w * (math.pi / 2.0)


def marginal_pdf_sc(e, s_c, *, nodes=201):
    """Density of the centered offset s_c under a uniform angle.

    The oracle for the moment formulas: the per-angle normal profile
    averaged over phi in [-pi/2, pi/2] by Gauss-Legendre quadrature.
    The integrand is smooth, so 201 nodes put the quadrature error far
    below the tolerances of the tests that use it.
    """
    x, w = legendre_nodes(nodes)
    var = projection_variance(covariance_from_eigen(e), x)
    vals = np.exp(-0.5 * s_c * s_c / var) / (
        math.sqrt(2.0 * math.pi) * np.sqrt(var)
    )
    return float(np.dot(w, vals) / math.pi)


def test_marginal_isotropic_reduces_to_gaussian():
    p = EigenDecomposition2D(1.0, 1.0, 0.0)
    # the angular average is a plain normal pdf when the variance is flat
    assert marginal_pdf_sc(p, 0.0) == pytest.approx(0.3989422804014327, rel=1e-10)
    assert marginal_pdf_sc(p, 1.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-10
    )


def test_marginal_is_even():
    p = EigenDecomposition2D(0.09, 0.01, 0.7)
    for x in (0.1, 0.25, 0.4):
        assert marginal_pdf_sc(p, x) == pytest.approx(
            marginal_pdf_sc(p, -x), rel=1e-12
        )


def test_marginal_node_refinement_converged():
    p = EigenDecomposition2D(0.09, 0.01, -0.4)
    for x in (0.0, 0.15, 0.5):
        coarse = marginal_pdf_sc(p, x, nodes=201)
        fine = marginal_pdf_sc(p, x, nodes=401)
        assert coarse == pytest.approx(fine, rel=1e-8)


def test_marginal_integrates_to_one():
    p = EigenDecomposition2D(0.08, 0.02, 1.1)
    hi = 8.0 * math.sqrt(p.sigma1_sq)
    xs = np.linspace(-hi, hi, 2001)
    ys = np.array([marginal_pdf_sc(p, float(x)) for x in xs])
    total = integrate.trapezoid(ys, xs)
    assert total == pytest.approx(1.0, abs=1e-4)


# ------------------------------------------------------------- offset moments

def test_theoretical_moments_isotropic():
    p = EigenDecomposition2D(0.25, 0.25, 0.0)
    m2, m4 = theoretical_moments(p)
    assert m2 == pytest.approx(0.25, rel=1e-14)
    assert m4 == pytest.approx(3 * 0.25**2, rel=1e-14)


def test_theoretical_moments_example():
    m2, m4 = theoretical_moments(EigenDecomposition2D(0.1, 0.02, 0.9))
    assert m2 == pytest.approx(0.06, rel=1e-13)
    assert m4 == pytest.approx(0.0132, rel=1e-13)


def test_theoretical_moments_match_marginal_quadrature():
    p = EigenDecomposition2D(0.09, 0.01, 0.3)
    hi = 10.0 * math.sqrt(p.sigma1_sq)
    xs = np.linspace(-hi, hi, 4001)
    ys = np.array([marginal_pdf_sc(p, float(x)) for x in xs])
    m2_num = integrate.trapezoid(xs**2 * ys, xs)
    m4_num = integrate.trapezoid(xs**4 * ys, xs)
    m2, m4 = theoretical_moments(p)
    assert m2 == pytest.approx(m2_num, rel=1e-6)
    assert m4 == pytest.approx(m4_num, rel=1e-6)


def test_theoretical_moments_orientation_invariant():
    for phi0 in (-1.2, 0.0, 0.4, 1.5):
        a = theoretical_moments(EigenDecomposition2D(0.07, 0.03, phi0))
        b = theoretical_moments(EigenDecomposition2D(0.07, 0.03, 0.0))
        assert a == pytest.approx(b, rel=1e-14)
