"""Component matching, per-component errors, KL divergence quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmmlor import (
    EigenDecomposition2D,
    FitConfig,
    InputError,
    MixtureModel2D,
    SingularCovarianceError,
    covariance_from_eigen,
    density_at_points,
    evaluate_against_truth,
    fit,
    kl_divergence,
    match_components,
    parameter_errors,
    report_to_dict,
    simulate_lors,
)
from gmmlor.estimate import _BLOCK_EVENTS
from gmmlor.metrics import _cell_centers, union_bounding_box
from gmmlor.model import _mixture_density
from conftest import BENCHMARK_COUNTS, benchmark_components, make_component


def gaussian(mean, cov=None, weight=1.0):
    return make_component(mean, np.eye(2) if cov is None else cov, weight)


def shuffled(model, order):
    return MixtureModel2D(tuple(model.components[i] for i in order))


# ------------------------------------------------------------------- matching

def test_match_identity(benchmark_mixture):
    assert match_components(benchmark_mixture, benchmark_mixture) == (0, 1, 2)


def test_match_swapped_pair(benchmark_mixture):
    est = shuffled(benchmark_mixture, (1, 0, 2))
    assert match_components(est, benchmark_mixture) == (1, 0, 2)


def test_match_reversed(benchmark_mixture):
    est = shuffled(benchmark_mixture, (2, 1, 0))
    assert match_components(est, benchmark_mixture) == (2, 1, 0)


def test_match_survives_small_perturbations(benchmark_mixture):
    rng = np.random.default_rng(10)
    comps = benchmark_components()
    for _ in range(20):
        order = tuple(rng.permutation(3))
        jittered = tuple(
            make_component(
                np.asarray(comps[i].mean) + rng.normal(0, 0.01, 2),
                comps[i].covariance,
                comps[i].weight,
            )
            for i in order
        )
        est = MixtureModel2D(jittered)
        got = match_components(est, benchmark_mixture)
        assert got == order


def test_match_rejects_size_mismatch(benchmark_mixture):
    est = MixtureModel2D((gaussian((0, 0)),))
    with pytest.raises(InputError):
        match_components(est, benchmark_mixture)


# ------------------------------------------------------------------- errors

def test_errors_zero_for_identical(benchmark_mixture):
    mean_e, cov_e, w_e = parameter_errors(benchmark_mixture, benchmark_mixture)
    assert np.allclose(mean_e, 0.0)
    assert np.allclose(cov_e, 0.0)
    assert np.allclose(w_e, 0.0)


def test_errors_known_offsets(benchmark_mixture):
    comps = list(benchmark_components())
    moved = make_component(
        np.asarray(comps[1].mean) + [0.3, 0.4],
        np.asarray(comps[1].covariance) + 0.01 * np.eye(2),
        comps[1].weight,
    )
    comps[1] = moved
    est = MixtureModel2D(tuple(comps))
    mean_e, cov_e, w_e = parameter_errors(est, benchmark_mixture)
    assert mean_e[1] == pytest.approx(0.5, rel=1e-12)
    assert cov_e[1] == pytest.approx(0.01 * math.sqrt(2), rel=1e-12)
    assert w_e[1] == 0.0
    assert mean_e[0] == mean_e[2] == 0.0


def test_errors_indexed_by_truth_component(benchmark_mixture):
    # estimated order scrambled: errors must land on truth indices
    est = shuffled(benchmark_mixture, (2, 0, 1))
    perm = match_components(est, benchmark_mixture)
    mean_e, cov_e, w_e = parameter_errors(est, benchmark_mixture, perm)
    assert np.allclose(mean_e, 0.0)
    assert np.allclose(w_e, 0.0)


def test_errors_weight_component():
    truth = MixtureModel2D((gaussian((0, 0), weight=0.6), gaussian((5, 5), weight=0.4)))
    est = MixtureModel2D((gaussian((0, 0), weight=0.55), gaussian((5, 5), weight=0.45)))
    _, _, w_e = parameter_errors(est, truth)
    assert w_e[0] == pytest.approx(0.05, rel=1e-12)
    assert w_e[1] == pytest.approx(0.05, rel=1e-12)


def test_errors_permutation_default_matches(benchmark_mixture):
    est = shuffled(benchmark_mixture, (1, 2, 0))
    explicit = parameter_errors(
        est, benchmark_mixture, match_components(est, benchmark_mixture)
    )
    implicit = parameter_errors(est, benchmark_mixture)
    for a, b in zip(explicit, implicit):
        assert np.array_equal(a, b)


# ------------------------------------------------------------------------ KL

def test_kl_same_model_is_zero(benchmark_mixture):
    kl = kl_divergence(benchmark_mixture, benchmark_mixture, grid_n=256)
    assert abs(kl) < 1e-6


def test_kl_unit_gaussians_distance():
    # equal unit covariances: KL = d^2 / 2 in either direction
    for d in (0.3, 0.8):
        a = MixtureModel2D((gaussian((0.0, 0.0)),))
        b = MixtureModel2D((gaussian((d, 0.0)),))
        kl = kl_divergence(a, b)
        assert kl == pytest.approx(d * d / 2.0, abs=1e-4)


def test_kl_estimated_density_leads():
    # closed form for N(0, 0.5 I) against N(0, I): the narrow density
    # leading gives 0.5 (tr - 2 + log det ratio) = 0.1931...
    est = MixtureModel2D((gaussian((0.0, 0.0), 0.5 * np.eye(2)),))
    truth = MixtureModel2D((gaussian((0.0, 0.0), np.eye(2)),))
    kl = kl_divergence(est, truth)
    assert kl == pytest.approx(0.5 * (1.0 - 2.0 + math.log(4.0)), abs=1e-4)
    # the reverse order has a different closed form; make sure we can
    # tell them apart
    kl_rev = kl_divergence(truth, est)
    assert kl_rev == pytest.approx(0.5 * (4.0 - 2.0 - math.log(4.0)), abs=1e-4)


def test_kl_general_gaussian_closed_form():
    mean_e, cov_e = np.array([0.2, -0.1]), np.array([[0.3, 0.05], [0.05, 0.2]])
    mean_t, cov_t = np.array([0.0, 0.0]), np.array([[0.5, -0.1], [-0.1, 0.4]])
    est = MixtureModel2D((gaussian(mean_e, cov_e),))
    truth = MixtureModel2D((gaussian(mean_t, cov_t),))
    inv_t = np.linalg.inv(cov_t)
    diff = mean_t - mean_e
    expect = 0.5 * (
        np.trace(inv_t @ cov_e)
        + diff @ inv_t @ diff
        - 2.0
        + math.log(np.linalg.det(cov_t) / np.linalg.det(cov_e))
    )
    assert kl_divergence(est, truth) == pytest.approx(expect, abs=1e-4)


def test_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(61)
    for _ in range(10):
        a = rng.normal(size=(2, 2)) * 0.4
        b = rng.normal(size=(2, 2)) * 0.4
        est = MixtureModel2D((gaussian(rng.normal(size=2), a @ a.T + 0.05 * np.eye(2)),))
        tru = MixtureModel2D((gaussian(rng.normal(size=2), b @ b.T + 0.05 * np.eye(2)),))
        assert kl_divergence(est, tru, grid_n=256) >= -1e-6


def test_kl_grid_refinement_converged(benchmark_mixture):
    est = shuffled(benchmark_mixture, (1, 0, 2))
    coarse = kl_divergence(est, benchmark_mixture, grid_n=512)
    fine = kl_divergence(est, benchmark_mixture, grid_n=1024)
    assert abs(coarse - fine) < 1e-4


# ------------------------------------------------------------------- reports

def test_report_roundtrip(benchmark_mixture):
    est = shuffled(benchmark_mixture, (2, 0, 1))
    report = evaluate_against_truth(est, benchmark_mixture, kl_grid=128)
    assert report.matching == (2, 0, 1)
    assert np.allclose(report.mean_errors, 0.0)
    assert abs(report.kl_divergence) < 1e-6
    d = report_to_dict(report)
    assert set(d) == {
        "matching", "mean_errors", "cov_errors", "weight_errors", "kl_divergence",
    }
    assert d["matching"] == [2, 0, 1]


# ------------------------------------------------- KL against a point oracle

def kl_on_points(estimated, truth, grid_n=512):
    """The KL quadrature as a point array: the (grid_n^2, 2) cell centres
    in "ij" order, the (N, 2) density, then the floored log sum."""
    x_lo, x_hi, y_lo, y_hi = union_bounding_box(
        (estimated, truth), n_sigma=6.0
    )
    hx = (x_hi - x_lo) / grid_n
    hy = (y_hi - y_lo) / grid_n
    x = x_lo + (np.arange(grid_n) + 0.5) * hx
    y = y_lo + (np.arange(grid_n) + 0.5) * hy
    gx, gy = np.meshgrid(x, y, indexing="ij")
    pts = np.column_stack((gx.ravel(), gy.ravel()))
    p = density_at_points(estimated, pts)
    q = density_at_points(truth, pts)
    logs = np.log(np.maximum(p, 1e-300)) - np.log(np.maximum(q, 1e-300))
    return float(np.sum(p * logs) * hx * hy)


def random_component(rng, weight, x_spread):
    """A component with its mean within x_spread of 0 in x and 1 in y,
    and principal variances between 0.01 and 1 at a random angle."""
    mean = (rng.uniform(-x_spread, x_spread), rng.uniform(-1.0, 1.0))
    e = EigenDecomposition2D(*sorted(rng.uniform(0.01, 1.0, 2))[::-1],
                             rng.uniform(-math.pi / 2, math.pi / 2))
    return make_component(mean, covariance_from_eigen(e), weight)


def random_mixture(rng, k, x_spread):
    """k random components with weights drawn from [0.2, 1], normalized."""
    w = rng.uniform(0.2, 1.0, k)
    w /= math.fsum(w)
    w[-1] = 1.0 - math.fsum(w[:-1])
    return MixtureModel2D(
        tuple(random_component(rng, wk, x_spread) for wk in w)
    )


@pytest.mark.parametrize("fit_seed", range(5))
def test_kl_matches_the_point_oracle_on_benchmark_fits(
    benchmark_mixture, fit_seed
):
    sim = simulate_lors(benchmark_mixture, counts=BENCHMARK_COUNTS,
                        seed=100 + fit_seed)
    est = fit((sim.s, sim.phi),
              FitConfig(K=3, weight_tol=1e-3, seed=fit_seed)).model
    want = kl_on_points(est, benchmark_mixture)
    assert kl_divergence(est, benchmark_mixture) == pytest.approx(
        want, rel=1e-12, abs=0.0
    )


@pytest.mark.parametrize("grid_n", [2, 3, 127, 512])
def test_kl_matches_the_point_oracle_on_oblong_boxes(grid_n):
    rng = np.random.default_rng(grid_n)
    for k_est, k_truth in ((1, 4), (2, 3), (3, 1), (4, 2)):
        est = random_mixture(rng, k_est, x_spread=40.0)
        truth = random_mixture(rng, k_truth, x_spread=40.0)
        box = union_bounding_box((est, truth))
        assert box[1] - box[0] > 2.0 * (box[3] - box[2])
        want = kl_on_points(est, truth, grid_n=grid_n)
        got = kl_divergence(est, truth, grid_n=grid_n)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("singular_side", ["estimated", "truth"])
def test_kl_refuses_a_singular_component(benchmark_mixture, singular_side):
    flat = make_component((0.2, 0.1), [[0.04, 0.02], [0.02, 0.01]], 0.5)
    comps = list(benchmark_components())
    comps[0] = flat
    singular = MixtureModel2D(tuple(comps))
    pair = (
        (singular, benchmark_mixture)
        if singular_side == "estimated"
        else (benchmark_mixture, singular)
    )
    with pytest.raises(SingularCovarianceError):
        kl_divergence(*pair, grid_n=64)


# ------------------------------------------------------ KL invariance

def mixtures():
    """Mixtures of random_mixture with 1 to 3 components and means in
    [-2, 2] x [-1, 1]."""
    return st.tuples(st.integers(1, 3), st.integers(0, 2**32 - 1)).map(
        lambda ks: random_mixture(np.random.default_rng(ks[1]), ks[0], 2.0)
    )


def translated(model, t):
    return MixtureModel2D(tuple(
        make_component(c.mean + t, c.covariance, c.weight)
        for c in model.components
    ))


@given(est=mixtures(), truth=mixtures(), data=st.data())
def test_kl_ignores_the_component_order(est, truth, data):
    est_order = data.draw(st.permutations(range(len(est))))
    truth_order = data.draw(st.permutations(range(len(truth))))
    want = kl_divergence(est, truth, grid_n=128)
    got = kl_divergence(
        shuffled(est, est_order), shuffled(truth, truth_order), grid_n=128
    )
    # equal models give KL 0 in one order and a few 1e-18 in another
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@given(
    est=mixtures(),
    truth=mixtures(),
    t=st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)),
)
def test_kl_ignores_a_common_translation(est, truth, t):
    t = np.asarray(t)
    want = kl_divergence(est, truth, grid_n=128)
    got = kl_divergence(translated(est, t), translated(truth, t), grid_n=128)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-15)


# ------------------------------------------------------ KL row tiles

def untiled_kl(estimated, truth, grid_n):
    """The KL quadrature on the whole grid at once: both densities as
    grid_n x grid_n arrays, then the floored log terms summed once."""
    box = union_bounding_box((estimated, truth), n_sigma=6.0)
    x, y = _cell_centers(box, grid_n)
    x, y = x[:, np.newaxis], y[np.newaxis, :]
    p = _mixture_density(estimated, x, y)
    log_q = _mixture_density(truth, x, y)
    np.log(np.maximum(log_q, 1e-300, out=log_q), out=log_q)
    terms = np.maximum(p, 1e-300)
    np.log(terms, out=terms)
    terms -= log_q
    terms *= p
    x_lo, x_hi, y_lo, y_hi = box
    hx = (x_hi - x_lo) / grid_n
    hy = (y_hi - y_lo) / grid_n
    return float(np.sum(terms) * hx * hy)


#: The grid size whose whole grid is exactly one tile.
T = math.isqrt(_BLOCK_EVENTS)


@pytest.mark.parametrize("grid_n", [2, T - 1, T, T + 1, 512, 700])
def test_tiled_kl_equals_the_untiled_formula_bitwise(grid_n):
    rng = np.random.default_rng(900 + grid_n)
    est = random_mixture(rng, 3, x_spread=2.0)
    truth = random_mixture(rng, 2, x_spread=2.0)
    for a, b in ((est, truth), (truth, est)):
        assert kl_divergence(a, b, grid_n=grid_n) == untiled_kl(a, b, grid_n)


@pytest.mark.parametrize("grid_n", [1, 0, -3])
def test_kl_refuses_a_grid_below_two_cells(benchmark_mixture, grid_n):
    with pytest.raises(InputError):
        kl_divergence(benchmark_mixture, benchmark_mixture, grid_n=grid_n)
