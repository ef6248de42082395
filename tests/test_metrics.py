"""Component matching, per-component errors, KL divergence cubature."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from numpy.polynomial.hermite_e import hermegauss

from gmmlor import (
    EigenDecomposition2D,
    FitConfig,
    InputError,
    MixtureModel2D,
    SingularCovarianceError,
    covariance_from_eigen,
    derive_seed,
    evaluate_against_truth,
    fit,
    kl_divergence,
    match_components,
    parameter_errors,
    report_to_dict,
    simulate_lors,
)
from gmmlor.metrics import (
    _GH_NODES,
    _GH_WEIGHTS,
    _W2,
    _Z1,
    _Z2,
    _log_mixture_density,
    union_bounding_box,
)
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


def test_errors_are_the_plain_distances_of_any_matching(benchmark_mixture):
    # the errors read the matched entries of the tables the matching
    # ranks, bitwise, whichever permutation is given
    rng = np.random.default_rng(11)
    est = MixtureModel2D(tuple(
        make_component(
            np.asarray(c.mean) + rng.normal(0.0, 0.1, 2),
            1.1 * np.asarray(c.covariance),
            c.weight,
        )
        for c in benchmark_components()
    ))
    for perm in itertools.permutations(range(3)):
        mean_e, cov_e, w_e = parameter_errors(est, benchmark_mixture, perm)
        for j, i in enumerate(perm):
            ce, ct = est.components[j], benchmark_mixture.components[i]
            assert mean_e[i] == np.linalg.norm(ce.mean - ct.mean)
            assert cov_e[i] == np.linalg.norm(ce.covariance - ct.covariance)
            assert w_e[i] == abs(ce.weight - ct.weight)


def test_errors_permutation_default_matches(benchmark_mixture):
    est = shuffled(benchmark_mixture, (1, 2, 0))
    explicit = parameter_errors(
        est, benchmark_mixture, match_components(est, benchmark_mixture)
    )
    implicit = parameter_errors(est, benchmark_mixture)
    for a, b in zip(explicit, implicit):
        assert np.array_equal(a, b)


# ------------------------------------------------------------------------ KL

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


def test_kl_same_model_is_zero(benchmark_mixture):
    # log p and log q are the same numbers at the same nodes
    assert kl_divergence(benchmark_mixture, benchmark_mixture) == 0.0
    rng = np.random.default_rng(62)
    for k in (1, 2, 4):
        model = random_mixture(rng, k, x_spread=3.0)
        assert kl_divergence(model, model) == 0.0


def test_kl_unit_gaussians_distance():
    # equal unit covariances: KL = d^2 / 2 in either direction; at
    # d = 40 the truth density underflows to 0 at every node, its log
    # does not
    for d in (0.3, 0.8, 40.0):
        a = MixtureModel2D((gaussian((0.0, 0.0)),))
        b = MixtureModel2D((gaussian((d, 0.0)),))
        kl = kl_divergence(a, b)
        assert kl == pytest.approx(d * d / 2.0, rel=1e-12, abs=1e-12)


def test_kl_estimated_density_leads():
    # closed form for N(0, 0.5 I) against N(0, I): the narrow density
    # leading gives 0.5 (tr - 2 + log det ratio) = 0.1931...
    est = MixtureModel2D((gaussian((0.0, 0.0), 0.5 * np.eye(2)),))
    truth = MixtureModel2D((gaussian((0.0, 0.0), np.eye(2)),))
    kl = kl_divergence(est, truth)
    assert kl == pytest.approx(0.5 * (1.0 - 2.0 + math.log(4.0)), abs=1e-12)
    # the reverse order has a different closed form; make sure we can
    # tell them apart
    kl_rev = kl_divergence(truth, est)
    assert kl_rev == pytest.approx(
        0.5 * (4.0 - 2.0 - math.log(4.0)), abs=1e-12
    )


def test_kl_general_gaussian_closed_form():
    # the log-ratio of two Gaussians is quadratic, which the rule
    # integrates exactly
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
    assert kl_divergence(est, truth) == pytest.approx(expect, abs=1e-12)


def test_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(61)
    for _ in range(10):
        a = rng.normal(size=(2, 2)) * 0.4
        b = rng.normal(size=(2, 2)) * 0.4
        est = MixtureModel2D((gaussian(rng.normal(size=2), a @ a.T + 0.05 * np.eye(2)),))
        tru = MixtureModel2D((gaussian(rng.normal(size=2), b @ b.T + 0.05 * np.eye(2)),))
        assert kl_divergence(est, tru) >= -1e-12


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
        kl_divergence(*pair)


# ----------------------------------------------------------- KL node table

def test_the_node_table_is_hermegauss_64():
    nodes, weights = hermegauss(64)
    assert np.allclose(_GH_NODES, nodes, rtol=0.0, atol=1e-14)
    assert np.allclose(_GH_WEIGHTS, weights / weights.sum(),
                       rtol=0.0, atol=1e-14)


def test_the_node_table_is_symmetric_and_normalised():
    assert np.all(np.diff(_GH_NODES) > 0.0)
    assert np.array_equal(_GH_NODES, -_GH_NODES[::-1])
    assert np.array_equal(_GH_WEIGHTS, _GH_WEIGHTS[::-1])
    assert abs(math.fsum(_GH_WEIGHTS) - 1.0) <= 4 * np.finfo(float).eps


def test_kl_makes_no_lapack_call(benchmark_mixture, monkeypatch):
    est = MixtureModel2D(tuple(
        make_component(c.mean + 0.1, 1.2 * c.covariance, c.weight)
        for c in benchmark_components()
    ))
    want = kl_divergence(est, benchmark_mixture)
    called = []
    for name in dir(np.linalg):
        # every function, not the error class
        if name[0].islower() and callable(getattr(np.linalg, name)):
            monkeypatch.setattr(
                np.linalg, name,
                lambda *args, name=name, **kwargs: called.append(name),
            )
    assert kl_divergence(est, benchmark_mixture) == want > 0.0
    assert called == []


# ------------------------------------------------------------------- reports

def test_report_roundtrip(benchmark_mixture):
    est = shuffled(benchmark_mixture, (2, 0, 1))
    report = evaluate_against_truth(est, benchmark_mixture)
    assert report.matching == (2, 0, 1)
    assert np.allclose(report.mean_errors, 0.0)
    assert abs(report.kl_divergence) < 1e-12
    d = report_to_dict(report)
    assert set(d) == {
        "matching", "mean_errors", "cov_errors", "weight_errors", "kl_divergence",
    }
    assert d["matching"] == [2, 0, 1]


# ------------------------------------------------- KL against a point oracle

def kl_on_points(estimated, truth, grid_n=2048):
    """KL by midpoint quadrature on a grid_n x grid_n grid over the
    6-sigma box around both models, with densities floored at 1e-300
    before the logs, summed 128 rows of cells at a time."""
    x_lo, x_hi, y_lo, y_hi = union_bounding_box(
        (estimated, truth), n_sigma=6.0
    )
    hx = (x_hi - x_lo) / grid_n
    hy = (y_hi - y_lo) / grid_n
    x = x_lo + (np.arange(grid_n) + 0.5) * hx
    y = (y_lo + (np.arange(grid_n) + 0.5) * hy)[np.newaxis, :]
    total = 0.0
    for i in range(0, grid_n, 128):
        rows = x[i:i + 128, np.newaxis]
        p = _mixture_density(estimated, rows, y)
        q = _mixture_density(truth, rows, y)
        logs = np.log(np.maximum(p, 1e-300)) - np.log(np.maximum(q, 1e-300))
        total += float(np.sum(p * logs))
    return total * hx * hy


def study_fit(truth, master, replicate):
    """The fit of replicate ``replicate`` of a study with master seed
    ``master``, as ``gmmlor replicate`` runs it on the benchmark."""
    sim = simulate_lors(truth, counts=BENCHMARK_COUNTS,
                        seed=derive_seed(master, 2 * replicate))
    config = FitConfig(K=3, weight_tol=1e-3,
                       seed=derive_seed(master, 2 * replicate + 1))
    return fit((sim.s, sim.phi), config).model


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
        want, rel=1e-3, abs=0.0
    )


def test_kl_grid_refinement_converged(benchmark_mixture):
    # the midpoint grid converges on the rule as it refines
    sim = simulate_lors(benchmark_mixture, counts=BENCHMARK_COUNTS, seed=100)
    est = fit((sim.s, sim.phi),
              FitConfig(K=3, weight_tol=1e-3, seed=0)).model
    coarse = kl_on_points(est, benchmark_mixture, grid_n=512)
    fine = kl_on_points(est, benchmark_mixture, grid_n=1024)
    assert abs(coarse - fine) < 1e-4
    assert abs(kl_divergence(est, benchmark_mixture) - fine) < 1e-4


@pytest.mark.parametrize("master, replicate", [(3, 9), (11, 72)])
def test_kl_matches_the_point_oracle_on_wrong_basin_study_fits(
    benchmark_mixture, master, replicate
):
    # 3/9 and 11/72 are the studies' fits of largest KL
    est = study_fit(benchmark_mixture, master, replicate)
    want = kl_on_points(est, benchmark_mixture)
    assert kl_divergence(est, benchmark_mixture) == pytest.approx(
        want, rel=1e-3, abs=0.0
    )


def log_density_reference(model, pts):
    """Log mixture density at the (N, 2) points ``pts``: each component's
    quadratic form in its own eigenbasis, log-sum-exp over components."""
    logs = []
    for comp in model.components:
        lam, vec = np.linalg.eigh(comp.covariance)
        proj = (pts - comp.mean) @ vec
        logs.append(
            math.log(comp.weight / (2.0 * math.pi))
            - 0.5 * math.log(lam[0] * lam[1])
            - 0.5 * np.sum(proj * proj / lam, axis=1)
        )
    return np.logaddexp.reduce(logs, axis=0)


def kl_reference(estimated, truth, m=128):
    """The cubature with numpy's m-point Gauss-Hermite rule and each
    component's frame from np.linalg.eigh."""
    z, w = hermegauss(m)
    w = w / w.sum()
    zz = np.column_stack([a.ravel() for a in np.meshgrid(z, z, indexing="ij")])
    ww = np.multiply.outer(w, w).ravel()
    total = 0.0
    for comp in estimated.components:
        lam, vec = np.linalg.eigh(comp.covariance)
        pts = comp.mean + zz @ (vec * np.sqrt(lam)).T
        logs = (log_density_reference(estimated, pts)
                - log_density_reference(truth, pts))
        total += comp.weight * float(np.sum(ww * logs))
    return total


def test_kl_resolves_a_needle_that_grid_512_misses(benchmark_mixture):
    # component 0 squeezed to a minor variance of 1e-11 at 0.6 rad: far
    # narrower than a cell of the 512 grid, which reads the KL as
    # negative
    comps = list(benchmark_components())
    major = max(np.linalg.eigvalsh(comps[0].covariance))
    needle = covariance_from_eigen(EigenDecomposition2D(major, 1e-11, 0.6))
    comps[0] = make_component(comps[0].mean, needle, comps[0].weight)
    est = MixtureModel2D(tuple(comps))
    got = kl_divergence(est, benchmark_mixture)
    assert got == pytest.approx(
        kl_reference(est, benchmark_mixture), rel=1e-3, abs=0.0
    )
    assert got > 1.0 + kl_on_points(est, benchmark_mixture, grid_n=512)


@pytest.mark.parametrize("seed", [2, 3, 127, 512])
def test_kl_matches_the_point_oracle_on_oblong_boxes(seed):
    # components up to 80 apart in x: the truth density underflows at
    # most nodes, where a midpoint grid floors it and the rule keeps its
    # log
    rng = np.random.default_rng(seed)
    for k_est, k_truth in ((1, 4), (2, 3), (3, 1), (4, 2)):
        est = random_mixture(rng, k_est, x_spread=40.0)
        truth = random_mixture(rng, k_truth, x_spread=40.0)
        box = union_bounding_box((est, truth))
        assert box[1] - box[0] > 2.0 * (box[3] - box[2])
        want = kl_reference(est, truth)
        got = kl_divergence(est, truth)
        assert got == pytest.approx(want, rel=1e-3, abs=0.0)


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


def rotated(model, angle):
    """Every mean and covariance of ``model`` rotated by ``angle`` about
    the origin."""
    co, si = math.cos(angle), math.sin(angle)
    r = np.array([[co, -si], [si, co]])
    return MixtureModel2D(tuple(
        make_component(r @ c.mean, r @ c.covariance @ r.T, c.weight)
        for c in model.components
    ))


@given(est=mixtures(), truth=mixtures(), data=st.data())
def test_kl_ignores_the_component_order(est, truth, data):
    est_order = data.draw(st.permutations(range(len(est))))
    truth_order = data.draw(st.permutations(range(len(truth))))
    want = kl_divergence(est, truth)
    got = kl_divergence(shuffled(est, est_order), shuffled(truth, truth_order))
    # equal models give KL 0 in one order and a few 1e-18 in another
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@given(
    est=mixtures(),
    truth=mixtures(),
    t=st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)),
)
def test_kl_ignores_a_common_translation(est, truth, t):
    t = np.asarray(t)
    want = kl_divergence(est, truth)
    got = kl_divergence(translated(est, t), translated(truth, t))
    assert got == pytest.approx(want, rel=1e-9, abs=1e-15)


@given(est=mixtures(), truth=mixtures(), angle=st.floats(-math.pi, math.pi))
def test_kl_ignores_a_common_rotation(est, truth, angle):
    # the nodes turn with each component's frame, so the rule itself is
    # invariant, not only the integral it approximates
    want = kl_divergence(est, truth)
    got = kl_divergence(rotated(est, angle), rotated(truth, angle))
    assert got == pytest.approx(want, rel=1e-9, abs=1e-15)


def atan2_frame_kl(estimated, truth):
    """kl_divergence with each component's frame written out as it was
    before the rule took it from eigen_from_covariance: the eigenvalues
    mid -/+ hypot((a - c)/2, b) and the major-axis angle
    atan2(2b, a - c) / 2."""
    x = np.empty((len(estimated.components), _Z1.size))
    y = np.empty_like(x)
    for xj, yj, comp in zip(x, y, estimated.components):
        a, b = comp.covariance[0, 0], comp.covariance[0, 1]
        c = comp.covariance[1, 1]
        mid, rad = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
        angle = 0.5 * math.atan2(2.0 * b, a - c)
        major, minor = math.sqrt(mid + rad), math.sqrt(max(mid - rad, 0.0))
        cos, sin = math.cos(angle), math.sin(angle)
        xj[:] = comp.mean[0] + (cos * major) * _Z1 - (sin * minor) * _Z2
        yj[:] = comp.mean[1] + (sin * major) * _Z1 + (cos * minor) * _Z2
    log_ratio = _log_mixture_density(estimated, x, y)
    log_ratio -= _log_mixture_density(truth, x, y)
    log_ratio *= _W2
    return float((estimated.weights * log_ratio.sum(axis=1)).sum())


@given(est=mixtures(), truth=mixtures(), angle=st.floats(-math.pi, math.pi))
def test_kl_frame_is_the_atan2_frame_bitwise(est, truth, angle):
    # no component of mixtures() is isotropic, where the one eigenframe
    # takes phi0 = 0 in place of the angle of rounding noise
    for e, q in ((est, truth), (rotated(est, angle), rotated(truth, angle))):
        assert kl_divergence(e, q) == atan2_frame_kl(e, q)
