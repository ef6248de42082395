"""Moment estimation, orientation solve, covariance pipeline, mixture driver."""

import cmath
import collections
import copy
import dataclasses
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from gmmlor import (
    ComponentDeathError,
    DegenerateGeometryError,
    EigenDecomposition2D,
    FitConfig,
    InputError,
    LineOfResponse,
    MixtureModel2D,
    TraceRecord,
    WeightedMoments,
    center_offsets,
    config_from_dict,
    canonicalize_orientation,
    config_to_dict,
    covariance_from_eigen,
    eigen_from_covariance,
    estimate_covariance,
    fit,
    fit_mean,
    invert_moments,
    kl_divergence,
    mean_sinusoid,
    moments_from_offsets,
    projection_variance,
    refine_sigmas,
    simulate_lors,
    solve_orientation,
    solve_quartic,
    theoretical_moments,
    trace_to_jsonl,
)
from gmmlor.estimate import (
    _BLOCK_EVENTS,
    _MEAN_COLUMNS,
    DEATH_PATIENCE,
    DEFAULT_VARIANCE_FLOOR,
    MASS_FLOOR_FACTOR,
    _Batch,
    _HardLabels,
    _as_arrays,
    _block_sums,
    _cluster_moment_sums,
    _handoff,
    _key_floor,
    _label_dtype,
    _m_step,
    _mean_from_sums,
    _memberships_arrays,
    _nearest_sinusoid,
    _phase1,
    _run_single_fit,
    _soft_loglik,
    _soft_pass,
    _solve_sym2,
)
from gmmlor.projection import log_line_integral_profile
from gmmlor.rng import derive_seed
from conftest import (
    BAD_FIT_SETTINGS,
    BENCHMARK_COUNTS,
    make_component,
    overflow_cases,
)


def single(mean, cov):
    return MixtureModel2D((make_component(mean, cov, 1.0),))


def pseudo_offsets(sigma1_sq, sigma2_sq, phi0, n=64):
    """Noise-free offsets whose squared values equal the projected variance."""
    cov = covariance_from_eigen(EigenDecomposition2D(sigma1_sq, sigma2_sq, phi0))
    phis = np.linspace(-math.pi / 2, math.pi / 2, n, endpoint=False)
    return np.sqrt(projection_variance(cov, phis)), phis


def wsum(w, *features) -> float:
    """sum_i w_i times the product of the features at i, as one einsum
    over every event: the unblocked oracle of the fit's weighted sums."""
    subscripts = ",".join("i" * (1 + len(features))) + "->"
    return float(np.einsum(subscripts, w, *features))


def cached(s, phi, idx=None):
    """(s, phi) as a batch whose angle features are all computed up front,
    then narrowed to the events ``idx`` selects, as phase 1 does."""
    batch = _Batch(s, phi)
    for name in ("sin", "cos", "table"):
        getattr(batch, name)
    return batch if idx is None else batch.take(idx)


# ------------------------------------------------------------ weighted moments

def test_weighted_moments_clamps_fourth_moment():
    m = WeightedMoments(m2w=0.5, m4w=0.1, mass=3.0)
    assert m.m4w == 0.25  # raised to m2w^2


def test_weighted_moments_validation():
    with pytest.raises(InputError):
        WeightedMoments(m2w=0.1, m4w=0.1, mass=0.0)
    with pytest.raises(InputError):
        WeightedMoments(m2w=-0.1, m4w=0.1, mass=1.0)
    with pytest.raises(InputError):
        WeightedMoments(m2w=math.nan, m4w=0.1, mass=1.0)


def test_moments_from_constant_offsets():
    phis = np.linspace(-1.0, 1.0, 20)
    offs = (np.full(20, 0.3), phis)
    m = moments_from_offsets(offs)
    assert m.m2w == pytest.approx(0.09, rel=1e-14)
    assert m.m4w == pytest.approx(0.0081, rel=1e-14)
    assert m.mass == pytest.approx(20.0)


def test_moments_weights_default_to_uniform():
    rng = np.random.default_rng(4)
    offs = (rng.normal(size=50), rng.uniform(-1, 1, 50))
    a = moments_from_offsets(offs)
    b = moments_from_offsets(offs, np.ones(50))
    assert a.m2w == pytest.approx(b.m2w, rel=1e-14)
    assert a.m4w == pytest.approx(b.m4w, rel=1e-14)
    assert a.mass == pytest.approx(b.mass, rel=1e-14)


@pytest.mark.parametrize(
    "reader", [fit_mean, moments_from_offsets, estimate_covariance]
)
@pytest.mark.parametrize("shape", [(3,), (5, 1), (1, 5)])
def test_weights_of_the_wrong_shape_are_input_errors(reader, shape):
    events = (np.linspace(-0.5, 0.5, 5), np.linspace(-1.2, 1.2, 5))
    with pytest.raises(InputError, match="weights"):
        reader(events, np.ones(shape))


@pytest.mark.parametrize(
    "reader", [fit_mean, moments_from_offsets, estimate_covariance]
)
@pytest.mark.parametrize("bad", [
    [1.0, math.nan, 1.0, 1.0, 1.0],
    [1.0, 1.0, math.inf, 1.0, 1.0],
    [1.0, 1.0, 1.0, -math.inf, 1.0],
    [1.0, 1.0, 1.0, 1.0, -0.5],
    [0.0] * 5,
    [1e308] * 5,  # finite weights whose total overflows
])
def test_weights_that_are_not_finite_and_nonnegative_are_input_errors(
    reader, bad
):
    events = (np.linspace(-0.5, 0.5, 5), np.linspace(-1.2, 1.2, 5))
    with np.errstate(over="ignore"), pytest.raises(InputError, match="weight"):
        reader(events, np.array(bad))


# ------------------------------------------------------------ moment inversion

def test_invert_moments_oracle():
    s1, s2 = invert_moments(WeightedMoments(0.06, 0.0132, 1.0))
    assert s1 == pytest.approx(0.1, rel=1e-9)
    assert s2 == pytest.approx(0.02, rel=1e-9)


def test_invert_moments_floors_vanishing_minor_axis():
    # discriminant lands exactly on sigma2^2 = 0; the floor takes over
    s1, s2 = invert_moments(WeightedMoments(0.5, 1.125, 1.0))
    assert s1 == pytest.approx(1.0, rel=1e-12)
    assert s2 == 1e-8


def test_invert_moments_clamps_negative_discriminant():
    # m4 below the attainable band collapses to the isotropic solution
    s1, s2 = invert_moments(WeightedMoments(1.0, 2.0, 1.0))
    assert s1 == pytest.approx(1.0, rel=1e-12)
    assert s2 == pytest.approx(1.0, rel=1e-12)


def test_moment_roundtrip_random_sigmas():
    # axis ratio capped at 1e3: beyond ~3e3 the fourth moment no longer
    # carries 1e-12-relative information about the minor axis in float64
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        hi = math.exp(rng.uniform(math.log(1e-6), 0.0))
        ratio = math.exp(rng.uniform(0.0, math.log(1e3)))
        lo = max(hi / ratio, 1e-6)
        p = EigenDecomposition2D(hi, lo, rng.uniform(-1.5, 1.5))
        m2, m4 = theoretical_moments(p)
        s1, s2 = invert_moments(WeightedMoments(m2, m4, 1.0), variance_floor=0.0)
        assert s1 == pytest.approx(hi, rel=1e-12)
        assert s2 == pytest.approx(lo, rel=1e-12)


# ------------------------------------------------------------------- mean fit

@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("reader", [
    fit_mean,
    moments_from_offsets,
    estimate_covariance,
    lambda lors: center_offsets(lors, (0.1, -0.2)),
    lambda lors: fit(lors, FitConfig(K=1)),
])
def test_non_finite_events_are_input_errors(reader, bad, column):
    events = [np.linspace(-0.5, 0.5, 8), np.linspace(-1.2, 1.2, 8)]
    events[column][3] = bad
    with pytest.raises(InputError, match="non-finite"):
        reader(tuple(events))


def test_offsets_that_overflow_are_input_errors():
    # sin + cos > 1.09 on these angles, so 1.7e308 (sin + cos) overflows
    events = (np.zeros(8), np.linspace(0.1, 1.4, 8))
    with np.errstate(over="ignore"):
        with pytest.raises(InputError, match="not finite"):
            center_offsets(events, (-1.7e308, 1.7e308))


def reach_limit(n, room):
    return (np.finfo(float).max / n) ** 0.25 / room


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["spread", "outlier"])
@pytest.mark.parametrize("reader", [
    fit_mean,
    moments_from_offsets,
    lambda lors: fit(lors, FitConfig(K=1)),
    lambda lors: fit(lors, FitConfig(K=3)),
])
def test_events_whose_fourth_powers_overflow_are_input_errors(case, reader):
    with pytest.raises(InputError, match=r"^\|s\| reaches "):
        reader(overflow_cases()[case])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K", [1, 3])
def test_events_just_below_the_reach_limit_fit(K):
    rng = np.random.default_rng(20)
    z, phi = rng.normal(size=300), rng.uniform(-1.5, 1.5, 300)
    limit = reach_limit(300, 2.0)
    s = z / np.max(np.abs(z)) * limit
    assert np.max(np.abs(s)) <= limit
    result = fit((s, phi), FitConfig(K=K))
    assert np.isclose(sum(c.weight for c in result.model.components), 1.0)
    s[np.argmax(np.abs(s))] = np.nextafter(limit, np.inf)
    with pytest.raises(InputError, match=r"^\|s\| reaches "):
        fit((s, phi), FitConfig(K=K))


def test_offsets_whose_fourth_powers_overflow_are_input_errors():
    # at phi = 0 the offset of s from the mean (0, y) is s - y
    s, phi = np.full(8, reach_limit(8, 2.0)), np.zeros(8)
    limit = reach_limit(8, 1.001)
    s_c, _ = center_offsets((s, phi), (0.0, s[0] - 0.99 * limit))
    assert np.all((s_c > 0.98 * limit) & (s_c < limit))
    with pytest.raises(InputError, match=r"^\|s_c\| reaches "):
        center_offsets((s, phi), (0.0, -s[0]))


def test_fit_mean_three_lines_exact():
    mu = np.array([1.0, 2.0])
    phis = np.array([0.0, math.pi / 4, -math.pi / 3])
    s = mean_sinusoid(phis, mu)
    got = fit_mean((s, phis))
    assert np.allclose(got, mu, atol=1e-12)


def test_fit_mean_zero_offsets_give_origin():
    phis = np.array([0.0, 0.7, -0.9, 1.2])
    got = fit_mean((np.zeros(4), phis))
    assert np.allclose(got, 0.0, atol=1e-14)


def test_fit_mean_requires_angular_spread():
    phis = np.full(6, 0.4)
    s = np.linspace(-1, 1, 6)
    with pytest.raises(DegenerateGeometryError):
        fit_mean((s, phis))


@given(seed=st.integers(0, 2**32 - 1))
def test_solve_sym2_matches_a_general_solve(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2))
    m = a @ a.T + 1e-3 * np.eye(2)
    rhs = rng.normal(size=2)
    got = _solve_sym2(m[0, 0], m[0, 1], m[1, 1], *rhs, "unused")
    want = np.linalg.solve(m, rhs)
    scale = 1e-14 * np.linalg.cond(m) * np.abs(want).max()
    assert np.allclose(got, want, rtol=0.0, atol=scale)


@pytest.mark.parametrize("m", [
    (1.0, 1.0, 1.0),  # singular: smaller eigenvalue 0
    (1.0, 0.0, -1e-3),  # indefinite
    (1.0, 0.0, 1e-13),  # eigenvalue ratio 1e13
])
def test_solve_sym2_refuses_a_system_the_data_do_not_pin(m):
    with pytest.raises(DegenerateGeometryError, match="what went wrong"):
        _solve_sym2(*m, 1.0, 1.0, "what went wrong")


def test_solve_sym2_solves_a_system_within_the_condition_limit():
    assert _solve_sym2(1.0, 0.0, 1e-11, 1.0, 1e-11, "unused") == (1.0, 1.0)


def test_fit_mean_minimizes_weighted_residual():
    rng = np.random.default_rng(88)
    for _ in range(20):
        mu = rng.normal(size=2)
        phis = rng.uniform(-math.pi / 2, math.pi / 2, 30)
        s = mean_sinusoid(phis, mu) + rng.normal(0, 0.2, 30)
        w = rng.uniform(0.1, 2.0, 30)
        got = fit_mean((s, phis), w)

        def sse(m):
            r = s - mean_sinusoid(phis, m)
            return float(np.sum(w * r * r))

        base = sse(got)
        for dx, dy in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]:
            assert sse(got + 1e-4 * np.array([dx, dy])) >= base


def test_center_offsets_removes_the_sinusoid():
    rng = np.random.default_rng(12)
    mu = np.array([0.7, -0.3])
    phis = rng.uniform(-math.pi / 2, math.pi / 2, 40)
    noise = rng.normal(0, 0.05, 40)
    s = mean_sinusoid(phis, mu) + noise
    s_c, phi = center_offsets((s, phis), mu)
    assert np.allclose(s_c, noise, atol=1e-14)
    assert np.array_equal(phi, phis)


def test_center_offsets_zero_mean_is_identity():
    rng = np.random.default_rng(13)
    s = rng.normal(size=25)
    phis = rng.uniform(-1.5, 1.5, 25)
    s_c, _ = center_offsets((s, phis), np.zeros(2))
    assert np.array_equal(s_c, s)


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
)
def test_center_offsets_result_copies_and_pickles(clone):
    rng = np.random.default_rng(14)
    s = rng.normal(size=25)
    phis = rng.uniform(-1.5, 1.5, 25)
    offs = center_offsets((s, phis), np.array([0.2, -0.1]))
    s_c, phi = clone(offs)
    assert np.array_equal(s_c, offs[0])
    assert np.array_equal(phi, phis)
    assert estimate_covariance(clone(offs)).tobytes() == (
        estimate_covariance(offs).tobytes()
    )


@pytest.mark.parametrize("lors", ["pair", "batch"])
def test_center_offsets_returns_a_plain_pair_of_float_arrays(lors):
    # the fit's batch stays private: a batch given in, with its angle
    # features computed, still comes back as the plain (s_c, phi) tuple
    rng = np.random.default_rng(15)
    s = rng.normal(size=25)
    phis = rng.uniform(-1.5, 1.5, 25)
    given = (s, phis) if lors == "pair" else cached(s, phis)
    offs = center_offsets(given, np.array([0.2, -0.1]))
    assert type(offs) is tuple and len(offs) == 2  # not a _Batch
    for part in offs:
        assert type(part) is np.ndarray and part.dtype == np.float64
        assert part.shape == (25,)


# ----------------------------------------------------------- orientation solve

def test_orientation_recovered_exactly_on_clean_data():
    # near the axes too, where a solve in cos(2 phi0) would lose sqrt(eps)
    axes = (0.0, 1e-9, -1e-9, 1e-8, math.pi / 2 - 1e-9, 1e-9 - math.pi / 2)
    for phi0 in (*np.linspace(-1.5, 1.5, 50), *axes):
        offs = pseudo_offsets(0.09, 0.01, phi0)
        got = solve_orientation(moments_from_offsets(offs), 0.09, 0.01)
        assert abs(math.remainder(got - phi0, math.pi)) < 1e-12


def test_orientation_isotropic_returns_zero():
    offs = pseudo_offsets(0.04, 0.04, 0.3)
    assert solve_orientation(moments_from_offsets(offs), 0.04, 0.04) == 0.0


def test_orientation_of_a_flat_objective_returns_zero():
    # no angular dependence at all: every orientation scores the same
    m = WeightedMoments(0.05, 0.0033, 1.0)
    assert solve_orientation(m, 0.09, 0.01) == 0.0


def test_orientation_handles_mild_eccentricity():
    for phi0 in (-0.8, 0.2, 1.1):
        offs = pseudo_offsets(0.051, 0.049, phi0, n=128)
        got = solve_orientation(moments_from_offsets(offs), 0.051, 0.049)
        assert abs(math.remainder(got - phi0, math.pi)) < 1e-6


def companion_quartic_roots(c4, c3, c2, c1, c0):
    """The roots of the quartic as the eigenvalues of its companion
    matrix, in one LAPACK call, with the demotion and order of
    :func:`solve_quartic`: the test-local oracle of the closed form."""
    coeffs = (c4, c3, c2, c1, c0)
    mags = [abs(c) for c in coeffs]
    lead = next(i for i, mag in enumerate(mags) if mag > 1e-14 * max(mags))
    degree = 4 - lead
    companion = np.eye(degree, k=-1, dtype=complex)
    companion[0] = np.array(coeffs[lead + 1:], dtype=complex) / -coeffs[lead]
    roots = map(complex, np.linalg.eigvals(companion))
    return sorted(roots, key=lambda z: (z.real, z.imag))


def companion_orientations(monkeypatch, calls):
    """solve_orientation of each (moments, sigma1_sq, sigma2_sq) of
    ``calls`` with its quartic solved by the companion matrix."""
    import gmmlor.estimate as est

    with monkeypatch.context() as patched:
        patched.setattr(est, "solve_quartic", companion_quartic_roots)
        return [solve_orientation(*call) for call in calls]


def orientation_gap(a, b):
    return abs(math.remainder(a - b, math.pi))


def test_orientation_matches_the_companion_oracle_on_benchmark_moments(
    benchmark_mixture, monkeypatch
):
    # every orientation solve of the benchmark replicates of master seed
    # 0, up to 10^4 of them
    import gmmlor.estimate as est

    calls = []
    original = est.solve_orientation

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(est, "solve_orientation", spy)
    i = 0
    while len(calls) < 10_000:
        res = simulate_lors(
            benchmark_mixture, counts=BENCHMARK_COUNTS, seed=derive_seed(0, 2 * i)
        )
        config = FitConfig(K=3, weight_tol=1e-3, seed=derive_seed(0, 2 * i + 1))
        try:
            fit((res.s, res.phi), config)
        except ComponentDeathError:
            pass
        i += 1
    monkeypatch.undo()
    calls = calls[:10_000]
    want = companion_orientations(monkeypatch, calls)
    got = [solve_orientation(*call) for call in calls]
    assert max(map(orientation_gap, got, want)) <= 1e-12


@pytest.mark.parametrize("split", [0.0, 1e-12, 1e-9, 1e-6])
def test_orientation_matches_the_companion_oracle_near_double_roots(
    split, monkeypatch
):
    # the objective P cos 2a + Q sin 2a + R cos a + S sin a with R and S
    # chosen so that its slope and curvature vanish together at a1 (a
    # double root of the quartic at exp(i a1)), then R moved by
    # ``split``.  Its third derivative at a1 is kept away from 0: where
    # it vanishes too, the minimum joins the cluster, and no solver
    # places it within 1e-12 (the two read up to 3.3e-11 apart there).
    s1, s2 = 0.09, 0.01
    c = 0.5 * (s2 - s1)
    rng = np.random.default_rng(int(-math.log10(split)) if split else 0)
    calls, gaps = [], []
    while len(calls) < 200:
        P, Q = rng.normal(size=2)
        a1 = rng.uniform(-math.pi, math.pi)
        slope = [[-math.sin(a1), math.cos(a1)], [-math.cos(a1), -math.sin(a1)]]
        rhs = [2 * P * math.sin(2 * a1) - 2 * Q * math.cos(2 * a1),
               4 * P * math.cos(2 * a1) + 4 * Q * math.sin(2 * a1)]
        R, S = np.linalg.solve(slope, rhs)
        third = (8 * P * math.sin(2 * a1) - 8 * Q * math.cos(2 * a1)
                 + R * math.sin(a1) - S * math.cos(a1))
        if abs(third) < 1.0:
            continue
        R += split * math.hypot(R, S)
        calls.append((WeightedMoments(
            0.05, 0.0033, 1.0, cos4w=2 * P / c**2, sin4w=2 * Q / c**2,
            tcos2w=-R / (2 * c), tsin2w=-S / (2 * c),
        ), s1, s2))
        coeffs = (complex(-2 * P, 2 * Q), complex(-R, S), 0.0,
                  complex(R, S), complex(2 * P, 2 * Q))
        roots = solve_quartic(*coeffs)
        # the pair near exp(i a1), and each root against the oracle's
        pair = sorted(abs(z - cmath.exp(1j * a1)) for z in roots)[:2]
        oracle = companion_quartic_roots(*coeffs)
        gaps.append((pair[1], max(
            min(abs(z - w) for w in oracle) for z in roots
        )))
    assert max(pair for pair, _ in gaps) <= 0.05
    assert max(gap for _, gap in gaps) <= 1e-6
    want = companion_orientations(monkeypatch, calls)
    got = [solve_orientation(*call) for call in calls]
    assert max(map(orientation_gap, got, want)) <= 1e-12


def test_fit_and_solve_quartic_make_no_lapack_call(
    benchmark_mixture, monkeypatch
):
    # np.linalg.norm measures phase 1's mean moves; no other np.linalg
    # function runs in a fit or a quartic solve
    res = simulate_lors(benchmark_mixture, counts=(700, 500, 200), seed=5)
    config = FitConfig(K=3, weight_tol=1e-3, seed=0, restarts=2)
    want = fit((res.s, res.phi), config)
    roots = solve_quartic(1.0, -1.0, 1.25, -1.0, 0.25)
    called = []
    for name in dir(np.linalg):
        function = getattr(np.linalg, name)
        # every function, not the error class
        if name[0].islower() and callable(function) and name != "norm":
            def spy(*args, _name=name, _function=function, **kwargs):
                called.append(_name)
                return _function(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
    got = fit((res.s, res.phi), config)
    assert solve_quartic(1.0, -1.0, 1.25, -1.0, 0.25) == roots
    assert called == []
    for a, b in zip(got.model.components, want.model.components):
        assert np.array_equal(a.covariance, b.covariance)


# ------------------------------------------------------------ sigma refinement

def test_refine_sigmas_exact_on_clean_data():
    m = moments_from_offsets(pseudo_offsets(0.09, 0.01, 0.7))
    s1, s2, p0 = refine_sigmas(m, 0.7)
    assert s1 == pytest.approx(0.09, rel=1e-10)
    assert s2 == pytest.approx(0.01, rel=1e-10)
    assert p0 == 0.7


def test_refine_sigmas_swaps_when_axes_cross():
    # handing in the minor axis must come back major-first, angle shifted
    m = moments_from_offsets(pseudo_offsets(0.09, 0.01, 0.7))
    s1, s2, p0 = refine_sigmas(m, 0.7 + math.pi / 2)
    assert s1 == pytest.approx(0.09, rel=1e-10)
    assert s2 == pytest.approx(0.01, rel=1e-10)
    assert abs(math.remainder(p0 - 0.7, math.pi)) < 1e-12
    assert s1 >= s2


def test_refine_sigmas_floors_zero_data():
    phis = np.linspace(-1.5, 1.5, 32)
    offs = (np.zeros(32), phis)
    s1, s2, p0 = refine_sigmas(moments_from_offsets(offs), 0.3)
    assert s1 == s2 == 1e-8
    assert p0 == 0.3


def test_refine_sigmas_refuses_moments_from_a_single_angle():
    # on one angle, sin^2 and cos^2 of phi0 - phi are the same for every
    # event, so the variances along the two axes cannot be told apart
    offs = (np.linspace(-0.3, 0.3, 40), np.full(40, 0.4))
    with pytest.raises(DegenerateGeometryError, match="angle coverage"):
        refine_sigmas(moments_from_offsets(offs), 0.9)


def test_refine_sigmas_orders_outputs_on_noisy_data():
    rng = np.random.default_rng(91)
    for _ in range(30):
        truth1, truth2 = sorted(rng.uniform(0.01, 0.2, size=2), reverse=True)
        phi0 = rng.uniform(-1.5, 1.5)
        cov = covariance_from_eigen(EigenDecomposition2D(truth1, truth2, phi0))
        phis = rng.uniform(-math.pi / 2, math.pi / 2, 500)
        sc = rng.normal(0, np.sqrt(projection_variance(cov, phis)))
        s1, s2, _ = refine_sigmas(moments_from_offsets((sc, phis)), phi0)
        assert s1 >= s2 >= 1e-8


# ------------------------------------------- moment formulas vs per-event sums

def anisotropic_offsets(rng, n=2000, ratio=(2.0, 20.0)):
    """Weighted centered offsets of a random eccentric component whose
    axis ratio s1 / s2 is drawn from ``ratio``."""
    s1 = rng.uniform(0.02, 0.4)
    s2 = s1 / rng.uniform(*ratio)
    phi0 = rng.uniform(-1.5, 1.5)
    cov = covariance_from_eigen(EigenDecomposition2D(s1, s2, phi0))
    phis = rng.uniform(-math.pi / 2, math.pi / 2, n)
    s_c = rng.normal(0.0, np.sqrt(projection_variance(cov, phis)))
    return s_c, phis, rng.uniform(0.05, 1.0, n), (s1, s2, phi0)


def reference_refine_sigmas(s_c, phi, w, phi0, floor=1e-8):
    """Normal equations on sin^2 and cos^2 of phi0 - phi, event by event."""
    u = np.sin(phi0 - phi) ** 2
    v = np.cos(phi0 - phi) ** 2
    t = s_c * s_c
    normal = np.array([
        [np.sum(w * u * u), np.sum(w * u * v)],
        [np.sum(w * u * v), np.sum(w * v * v)],
    ])
    rhs = np.array([np.sum(w * t * u), np.sum(w * t * v)])
    s1, s2 = np.maximum(np.linalg.solve(normal, rhs), floor)
    if s2 > s1:
        return s2, s1, canonicalize_orientation(phi0 + math.pi / 2)
    return s1, s2, canonicalize_orientation(phi0)


def reference_orientation(s_c, phi, w, s1, s2):
    """phi0 minimizing sum w (s_c^2 - e - c cos(2 phi - 2 phi0))^2, found
    on a dense grid and polished to a root of the derivative."""
    t = s_c * s_c
    e, c = 0.5 * (s1 + s2), 0.5 * (s2 - s1)

    def loss(a0):
        r = t - e - c * np.cos(2.0 * phi - a0)
        return np.sum(w * r * r)

    def slope(a0):
        r = t - e - c * np.cos(2.0 * phi - a0)
        return -np.sum(w * r * c * np.sin(2.0 * phi - a0))

    grid = np.linspace(-math.pi, math.pi, 720, endpoint=False)
    best = grid[np.argmin([loss(a0) for a0 in grid])]
    span = 2.0 * math.pi / 720
    a0 = optimize.brentq(slope, best - span, best + span, xtol=1e-15)
    return canonicalize_orientation(0.5 * a0)


def test_refine_sigmas_matches_the_per_event_normal_equations():
    rng = np.random.default_rng(515)
    for _ in range(20):
        s_c, phis, w, (_, _, phi0) = anisotropic_offsets(rng)
        m = moments_from_offsets((s_c, phis), w)
        # the true axis, a rough one, and the minor axis (which swaps)
        for guess in (phi0, phi0 + 0.3, phi0 + math.pi / 2):
            got = refine_sigmas(m, guess)
            ref = reference_refine_sigmas(s_c, phis, w, guess)
            assert got[0] == pytest.approx(ref[0], rel=1e-12)
            assert got[1] == pytest.approx(ref[1], rel=1e-12)
            assert abs(math.remainder(got[2] - ref[2], math.pi)) < 1e-12


def test_solve_orientation_minimizes_the_per_event_objective():
    rng = np.random.default_rng(516)
    for _ in range(20):
        s_c, phis, w, (s1, s2, _) = anisotropic_offsets(rng)
        m = moments_from_offsets((s_c, phis), w)
        got = solve_orientation(m, s1, s2)
        ref = reference_orientation(s_c, phis, w, s1, s2)
        assert abs(math.remainder(got - ref, math.pi)) < 1e-12


def test_moments_are_the_weighted_angle_averages():
    rng = np.random.default_rng(517)
    s_c, phis, w, _ = anisotropic_offsets(rng, n=500)
    m = moments_from_offsets((s_c, phis), w)
    t = s_c * s_c
    expected = {
        "m2w": t, "m4w": t * t,
        "cos2w": np.cos(2 * phis), "sin2w": np.sin(2 * phis),
        "cos4w": np.cos(4 * phis), "sin4w": np.sin(4 * phis),
        "tcos2w": t * np.cos(2 * phis), "tsin2w": t * np.sin(2 * phis),
    }
    for name, values in expected.items():
        assert getattr(m, name) == pytest.approx(
            math.fsum(w * values) / math.fsum(w), rel=1e-13, abs=1e-16
        ), name
    assert m.mass == pytest.approx(math.fsum(w), rel=1e-14)


# --------------------------------------------------------- covariance pipeline

def test_estimate_covariance_recovers_tilted_component():
    cov = np.array([[0.04, 0.03], [0.03, 0.09]])
    res = simulate_lors(single((0.0, 0.0), cov), counts=(100000,), seed=21)
    got = estimate_covariance((res.s, res.phi))
    assert np.linalg.norm(got - cov) < 0.01


def test_estimate_covariance_point_source_floors():
    phis = np.linspace(-1.5, 1.5, 200)
    got = estimate_covariance((np.zeros(200), phis))
    assert np.allclose(got, 1e-8 * np.eye(2), atol=1e-20)


def test_estimate_covariance_accepts_array_pairs():
    res = simulate_lors(single((0.0, 0.0), 0.05 * np.eye(2)), counts=(5000,), seed=2)
    a = estimate_covariance((res.s, res.phi))
    b = estimate_covariance(np.column_stack((res.s, res.phi)))
    assert np.array_equal(a, b)


# --------------------------------------------- rotation and fold of the events

def rotate_events(s, phi, delta):
    """The events of a source rotated by delta about the origin: a line
    keeps its offset and turns by delta, then folds back into
    [-pi/2, pi/2] with s -> -s."""
    phi = phi + delta
    k = np.floor((phi + math.pi / 2) / math.pi)
    return np.where(k % 2 == 0, s, -s), phi - k * math.pi


def rotate_covariance(cov, delta):
    r = np.array([[math.cos(delta), -math.sin(delta)],
                  [math.sin(delta), math.cos(delta)]])
    return r @ cov @ r.T


def eccentric_offsets(seed):
    """Offsets of a component eccentric enough that sampling noise in the
    fourth moment never clamps the discriminant of moment inversion."""
    rng = np.random.default_rng(seed)
    s_c, phis, w, _ = anisotropic_offsets(rng, 1000, ratio=(10.0, 100.0))
    return s_c, phis, w


@given(
    seed=st.integers(0, 2**32 - 1),
    delta=st.floats(-math.pi, math.pi),
    weighted=st.booleans(),
)
def test_estimate_covariance_rotates_with_the_events(seed, delta, weighted):
    s_c, phis, w = eccentric_offsets(seed)
    w = w if weighted else None
    s1, s2 = invert_moments(moments_from_offsets((s_c, phis), w))
    assert s1 > s2  # the quartic branch, not the isotropic shortcut
    cov = estimate_covariance((s_c, phis), w)
    got = estimate_covariance(rotate_events(s_c, phis, delta), w)
    scale = np.linalg.norm(cov)
    assert np.linalg.norm(got - rotate_covariance(cov, delta)) <= 1e-12 * scale


@given(seed=st.integers(0, 2**32 - 1), weighted=st.booleans())
def test_estimate_covariance_ignores_a_fold(seed, weighted):
    s_c, phis, w = eccentric_offsets(seed)
    w = w if weighted else None
    # (s, phi) and (-s, phi -+ pi) are the same line
    flip = np.random.default_rng(seed).random(phis.size) < 0.5
    folded = (
        np.where(flip, -s_c, s_c),
        np.where(flip, phis - math.pi * np.sign(phis), phis),
    )
    cov = estimate_covariance((s_c, phis), w)
    got = estimate_covariance(folded, w)
    assert np.linalg.norm(got - cov) <= 1e-12 * np.linalg.norm(cov)


def test_noiseless_offsets_take_the_isotropic_shortcut():
    # the marginal of noiseless offsets is not Gaussian: its fourth
    # moment is low enough that moment inversion clamps to isotropy
    m = moments_from_offsets(pseudo_offsets(0.09, 0.01, 0.4))
    s1, s2 = invert_moments(m)
    assert s1 == s2
    assert solve_orientation(m, s1, s2) == 0.0


def rotation_examples(test):
    """The rotations 0.3, 0.7 and 1.2 and a spread over [-pi, pi], as
    explicit examples."""
    for delta in (0.3, 0.7, 1.2, *np.linspace(-math.pi, math.pi, 9)):
        test = example(delta=float(delta))(test)
    return test


@pytest.mark.xfail(
    strict=True,
    reason="the isotropic shortcut returns phi0 = 0, a lab-frame axis, "
    "so refine_sigmas fits the variances along x and y",
)
# explicit examples only: a generated failure would be written out as a
# patch file on every run
@settings(phases=[Phase.explicit])
@rotation_examples
@given(delta=st.floats(-math.pi, math.pi))
def test_isotropic_shortcut_rotates_with_the_events(delta):
    s_c, phis = pseudo_offsets(0.09, 0.01, 0.4)
    cov = estimate_covariance((s_c, phis))
    got = estimate_covariance(rotate_events(s_c, phis, delta))
    scale = np.linalg.norm(cov)
    assert np.linalg.norm(got - rotate_covariance(cov, delta)) <= 1e-12 * scale


# --------------------------------------------------- cached angle features

@pytest.mark.parametrize("weighted", [False, True])
def test_cached_angle_features_give_bitwise_equal_estimates(weighted):
    cov = [[0.04, 0.03], [0.03, 0.09]]
    res = simulate_lors(single((0.3, -0.2), cov), counts=(3000,), seed=8)
    rng = np.random.default_rng(4)
    w = rng.uniform(0.05, 1.0, res.s.size) if weighted else None
    mu = fit_mean((res.s, res.phi), w)
    assert np.array_equal(fit_mean(cached(res.s, res.phi), w), mu)
    s_c, phi = center_offsets((res.s, res.phi), mu)
    offs = center_offsets(cached(res.s, res.phi), mu)
    assert np.array_equal(offs[0], s_c)
    assert np.array_equal(
        estimate_covariance(offs, w), estimate_covariance((s_c, phi), w)
    )


def test_cached_angle_features_of_a_subset_give_bitwise_equal_estimates():
    cov = [[0.04, 0.03], [0.03, 0.09]]
    res = simulate_lors(single((0.3, -0.2), cov), counts=(3000,), seed=9)
    idx = np.flatnonzero(np.random.default_rng(5).random(res.s.size) < 0.4)
    plain = (res.s[idx], res.phi[idx])
    mu = fit_mean(plain)
    assert np.array_equal(fit_mean(cached(res.s, res.phi, idx)), mu)
    s_c, phi = center_offsets(plain, mu)
    offs = center_offsets(cached(res.s, res.phi, idx), mu)
    assert np.array_equal(offs[0], s_c)
    assert np.array_equal(estimate_covariance(offs), estimate_covariance((s_c, phi)))


def test_cached_angle_features_keep_the_isotropic_orientation():
    s_c, phis = pseudo_offsets(0.04, 0.04, 0.3)
    m = moments_from_offsets(cached(s_c, phis))
    assert solve_orientation(m, 0.04, 0.04) == 0.0
    zero = (np.zeros(200), np.linspace(-1.5, 1.5, 200))
    got = estimate_covariance(cached(*zero))
    assert np.array_equal(got, estimate_covariance(zero))
    assert got[0, 1] == 0.0  # phi0 = 0: axes along x and y


def component_order_sum(rows):
    """Sum of a (N, K) array's columns, added in component order."""
    total = rows[:, 0].copy()
    for k in range(1, rows.shape[1]):
        total += rows[:, k]
    return total


def reference_memberships(s, phi, means, covariances, tau):
    """The E-step with fresh arrays, np.max over each row and the row
    sum added in component order."""
    logp = np.column_stack([
        math.log(t) + log_line_integral_profile(c, m, s, phi)
        for m, c, t in zip(means, covariances, tau)
    ])
    row_max = np.max(logp, axis=1)
    shifted = np.exp(logp - row_max[:, None])
    row_sum = component_order_sum(shifted)
    return shifted / row_sum[:, None], float(np.sum(row_max + np.log(row_sum)))


def random_mixture_arrays(K, rng):
    means = rng.normal(0.0, 0.8, size=(K, 2))
    covariances = []
    for _ in range(K):
        a = rng.normal(0.0, 0.2, size=(2, 2))
        covariances.append(a @ a.T + 0.01 * np.eye(2))
    tau = rng.uniform(0.5, 1.5, K)
    return means, covariances, tau / tau.sum()


@pytest.mark.parametrize("K", [1, 3, 9])
def test_memberships_match_the_row_reduction_reference_bitwise(K):
    # K = 9 also pins the row sum: component-order addition rounds
    # differently from np.sum once a row has 8 or more terms
    rng = np.random.default_rng(40 + K)
    means, covariances, tau = random_mixture_arrays(K, rng)
    s = rng.normal(0.0, 1.0, 2000)
    phi = rng.uniform(-math.pi / 2, math.pi / 2, 2000)
    resp, loglik = _memberships_arrays(s, phi, means, covariances, tau)
    ref, ref_loglik = reference_memberships(s, phi, means, covariances, tau)
    # component-major: every column is one contiguous run of events
    assert resp.T.flags.c_contiguous
    assert np.array_equal(resp, ref)
    assert loglik == ref_loglik


def test_memberships_with_one_underflow_row_match_the_reference(benchmark_mixture):
    res = simulate_lors(benchmark_mixture, counts=(30, 20, 10), seed=2)
    s = np.append(res.s, 1e200)
    phi = np.append(res.phi, 0.0)
    means = [c.mean for c in benchmark_mixture.components]
    covariances = [c.covariance for c in benchmark_mixture.components]
    tau = [c.weight for c in benchmark_mixture.components]
    resp, loglik = _memberships_arrays(s, phi, means, covariances, tau)
    ref, _ = reference_memberships(res.s, res.phi, means, covariances, tau)
    assert np.array_equal(resp[:-1], ref)
    assert np.all(resp[-1] == 1.0 / 3.0)
    assert loglik == -math.inf


def plain_profile(cov, mean, s, phi):
    """The log line-integral profile written out in the 2 phi basis, with
    cos 2 phi and sin 2 phi from the batch's products: the formula that
    log_line_integral_profile must give bitwise."""
    batch = _Batch(s, phi)
    cos2, sin2 = batch.table[:2]
    var = (
        cos2 * (0.5 * (cov[1][1] - cov[0][0]))
        + 0.5 * (cov[0][0] + cov[1][1])
        - cov[0][1] * sin2
    )
    s_c = s - mean_sinusoid(batch, mean)
    return var, -0.5 * (np.log(2.0 * math.pi * var) + s_c * s_c / var)


def sin_cos_variance(cov, phi):
    """n^T Sigma n in its sin/cos form, Sxx sin^2 - 2 Sxy sin cos +
    Syy cos^2, as the E-step took it before the 2 phi basis: the oracle
    the basis is held to."""
    si, co = np.sin(phi), np.cos(phi)
    return cov[0][0] * si * si - 2.0 * cov[0][1] * si * co + cov[1][1] * co * co


def sin_cos_profile(cov, mean, s, phi):
    var = sin_cos_variance(cov, phi)
    s_c = s - mean_sinusoid(phi, mean)
    return -0.5 * (np.log(2.0 * math.pi * var) + s_c * s_c / var)


def sin_cos_memberships(s, phi, means, covariances, tau):
    """The E-step's memberships and log-likelihood proxy from
    :func:`sin_cos_profile`."""
    logp = np.column_stack([
        math.log(t) + sin_cos_profile(c, m, s, phi)
        for m, c, t in zip(means, covariances, tau)
    ])
    row_max = np.max(logp, axis=1)
    shifted = np.exp(logp - row_max[:, None])
    row_sum = component_order_sum(shifted)
    return shifted / row_sum[:, None], float(np.sum(row_max + np.log(row_sum)))


def sin_cos_sums(s, phi, means, covariances, tau):
    """The sums of one phase-2 pass from the sin/cos E-step, as the
    14-einsum kernel formed them before the 2 phi basis: per component
    the mass, the weighted sums of sin^2, sin cos, cos^2, s sin and
    s cos, and the eight moment sums; and the same sums of the absolute
    terms."""
    resp, _ = sin_cos_memberships(s, phi, means, covariances, tau)
    si, co = np.sin(phi), np.cos(phi)
    features = [(), (si, si), (si, co), (co, co), (s, si), (s, co)]
    sums, scales = [], []
    for k, mean in enumerate(means):
        w = resp[:, k].copy()
        t = (s - mean_sinusoid(phi, mean)) ** 2
        features[6:] = [
            (t,), (t, t), (np.cos(2 * phi),), (np.sin(2 * phi),),
            (np.cos(4 * phi),), (np.sin(4 * phi),), (t, np.cos(2 * phi)),
            (t, np.sin(2 * phi)),
        ]
        sums.append([wsum(w, *f) for f in features])
        scales.append([wsum(w, *(np.abs(x) for x in f)) for f in features])
    return np.array(sums), np.array(scales)


def as_sin_cos_sums(sums):
    """The (K, 11) sums of the kernel in the layout of
    :func:`sin_cos_sums`: the normal system's sums of sin^2, sin cos
    and cos^2 from the mass and the sums of cos 2 phi and sin 2 phi."""
    mass, cos2, sin2 = sums[:, 0], sums[:, 5], sums[:, 6]
    return np.column_stack([
        mass, 0.5 * (mass - cos2), 0.5 * sin2, 0.5 * (mass + cos2),
        sums[:, 1:3], sums[:, 3:],
    ])


@pytest.mark.parametrize("n", [1, 2000, _BLOCK_EVENTS + 1])
def test_line_integral_profile_is_the_2phi_formula_bitwise(n):
    rng = np.random.default_rng([n, 50])
    means, covariances, _ = random_mixture_arrays(3, rng)
    s, phi = random_events(n, rng)
    for mean, cov in zip(means, covariances):
        var, want = plain_profile(cov, mean, s, phi)
        assert projection_variance(cov, phi).tobytes() == var.tobytes()
        for events in (phi, cached(s, phi)):
            got = log_line_integral_profile(cov, mean, s, events)
            assert got.tobytes() == want.tobytes()
        offsets, out = np.empty(n), np.empty(n)
        got = log_line_integral_profile(
            cov, mean, s, phi, offsets=offsets, out=out
        )
        assert got is out and out.tobytes() == want.tobytes()
        assert offsets.tobytes() == (s - mean_sinusoid(phi, mean)).tobytes()


def sin_cos_cases(benchmark_mixture):
    """(s, phi, means, covariances, tau): the benchmark events at the
    truth, and random mixtures of 3 and 9 components."""
    res = simulate_lors(benchmark_mixture, counts=BENCHMARK_COUNTS, seed=6)
    comps = benchmark_mixture.components
    yield (res.s, res.phi, np.array([c.mean for c in comps]),
           np.array([c.covariance for c in comps]),
           np.array([c.weight for c in comps]))
    for K in (3, 9):
        rng = np.random.default_rng(60 + K)
        means, covariances, tau = random_mixture_arrays(K, rng)
        yield (*random_events(2000, rng), means, np.array(covariances), tau)


def test_e_step_stays_within_1e_13_of_the_sin_cos_formula(benchmark_mixture):
    for s, phi, means, covariances, tau in sin_cos_cases(benchmark_mixture):
        for cov in covariances:
            want = sin_cos_variance(cov, phi)
            got = projection_variance(cov, phi)
            assert np.max(np.abs(got / want - 1.0)) <= 1e-13
        resp, loglik = _memberships_arrays(s, phi, means, covariances, tau)
        want, want_loglik = sin_cos_memberships(s, phi, means, covariances, tau)
        assert np.max(np.abs(resp - want)) <= 1e-13
        assert loglik == pytest.approx(want_loglik, rel=1e-13, abs=0.0)


def test_phase2_sums_stay_within_1e_13_of_the_sin_cos_kernel(benchmark_mixture):
    # each sum within 1e-13 of the sum of its absolute terms, since the
    # angle sums cancel to near 0
    for s, phi, means, covariances, tau in sin_cos_cases(benchmark_mixture):
        want, scale = sin_cos_sums(s, phi, means, covariances, tau)
        sums, _ = _soft_pass(_as_arrays((s, phi)), means, covariances, tau)
        assert np.all(np.abs(as_sin_cos_sums(sums) - want) <= 1e-13 * scale)


def test_needles_at_the_variance_floor_keep_the_sin_cos_profile():
    # a minor variance at the fit's floor, at 64 orientations, seen from
    # LoRs along the needle and across it.  Either form of the projected
    # variance rounds at about 1e-16 of the trace, which is 1e-9 of the
    # floor, so the variances agree within 1e-13 of the trace and the
    # log-densities within what such a variance error gives them.
    rng = np.random.default_rng(64)
    mean = np.array([0.3, -0.2])
    for j in range(64):
        phi0 = -math.pi / 2 + (j + 0.5) * math.pi / 64
        e = EigenDecomposition2D(0.09, DEFAULT_VARIANCE_FLOOR, phi0)
        cov = covariance_from_eigen(e)
        phi = np.concatenate([
            rng.uniform(-math.pi / 2, math.pi / 2, 500),
            phi0 + np.array([0.0, 1e-9, -1e-6, 1e-3, math.pi / 2]),
        ])
        var = sin_cos_variance(cov, phi)
        assert np.max(np.abs(projection_variance(cov, phi) - var)) <= (
            1e-13 * np.trace(cov)
        )
        s = mean_sinusoid(phi, mean) + rng.normal(0.0, 3.0, phi.size) * np.sqrt(var)
        want = sin_cos_profile(cov, mean, s, phi)
        got = log_line_integral_profile(cov, mean, s, phi)
        s_c2 = (s - mean_sinusoid(phi, mean)) ** 2
        reach = 0.5 * 1e-13 * np.trace(cov) / var * (1.0 + s_c2 / var)
        assert np.all(np.abs(got - want) <= reach + 1e-13 * np.abs(want))


# -------------------------------------------------- phase-1 reassignment

def test_nearest_sinusoid_sends_ties_to_the_lower_label():
    # at phi = 0 the distance to a mean is |s - mu_y|, so s = 0 lies
    # exactly halfway between mu_y = 1 and mu_y = -1
    batch = cached(np.array([0.0, 0.9, -0.9]), np.zeros(3))
    up_down = np.array([[0.0, 1.0], [0.0, -1.0]])
    labels, gap = _nearest_sinusoid(batch, up_down)
    assert labels.tolist() == [0, 0, 1]
    assert gap[0] == 0.0
    assert _nearest_sinusoid(batch, up_down[::-1])[0].tolist() == [0, 1, 0]


@pytest.mark.parametrize("K", [1, 2, 3, 9])
def test_nearest_sinusoid_matches_argmin(K):
    rng = np.random.default_rng(70 + K)
    s = rng.normal(0.0, 1.0, 500)
    phi = rng.uniform(-math.pi / 2, math.pi / 2, 500)
    means = rng.normal(0.0, 1.0, size=(K, 2))
    means[-1] = means[0]  # every event ties between two labels
    # the offsets of center_offsets and the E-step, one column per mean
    dist = np.abs(
        np.stack([s - mean_sinusoid(phi, mean) for mean in means], axis=1)
    )
    labels, gap = _nearest_sinusoid(cached(s, phi), means)
    assert labels.dtype == _label_dtype(K)
    assert np.array_equal(labels, np.argmin(dist, axis=1))
    if K == 1:
        assert np.all(gap == np.inf)
    else:
        ranked = np.sort(dist, axis=1)
        assert np.array_equal(gap, ranked[:, 1] - ranked[:, 0])


# ------------------------------------------------------------ blocked passes

B = _BLOCK_EVENTS
BLOCK_SIZES = [1, B - 1, B, B + 1, 3 * B + 7]


def unblocked_memberships(s, phi, means, covariances, tau):
    """The E-step as one pass over every event, normalized in place."""
    K = len(tau)
    batch = _Batch(s, phi)
    logp = np.empty((s.size, K))
    for k in range(K):
        if tau[k] <= 0.0:
            logp[:, k] = -np.inf
        else:
            logp[:, k] = math.log(tau[k]) + log_line_integral_profile(
                covariances[k], means[k], s, batch
            )
    row_max = logp[:, 0].copy()
    for k in range(1, K):
        np.maximum(row_max, logp[:, k], out=row_max)
    bad = ~np.isfinite(row_max)
    underflow = bool(np.any(bad))
    if underflow:
        logp[bad] = 0.0
        row_max[bad] = 0.0
    logp -= row_max[:, None]
    np.exp(logp, out=logp)
    row_sum = component_order_sum(logp)
    logp /= row_sum[:, None]
    if underflow:
        return logp, -math.inf
    return logp, float(np.sum(row_max + np.log(row_sum)))


def random_events(n, rng):
    return rng.normal(0.0, 1.0, n), rng.uniform(-math.pi / 2, math.pi / 2, n)


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("K", [3, 9])
def test_blocked_memberships_equal_the_unblocked_formula(n, K):
    rng = np.random.default_rng(n + K)
    means, covariances, tau = random_mixture_arrays(K, rng)
    s, phi = random_events(n, rng)
    ref, ref_loglik = unblocked_memberships(s, phi, means, covariances, tau)
    for events in (phi, cached(s, phi)):
        resp, loglik = _memberships_arrays(s, events, means, covariances, tau)
        assert np.array_equal(resp, ref)
        assert loglik == ref_loglik


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_memberships_with_a_zero_weight_column(n):
    rng = np.random.default_rng(20 + n)
    means, covariances, tau = random_mixture_arrays(3, rng)
    tau = np.array([tau[0] + tau[1], 0.0, tau[2]])
    s, phi = random_events(n, rng)
    resp, loglik = _memberships_arrays(s, phi, means, covariances, tau)
    ref, ref_loglik = unblocked_memberships(s, phi, means, covariances, tau)
    assert np.array_equal(resp, ref)
    assert np.all(resp[:, 1] == 0.0)
    assert loglik == ref_loglik


def test_blocked_memberships_with_an_underflow_row_in_a_later_block():
    rng = np.random.default_rng(31)
    means, covariances, tau = random_mixture_arrays(3, rng)
    s, phi = random_events(3 * B + 7, rng)
    s[2 * B + 3] = 1e200  # every component underflows, in the third block
    resp, loglik = _memberships_arrays(s, phi, means, covariances, tau)
    ref, ref_loglik = unblocked_memberships(s, phi, means, covariances, tau)
    assert np.array_equal(resp, ref)
    assert np.all(resp[2 * B + 3] == 1.0 / 3.0)
    assert loglik == ref_loglik == -math.inf


@pytest.mark.parametrize("n", [1, B + 1, 3 * B + 7])
def test_memberships_are_stored_component_major(n):
    rng = np.random.default_rng(80 + n)
    means, covariances, tau = random_mixture_arrays(3, rng)
    s, phi = random_events(n, rng)
    resp, _ = _memberships_arrays(s, phi, means, covariances, tau)
    masses = np.sum(resp, axis=0)
    for k in range(3):
        assert resp[:, k].flags.c_contiguous
        want = math.fsum(resp[:, k])
        assert masses[k] == pytest.approx(want, rel=1e-12, abs=0.0)


MOMENT_FIELDS = (
    "m2w", "m4w", "cos2w", "sin2w", "cos4w", "sin4w", "tcos2w", "tsin2w",
)


def unblocked_moment_sums(s_c, phi, w):
    """The eight weighted sums of :func:`moments_from_offsets`, in field
    order, each as one reduction over every event, formed as the kernel
    forms them (einsum chunks a long reduction by its own subscripts):
    the sums of w and w t (t = s_c^2) against cos and sin of 2 phi and
    4 phi as one einsum, the sum of w t as np.sum and that of w t^2 as
    one einsum.  Also returns the same sums of the absolute terms."""
    batch = _Batch(s_c, phi)
    t = s_c * s_c
    rows = np.stack([w, w * t])
    angular = np.einsum("kn,fn->kf", rows, batch.table)
    sums = [
        float(np.sum(rows[1])),
        float(np.einsum("kn,kn,kn->k", w[None], t[None], t[None])[0]),
        *angular[0].tolist(), *angular[1, :2].tolist(),
    ]
    cos2, sin2, cos4, sin4 = batch.table
    features = [
        (t,), (t, t), (cos2,), (sin2,), (cos4,), (sin4,), (t, cos2),
        (t, sin2),
    ]
    scales = [wsum(np.abs(w), *(np.abs(x) for x in f)) for f in features]
    return sums, scales


def unblocked_moments(s_c, phi, w):
    """:func:`moments_from_offsets` as one pass over every event."""
    sums, _ = unblocked_moment_sums(s_c, phi, w)
    mass = float(np.sum(w))
    return WeightedMoments(
        mass=mass, **{f: x / mass for f, x in zip(MOMENT_FIELDS, sums)}
    )


def moment_bits(m):
    return np.array(dataclasses.astuple(m)).view(np.uint64).tolist()


def shifted_offsets(n, shift, rng):
    """n (s_c, phi) events about a point ``shift`` units along both axes,
    and weights of which about a tenth are zero."""
    s, phi = random_events(n, rng)
    s = s - shift * np.sin(phi) - shift * np.cos(phi)
    w = rng.uniform(0.0, 2.0, n)
    w[rng.random(n) < 0.1] = 0.0
    w[0] = 1.0  # a positive total weight at n = 1
    return s, phi, w


@pytest.mark.parametrize("n", BLOCK_SIZES[:3])
@pytest.mark.parametrize("shift", [-10.0, 10.0])
def test_moments_of_one_block_equal_the_unblocked_formula_bitwise(n, shift):
    rng = np.random.default_rng([n, int(shift) + 10])
    s_c, phi, w = shifted_offsets(n, shift, rng)
    want = moment_bits(unblocked_moments(s_c, phi, w))
    assert moment_bits(moments_from_offsets((s_c, phi), w)) == want
    assert moment_bits(moments_from_offsets(cached(s_c, phi), w)) == want
    ones = moment_bits(unblocked_moments(s_c, phi, np.ones(n)))
    assert moment_bits(moments_from_offsets((s_c, phi))) == ones


@pytest.mark.parametrize("n", BLOCK_SIZES[3:])
@pytest.mark.parametrize("shift", [-10.0, 10.0])
def test_blocked_moments_match_the_unblocked_formula(n, shift):
    # the angle sums cancel to near 0, so each sum is bounded by the
    # sum of its absolute terms, not by its own size
    rng = np.random.default_rng([n, int(shift) + 10])
    s_c, phi, w = shifted_offsets(n, shift, rng)
    sums, scales = unblocked_moment_sums(s_c, phi, w)
    for offsets in ((s_c, phi), cached(s_c, phi)):
        m = moments_from_offsets(offsets, w)
        assert m.mass == float(np.sum(w))
        for field, want, scale in zip(MOMENT_FIELDS, sums, scales):
            got = getattr(m, field) * m.mass
            assert abs(got - want) <= 1e-12 * scale, field


def test_blocked_moments_leave_the_batch_without_double_angle_features():
    rng = np.random.default_rng(33)
    s_c, phi, w = shifted_offsets(3 * B + 7, 0.0, rng)
    batch = _Batch(s_c, phi)
    batch.sin, batch.cos  # as the fit holds them
    moments_from_offsets(batch, w)
    assert set(vars(batch)) == {"sin", "cos"}


@pytest.mark.parametrize("n", [1, B + 1])
@pytest.mark.parametrize("mean", [(0.0, 0.0), (0.3, -0.7), (-10.0, 10.0)])
def test_center_offsets_equal_the_plain_difference_bitwise(n, mean):
    rng = np.random.default_rng(n)
    s, phi = random_events(n, rng)
    batch = cached(s, phi)
    want = s - mean_sinusoid(batch, mean)
    s_c, got_phi = center_offsets(batch, mean)
    assert s_c.tobytes() == want.tobytes()
    assert got_phi is phi


def fit_held_batch(s, phi):
    """(s, phi) as the fit holds it: sin and cos computed, no other
    feature."""
    batch = _Batch(s, phi)
    batch.sin, batch.cos
    return batch


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_handoff_sums_are_each_clusters_moment_sums(n):
    # the kernel on one-hot weights, with the label counts as masses:
    # bitwise for one block; at every n, each cluster's moment sums are
    # those of moments_from_offsets on its gathered events within 1e-12
    # of the sum of absolute terms
    rng = np.random.default_rng(80 + n)
    s, phi = random_events(n, rng)
    batch = fit_held_batch(s, phi)
    means = rng.normal(0.0, 3.0, size=(3, 2))
    labels = rng.integers(0, 3, n).astype(np.uint8)
    sums = _cluster_moment_sums(batch, labels, means)
    assert sums.shape == (3, 11)
    assert np.array_equal(sums[:, 0], np.bincount(labels, minlength=3))
    if n <= B:
        onehot = (labels == np.arange(3)[:, None]).astype(float)
        s_c = np.array([s - mean_sinusoid(batch, mean) for mean in means])
        rows = np.concatenate([onehot, s_c * s_c])
        want = _block_sums(rows, cached(s, phi))
        assert sums.tobytes() == want.tobytes()
    else:  # the blocks form their 2 phi and 4 phi features and drop them
        assert set(vars(batch)) == {"sin", "cos"}
    for k in range(3):
        idx = np.flatnonzero(labels == k)
        if idx.size == 0:
            assert not sums[k].any()
            continue
        offsets = center_offsets(batch.take(idx), means[k])
        m = moments_from_offsets(offsets)
        _, scales = unblocked_moment_sums(*offsets, np.ones(idx.size))
        for field, got, scale in zip(MOMENT_FIELDS, sums[k, 3:], scales):
            want = getattr(m, field) * m.mass
            assert abs(got - want) <= 1e-12 * scale, field


def test_handoff_refuses_overflowing_offsets():
    rng = np.random.default_rng(81)
    s, phi = random_events(B + 1, rng)
    phi[B] = 0.5  # -1.5e308 (sin + cos) overflows
    labels = np.zeros(B + 1, dtype=np.uint8)
    labels[B] = 1
    means = np.array([[0.0, 0.0], [1.5e308, -1.5e308]])
    with np.errstate(over="ignore"), pytest.raises(InputError):
        _cluster_moment_sums(fit_held_batch(s, phi), labels, means)


def shifted_mixture(n, shift, rng):
    """n events about the point (shift, -shift), a 3-component mixture
    near it whose memberships of many events are near 0, and the events
    as a batch whose sines and cosines are computed, as the fit holds
    them."""
    means, covariances, tau = random_mixture_arrays(3, rng)
    means = means + np.array([shift, -shift])
    s, phi = random_events(n, rng)
    s = s - shift * np.sin(phi) - shift * np.cos(phi)
    batch = _Batch(s, phi)
    batch.sin, batch.cos
    return batch, means, np.array(covariances), tau


def oracle_phase2_sums(batch, means, covariances, tau):
    """The sums of one phase-2 pass from one call of the E-step over
    every event: per component the mass, the sums of s sin and s cos
    and the eight moment sums about the entering mean, and the same
    sums of the absolute terms."""
    s, phi = batch
    resp, _ = _memberships_arrays(s, phi, means, covariances, tau)
    si, co = np.sin(phi), np.cos(phi)
    mean_terms = [(s, si), (s, co)]
    sums, scales = [], []
    for k in range(len(tau)):
        w = resp[:, k].copy()
        s_c, _ = center_offsets((s, phi), means[k])
        moment_sums, moment_scales = unblocked_moment_sums(s_c, phi, w)
        sums.append(
            [np.sum(w)] + [wsum(w, *f) for f in mean_terms] + moment_sums
        )
        scales.append(
            [np.sum(w)]
            + [wsum(w, *(np.abs(x) for x in f)) for f in mean_terms]
            + moment_scales
        )
    return np.array(sums), np.array(scales), resp


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("shift", [-10.0, 10.0])
def test_phase2_pass_sums_match_the_unblocked_formulas(n, shift):
    rng = np.random.default_rng([n, int(shift) + 20])
    batch, means, covariances, tau = shifted_mixture(n, shift, rng)
    want, scale, resp = oracle_phase2_sums(batch, means, covariances, tau)
    if n > 1:
        assert np.min(resp) < 1e-6  # some memberships are near 0
    got, loglik = _soft_pass(batch, means, covariances, tau)
    assert got.shape == (3, 11)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    ref_loglik = _memberships_arrays(*batch, means, covariances, tau)[1]
    assert loglik == pytest.approx(ref_loglik, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", BLOCK_SIZES[:3])
def test_phase2_pass_of_one_block_is_the_kernel_on_one_e_step(n):
    rng = np.random.default_rng([n, 21])
    batch, means, covariances, tau = shifted_mixture(n, 10.0, rng)
    resp, loglik = _memberships_arrays(batch[0], batch, means, covariances, tau)
    rows = vars(batch).pop("pass_rows")
    assert np.shares_memory(rows, resp)
    rows[3:] *= rows[3:]
    want = _block_sums(rows, batch)
    got, got_loglik = _soft_pass(batch, means, covariances, tau)
    assert got.tobytes() == want.tobytes()
    assert got_loglik == loglik


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_closing_loglik_sums_the_e_step_blocks(n):
    rng = np.random.default_rng([n, 30])
    batch, means, covariances, tau = shifted_mixture(n, 0.0, rng)
    want = _memberships_arrays(*batch, means, covariances, tau)[1]
    got = _soft_loglik(batch, means, covariances, tau)
    if n <= B:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_phase2_pass_with_an_underflow_row_in_a_later_block():
    rng = np.random.default_rng(32)
    batch, means, covariances, tau = shifted_mixture(3 * B + 7, 0.0, rng)
    batch[0][2 * B + 3] = 1e200  # every component underflows there
    assert _soft_loglik(batch, means, covariances, tau) == -math.inf
    with np.errstate(over="ignore"):  # its squared offsets overflow
        _, loglik = _soft_pass(batch, means, covariances, tau)
    assert loglik == -math.inf


def test_phase2_pass_refuses_offsets_that_overflow():
    rng = np.random.default_rng(34)
    batch, means, covariances, tau = shifted_mixture(B + 1, 0.0, rng)
    means[1] = (-1.7e308, 1.7e308)
    with np.errstate(over="ignore"), pytest.raises(InputError):
        _soft_pass(batch, means, covariances, tau)


@pytest.mark.parametrize("n", [B, 3 * B + 7])
def test_phase2_pass_takes_its_offsets_from_the_e_step(n, monkeypatch):
    # one mean sinusoid per component and block, formed by the E-step;
    # the pass takes the memberships and offsets off the block, and no
    # batch built from the events carries them
    import gmmlor.estimate as est
    import gmmlor.projection as proj

    rng = np.random.default_rng([n, 36])
    batch, means, covariances, tau = shifted_mixture(n, 0.0, rng)
    sizes = []
    original = proj.mean_sinusoid

    def counted(phi, mean):
        sizes.append(len(phi[0]))
        return original(phi, mean)

    monkeypatch.setattr(proj, "mean_sinusoid", counted)
    monkeypatch.setattr(est, "mean_sinusoid", counted)
    _soft_pass(batch, means, covariances, tau)
    assert len(sizes) == 3 * -(-n // B) and sum(sizes) == 3 * n
    assert "pass_rows" not in vars(batch)
    _soft_loglik(batch, means, covariances, tau)
    if n <= B:  # the batch is its own block, and keeps the last rows
        assert batch.pass_rows.shape == (6, n)
    other = batch.take(slice(0, 5))
    assert "pass_rows" not in vars(other) and "sin" in vars(other)


def test_fit_hands_the_e_step_one_block_at_a_time(
    benchmark_mixture, monkeypatch
):
    import gmmlor.estimate as est

    original = est._memberships_arrays
    sizes = []

    def spy(s, phi, means, covariances, tau):
        sizes.append(s.size)
        return original(s, phi, means, covariances, tau)

    monkeypatch.setattr(est, "_memberships_arrays", spy)
    n = 3 * B + 7
    res = simulate_lors(benchmark_mixture, n_total=n, seed=4, shuffle=True)
    out = fit((res.s, res.phi), FitConfig(K=3, seed=0, weight_tol=1e-3))
    passes = 1 + sum(1 for rec in out.trace if rec.phase == 2)
    assert max(sizes) <= B
    assert len(sizes) == 4 * passes
    assert sum(sizes) == n * passes


def test_fit_loglik_is_the_e_step_loglik_of_the_returned_model(
    benchmark_mixture, monkeypatch
):
    import gmmlor.estimate as est

    original = est._memberships_arrays
    calls = []

    def spy(s, phi, means, covariances, tau):
        # the M-step overwrites means and covariances in place
        calls.append((s, phi, means.copy(), covariances.copy(), tau.copy()))
        return original(s, phi, means, covariances, tau)

    monkeypatch.setattr(est, "_memberships_arrays", spy)
    res = simulate_lors(benchmark_mixture, counts=(700, 500, 200), seed=3)
    out = fit((res.s, res.phi), FitConfig(K=3, seed=0, weight_tol=1e-3))
    s, phi, means, covariances, tau = calls[-1]
    for k, comp in enumerate(out.model.components):
        assert np.array_equal(means[k], comp.mean)
        assert np.array_equal(covariances[k], comp.covariance)
    assert out.loglik == original(s, phi, means, covariances, tau)[1]


def sin_cos_tally(s, phi, labels, K):
    """Per label, the sums of sin^2, sin cos, cos^2, s sin and s cos:
    the (5, K) tally of phase 1 before it read the 2 phi basis, the
    oracle of its sums."""
    si, co = np.sin(phi), np.cos(phi)
    features = (si * si, si * co, co * co, s * si, s * co)
    return np.array([np.bincount(labels, f, K) for f in features])


def solve_sin_cos_mean(a, b, c, s_sin, s_cos):
    """The mean from the sums of sin^2, sin cos, cos^2, s sin and
    s cos: the normal system [[a, -b], [-b, c]] mu = (-s sin, s cos)."""
    return np.linalg.solve([[a, -b], [-b, c]], [-s_sin, s_cos])


@pytest.mark.parametrize("n", BLOCK_SIZES[1:])
def test_label_pass_means_match_fit_mean_on_each_cluster(n):
    # phase 1's means, fit_mean's on each gathered cluster, and the
    # means of the sin^2 tally agree within 1e-12 relative
    rng = np.random.default_rng(50 + n)
    s, phi = random_events(n, rng)
    batch = cached(s, phi)
    K = 3
    labels = rng.integers(0, K, n)
    hard = _HardLabels(batch, labels, K)
    assert np.array_equal(hard.sums[0], np.bincount(labels, minlength=K))
    oracle = sin_cos_tally(s, phi, labels, K)
    for k in range(K):
        want = fit_mean(batch.take(np.flatnonzero(labels == k)))
        got = _mean_from_sums(hard.sums[:, k])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        got = solve_sin_cos_mean(*oracle[:, k])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", BLOCK_SIZES[:3])
def test_phase1_start_sums_are_one_bincount_per_feature(n):
    # the sums the starting labels give, for one block, bitwise: the
    # counts, then s sin, s cos and the table's cos 2 phi and sin 2 phi
    rng = np.random.default_rng(55 + n)
    s, phi = random_events(n, rng)
    labels = rng.integers(0, 3, n).astype(np.uint8)
    hard = _HardLabels(fit_held_batch(s, phi), labels, 3)
    table = cached(s, phi).table
    want = [np.bincount(labels, minlength=3).astype(float)] + [
        np.bincount(labels, weights=f, minlength=3)
        for f in (s * np.sin(phi), s * np.cos(phi), table[0], table[1])
    ]
    assert hard.sums.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", BLOCK_SIZES[1:])
def test_phase1_sums_are_the_sin_cos_tally_in_the_2phi_basis(n):
    # (mass - C)/2, S/2 and (mass + C)/2 are the sums of sin^2, sin cos
    # and cos^2, and s sin and s cos the tally's own, within 1e-12 of
    # the largest magnitude a label's sum could reach
    rng = np.random.default_rng(57 + n)
    s, phi = random_events(n, rng)
    labels = rng.integers(0, 3, n)
    mass, s_sin, s_cos, cos2, sin2 = _HardLabels(
        fit_held_batch(s, phi), labels, 3
    ).sums
    got = [(mass - cos2) / 2, sin2 / 2, (mass + cos2) / 2, s_sin, s_cos]
    reach = np.maximum(mass, 1.0) * (1.0 + np.max(np.abs(s)))
    want = sin_cos_tally(s, phi, labels, 3)
    assert np.all(np.abs(np.array(got) - want) <= 1e-12 * reach)


@pytest.mark.parametrize("n", [7000, 3 * B + 7])
def test_handoff_pass_reads_phase1s_final_sums(
    benchmark_mixture, n, monkeypatch
):
    # after a phase 1 that converged, the mean columns of the handoff's
    # one-hot pass are phase 1's running sums up to rounding: within
    # 1e-12 of the largest magnitude a label's sum could reach
    import gmmlor.estimate as est

    kept = []

    class Kept(_HardLabels):
        def __init__(self, *args):
            super().__init__(*args)
            kept.append(self)

    monkeypatch.setattr(est, "_HardLabels", Kept)
    res = simulate_lors(benchmark_mixture, n_total=n, seed=4, shuffle=True)
    batch = fit_held_batch(np.array(res.s), np.array(res.phi))
    labels = np.random.default_rng(4).integers(0, 3, n).astype(np.uint8)
    config = FitConfig(K=3, seed=0)
    iterations = []
    means = _phase1(batch, labels, config, lambda *rec: iterations.append(rec))
    assert len(iterations) < config.max_iters_phase1  # it converged
    sums = _cluster_moment_sums(batch, labels, means)[:, _MEAN_COLUMNS].T
    (hard,) = kept
    assert np.array_equal(sums[0], hard.sums[0])
    assert np.array_equal(sums[0], np.bincount(labels, minlength=3))
    reach = sums[0] * (1.0 + np.max(np.abs(batch[0])))
    assert np.all(np.abs(sums - hard.sums) <= 1e-12 * reach)


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_label_pass_relabels_as_the_unblocked_kernel(n):
    rng = np.random.default_rng(60 + n)
    s, phi = random_events(n, rng)
    means = rng.normal(0.0, 1.0, size=(3, 2))
    means[2] = means[0]  # every event ties between two labels
    labels = np.full(n, 2, dtype=np.int64)
    hard = _HardLabels(cached(s, phi), labels, 3)
    assert hard.relabel(means, 0.0) == n  # the first pass sees every event
    want = _nearest_sinusoid(cached(s, phi), means)[0]
    assert np.array_equal(labels, want)
    assert np.array_equal(hard.sums[0], np.bincount(want, minlength=3))
    assert hard.sums[0, 2] == 0


def assert_matches_a_full_pass(hard, batch, means):
    """The labels are the kernel's, the counts np.bincount's, and the
    running sums those of a full pass up to rounding: within 1e-12 of
    the largest magnitude a label's sum could reach."""
    want = _nearest_sinusoid(batch, means)[0]
    assert np.array_equal(hard.labels, want)
    counts = np.bincount(want, minlength=len(means))
    sums = _HardLabels(batch, want, len(means)).sums
    assert np.array_equal(hard.sums[0], counts)
    assert np.array_equal(sums[0], counts)
    reach = np.maximum(counts, 1) * (1.0 + np.max(np.abs(batch[0])))
    assert np.all(np.abs(hard.sums - sums) <= 1e-12 * reach)


@settings(max_examples=30)
@given(
    K=st.sampled_from([1, 2, 3, 9]),
    n=st.sampled_from(BLOCK_SIZES),
    shift=st.sampled_from([-10.0, 0.0, 10.0]),
    tie=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.sampled_from([0.0, 1e-15, 1e-3, 0.3, 3.0]), min_size=1, max_size=6
    ),
)
def test_pruned_relabelling_matches_full_passes(K, n, shift, tie, seed, steps):
    rng = np.random.default_rng(seed)
    s, phi = random_events(n, rng)
    # moving the image plane by t moves each line's s by n . t
    t = np.array([shift, -shift])
    s = s - t[0] * np.sin(phi) + t[1] * np.cos(phi)
    batch = cached(s, phi)
    means = rng.normal(0.0, 1.0, size=(K, 2)) + t
    if tie and K >= 3:
        means[2] = means[0]  # every event nearest to mean 0 ties
    hard = _HardLabels(batch, rng.integers(0, K, n), K)
    assert hard.relabel(means, 0.0) == n
    assert_matches_a_full_pass(hard, batch, means)
    for step in steps:
        moved = means + step * rng.normal(0.0, 1.0, size=(K, 2))
        if tie and K >= 3:
            moved[2] = moved[0]
        delta = float(np.max(np.linalg.norm(moved - means, axis=1)))
        means = moved
        recomputed = hard.relabel(means, delta)
        assert_matches_a_full_pass(hard, batch, means)
        if step == 0.0:
            # with unchanged means only ties go through the kernel again
            gap = _nearest_sinusoid(batch, means)[1]
            assert recomputed == np.count_nonzero(gap == 0.0)


def test_a_pass_with_unchanged_means_recomputes_no_event():
    rng = np.random.default_rng(90)
    s, phi = random_events(3 * B + 7, rng)
    means = rng.normal(0.0, 1.0, size=(3, 2))
    hard = _HardLabels(cached(s, phi), rng.integers(0, 3, s.size), 3)
    assert hard.relabel(means, 0.0) == s.size
    assert hard.relabel(means, 0.0) == 0
    # a small move recomputes only the events whose gap it can close
    near = hard.relabel(means + 1e-3, math.sqrt(2.0) * 1e-3)
    assert 0 < near < s.size // 10


def test_whole_candidate_blocks_come_as_slices():
    rng = np.random.default_rng(91)
    s, phi = random_events(3 * B + 7, rng)
    hard = _HardLabels(cached(s, phi), rng.integers(0, 3, s.size), 3)
    blocks = [slice(i * B, (i + 1) * B) for i in range(4)]
    assert list(hard._candidates(0.0)) == blocks  # keys start at -inf
    hard.keys[B + 5] = 1.0  # one event of the second block is not due
    runs = list(hard._candidates(0.0))
    assert len(runs) == 4
    assert runs[0] == blocks[0] and runs[2:] == blocks[2:]
    assert np.array_equal(runs[1], np.delete(np.arange(B, 2 * B), 5))


def test_key_floor_never_exceeds_the_float64_key():
    rng = np.random.default_rng(92)
    key = np.concatenate([
        rng.uniform(0.0, 10.0, 1000) * 10.0 ** rng.integers(-45, 45, 1000),
        [0.0, 1e-300, 3.4028235e38, 1e39, 1e300, np.inf, np.nan],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low = _key_floor(key.copy())
    assert low.dtype == np.float32
    top = float(np.finfo(np.float32).max)
    finite = ~np.isnan(key)
    assert np.all(low[finite].astype(float) <= np.minimum(key[finite], top))
    assert np.all(low[key >= top] == top) and np.isnan(low[-1])
    # rounded toward -inf: the next float32 up is above the key
    below = key < top
    up = np.nextafter(low[below], np.float32(np.inf)).astype(float)
    assert np.all(up > key[below])


def test_relabel_runs_longer_than_a_block_go_in_block_pieces(monkeypatch):
    # one event of each of the first two blocks is not due, so their
    # other events form one run of 2B - 2; it is evaluated as a piece of
    # B and one of B - 2, and its moves are tallied by one call
    import gmmlor.estimate as est

    rng = np.random.default_rng(93)
    s, phi = random_events(3 * B + 7, rng)
    batch = cached(s, phi)
    means = rng.normal(0.0, 1.0, size=(3, 2))
    hard = _HardLabels(batch, rng.integers(0, 3, s.size), 3)
    hard.keys[[5, B + 5]] = 1.0
    sizes, moves = [], []
    original = est._nearest_sinusoid

    def spy(events, means):
        sizes.append(events[0].size)
        return original(events, means)

    monkeypatch.setattr(est, "_nearest_sinusoid", spy)
    monkeypatch.setattr(
        hard, "_move", lambda new, *rest: moves.append(new.size)
    )
    assert hard.relabel(means, 0.0) == s.size - 2
    assert sizes == [B, B - 2, B, 7]
    assert len(moves) == 3
    want = original(batch, means)[0]
    keep = np.ones(s.size, dtype=bool)
    keep[[5, B + 5]] = False
    assert np.array_equal(hard.labels[keep], want[keep])


@pytest.mark.parametrize("scale", [1e-30, 1.0, 1e60])
def test_skip_bound_holds_at_extreme_scales(
    benchmark_mixture, scale, monkeypatch
):
    # the events of the benchmark, scaled; every relabelling pass leaves
    # the labels of a full recompute, and no RuntimeWarning escapes the
    # float32 keys or the limit they meet
    res = simulate_lors(benchmark_mixture, counts=BENCHMARK_COUNTS, seed=0)
    s, phi = np.array(res.s) * scale, np.array(res.phi)
    original = _HardLabels.relabel
    passes = []

    def relabel(self, means, moved_by):
        out = original(self, means, moved_by)
        want = _nearest_sinusoid(self.batch, means)[0]
        passes.append(np.array_equal(self.labels, want))
        return out

    monkeypatch.setattr(_HardLabels, "relabel", relabel)
    config = FitConfig(K=3, weight_tol=1e-3, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit((s, phi), config)
    assert len(passes) > 1 and all(passes)


def test_skip_margin_scales_with_the_events(benchmark_mixture, monkeypatch):
    # phase 1 on the benchmark's events scaled by 2^-100, not
    # standardised as fit would, with MEAN_TOL scaled too: every relabel
    # recomputes as many events as at scale 1, and the means are 2^-100
    # times those at scale 1, bitwise; an absolute term in the margin
    # would recompute them all
    import gmmlor.estimate as est

    res = simulate_lors(benchmark_mixture, counts=BENCHMARK_COUNTS, seed=0)
    s, phi = np.array(res.s), np.array(res.phi)
    original = _HardLabels.relabel
    recomputed = []

    def relabel(self, means, moved_by):
        recomputed.append(original(self, means, moved_by))
        return recomputed[-1]

    monkeypatch.setattr(_HardLabels, "relabel", relabel)
    runs = []
    config = FitConfig(K=3, seed=0)
    for scale in (1.0, 2.0 ** -100):
        recomputed = []
        monkeypatch.setattr(est, "MEAN_TOL", 1e-6 * scale)
        labels = np.random.default_rng(0).integers(0, 3, s.size)
        batch = _as_arrays((s * scale, phi))
        means = _phase1(
            batch, labels.astype(np.uint8), config, lambda *rec: None
        )
        runs.append((means, recomputed))
    (means, counts), (scaled_means, scaled_counts) = runs
    assert scaled_counts == counts
    assert min(counts) < s.size  # the bound skips events
    assert scaled_means.tobytes() == (means * 2.0 ** -100).tobytes()


def test_an_initially_empty_label_dies_in_the_first_iteration():
    rng = np.random.default_rng(7)
    s, phi = random_events(B + 5, rng)
    labels = np.where(rng.random(B + 5) < 0.5, 0, 2)
    with pytest.raises(ComponentDeathError) as death:
        fit((s, phi), FitConfig(K=3, seed=0), initial_assignment=labels)
    assert (death.value.component, death.value.iteration) == (1, 0)


def test_a_label_drained_by_relabelling_dies_in_the_second_iteration():
    # all lines pass through the origin: both means are the origin, and
    # every tie goes to label 0, so label 1 is empty after one pass
    n = B + 6
    phis = np.linspace(-1.4, 1.4, n)
    labels = np.arange(n) % 2
    with pytest.raises(ComponentDeathError) as death:
        fit(
            (np.zeros(n), phis),
            FitConfig(K=2, restarts=1, seed=0),
            initial_assignment=labels,
        )
    assert (death.value.component, death.value.iteration) == (1, 1)


# ----------------------------------------------------------------- memberships

def memberships(model, s, phi):
    """Responsibilities of each component of ``model`` for each LoR."""
    comps = model.components
    resp, _ = _memberships_arrays(
        np.asarray(s, dtype=float),
        np.asarray(phi, dtype=float),
        [c.mean for c in comps],
        [c.covariance for c in comps],
        [c.weight for c in comps],
    )
    return resp


def test_memberships_single_component_all_one(benchmark_mixture):
    model = single((0.0, 0.0), 0.0625 * np.eye(2))
    res = simulate_lors(model, counts=(200,), seed=6)
    resp = memberships(model, res.s, res.phi)
    assert np.allclose(resp, 1.0)


def test_memberships_identical_components_split_evenly():
    comp = make_component((0.0, 0.0), 0.0625 * np.eye(2), 0.5)
    model = MixtureModel2D((comp, make_component((0.0, 0.0), 0.0625 * np.eye(2), 0.5)))
    res = simulate_lors(single((0.0, 0.0), 0.0625 * np.eye(2)), counts=(100,), seed=6)
    resp = memberships(model, res.s, res.phi)
    assert np.allclose(resp, 0.5, atol=1e-12)


def test_memberships_assign_distant_line_to_nearest_blob(benchmark_mixture):
    # vertical line through x = 1.25 passes only the off-center blob
    s = np.array([-1.25])
    phi = np.array([math.pi / 2])
    resp = memberships(benchmark_mixture, s, phi)
    assert resp[0, 2] > 0.99


def test_memberships_row_degenerates_to_winner_far_out(benchmark_mixture):
    # log-space normalization keeps the closest component alive even
    # when every raw density underflows
    resp = memberships(benchmark_mixture, [1000.0], [0.0])
    assert resp[0].max() == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(resp[0]) == pytest.approx(1.0, abs=1e-12)


def test_memberships_underflow_row_falls_back_to_uniform(benchmark_mixture):
    # offsets so large even the log-density overflows: uniform fallback
    resp = memberships(benchmark_mixture, [1e200], [0.0])
    assert np.allclose(resp[0], 1.0 / 3.0, atol=1e-15)


def test_membership_rows_sum_to_one(benchmark_mixture):
    res = simulate_lors(benchmark_mixture, counts=(300, 200, 100), seed=14)
    resp = memberships(benchmark_mixture, res.s, res.phi)
    sums = resp.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


# ------------------------------------------------------------------ fit config

def test_config_validation():
    with pytest.raises(InputError):
        FitConfig(K=0)
    with pytest.raises(InputError):
        FitConfig(K=1, weight_tol=0.0)
    with pytest.raises(InputError):
        FitConfig(K=1, restarts=0)
    with pytest.raises(InputError):
        FitConfig(K=1, weight_tol=-1.0)


@pytest.mark.parametrize("settings, field", BAD_FIT_SETTINGS)
def test_config_refuses_a_setting_of_the_wrong_type(settings, field):
    with pytest.raises(InputError, match=field):
        FitConfig(**settings)


def test_config_takes_numpy_integers_and_integer_tolerances():
    cfg = FitConfig(K=np.int64(2), weight_tol=1, seed=-1)
    assert cfg.K == 2 and cfg.weight_tol == 1 and cfg.seed == -1


def test_config_dict_roundtrip():
    cfg = FitConfig(K=3, weight_tol=1e-3, seed=9, restarts=2)
    d = config_to_dict(cfg)
    assert d["K"] == 3 and d["weight_tol"] == 1e-3
    back = config_from_dict(d)
    assert back == cfg


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(InputError):
        config_from_dict({"K": 2, "bogus": 1})
    with pytest.raises(InputError):
        config_from_dict({"weight_tol": 0.1})  # K is required


def test_config_from_dict_overrides():
    cfg = config_from_dict({"K": 2, "weight_tol": 0.01}, seed=5)
    assert cfg.K == 2 and cfg.seed == 5 and cfg.weight_tol == 0.01


def test_trace_jsonl_format():
    trace = [
        TraceRecord(0, 1, (0.5, 0.5), None),
        TraceRecord(1, 2, (0.4, 0.6), -12.5),
    ]
    lines = trace_to_jsonl(trace).splitlines()
    assert json.loads(lines[0]) == {
        "iter": 0, "phase": 1, "weights": [0.5, 0.5], "loglik_proxy": None,
    }
    assert json.loads(lines[1])["loglik_proxy"] == -12.5


# ---------------------------------------------------------------- full driver

def test_fit_requires_minimum_events():
    phis = np.linspace(-1, 1, 8)
    with pytest.raises(InputError):
        fit((np.zeros(8), phis), FitConfig(K=2))


def test_fit_single_component_matches_manual_pipeline():
    model = single((0.4, -0.2), np.array([[0.05, 0.01], [0.01, 0.03]]))
    res = simulate_lors(model, counts=(4000,), seed=30)
    out = fit((res.s, res.phi), FitConfig(K=1, seed=0))
    assert out.converged
    mu = fit_mean((res.s, res.phi))
    cov = estimate_covariance(center_offsets((res.s, res.phi), mu))
    comp = out.model.components[0]
    assert np.allclose(comp.mean, mu, atol=1e-9)
    assert np.allclose(comp.covariance, cov, atol=1e-9)
    assert comp.weight == 1.0


def test_fit_recovers_two_separated_blobs():
    model = MixtureModel2D((
        make_component((0.0, 0.0), 0.04 * np.eye(2), 0.5),
        make_component((2.0, -1.0), 0.02 * np.eye(2), 0.5),
    ))
    res = simulate_lors(model, counts=(800, 800), seed=44)
    out = fit((res.s, res.phi), FitConfig(K=2, seed=1, weight_tol=1e-3))
    assert out.converged
    means = sorted((tuple(c.mean) for c in out.model.components))
    assert np.allclose(means[0], (0.0, 0.0), atol=0.05)
    assert np.allclose(means[1], (2.0, -1.0), atol=0.05)
    for c in out.model.components:
        assert c.weight == pytest.approx(0.5, abs=0.05)


def test_fit_is_insensitive_to_event_order():
    model = MixtureModel2D((
        make_component((0.0, 0.0), 0.0625 * np.eye(2), 0.5),
        make_component((1.25, -1.0), [[0.04, 0.006], [0.006, 0.01]], 0.5),
    ))
    res = simulate_lors(model, counts=(400, 400), seed=11)
    perm = np.random.default_rng(5).permutation(800)
    cfg = FitConfig(K=2, restarts=1, seed=0, weight_tol=1e-3)
    init = res.labels.astype(np.int64)
    a = fit((res.s, res.phi), cfg, initial_assignment=init)
    b = fit((res.s[perm], res.phi[perm]), cfg, initial_assignment=init[perm])
    for ca, cb in zip(a.model.components, b.model.components):
        assert np.allclose(ca.mean, cb.mean, atol=1e-9)
        assert np.allclose(ca.covariance, cb.covariance, atol=1e-9)
        assert ca.weight == pytest.approx(cb.weight, abs=1e-9)


def test_fit_death_when_a_cluster_empties():
    # every line passes through the origin, so the two phase-1 means
    # coincide and reassignment drains one cluster completely
    n = 40
    phis = np.linspace(-1.4, 1.4, n)
    labels = np.array([0, 1] * (n // 2))
    with pytest.raises(ComponentDeathError):
        fit(
            (np.zeros(n), phis),
            FitConfig(K=2, restarts=1, seed=0),
            initial_assignment=labels,
        )


def test_fit_goes_through_the_module_seams(benchmark_mixture, monkeypatch):
    # the benchmark's per-layer trace wraps these module attributes; a
    # fit that bypassed them would hide where its time goes
    import gmmlor.estimate as est

    calls = collections.Counter()
    seams = (
        "fit_mean", "center_offsets", "estimate_covariance",
        "moments_from_offsets", "solve_orientation", "refine_sigmas",
        "_memberships_arrays", "solve_quartic",
    )
    for name in seams:
        def counted(*args, _name=name, _original=getattr(est, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(est, name, counted)
    handed_over = []
    original_handoff = est._cluster_moment_sums

    def handoff(batch, labels, means):
        handed_over.append(labels.copy())
        return original_handoff(batch, labels, means)

    monkeypatch.setattr(est, "_cluster_moment_sums", handoff)
    n, blocks = 3 * B + 7, 4
    res = simulate_lors(benchmark_mixture, n_total=n, seed=3, shuffle=True)
    out = fit((res.s, res.phi), FitConfig(K=3, seed=0, weight_tol=1e-3))
    K = 3
    phase1 = sum(1 for rec in out.trace if rec.phase == 1)
    phase2 = sum(1 for rec in out.trace if rec.phase == 2)
    assert phase1 >= 1 and phase2 >= 1
    # one E-step per block of each phase-2 pass, and of the closing one
    assert calls["_memberships_arrays"] == blocks * (phase2 + 1)
    # both phases solve their means from per-component sums
    assert calls["fit_mean"] == 0
    # the handoff centres each block on each mean once, and takes their
    # moments in its one pass; phase 2 takes its moments in its own pass
    (labels,) = handed_over
    assert labels.dtype == np.uint8
    assert calls["center_offsets"] == K * blocks
    assert calls["estimate_covariance"] == 0
    assert calls["moments_from_offsets"] == 0
    covariances = K * (1 + phase2)  # once after phase 1, then per M-step
    assert calls["solve_orientation"] == 2 * covariances
    assert calls["refine_sigmas"] == covariances
    # every call that is not isotropic solves one quartic
    assert 0 < calls["solve_quartic"] <= calls["solve_orientation"]


def test_fit_trace_records_cover_both_phases(benchmark_mixture):
    res = simulate_lors(benchmark_mixture, counts=(700, 500, 200), seed=3)
    seen = []
    out = fit(
        (res.s, res.phi),
        FitConfig(K=3, seed=0, weight_tol=1e-3),
        on_iteration=seen.append,
    )
    assert out.converged
    phases = {r.phase for r in out.trace}
    assert phases == {1, 2}
    assert seen == out.trace
    for rec in out.trace:
        assert len(rec.weights) == 3
        if rec.phase == 2:
            assert math.fsum(rec.weights) == pytest.approx(1.0, abs=1e-9)
            assert rec.loglik_proxy is not None


def test_fit_initial_assignment_validation(benchmark_mixture):
    res = simulate_lors(benchmark_mixture, counts=(50, 30, 20), seed=1)
    cfg = FitConfig(K=3, seed=0)
    with pytest.raises(InputError):
        fit((res.s, res.phi), cfg, initial_assignment=np.zeros(99, dtype=int))
    with pytest.raises(InputError):
        fit((res.s, res.phi), cfg, initial_assignment=np.zeros(100))  # floats
    bad = np.zeros(100, dtype=int)
    bad[0] = 7
    with pytest.raises(InputError):
        fit((res.s, res.phi), cfg, initial_assignment=bad)


def test_no_fitted_minor_variance_sits_at_the_floor(benchmark_mixture):
    # replicate 72 of the seed-11 study: a variance refit that wanted a
    # minor variance below the floor used to be clamped there and kept,
    # and the fit settled with KL 0.39
    sim = simulate_lors(
        benchmark_mixture, counts=BENCHMARK_COUNTS, seed=derive_seed(11, 144)
    )
    config = FitConfig(K=3, weight_tol=1e-3, seed=derive_seed(11, 145))
    out = fit((sim.s, sim.phi), config)
    for c in out.model.components:
        minor = eigen_from_covariance(c.covariance).sigma2_sq
        assert minor > 1000 * DEFAULT_VARIANCE_FLOOR
    assert kl_divergence(out.model, benchmark_mixture) < 0.06


def test_fit_restart_bookkeeping(benchmark_mixture):
    res = simulate_lors(benchmark_mixture, counts=(700, 500, 200), seed=19)
    out = fit((res.s, res.phi), FitConfig(K=3, seed=0, weight_tol=1e-3, restarts=2))
    assert out.restart_index in (0, 1)
    assert out.converged


def test_fit_accepts_lor_object_sequence(benchmark_mixture):
    res = simulate_lors(benchmark_mixture, counts=(60, 40, 20), seed=5)
    lors = [LineOfResponse(float(a), float(b)) for a, b in zip(res.s, res.phi)]
    cfg = FitConfig(K=1, seed=0)
    a = fit(lors, cfg)
    b = fit((res.s, res.phi), cfg)
    assert np.allclose(a.model.components[0].mean, b.model.components[0].mean)


def test_fit_mean_reads_a_tuple_of_two_lors_as_records():
    # a 2-tuple of records is two events, not an (s, phi) array pair
    lors = (LineOfResponse(1.0, 0.0), LineOfResponse(2.0, 1.0))
    got = fit_mean(lors)
    assert np.array_equal(got, fit_mean(list(lors)))
    assert np.array_equal(got, fit_mean((np.array([1.0, 2.0]), np.array([0.0, 1.0]))))


# ------------------------------------------------- phase-2 map and deaths

def map_events(model):
    """1400 events of ``model``, as the fit holds them, their simulated
    labels as the starting labels, and a fit config whose weights settle
    only when a pass repeats the last one's."""
    res = simulate_lors(model, counts=(700, 500, 200), seed=3)
    config = FitConfig(K=3, seed=0, weight_tol=1e-15)
    return _as_arrays((res.s, res.phi)), res.labels, config


#: Scales of a component's row of sums that put its mass below the
#: floor, each pass a different one, so that the weights do not settle.
#: The last empties the row, whose M-step would raise a NumericalError,
#: so a death must be judged between the pass and the M-step.
LOW = [1e-6 * (j + 1) for j in range(DEATH_PATIENCE - 1)] + [0.0]


def theta0(batch, labels, config):
    """The handoff's parameters from the starting ``labels``, and the
    count of phase-1 iterations."""
    labels = labels.astype(_label_dtype(config.K))
    phase1 = []
    means = _phase1(batch, labels, config, lambda *rec: phase1.append(rec))
    return _handoff(batch, labels, means), len(phase1)


def test_phase2_is_the_map_of_one_pass_and_one_m_step(benchmark_mixture):
    batch, labels, config = map_events(benchmark_mixture)
    config = dataclasses.replace(config, max_iters_phase2=2)
    out = fit(batch, config, initial_assignment=labels)
    theta, _ = theta0(batch, labels, config)
    weights = []
    for _ in range(2):
        tau, means, covariances = theta
        sums, _ = _soft_pass(batch, means, covariances, tau)
        theta = _m_step(sums, batch[0].size)
        weights.append(tuple(float(w) for w in theta[0]))
    assert [rec.weights for rec in out.trace if rec.phase == 2] == weights
    for c, mean, cov in zip(out.model.components, theta[1], theta[2]):
        assert np.array_equal(c.mean, mean)
        assert np.array_equal(c.covariance, cov)


def script_passes(monkeypatch, batch, theta, scales):
    """Make every phase-2 pass return the sums of one pass at ``theta``,
    with component 2's row scaled by the next of ``scales`` (by 1 once
    they run out).  A row's mean and covariance do not change with its
    scale; its mass does.  Returns the unscaled mass of component 2."""
    import gmmlor.estimate as est

    tau, means, covariances = theta
    sums, loglik = _soft_pass(batch, means, covariances, tau)
    scales = iter(scales)

    def scripted(*args):
        out = sums.copy()
        out[2] *= next(scales, 1.0)
        return out, loglik

    monkeypatch.setattr(est, "_soft_pass", scripted)
    return sums[2, 0]


def test_a_mass_below_the_floor_for_the_patience_kills(
    benchmark_mixture, monkeypatch
):
    batch, labels, config = map_events(benchmark_mixture)
    theta, phase1 = theta0(batch, labels, config)
    mass = script_passes(monkeypatch, batch, theta, LOW)
    floor = batch[0].size * MASS_FLOOR_FACTOR / config.K
    assert mass * max(LOW) < floor < mass
    with pytest.raises(ComponentDeathError) as death:
        _run_single_fit(batch, config, labels.copy(), None, 0)
    assert death.value.component == 2
    assert death.value.mass == 0.0
    # the last low pass is the iteration that would have been recorded
    assert death.value.iteration == phase1 + DEATH_PATIENCE - 1


def test_a_mass_that_recovers_before_the_patience_lives(
    benchmark_mixture, monkeypatch
):
    batch, labels, config = map_events(benchmark_mixture)
    theta, phase1 = theta0(batch, labels, config)
    # one pass short of the patience, twice, with one mass above the
    # floor between: that pass starts the count again
    low = LOW[:-1]
    script_passes(monkeypatch, batch, theta, low + [1.0] + low)
    out = _run_single_fit(batch, config, labels.copy(), None, 0)
    # then the pass whose weight jumps back, and the settled one
    assert out.converged
    weights = [rec.weights[2] for rec in out.trace[phase1:]]
    assert len(weights) == 2 * DEATH_PATIENCE + 1
    assert max(weights[:len(low)] + weights[len(low) + 1:-2]) < 1e-5
    assert weights[len(low)] == weights[-2] == weights[-1] > 1e-5


def test_fit_skips_a_restart_that_dies_in_phase2(
    benchmark_mixture, monkeypatch
):
    import gmmlor.estimate as est

    res = simulate_lors(benchmark_mixture, counts=(700, 500, 200), seed=3)
    config = FitConfig(K=3, seed=0, weight_tol=1e-3, restarts=2)
    alone = fit(
        (res.s, res.phi),
        dataclasses.replace(config, seed=derive_seed(0, 1), restarts=1),
    )
    real, scales, passes = est._soft_pass, iter(LOW), []

    def first_restart_dies(*args):
        sums, loglik = real(*args)
        sums[2] *= next(scales, 1.0)
        passes.append(args)
        return sums, loglik

    monkeypatch.setattr(est, "_soft_pass", first_restart_dies)
    out = fit((res.s, res.phi), config)
    # the first restart died on its last low pass; the second ran alone
    phase2 = sum(1 for rec in alone.trace if rec.phase == 2)
    assert len(passes) == DEATH_PATIENCE + phase2
    assert out.restart_index == 1
    assert out.trace == alone.trace
    for got, want in zip(out.model.components, alone.model.components):
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.covariance, want.covariance)
        assert got.weight == want.weight
