"""Whole-fit equivariance: a fit of transformed events is the transformed
fit.

Translating the image plane, writing every line as its fold
(s, phi) -> (-s, phi + pi), permuting the events together with their
starting labels and scaling the plane all act on the mixture exactly, so
the fit of the transformed events must be the transformed fit up to
rounding, after the same number of iterations in each phase.  The events
are those of replicates 0/0 to 0/2 of the acceptance study (simulate seed
derive_seed(0, 2i), fit seed derive_seed(0, 2i + 1)).  Rotation is left
out: the isotropic shortcut of ``solve_orientation`` answers in the lab
frame (the strict xfail in ``test_estimate.py``).

Scaling is exact: a fit divides its events by a power of two that brings
their rms into (1/2, 1] and scales its model back, so the fit of 2^j s
is bit for bit 2^j times the fit of s, and the fit of c s for any c from
1e-30 to 1e60 is c times the fit of s within 1e-12 in unscaled units.
Its log-likelihoods, the closing one and the trace's, are those of the
fit of s less N ln c, the log of the Jacobian over N events.
"""

import math

import numpy as np
import pytest

from gmmlor import FitConfig, fit, simulate_lors
from gmmlor.rng import derive_seed
from conftest import BENCHMARK_COUNTS

REPLICATES = (0, 1, 2)
SHIFT = np.array([0.8, -1.1])
#: Scales of the image plane: powers of two, whose fits are bitwise the
#: scaled fit, then others from 1e-30 to 1e60.
SCALES = [2.0**-100, 2.0**60, 1e-30, 1e-6, 1e-3, 0.3, 2.5, 1e4, 1e60]


def replicate(mixture, i):
    """The events of replicate 0/i, their fit config and seeded starting
    labels."""
    sim = simulate_lors(
        mixture, counts=BENCHMARK_COUNTS, seed=derive_seed(0, 2 * i)
    )
    config = FitConfig(K=3, weight_tol=1e-3, seed=derive_seed(0, 2 * i + 1))
    labels = np.random.default_rng(i).permutation(sim.s.size) % 3
    return sim.s, sim.phi, config, labels


def fitted(s, phi, config, labels=None):
    """The means, covariances and weights of the fit, and the iteration
    count of each phase."""
    return summary(fit((s, phi), config, initial_assignment=labels))


def summary(out):
    """The means, covariances and weights of the fit ``out``, and the
    iteration count of each phase."""
    comps = out.model.components
    params = (
        np.array([c.mean for c in comps]),
        np.array([c.covariance for c in comps]),
        np.array([c.weight for c in comps]),
    )
    phases = [rec.phase for rec in out.trace]
    return params, (phases.count(1), phases.count(2))


def assert_params_close(got, want, atol):
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= atol


@pytest.mark.parametrize("i", REPLICATES)
def test_translating_the_events_translates_the_fit(benchmark_mixture, i):
    s, phi, config, _ = replicate(benchmark_mixture, i)
    # moving the plane by t moves each line's s by n . t, n = (-sin, cos)
    moved = s - SHIFT[0] * np.sin(phi) + SHIFT[1] * np.cos(phi)
    (means, covs, weights), iters = fitted(s, phi, config)
    got, got_iters = fitted(moved, phi, config)
    assert got_iters == iters
    assert_params_close(got, (means + SHIFT, covs, weights), 1e-12)


@pytest.mark.parametrize("i", REPLICATES)
def test_folding_the_events_leaves_the_fit(benchmark_mixture, i):
    s, phi, config, _ = replicate(benchmark_mixture, i)
    want, iters = fitted(s, phi, config)
    got, got_iters = fitted(-s, phi + np.pi, config)
    assert got_iters == iters
    assert_params_close(got, want, 1e-12)


@pytest.mark.parametrize("i", REPLICATES)
def test_permuting_events_and_labels_leaves_the_fit(benchmark_mixture, i):
    s, phi, config, labels = replicate(benchmark_mixture, i)
    perm = np.random.default_rng(100 + i).permutation(s.size)
    want, iters = fitted(s, phi, config, labels)
    got, got_iters = fitted(s[perm], phi[perm], config, labels[perm])
    assert got_iters == iters
    assert_params_close(got, want, 1e-12)


@pytest.mark.parametrize("i", REPLICATES)
def test_scaling_the_events_scales_the_fit(benchmark_mixture, i):
    s, phi, config, _ = replicate(benchmark_mixture, i)
    plain = fit((s, phi), config)
    want, iters = summary(plain)
    for scale in SCALES:
        out = fit((scale * s, phi), config)
        (means, covs, weights), got_iters = summary(out)
        assert got_iters == iters, scale
        if math.frexp(scale)[0] == 0.5:  # a power of two
            scaled = (want[0] * scale, want[1] * scale**2, want[2])
            for got, exact in zip((means, covs, weights), scaled):
                assert got.tobytes() == exact.tobytes(), scale
        unscaled = (means / scale, covs / scale**2, weights)
        assert_params_close(unscaled, want, 1e-12)
        shift = s.size * math.log(scale)
        assert math.isclose(out.loglik, plain.loglik - shift, rel_tol=1e-12)
        for rec, plain_rec in zip(out.trace, plain.trace):
            if plain_rec.loglik_proxy is None:
                assert rec.loglik_proxy is None
            else:
                assert math.isclose(
                    rec.loglik_proxy, plain_rec.loglik_proxy - shift,
                    rel_tol=1e-12,
                ), scale
