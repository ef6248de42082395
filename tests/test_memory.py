"""Traced allocation peaks of the simulator and the fit, per event.

The bounds are bytes per event of 2^17 shuffled events from the
benchmark mixture, as tracemalloc counts the NumPy buffers allocated
during the call.  A fit that kept N-length 2 phi and 4 phi features, the
phase-1 labels or a spent offsets batch beside its memberships would
exceed its bound, as would a simulator that held its per-component
blocks beside their concatenation.  Phase 2 holds no per-event array
beyond what it starts with: every membership and offset it forms lives
for one block of events.
"""

import functools
import tracemalloc

import numpy as np

import gmmlor.estimate as est
from gmmlor import FitConfig, center_offsets, fit, simulate_lors
from gmmlor.estimate import _BLOCK_EVENTS, _Batch
from gmmlor.projection import _Angles

N = 1 << 17


def traced_peak(call):
    """(call(), the peak bytes traced during it above those before it)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def shuffled_events(model):
    return simulate_lors(model, n_total=N, seed=0, shuffle=True)


def test_simulation_peak_per_event(benchmark_mixture):
    res, peak = traced_peak(lambda: shuffled_events(benchmark_mixture))
    assert len(res) == N
    assert peak <= 72 * N


def test_fit_peak_per_event_above_its_inputs(benchmark_mixture):
    res = shuffled_events(benchmark_mixture)
    s, phi = np.array(res.s), np.array(res.phi)
    config = FitConfig(K=3, weight_tol=1e-3, seed=0)
    out, peak = traced_peak(lambda: fit((s, phi), config))
    assert out.converged
    assert peak <= 80 * N


def test_phase2_peak_per_event_above_what_it_holds(
    benchmark_mixture, monkeypatch
):
    # from the first phase-2 E-step to the end of the fit, the traced
    # peak above what is held then; memberships of every event would
    # take 24 bytes per event here
    res = shuffled_events(benchmark_mixture)
    s, phi = np.array(res.s), np.array(res.phi)
    original = est._memberships_arrays
    held = []

    def spy(*args):
        if not held:
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return original(*args)

    monkeypatch.setattr(est, "_memberships_arrays", spy)
    config = FitConfig(K=3, weight_tol=1e-3, seed=0)
    tracemalloc.start()
    try:
        out = fit((s, phi), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.converged
    assert peak - held[0] <= 16 * N


def test_center_offsets_peak_per_event():
    # the offsets themselves, and mean_sinusoid's temporaries for one
    # block of events (three block-length arrays)
    rng = np.random.default_rng(0)
    s, phi = rng.normal(0.0, 1.0, N), rng.uniform(-1.5, 1.5, N)
    angles = _Angles(phi)
    angles.sin, angles.cos  # as the fit holds them
    batch = _Batch(s, phi, angles)
    out, peak = traced_peak(lambda: center_offsets(batch, (0.3, -0.2)))
    assert out[0].size == N
    assert peak <= 8 * N + 4 * 8 * _BLOCK_EVENTS


def test_fit_forms_no_event_length_double_angle_features(
    benchmark_mixture, monkeypatch
):
    sizes = []
    for name in ("sin2", "cos2", "sin4", "cos4"):
        original = getattr(_Angles, name).func

        def spy(self, original=original):
            out = original(self)
            sizes.append(out.size)
            return out

        prop = functools.cached_property(spy)
        prop.__set_name__(_Angles, name)
        monkeypatch.setattr(_Angles, name, prop)
    res = simulate_lors(
        benchmark_mixture, counts=(20000, 14000, 6000), seed=1, shuffle=True
    )
    fit((res.s, res.phi), FitConfig(K=3, weight_tol=1e-3, seed=0))
    assert sizes and max(sizes) <= _BLOCK_EVENTS
