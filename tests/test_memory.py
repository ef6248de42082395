"""Traced allocation peaks of the simulator and the fit, per event.

The bounds are bytes per event of 2^17 shuffled events from the
benchmark mixture, as tracemalloc counts the NumPy buffers allocated
during the call.  A fit that kept N-length 2 phi and 4 phi features, the
phase-1 labels or a spent offsets batch beside its memberships, or
whose phase 1 kept float64 skip keys or recomputed runs of two blocks
whole, would exceed its bound, as would a simulator that held its
per-component blocks beside their concatenation, or whose draws kept a
temporary of each step beside the next, or a CSV writer that formatted
more than a chunk of rows at once.  The phase-1 handoff and phase 2 hold no
per-event array beyond what they start with: every gathered copy,
membership and offset they form lives for one block of events.  The
fit command holds no label column of its input.
"""

import functools
import tracemalloc

import numpy as np

import gmmlor.cli as cli
import gmmlor.estimate as est
from gmmlor import FitConfig, center_offsets, fit, simulate_lors
from gmmlor.estimate import _BLOCK_EVENTS
from gmmlor.projection import _Batch
from gmmlor.simulate import write_lors_csv

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
    # the outputs take 24; the draws of the largest component, half the
    # events, take 16 beside them
    assert peak <= 50 * N


def test_fit_peak_per_event_above_its_inputs(benchmark_mixture):
    res = shuffled_events(benchmark_mixture)
    s, phi = np.array(res.s), np.array(res.phi)
    config = FitConfig(K=3, weight_tol=1e-3, seed=0)
    out, peak = traced_peak(lambda: fit((s, phi), config))
    assert out.converged
    assert peak <= 40 * N


def test_phase1_peak_per_event_above_what_it_starts_with(
    benchmark_mixture, monkeypatch
):
    # phase 1 takes sin and cos of every event (16 bytes per event) and
    # a float32 skip key (4), and recomputes its candidates one block at
    # a time; float64 keys and whole runs of two blocks read 44.1 here
    res = shuffled_events(benchmark_mixture)
    s, phi = np.array(res.s), np.array(res.phi)
    original = est._phase1
    marks, keys = {}, []

    class Recorded(est._HardLabels):
        def __init__(self, *args):
            super().__init__(*args)
            keys.append(self.keys.dtype)

    def spy(*args):
        marks["start"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = original(*args)
        marks["peak"] = tracemalloc.get_traced_memory()[1]
        return out

    monkeypatch.setattr(est, "_phase1", spy)
    monkeypatch.setattr(est, "_HardLabels", Recorded)
    config = FitConfig(K=3, weight_tol=1e-3, seed=0)
    tracemalloc.start()
    try:
        fit((s, phi), config)
    finally:
        tracemalloc.stop()
    assert keys == [np.float32]
    assert marks["peak"] - marks["start"] <= 36 * N


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


def test_handoff_peak_above_what_phase_1_holds(benchmark_mixture, monkeypatch):
    # from the last phase-1 iteration to the first phase-2 E-step, the
    # traced peak above what is held at that iteration, within eight
    # block-length float arrays; gathering each cluster's events whole
    # would take 24 bytes per event for the largest
    original = est._memberships_arrays
    marks = {}

    def phase1_held(rec):
        if rec.phase == 1:
            marks["held"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()

    def spy(*args):
        marks.setdefault("peak", tracemalloc.get_traced_memory()[1])
        return original(*args)

    monkeypatch.setattr(est, "_memberships_arrays", spy)
    res = shuffled_events(benchmark_mixture)
    s, phi = np.array(res.s), np.array(res.phi)
    config = FitConfig(K=3, weight_tol=1e-3, seed=0)
    tracemalloc.start()
    try:
        fit((s, phi), config, on_iteration=phase1_held)
    finally:
        tracemalloc.stop()
    assert marks["peak"] - marks["held"] <= 8 * 8 * _BLOCK_EVENTS


def test_fit_command_holds_no_label_column(
    benchmark_mixture, monkeypatch, tmp_path
):
    # the same events with and without a label column: from the call of
    # fit on, the command's traced peak is the same up to one byte per
    # event, and what it holds then is s and phi (16 bytes per event);
    # a label column would add 8
    res = shuffled_events(benchmark_mixture)
    original = cli.fit
    marks = {}

    def spy(*args, **kwargs):
        marks["held"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "fit", spy)
    held, peaks = {}, {}
    for labeled in (False, True):
        path = tmp_path / f"events-{labeled}.csv"
        write_lors_csv(path, res.s, res.phi, res.labels if labeled else None)
        argv = ["fit", str(path), "--k", "3",
                "--out", str(tmp_path / "m.json")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli.main(argv)
            peaks[labeled] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        held[labeled] = marks["held"] - base
    assert max(held.values()) <= 20 * N
    assert peaks[True] <= peaks[False] + N


def test_csv_write_peak_per_event(benchmark_mixture, tmp_path):
    # the text of one chunk of rows at a time; one % per chunk of 2^16
    # rows, with its tuple of Python floats, peaked at 10.6 MB here (81
    # bytes per event)
    res = shuffled_events(benchmark_mixture)
    for labels in (None, res.labels):
        _, peak = traced_peak(
            lambda: write_lors_csv(tmp_path / "lors.csv", res.s, res.phi, labels)
        )
        assert peak <= 10.6e6


def test_center_offsets_peak_per_event():
    # the offsets themselves, and mean_sinusoid's temporaries for one
    # block of events (three block-length arrays)
    rng = np.random.default_rng(0)
    s, phi = rng.normal(0.0, 1.0, N), rng.uniform(-1.5, 1.5, N)
    batch = _Batch(s, phi)
    batch.sin, batch.cos  # as the fit holds them
    out, peak = traced_peak(lambda: center_offsets(batch, (0.3, -0.2)))
    assert out[0].size == N
    assert peak <= 8 * N + 4 * 8 * _BLOCK_EVENTS


def test_fit_forms_no_event_length_double_angle_features(
    benchmark_mixture, monkeypatch
):
    sizes = []
    for name in ("sin2", "cos2", "sin4", "cos4"):
        original = getattr(_Batch, name).func

        def spy(self, original=original):
            out = original(self)
            sizes.append(out.size)
            return out

        prop = functools.cached_property(spy)
        prop.__set_name__(_Batch, name)
        monkeypatch.setattr(_Batch, name, prop)
    res = simulate_lors(
        benchmark_mixture, counts=(20000, 14000, 6000), seed=1, shuffle=True
    )
    fit((res.s, res.phi), FitConfig(K=3, weight_tol=1e-3, seed=0))
    assert sizes and max(sizes) <= _BLOCK_EVENTS
