"""Pinned fits: the values a short study and one larger fit must keep.

The study is ``gmmlor replicate --counts 350,250,100 --replicates 12
--seed 0`` with the benchmark truth and the config ``{"K": 3,
"weight_tol": 1e-3}``: replicate i simulates with ``derive_seed(0, 2 i)``
and fits with ``derive_seed(0, 2 i + 1)``.  The larger fit takes 30 000
shuffled events simulated with seed 0, and fits them with seed 0.
``pinned_fits.json`` holds each fit's status, iteration count and
parameters (means, covariance entries xx, xy, yy, weights).

A fit's bytes hold on one class of host.  Across SIMD levels NumPy's
``exp``, ``log`` and ``arctan2`` can differ by 1 ulp, so the values agree
to about 1e-14 relative there.  The check therefore takes statuses and
iteration counts exactly, and every parameter within 1e-12 of its fit's
scale, the largest magnitude among its parameters.  A second run of the
same fits, in a subprocess with NumPy's AVX-512 kernels disabled, must
pass the same check.

To rewrite the pinned values after a change that moves them on purpose:
``PYTHONPATH=src python tests/test_pinned.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gmmlor import (
    ComponentDeathError,
    FitConfig,
    MixtureModel2D,
    NumericalError,
    fit,
    simulate_lors,
)
from gmmlor.rng import derive_seed
from conftest import benchmark_components

PINNED = Path(__file__).with_name("pinned_fits.json")
TOLERANCE = 1e-12
#: NumPy's names for its AVX-512 dispatch targets (NumPy 2.4 on)
DISABLED = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def fit_record(s, phi, seed) -> dict:
    """A fit's status as ``replicate`` writes it, its iteration count
    and its parameters."""
    try:
        result = fit((s, phi), FitConfig(K=3, weight_tol=1e-3, seed=seed))
    except ComponentDeathError:
        return {"status": "death"}
    except NumericalError:
        return {"status": "numeric"}
    params = []
    for c in result.model.components:
        params += [*c.mean, c.covariance[0, 0], c.covariance[0, 1],
                   c.covariance[1, 1], c.weight]
    return {
        "status": "ok" if result.converged else "max_iter",
        "iterations": result.state.iteration,
        "params": [float(p) for p in params],
    }


def pinned_fits() -> dict:
    """Every pinned fit's record, by name."""
    truth = MixtureModel2D(benchmark_components())
    fits = {}
    for i in range(12):
        sim = simulate_lors(
            truth, counts=(350, 250, 100), seed=derive_seed(0, 2 * i)
        )
        fits[f"study/{i}"] = fit_record(
            sim.s, sim.phi, derive_seed(0, 2 * i + 1)
        )
    sim = simulate_lors(truth, n_total=30_000, seed=0, shuffle=True)
    fits["30k"] = fit_record(sim.s, sim.phi, 0)
    return fits


def check(got: dict) -> None:
    want = json.loads(PINNED.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    for name, record in want.items():
        assert got[name].keys() == record.keys(), name
        assert got[name]["status"] == record["status"], name
        if "params" not in record:
            continue
        assert got[name]["iterations"] == record["iterations"], name
        pinned = np.array(record["params"])
        scale = float(np.max(np.abs(pinned)))
        gap = np.abs(np.array(got[name]["params"]) - pinned)
        assert np.all(gap <= TOLERANCE * scale), (name, gap.max() / scale)


def unknown_features():
    """The names of ``DISABLED`` that this NumPy does not dispatch."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # NumPy 1
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return [name for name in DISABLED if name not in __cpu_dispatch__]


def test_the_pinned_fits_keep_their_values():
    check(pinned_fits())


def test_the_pinned_fits_keep_their_values_without_avx512():
    unknown = unknown_features()
    if unknown:
        pytest.skip(f"NumPy {np.__version__} does not dispatch {unknown}")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(DISABLED))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    code = (
        "import json, test_pinned; "
        "print(json.dumps(test_pinned.pinned_fits()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(__file__).parent, env=env,
        capture_output=True, text=True, check=True,
    )
    check(json.loads(proc.stdout))


if __name__ == "__main__":
    PINNED.write_text(
        json.dumps(pinned_fits(), indent=1) + "\n", encoding="utf-8"
    )
