"""Shared fixtures for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

import gmmlor

# the same examples on every run: a property test that passes once keeps
# passing, and one that fails fails every time
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def make_component(mean, cov, weight):
    return gmmlor.GaussianComponent2D(
        np.asarray(mean, dtype=float),
        np.asarray(cov, dtype=float),
        float(weight),
    )


def benchmark_components():
    """Three-component benchmark mixture used throughout the suite.

    One centered isotropic blob, one tilted broad blob, one small
    eccentric blob off to the side.  Weights 0.5, 2.5/7, 1/7 sum to 1.
    """
    return (
        make_component((0.0, 0.0), [[0.0625, 0.0], [0.0, 0.0625]], 0.5),
        make_component((-0.4, -0.4), [[0.04, 0.03], [0.03, 0.09]], 2.5 / 7.0),
        make_component((1.25, -1.0), [[0.04, 0.006], [0.006, 0.01]], 1.0 / 7.0),
    )


#: LoR CSVs that the row reader must refuse with an InputError naming
#: the line given, not with the exception it meets there: a label beyond
#: int64, a byte that is not UTF-8 and a field beyond the csv module's
#: size limit.
UNPARSABLE_CSVS = {
    "label beyond int64": (
        b"s,phi,label\n0.1,0.2,0\n0.1,0.2,9223372036854775808\n", 3
    ),
    "byte that is not UTF-8": (b"s,phi\n0.1,0.2\n0.2\xff,0.3\n", 3),
    "field beyond the csv limit": (
        b"s,phi\n0.1,0.2\n" + b"1" * 140_000 + b",0.3\n", 3
    ),
}


#: Fit settings of the wrong type or out of range, each with the field
#: the refusal must name.
BAD_FIT_SETTINGS = [
    ({"K": "2"}, "K"),
    ({"K": 2.5}, "K"),
    ({"K": True}, "K"),
    ({"K": 3, "weight_tol": "x"}, "weight_tol"),
    ({"K": 3, "weight_tol": float("nan")}, "weight_tol"),
    ({"K": 3, "weight_tol": True}, "weight_tol"),
    ({"K": 3, "weight_tol": float("inf")}, "weight_tol"),
    ({"K": 3, "restarts": 1.5}, "restarts"),
    ({"K": 3, "max_iters_phase1": 2.5}, "max_iters_phase1"),
    ({"K": 3, "max_iters_phase2": None}, "max_iters_phase2"),
    ({"K": 3, "seed": 0.5}, "seed"),
    ({"K": 0}, "K"),
    ({"K": 3, "restarts": 0}, "restarts"),
    ({"K": 3, "max_iters_phase1": -1}, "max_iters_phase1"),
]


#: Values that the one integer check (``errors._as_integer``) refuses
#: for every argument it guards, whatever its least value: bools, floats
#: (an integral one too), NaN, a numeric string and None.
NOT_INTEGERS = [True, False, 1.5, 2.0, float("nan"), "3", None]


#: ``counts`` arguments of ``simulate_lors`` that are not a sequence,
#: refused with an InputError that names ``counts``.
NOT_SEQUENCES = [5, 2.5, True, np.array(5)]


#: Model JSON that must be refused with an InputError naming what is
#: wrong, not with the TypeError or ValueError numpy or Python meets.
MALFORMED_MODELS = {
    "components not a list": ({"components": 5}, "'components' list"),
    "components null": ({"components": None}, "'components' list"),
    "components an object": ({"components": {}}, "'components' list"),
    "mean of strings": (
        {"components": [
            {"mean": ["a", 0], "cov": [[1, 0], [0, 1]], "weight": 1}
        ]},
        "component 0 is malformed: mean",
    ),
    "ragged covariance": (
        {"components": [
            {"mean": [0, 0], "cov": [[1, 0], [0]], "weight": 1}
        ]},
        "component 0 is malformed: covariance",
    ),
    "weight a bool": (
        {"components": [
            {"mean": [0, 0], "cov": [[1, 0], [0, 1]], "weight": True}
        ]},
        "component 0 is malformed: weight must be a number",
    ),
    "mean beyond float range": (
        {"components": [
            {"mean": [10 ** 400, 0], "cov": [[1, 0], [0, 1]], "weight": 1}
        ]},
        "component 0 is malformed: mean",
    ),
}


#: JSON files the parser itself refuses, with something other than a
#: JSONDecodeError: a byte that is not UTF-8, and arrays nested deeper
#: than the parser's recursion limit.
UNPARSABLE_JSON = {
    "byte that is not UTF-8": b'{"components": [\xff]}',
    "nesting beyond the recursion limit": (
        b'{"components": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    ),
}


# event counts paired with the benchmark mixture (7000 total, 5:25/7:10/7)
BENCHMARK_COUNTS = (3500, 2500, 1000)


def overflow_cases():
    """300 events whose s^4 overflow a sum over them, by name: s ~
    N(0, 1) 1e150 (``spread``), and one event at s = 1e300 among
    N(0, 1) ones (``outlier``)."""
    rng = np.random.default_rng(19)
    z, phi = rng.normal(size=300), rng.uniform(-1.5, 1.5, 300)
    return {
        "spread": (z * 1e150, phi),
        "outlier": (np.append(z[:-1], 1e300), phi),
    }


@pytest.fixture(scope="session")
def benchmark_mixture():
    return gmmlor.MixtureModel2D(benchmark_components())
