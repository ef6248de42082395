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


# event counts paired with the benchmark mixture (7000 total, 5:25/7:10/7)
BENCHMARK_COUNTS = (3500, 2500, 1000)


@pytest.fixture(scope="session")
def benchmark_mixture():
    return gmmlor.MixtureModel2D(benchmark_components())
