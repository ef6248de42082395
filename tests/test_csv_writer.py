"""The CSV writer's numpy %.17g kernel against CPython's ``%``.

Every file the package writes goes through ``simulate._write_rows``, and
its bytes must be those of ``row % values`` for every row: ``%.17g`` for
a float, ``%d`` for an integer.  The kernel formats what it can settle
exactly and leaves the rest to ``%``; these tests check both paths, the
split between them, and the values that ``write_lors_csv`` refuses.
"""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gmmlor.simulate as sim
from gmmlor import InputError, write_lors_csv

TIE = 3 * 2.0**-24  # 1.78813934326171875e-07

EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
    -1.7976931348623157e308,
    # %g switches to d.dddde-XX below 1e-4 and above 17 integer digits
    1e-4, 9.999999999999999e-05, -1e-4, 1e16, 1e17, 9.999999999999999e16,
    99999999999999999.0, 1e-5, 1.0, 0.5, 100.0, 123456.789, 1e100, 1e-100,
    # ties at 17 digits: 1.00000762939453125 exactly, which the kernel
    # rounds to even, and 3 2^-24, whose 10^23 scaling is inexact
    1.0 + 2.0**-17, TIE,
]


def text(columns):
    fh = io.StringIO()
    sim._write_rows(fh, [np.asarray(col) for col in columns])
    return fh.getvalue()


def want(columns):
    row = ",".join("%d" if np.asarray(col).dtype.kind in "iu" else "%.17g"
                   for col in columns) + "\n"
    return "".join(row % values
                   for values in zip(*(np.asarray(c).tolist() for c in columns)))


def neighbours(values):
    x = np.array(values)
    with np.errstate(over="ignore"):
        return np.concatenate(
            [x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]
        )


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_any_bit_pattern_matches_percent(patterns):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert text([x]) == want([x])


@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=50))
def test_any_int64_matches_percent_d(values):
    labels = np.array(values, dtype=np.int64)
    floats = np.zeros(labels.size)
    assert text([floats, labels]) == want([floats, labels])


def test_a_seeded_corpus_over_fifty_decades():
    rng = np.random.default_rng(19)
    n = 120_000
    x = rng.normal(size=n) * 10.0 ** rng.integers(-30, 21, n)
    assert text([x]) == want([x])
    # the kernel, not the fallback, wrote them
    _, unsettled = sim._g17_text([x])
    assert not unsettled.any()


def test_edges_and_their_neighbours():
    x = neighbours(EDGES)
    assert text([x]) == want([x])
    _, unsettled = sim._g17_text([x])
    inside = (np.abs(x) >= sim._G17_RANGE[0]) & (np.abs(x) < sim._G17_RANGE[1])
    assert not np.any(unsettled[inside & (x != TIE)])
    assert np.all(unsettled[~inside & (x != 0.0)])
    assert np.all(unsettled[x == TIE])


def test_every_power_of_ten_and_its_neighbours():
    # the double nearest 10^k can lie just below it, where the product
    # rounds up to 10^16 at the exponent log10 gives
    x = neighbours([float(f"1e{k}") for k in range(-323, 309)])
    assert text([x]) == want([x])
    inside = (np.abs(x) >= sim._G17_RANGE[0]) & (np.abs(x) < sim._G17_RANGE[1])
    assert not sim._g17_text([x])[1][inside].any()


@pytest.mark.parametrize("x, settled, want_text", [
    (1.0 + 2.0**-17, True, "1.0000076293945312"),
    (1.0 + 3 * 2.0**-17, True, "1.0000228881835938"),
    (TIE, False, "1.7881393432617188e-07"),
])
def test_ties_round_half_to_even(x, settled, want_text):
    _, unsettled = sim._g17_text([np.array([x])])
    assert unsettled.tolist() == [not settled]
    assert text([[x]]) == want_text + "\n" == "%.17g\n" % x


def test_kernel_and_fallback_rows_in_one_chunk():
    # a run of kernel rows, a fallback run of two, one between kernel
    # rows, and a wide label the float kernel cannot carry
    s = np.array([1.5, 5e-324, 1e300, 2.5, TIE, -3.25, 0.1])
    phi = np.linspace(-1.5, 1.5, s.size)
    labels = np.array([0, 1, 2, 3, 4, 2**60, 6], dtype=np.int64)
    _, unsettled = sim._g17_text([s, phi, labels])
    assert unsettled.tolist() == [False, True, True, False, True, True, False]
    assert text([s, phi, labels]) == want([s, phi, labels])


def test_the_powers_of_ten_are_double_doubles():
    hi, lo = sim._g17_tables()[:2]
    for q, h, l in zip(sim._G17_POWERS, hi.tolist(), lo.tolist()):
        exact = Fraction(10) ** q
        assert abs(Fraction(h) + Fraction(l) - exact) <= exact * 2.0**-105


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9])
@pytest.mark.parametrize("kind", ["unlabeled", "labeled", "raster"])
def test_chunk_edges(tmp_path, monkeypatch, n, kind):
    monkeypatch.setattr(sim, "_CSV_CHUNK_ROWS", 8)
    rng = np.random.default_rng([n, len(kind)])
    s = rng.normal(size=n) * 10.0 ** rng.integers(-6, 3, n)
    phi = rng.uniform(-1.6, 1.6, n)
    if kind == "raster":
        columns = [s, phi, rng.uniform(0.0, 3.0, n)]
        assert text(columns) == want(columns)
        return
    labels = rng.integers(0, 300, n) if kind == "labeled" else None
    path = tmp_path / "lors.csv"
    write_lors_csv(path, s, phi, labels)
    columns = [s, phi] + ([] if labels is None else [labels])
    header = "s,phi\n" if labels is None else "s,phi,label\n"
    assert path.read_text(encoding="utf-8") == header + want(columns)


def test_labels_stored_as_floats_are_written_as_integers(tmp_path):
    path = tmp_path / "lors.csv"
    write_lors_csv(path, [0.5, 1.5], [0.0, 1.0], np.array([2.0, -0.0]))
    assert path.read_text(encoding="utf-8") == "s,phi,label\n0.5,0,2\n1.5,1,0\n"


@pytest.mark.parametrize("column", ["s", "phi"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_events_are_refused_before_the_file_opens(
    tmp_path, column, bad
):
    path = tmp_path / "lors.csv"
    path.write_text("kept\n", encoding="utf-8")
    values = {"s": [0.1, 0.2], "phi": [0.3, 0.4]}
    values[column][1] = bad
    with pytest.raises(InputError, match="finite"):
        write_lors_csv(path, values["s"], values["phi"])
    assert path.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize(
    "s, phi", [([0.1, 0.2], [0.3]), ([[0.1, 0.2]], [[0.3, 0.4]]), (0.1, 0.3)]
)
def test_events_that_are_not_matching_1d_arrays_are_refused(tmp_path, s, phi):
    path = tmp_path / "lors.csv"
    path.write_text("kept\n", encoding="utf-8")
    with pytest.raises(InputError, match="matching 1-D"):
        write_lors_csv(path, s, phi)
    assert path.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("labels", [[0.7, 1.0], [1.0, 2.9], [0.0, 1e30]])
def test_non_integral_labels_are_refused_before_the_file_opens(
    tmp_path, labels
):
    path = tmp_path / "lors.csv"
    path.write_text("kept\n", encoding="utf-8")
    with pytest.raises(InputError, match="integers"):
        write_lors_csv(path, [0.1, 0.2], [0.3, 0.4], np.array(labels))
    assert path.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_labels_are_refused_before_the_file_opens(tmp_path, bad):
    path = tmp_path / "lors.csv"
    path.write_text("kept\n", encoding="utf-8")
    with pytest.raises(InputError, match="integers"):
        write_lors_csv(path, [0.1, 0.2], [0.3, 0.4], np.array([0.0, bad]))
    assert path.read_text(encoding="utf-8") == "kept\n"
