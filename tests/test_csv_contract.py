"""The LoR CSV input contract as a property over mutated files.

Each example starts from a valid labeled or unlabeled CSV written by
:func:`write_lors_csv` and applies a few mutations: whole fields
replaced, byte flips, insertions, truncations, fields longer than the
csv module takes, integers beyond int64 and float range, and bytes that
are not UTF-8.
Whatever comes out, :func:`read_lors_csv` returns finite, matching 1-D
float arrays (with int64 labels or None) or raises an
:class:`InputError`, and ``gmmlor fit`` of the file never exits 1: an
input it cannot take exits 3, one it cannot fit 4, 5 or 6.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmmlor.cli as cli
from gmmlor import InputError, MixtureModel2D, read_lors_csv, simulate_lors
from gmmlor.simulate import write_lors_csv
from conftest import benchmark_components

#: Values that a mutation writes in place of one field of an event row:
#: non-finite words, integers beyond int64 and float range, a float
#: where a label goes, forms only some parsers take, and empty fields.
FIELDS = [
    b"9223372036854775808", b"-9223372036854775809", b"9" * 400,
    b"1" * 5000, b"1e999", b"-1e999", b"nan", b"inf", b"-inf", b"3.0",
    b"1_0", b'"1"', b" 1 ", b"", b"0x10", b"\xff", b"1\x00",
]

#: Byte strings that a mutation inserts or writes over the file: CSV
#: syntax, number syntax, NUL and the separators only np.loadtxt takes
#: as spaces, bytes that are not UTF-8, and the field values above.
TOKENS = [
    b",", b"\n", b"\r", b"\r\n", b'"', b" ", b"\t", b"\x00", b"\x1c",
    b"-", b"+", b".", b"e", b"E", b"_", b"0", b"7", b"\x80", b"\xc3",
    b"\xed\xa0\x80", b"\xef\xbb\xbf", b"s,phi", b"s,phi,label",
] + FIELDS

#: A field beyond the csv module's default limit of 131072 characters.
LONG_FIELD = b"1" * 140_000


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One directory for every example's files, each overwriting the
    last."""
    return tmp_path_factory.mktemp("csv-contract")


@pytest.fixture(scope="module")
def valid_csvs(work):
    """The bytes of a valid unlabeled and a valid labeled CSV of twelve
    events of the benchmark mixture."""
    model = MixtureModel2D(benchmark_components())
    res = simulate_lors(model, counts=(6, 4, 2), seed=5, shuffle=True)
    out = {}
    for labeled in (False, True):
        path = work / "valid.csv"
        write_lors_csv(path, res.s, res.phi, res.labels if labeled else None)
        out[labeled] = path.read_bytes()
    return out


@st.composite
def mutated(draw, valid):
    """A valid CSV's bytes after one to three mutations."""
    data = valid[draw(st.booleans())]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(
            ["field", "flip", "insert", "replace", "truncate", "long",
             "binary"]
        ))
        if kind == "field":  # of a line after the header
            lines = data.split(b"\n")
            i = draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))
            cells = lines[i].split(b",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(
                st.sampled_from(FIELDS)
            )
            lines[i] = b",".join(cells)
            data = b"\n".join(lines)
        elif kind == "flip":
            if at < len(data):
                byte = data[at] ^ (1 << draw(st.integers(0, 7)))
                data = data[:at] + bytes([byte]) + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + draw(st.sampled_from(TOKENS)) + data[at:]
        elif kind == "replace":
            stop = at + draw(st.integers(1, 8))
            data = data[:at] + draw(st.sampled_from(TOKENS)) + data[stop:]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "long":
            data = data[:at] + LONG_FIELD + data[at:]
        else:
            data = data[:at] + draw(st.binary(max_size=6)) + data[at:]
    return data


@settings(max_examples=1000)
@given(data=st.data())
def test_the_reader_returns_finite_arrays_or_refuses(valid_csvs, work, data):
    path = work / "lors.csv"
    path.write_bytes(data.draw(mutated(valid_csvs)))
    try:
        s, phi, labels = read_lors_csv(path)
    except InputError:
        return
    assert s.dtype == phi.dtype == np.float64
    assert s.ndim == 1 and s.shape == phi.shape
    assert np.all(np.isfinite(s)) and np.all(np.isfinite(phi))
    if labels is not None:
        assert labels.dtype == np.int64 and labels.shape == s.shape


@settings(max_examples=100)
@given(data=st.data())
def test_fit_of_a_mutated_csv_never_exits_1(valid_csvs, work, data):
    path = work / "lors.csv"
    path.write_bytes(data.draw(mutated(valid_csvs)))
    rc = cli.main(["fit", str(path), "--k", "1", "--out", str(work / "m")])
    assert rc in (0, 3, 4, 5, 6)
