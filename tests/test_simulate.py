"""Event simulator: counts, reproducibility, moment agreement, CSV I/O."""

import csv
import math

import numpy as np
import pytest

from gmmlor import (
    InputError,
    MixtureModel2D,
    eigen_from_covariance,
    mean_sinusoid,
    read_lors_csv,
    simulate_lors,
    theoretical_moments,
    write_lors_csv,
)
import gmmlor.simulate
from gmmlor.rng import SeededStream, cholesky_2x2
from conftest import (
    BENCHMARK_COUNTS,
    NOT_INTEGERS,
    NOT_SEQUENCES,
    UNPARSABLE_CSVS,
    make_component,
)


def single(mean, cov):
    return MixtureModel2D((make_component(mean, cov, 1.0),))


def test_counts_are_exact(benchmark_mixture):
    res = simulate_lors(benchmark_mixture, counts=BENCHMARK_COUNTS, seed=0)
    assert res.counts == BENCHMARK_COUNTS
    assert len(res.s) == len(res.phi) == len(res.labels) == 7000
    hist = np.bincount(res.labels, minlength=3)
    assert tuple(hist) == BENCHMARK_COUNTS


def test_total_split_matches_weights(benchmark_mixture):
    res = simulate_lors(benchmark_mixture, n_total=7000, seed=3)
    assert sum(res.counts) == 7000
    # multinomial split: stay within 5 sigma of the expectation
    for k, w in enumerate(benchmark_mixture.weights):
        se = math.sqrt(7000 * w * (1 - w))
        assert abs(res.counts[k] - 7000 * w) < 5 * se


def test_zero_count_component_absent(benchmark_mixture):
    res = simulate_lors(benchmark_mixture, counts=(0, 10, 5), seed=1)
    assert res.counts == (0, 10, 5)
    assert 0 not in res.labels


def test_same_seed_same_csv_bytes(tmp_path, benchmark_mixture):
    def csv_bytes(name, res, labels=None):
        path = tmp_path / name
        write_lors_csv(path, res.s, res.phi, labels)
        return path.read_bytes()

    a = simulate_lors(benchmark_mixture, counts=(50, 30, 20), seed=42)
    b = simulate_lors(benchmark_mixture, counts=(50, 30, 20), seed=42)
    assert csv_bytes("a.csv", a, a.labels) == csv_bytes("b.csv", b, b.labels)
    c = simulate_lors(benchmark_mixture, counts=(50, 30, 20), seed=43)
    assert csv_bytes("a0.csv", a) != csv_bytes("c0.csv", c)


def reference_csv(path, s, phi, labels=None):
    """The LoR CSV written one row at a time through the csv module."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("s", "phi") if labels is None else ("s", "phi", "label"))
        for i in range(len(s)):
            row = (f"{s[i]:.17g}", f"{phi[i]:.17g}")
            writer.writerow(row if labels is None else row + (int(labels[i]),))


@pytest.mark.parametrize("labeled", [False, True])
def test_csv_bytes_match_the_row_by_row_reference(tmp_path, monkeypatch, labeled):
    # a 4-row chunk puts chunk boundaries inside the 11 rows
    monkeypatch.setattr(gmmlor.simulate, "_CSV_CHUNK_ROWS", 4)
    rng = np.random.default_rng(3)
    s = rng.normal(size=11) * 10.0 ** rng.integers(-300, 300, 11)
    s[:4] = [0.0, -0.0, 5e-324, -1.7976931348623157e308]
    phi = rng.uniform(-1.6, 1.6, 11)
    labels = rng.integers(0, 3, 11) if labeled else None
    for n in (0, 4, 11):
        part = None if labels is None else labels[:n]
        write_lors_csv(tmp_path / "got.csv", s[:n], phi[:n], part)
        reference_csv(tmp_path / "want.csv", s[:n], phi[:n], part)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_point_source_lines_pass_through_the_point():
    model = single((1.0, 2.0), 1e-18 * np.eye(2))
    res = simulate_lors(model, counts=(2000,), seed=8)
    expect = mean_sinusoid(res.phi, (1.0, 2.0))
    assert np.max(np.abs(res.s - expect)) < 1e-6


def test_isotropic_offset_variance():
    sigma_sq = 0.0625
    n = 100000
    res = simulate_lors(single((0.0, 0.0), sigma_sq * np.eye(2)), counts=(n,), seed=5)
    # the projected variance is flat, so var(s) estimates sigma^2
    se = sigma_sq * math.sqrt(2.0 / n)
    assert abs(res.s.var() - sigma_sq) < 5 * se


def test_sample_moments_match_theory():
    cov = np.array([[0.04, 0.03], [0.03, 0.09]])
    n = 100000
    res = simulate_lors(single((0.0, 0.0), cov), counts=(n,), seed=17)
    e = eigen_from_covariance(cov)
    m2, m4 = theoretical_moments(e)
    m2_hat = np.mean(res.s**2)
    m4_hat = np.mean(res.s**4)
    assert abs(m2_hat - m2) / m2 < 0.02
    assert abs(m4_hat - m4) / m4 < 0.05


def test_csv_roundtrip_with_labels(tmp_path, benchmark_mixture):
    res = simulate_lors(benchmark_mixture, counts=(30, 20, 10), seed=2)
    path = tmp_path / "lors.csv"
    write_lors_csv(path, res.s, res.phi, res.labels)
    s, phi, labels = read_lors_csv(path)
    assert np.array_equal(s, res.s)
    assert np.array_equal(phi, res.phi)
    assert np.array_equal(labels, res.labels)


def test_csv_roundtrip_without_labels(tmp_path, benchmark_mixture):
    res = simulate_lors(benchmark_mixture, counts=(30, 20, 10), seed=2)
    path = tmp_path / "lors.csv"
    write_lors_csv(path, res.s, res.phi)
    s, phi, labels = read_lors_csv(path)
    assert labels is None
    assert np.array_equal(s, res.s)


def test_csv_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("s,phi\n1.0\n")
    with pytest.raises(InputError):
        read_lors_csv(path)


def test_csv_rejects_nonfinite_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("s,phi\n1.0,nan\n")
    with pytest.raises(InputError):
        read_lors_csv(path)


def test_csv_rejects_missing_file(tmp_path):
    with pytest.raises(InputError):
        read_lors_csv(tmp_path / "nope.csv")


def read_outcome(reader, path):
    """What ``reader`` makes of ``path``: its arrays, or its error."""
    try:
        return reader(path)
    except InputError as exc:
        return str(exc)


CSV_PARITY_INPUTS = {
    "one field": "s,phi\n1.0,2.0\n3.0\n",
    "three fields in one row": "s,phi\n1.0,2.0\n1.0,2.0,3\n",
    "three fields in every row": "s,phi\n1.0,2.0,0\n1.5,2.5,1\n",
    "two fields, labelled": "s,phi,label\n1.0,2.0\n",
    "nan after a blank line": "s,phi\n1.0,2.0\n\nnan,2.0\n",
    "inf after a blank line": "s,phi\n1.0,2.0\n\n1.0,inf\n",
    "overflow to inf": "s,phi\n1e400,2.0\n",
    "hash line": "s,phi\n1.0,2.0\n# note\n3.0,4.0\n",
    "whitespace-only line": "s,phi\n1.0,2.0\n   \n3.0,4.0\n",
    "whitespace-only second line": "s,phi\n \n3.0,4.0\n",
    "quoted field": 's,phi\n"1.5",2.0\n3.0,4.0\n',
    "underscore": "s,phi\n1_0,2.0\n",
    "file separator": "s,phi\n1.5\x1c,2.0\n",
    "empty field": "s,phi\n1.0,\n",
    "crlf": "s,phi\r\n1.0,2.0\r\n3.0,4.0\r\n",
    "padded numbers": "s,phi\n 1.0 , 2.0\t\n",
    "label 3.0": "s,phi,label\n1.0,2.0,3.0\n",
    "label +3": "s,phi,label\n1.0,2.0,+3\n",
    "label space 3": "s,phi,label\n1.0,2.0, 3\n",
    "label 1_0": "s,phi,label\n1.0,2.0,1_0\n",
    "labels at the ends of int64": (
        "s,phi,label\n1.0,2.0,9223372036854775807\n"
        "1.0,2.0,-9223372036854775808\n"
    ),
    "header only": "s,phi\n",
    "blank lines only": "s,phi\n\n\n",
    "quoted header": '"s",phi\n1.0,2.0\n',
    "unknown header": "x,phi\n1.0,2.0\n",
    "empty file": "",
}


@pytest.mark.parametrize("name", sorted(CSV_PARITY_INPUTS))
def test_csv_reader_agrees_with_the_row_reader(tmp_path, name):
    path = tmp_path / "lors.csv"
    path.write_bytes(CSV_PARITY_INPUTS[name].encode("utf-8"))
    got = read_outcome(read_lors_csv, path)
    want = read_outcome(gmmlor.simulate._read_lors_rows, path)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for a, b in zip(got, want):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def test_csv_label_errors_do_not_depend_on_numpy(tmp_path):
    # np.loadtxt reads "3.0" as the integer 3 in NumPy 1.x
    path = tmp_path / "lors.csv"
    path.write_text("s,phi,label\n1.0,2.0,0\n1.0,2.0,3.0\n")
    with pytest.raises(InputError, match=r"line 3: .*'3\.0'"):
        read_lors_csv(path)


@pytest.mark.parametrize("name", sorted(UNPARSABLE_CSVS))
def test_csv_refuses_what_float_and_int_do_not_see_at_its_line(
    tmp_path, name
):
    data, line = UNPARSABLE_CSVS[name]
    path = tmp_path / "lors.csv"
    path.write_bytes(data)
    with pytest.raises(InputError, match=rf"^line {line}: "):
        read_lors_csv(path)


@pytest.mark.parametrize("labeled", [False, True])
def test_a_well_formed_csv_never_reaches_the_row_reader(
    tmp_path, monkeypatch, benchmark_mixture, labeled
):
    res = simulate_lors(benchmark_mixture, counts=(30, 20, 10), seed=4)
    path = tmp_path / "lors.csv"
    write_lors_csv(path, res.s, res.phi, res.labels if labeled else None)
    want = gmmlor.simulate._read_lors_rows(path)

    def refuse(path):
        raise AssertionError("row reader used")

    monkeypatch.setattr(gmmlor.simulate, "_read_lors_rows", refuse)
    s, phi, labels = read_lors_csv(path)
    assert np.array_equal(s, want[0]) and s.flags.c_contiguous
    assert np.array_equal(phi, want[1]) and phi.flags.c_contiguous
    if labeled:
        assert labels.dtype == np.int64
        assert np.array_equal(labels, want[2])
    else:
        assert labels is None


def test_shuffle_preserves_events(benchmark_mixture):
    plain = simulate_lors(benchmark_mixture, counts=(40, 30, 20), seed=9)
    mixed = simulate_lors(benchmark_mixture, counts=(40, 30, 20), seed=9, shuffle=True)
    assert mixed.counts == plain.counts
    key = lambda r: sorted(zip(r.s, r.phi, r.labels))
    assert key(mixed) == key(plain)
    # and the block layout is actually broken up
    assert not np.array_equal(mixed.labels, plain.labels)


def test_counts_validation(benchmark_mixture):
    with pytest.raises(InputError):
        simulate_lors(benchmark_mixture, counts=(10, 10), seed=0)
    with pytest.raises(InputError):
        simulate_lors(benchmark_mixture, counts=(10, -1, 5), seed=0)
    with pytest.raises(InputError):
        simulate_lors(benchmark_mixture)  # needs counts or n_total


@pytest.mark.parametrize("bad", NOT_INTEGERS + [-1])
def test_counts_and_n_total_must_be_nonnegative_integers(
    benchmark_mixture, bad
):
    with pytest.raises(InputError, match="^counts must be "):
        simulate_lors(benchmark_mixture, counts=(10, bad, 5), seed=0)
    if bad is not None:  # None is no n_total at all
        with pytest.raises(InputError, match="^n_total must be "):
            simulate_lors(benchmark_mixture, n_total=bad, seed=0)


@pytest.mark.parametrize("bad", NOT_SEQUENCES, ids=repr)
def test_counts_that_are_not_a_sequence_are_refused(benchmark_mixture, bad):
    with pytest.raises(InputError, match="^counts must be a sequence"):
        simulate_lors(benchmark_mixture, counts=bad, seed=0)


def test_numpy_integer_counts_simulate_as_ints_do(benchmark_mixture):
    want = simulate_lors(benchmark_mixture, counts=(30, 20, 10), seed=2)
    for got in (
        simulate_lors(
            benchmark_mixture, counts=np.array([30, 20, 10]), seed=2
        ),
        simulate_lors(
            benchmark_mixture, counts=(np.uint8(30), np.int32(20), 10),
            seed=2,
        ),
    ):
        assert got.counts == want.counts
        assert all(type(c) is int for c in got.counts)
        assert np.array_equal(got.s, want.s)
    by_total = simulate_lors(benchmark_mixture, n_total=np.int64(60), seed=2)
    assert by_total.counts == simulate_lors(
        benchmark_mixture, n_total=60, seed=2
    ).counts


def concatenated_simulation(model, counts, seed, shuffle):
    """simulate_lors from counts as per-component blocks, concatenated,
    then permuted all at once."""
    stream = SeededStream(seed)
    s_blocks, phi_blocks, label_blocks = [], [], []
    for k, (comp, n_k) in enumerate(zip(model.components, counts)):
        if n_k == 0:
            continue
        chol = cholesky_2x2(comp.covariance)
        z = stream.standard_normal_pairs(n_k)
        points = z @ chol.T + comp.mean
        phi = stream.angles(n_k)
        s_blocks.append(-points[:, 0] * np.sin(phi) + points[:, 1] * np.cos(phi))
        phi_blocks.append(phi)
        label_blocks.append(np.full(n_k, k, dtype=np.uint8))
    if s_blocks:
        s = np.concatenate(s_blocks)
        phi = np.concatenate(phi_blocks)
        labels = np.concatenate(label_blocks)
    else:
        s, phi, labels = np.empty(0), np.empty(0), np.empty(0, dtype=np.uint8)
    if shuffle and s.size:
        perm = stream.permutation(s.size)
        s, phi, labels = s[perm], phi[perm], labels[perm]
    return s, phi, labels


@pytest.mark.parametrize("counts", [(0, 0, 0), (0, 1, 0), (40, 0, 20), (3500, 2500, 1000)])
@pytest.mark.parametrize("shuffle", [False, True])
def test_simulation_equals_the_concatenated_blocks_bitwise(
    benchmark_mixture, counts, shuffle
):
    res = simulate_lors(benchmark_mixture, counts=counts, seed=5, shuffle=shuffle)
    want = concatenated_simulation(benchmark_mixture, counts, 5, shuffle)
    for got, ref in zip((res.s, res.phi, res.labels), want):
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
    assert res.counts == counts
