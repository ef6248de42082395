"""Synthetic line-of-response generation from a known mixture.

Each event draws an emission point from its component's bivariate
normal and a detector angle uniform on [-pi/2, pi/2); the recorded
oriented distance is the one putting the line exactly through the
point, s = -x sin(phi) + y cos(phi).  No detector blur is added: the
only randomness is in the emission point and the angle.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import MixtureModel2D
from .rng import SeededStream, cholesky_2x2

CSV_HEADER = ("s", "phi")
CSV_HEADER_LABELED = ("s", "phi", "label")


@dataclass(frozen=True)
class SimulationResult:
    """LoR sample plus per-event ground-truth component labels."""

    s: np.ndarray
    phi: np.ndarray
    labels: np.ndarray
    counts: tuple[int, ...]

    def __post_init__(self):
        for arr in (self.s, self.phi, self.labels):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.s.size


def component_counts(model: MixtureModel2D, n_total: int, stream: SeededStream):
    """Split n_total into per-component counts by iid label draws.

    Equivalent to one multinomial draw; done label-by-label so the
    randomness stays inside the shared raw stream.
    """
    labels = stream.categorical(model.weights, n_total)
    return np.bincount(labels, minlength=len(model.components))


def simulate_lors(
    model: MixtureModel2D,
    *,
    counts=None,
    n_total: int | None = None,
    seed: int = 0,
    shuffle: bool = False,
) -> SimulationResult:
    """Sample LoRs from ``model``.

    Exactly one of ``counts`` (events per component) and ``n_total``
    (total events, split by the mixture weights) must be given.  Events
    come out blocked by component unless ``shuffle`` is set, in which
    case a seeded permutation interleaves them; labels are permuted
    alongside so the pairing survives.

    Each component writes its events straight into its run of the
    preallocated s, phi and label arrays, and the permutation is applied
    to one array at a time, so beside the three outputs only one
    component's temporaries, or one permuted copy, exist at once.
    """
    stream = SeededStream(seed)
    if (counts is None) == (n_total is None):
        raise InputError("give exactly one of counts and n_total")
    if counts is None:
        if n_total < 0:
            raise InputError("n_total must be nonnegative")
        counts = component_counts(model, n_total, stream)
    counts = [int(c) for c in counts]
    if len(counts) != len(model.components):
        raise InputError(
            f"got {len(counts)} counts for {len(model.components)} components"
        )
    if any(c < 0 for c in counts):
        raise InputError("counts must be nonnegative")

    n = sum(counts)
    s, phi = np.empty(n), np.empty(n)
    labels = np.empty(n, dtype=np.int64)
    start = 0
    for k, (comp, n_k) in enumerate(zip(model.components, counts)):
        if n_k == 0:
            continue
        block = slice(start, start + n_k)
        start += n_k
        chol = cholesky_2x2(comp.covariance)
        points = stream.standard_normal_pairs(n_k) @ chol.T + comp.mean
        phi[block] = stream.angles(n_k)
        s[block] = (
            -points[:, 0] * np.sin(phi[block])
            + points[:, 1] * np.cos(phi[block])
        )
        labels[block] = k

    if shuffle and n:
        perm = stream.permutation(n)
        # one array at a time, so one permuted copy exists at once
        s = s[perm]
        phi = phi[perm]
        labels = labels[perm]

    return SimulationResult(s=s, phi=phi, labels=labels, counts=tuple(counts))


#: Rows formatted per write in :func:`write_lors_csv`: large enough that
#: the per-chunk cost vanishes, small enough that the text of one chunk
#: stays a few MB.
_CSV_CHUNK_ROWS = 1 << 16


def write_lors_csv(path, s, phi, labels=None) -> None:
    """Write LoRs as CSV: header s,phi[,label], floats at full precision.

    Each float is written as ``%.17g``, so reading the file back gives
    the same doubles.  Rows are formatted :data:`_CSV_CHUNK_ROWS` at a
    time, by one ``%`` operation on the row template repeated once per
    row, so the formatting loop runs in C.
    """
    s = np.asarray(s, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if s.shape != phi.shape or s.ndim != 1:
        raise InputError("s and phi must be matching 1-D arrays")
    columns = [s, phi]
    header, row = CSV_HEADER, "%.17g,%.17g\n"
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != s.shape:
            raise InputError("labels must match s and phi in length")
        columns.append(labels.astype(np.int64))
        header, row = CSV_HEADER_LABELED, "%.17g,%.17g,%d\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, row, columns)


def _write_rows(fh, row: str, columns) -> None:
    """Write ``row % values`` for each row of the equal-length 1-D
    ``columns``, formatting :data:`_CSV_CHUNK_ROWS` rows per write."""
    for i in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        chunk = [col[i:i + _CSV_CHUNK_ROWS].tolist() for col in columns]
        values = tuple(itertools.chain.from_iterable(zip(*chunk)))
        fh.write(row * len(chunk[0]) % values)


#: ASCII separators that np.loadtxt strips from around a number as
#: whitespace but float() rejects.
_LOADTXT_ONLY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def read_lors_csv(path):
    """Read a LoR CSV back into (s, phi, labels-or-None).

    Rejects missing/against-header columns and non-finite values; the
    label column is optional but must be integral when present.

    np.loadtxt parses the file in C.  A file it cannot parse, or in
    which it finds a non-finite value, is read again row by row, so the
    values accepted (a quoted field, ``1_0``) and the line-numbered
    errors are those of the row reader alone.
    """
    parsed = _parse_lors_csv(path)
    return parsed if parsed is not None else _read_lors_rows(path)


def _parse_lors_csv(path):
    """(s, phi, labels-or-None) as np.loadtxt reads them, or None for a
    file that the row reader must judge."""
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                if any(c in chunk for c in _LOADTXT_ONLY_SPACES):
                    return None
        with open(path, "r", encoding="utf-8") as fh:
            header = tuple(h.strip() for h in fh.readline().split(","))
            if not fh.readline().strip():
                return None  # np.loadtxt would warn of no data
        if header not in (CSV_HEADER, CSV_HEADER_LABELED):
            return None
        labeled = header == CSV_HEADER_LABELED
        dtype = [("s", float), ("phi", float)]
        converters = None
        if labeled:
            # int() as in the row reader: np.loadtxt's own integer
            # parser takes "3.0" in NumPy 1.x and rejects it in 2.x
            dtype.append(("label", np.int64))
            converters = {2: int}
        rows = np.loadtxt(
            path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
            encoding="utf-8", converters=converters, ndmin=1,
        )
    except (OSError, ValueError, OverflowError):
        return None
    s = np.ascontiguousarray(rows["s"])
    phi = np.ascontiguousarray(rows["phi"])
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(phi))):
        return None
    labels = np.ascontiguousarray(rows["label"]) if labeled else None
    return s, phi, labels


def _read_lors_rows(path):
    """:func:`read_lors_csv` one row at a time with the csv module."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot open LoR file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError("LoR file is empty") from None
        header = tuple(h.strip() for h in header)
        if header == CSV_HEADER:
            labeled = False
        elif header == CSV_HEADER_LABELED:
            labeled = True
        else:
            raise InputError(f"unrecognized LoR header {header!r}")
        s_vals, phi_vals, label_vals = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(f"line {lineno}: expected {len(header)} fields")
            try:
                s_i = float(row[0])
                phi_i = float(row[1])
            except ValueError as exc:
                raise InputError(f"line {lineno}: {exc}") from exc
            if not (math.isfinite(s_i) and math.isfinite(phi_i)):
                raise InputError(f"line {lineno}: non-finite value")
            s_vals.append(s_i)
            phi_vals.append(phi_i)
            if labeled:
                try:
                    label_vals.append(int(row[2]))
                except ValueError as exc:
                    raise InputError(f"line {lineno}: {exc}") from exc
    s = np.asarray(s_vals, dtype=float)
    phi = np.asarray(phi_vals, dtype=float)
    labels = np.asarray(label_vals, dtype=np.int64) if labeled else None
    return s, phi, labels

