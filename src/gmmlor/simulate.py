"""Synthetic line-of-response generation from a known mixture.

Each event draws an emission point from its component's bivariate
normal and a detector angle uniform on [-pi/2, pi/2); the recorded
oriented distance is the one putting the line exactly through the
point, s = -x sin(phi) + y cos(phi).  No detector blur is added: the
only randomness is in the emission point and the angle.

Events are stored as CSV text: a header, then one s,phi[,label] row per
event.  :func:`_write_rows` writes the LoR CSV and the density rasters
of ``evaluate --plot-data``, each float as ``%.17g`` so that reading it
back gives the same double.  Its numpy kernel (the ``_g17`` functions)
writes the bytes that ``%`` would, without a Python call per value, and
leaves to ``%`` the rows it cannot settle exactly.  A ``replicate``
study's CSV is written by :func:`csv.writer`, one row per replicate.
:func:`read_lors_csv` parses with ``np.loadtxt``.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _as_integer
from .estimate import _as_arrays, _label_dtype
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
    (total events, split by the mixture weights) must be given: a
    sequence of nonnegative integers, or one (:func:`errors._as_integer`);
    anything else raises an :class:`InputError` that names it.  Events
    come out blocked by component unless ``shuffle`` is set, in which
    case a seeded permutation interleaves them; labels are permuted
    alongside so the pairing survives.

    Each component writes its events straight into its run of the
    preallocated s, phi and label arrays (:func:`_draw_component`), and
    the permutation is applied to one array at a time, so beside the
    three outputs only one component's draws, or one permuted copy,
    exist at once.  The draws are transformed in place, in the order of
    the plain expressions, so they keep their bits.  The labels take
    phase 1's label type (``estimate._label_dtype``), one byte up to
    K = 256.
    """
    stream = SeededStream(seed)
    if (counts is None) == (n_total is None):
        raise InputError("give exactly one of counts and n_total")
    if counts is None:
        n_total = _as_integer(n_total, "n_total", 0)
        counts = component_counts(model, n_total, stream)
    try:
        counts = [_as_integer(c, "counts", 0) for c in counts]
    except TypeError:  # not a sequence
        raise InputError(
            f"counts must be a sequence of integers, got {counts!r}"
        ) from None
    if len(counts) != len(model.components):
        raise InputError(
            f"got {len(counts)} counts for {len(model.components)} components"
        )

    n = sum(counts)
    s, phi = np.empty(n), np.empty(n)
    labels = np.empty(n, dtype=_label_dtype(len(counts)))
    start = 0
    for k, (comp, n_k) in enumerate(zip(model.components, counts)):
        if n_k == 0:
            continue
        block = slice(start, start + n_k)
        start += n_k
        _draw_component(stream, comp, s[block], phi[block])
        labels[block] = k

    if shuffle and n:
        perm = stream.permutation(n)
        # one array at a time, so one permuted copy exists at once
        s = s[perm]
        phi = phi[perm]
        labels = labels[perm]

    return SimulationResult(s=s, phi=phi, labels=labels, counts=tuple(counts))


def _draw_component(stream: SeededStream, comp, s, phi) -> None:
    """Draw one component's events into its runs ``s`` and ``phi`` of
    the outputs: emission points x = L z + mean with L the Cholesky
    factor of the covariance, angles, and
    s = -x sin(phi) + y cos(phi), formed as y cos(phi) - x sin(phi),
    which rounds the same."""
    chol = cholesky_2x2(comp.covariance)
    points = stream.standard_normal_pairs(s.size) @ chol.T
    points += comp.mean
    phi[:] = stream.angles(s.size)
    np.sin(phi, out=s)
    s *= points[:, 0]
    y_cos = np.cos(phi)
    y_cos *= points[:, 1]
    np.subtract(y_cos, s, out=s)


#: Rows formatted per chunk by :func:`_write_rows`: large enough that the
#: per-chunk cost of its numpy calls vanishes, small enough that their
#: temporaries, under 250 bytes a row for two columns, stay near 4 MB.
_CSV_CHUNK_ROWS = 1 << 14


def write_lors_csv(path, s, phi, labels=None) -> None:
    """Write LoRs as CSV: header s,phi[,label], floats at full precision.

    Each float is written as ``%.17g`` and each label as ``%d``, so
    reading the file back gives the same doubles and labels.  The
    values are checked before the file is opened: ``s`` and ``phi``
    that :func:`estimate._as_arrays`, the one event coercion, refuses
    (not matching 1-D arrays, or not finite), or labels that are not
    finite integers, raise :class:`InputError` and leave ``path`` as it
    was, because :func:`read_lors_csv` would refuse the file.
    """
    s, phi = _as_arrays((s, phi))
    columns = [s, phi]
    header = CSV_HEADER
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != s.shape:
            raise InputError("labels must match s and phi in length")
        with np.errstate(invalid="ignore"):  # NaN and out-of-range casts
            as_int = labels.astype(np.int64)
        if not np.array_equal(as_int, labels):
            raise InputError("labels must be finite integers")
        columns.append(as_int)
        header = CSV_HEADER_LABELED
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, columns)


def _write_rows(fh, columns) -> None:
    """Write the equal-length 1-D ``columns`` as comma-separated rows,
    float columns as ``%.17g`` and integer columns as ``%d``.

    Rows are formatted :data:`_CSV_CHUNK_ROWS` at a time by the numpy
    kernel :func:`_g17_text`, and each run of rows it settles goes to
    ``fh`` in one write.  A run of rows holding a value it leaves
    unsettled is written by one ``%`` on the row template repeated
    once per row, so the bytes are those of ``row % values`` for every
    row.
    """
    row = ",".join("%d" if col.dtype.kind in "iu" else "%.17g"
                   for col in columns) + "\n"
    for i in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        chunk = [col[i:i + _CSV_CHUNK_ROWS] for col in columns]
        text, unsettled = _g17_text(chunk)
        edges = np.flatnonzero(np.diff(unsettled)) + 1
        for start, stop in zip([0, *edges], [*edges, len(unsettled)]):
            if unsettled[start]:
                values = [col[start:stop].tolist() for col in chunk]
                fh.write(row * (stop - start)
                         % tuple(itertools.chain.from_iterable(zip(*values))))
            else:
                fh.write(text[start:stop].tobytes().translate(None, b"\0")
                         .decode("ascii"))


# ---------------------------------------------------------------------------
# %.17g in numpy
#
# Each value's 17 significant digits are the integer D = round(|x| 10^q)
# in [10^16, 10^17], with q = 16 - e and e = floor(log10 |x|).  The
# product is carried exactly as a double-double: Dekker's error-free
# product (Dekker 1971, Numer. Math. 18) of |x| and the double nearest
# 10^q, plus |x| times that double's remainder.  It is exact where 10^q
# is a double, and within 2^-47 elsewhere, so D is the correctly rounded
# one unless an inexact product lies that close to a half-integer; such
# values, and those outside _G17_RANGE, are left to %.  The digits are
# then laid out by %g's rules, one byte row per character position, NUL
# where a value has no character.

#: Magnitudes that :func:`_g17_text` formats; 0 is formatted too.
#: Inside this range Dekker's product neither overflows nor loses bits
#: to underflow.
_G17_RANGE = (1e-250, 1e250)
#: The q of the 10^q table: those that values inside _G17_RANGE need,
#: after log10's exponent is corrected by one.
_G17_POWERS = range(-240, 271)
#: Veltkamp's splitter for float64, 2^27 + 1.
_SPLIT = 134217729.0
#: Distance from a rounding tie below which an inexact D is left to %.
_TIE_TOLERANCE = 1e-9
#: Largest integer magnitude whose %d text is %.17g's text of the
#: float64 it converts to exactly.
_EXACT_INT = 1 << 53
#: The characters written besides the digits of D, and each digit's row.
_ZERO, _DOT, _MINUS, _PLUS, _E = np.frombuffer(b"0.-+e", np.uint8)
_DIGIT_INDEX = np.arange(17, dtype=np.int8)[:, np.newaxis]


@functools.cache
def _g17_tables():
    """(hi, lo, hi_hi, hi_lo, words, trailing): 10^q for q in
    :data:`_G17_POWERS` as the double-double hi + lo, with hi split as
    hi_hi + hi_lo; the four ASCII digits of 0..9999 as native uint32
    words; and how many of those digits are trailing zeros."""
    hi, lo = [], []
    for q in _G17_POWERS:
        if q >= 0:
            power = 10**q
            hi.append(float(power))  # int to float rounds correctly
            lo.append(float(power - int(hi[-1])))
        else:
            den = 10**-q
            hi.append(1 / den)  # so does int / int
            num, two = hi[-1].as_integer_ratio()
            lo.append((two - num * den) / (two * den))
    hi, lo = np.array(hi), np.array(lo)
    hi_hi = hi * _SPLIT
    hi_hi -= hi_hi - hi
    text = [b"%04d" % i for i in range(10000)]
    words = np.frombuffer(b"".join(text), dtype=np.uint32)
    trailing = np.array([4 - len(t.rstrip(b"0")) for t in text], np.int8)
    tables = hi, lo, hi_hi, hi - hi_hi, words, trailing
    for table in tables:
        table.setflags(write=False)  # shared by every call
    return tables


def _g17_scaled(a, e, tables):
    """(D, near_tie): round(a 10^(16 - e)) as int64 for positive ``a``,
    and where the product is too close to a tie to round.  D is exact
    when a 10^(16 - e) >= 10^16, and below 10^16 otherwise.

    Where 10^q is a double (lo = 0, q <= 22) the product is exact, and
    a tie rounds to even: p >= 2^53 is even, so rint's half-even
    rounding of the rest is that of the sum.  Elsewhere the product is
    within 2^-47 of a 10^q, and a value that close to a tie is left to
    %."""
    i = 16 - _G17_POWERS.start - e
    hi, lo, hi_hi, hi_lo = (t.take(i) for t in tables[:4])
    a_hi = a * _SPLIT
    tmp = a_hi - a
    a_hi -= tmp
    a_lo = a - a_hi
    p = a * hi
    err = a_hi * hi_hi
    err -= p
    err += np.multiply(a_hi, hi_lo, out=tmp)
    err += np.multiply(a_lo, hi_hi, out=tmp)
    err += np.multiply(a_lo, hi_lo, out=tmp)  # a hi - p, exactly
    err += np.multiply(a, lo, out=tmp)  # a 10^q - p, within 2^-47
    rounded = np.rint(err)
    d = p.astype(np.int64)
    d += rounded.astype(np.int64)
    d -= (d == 10**16) & (err < rounded)  # rounded up to 10^16 from below
    err -= rounded
    np.abs(err, out=err)
    err -= 0.5
    np.abs(err, out=err)
    near_tie = err < _TIE_TOLERANCE
    near_tie &= lo != 0.0
    return d, near_tie


def _g17_digits(x, tables):
    """(D, e, unsettled) for the float64 values ``x``: the 17
    significant digits and decimal exponent of %.17g, (0, 0) for 0, and
    the values left to %."""
    a = np.abs(x)
    inside = (a >= _G17_RANGE[0]) & (a < _G17_RANGE[1])
    zero = a == 0.0
    if not inside.all():
        a[~inside] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    d, unsettled = _g17_scaled(a, e, tables)
    for _ in range(2):  # log10 may be one off next to a power of ten
        off = np.flatnonzero((d < 10**16) | (d > 10**17))
        if not off.size:
            break
        e[off] += np.where(d[off] > 10**17, 1, -1)
        d[off], unsettled[off] = _g17_scaled(a[off], e[off], tables)
    else:
        unsettled |= (d < 10**16) | (d > 10**17)
    carry = d == 10**17  # 9.99...95 rounds up to 1.0000
    d[carry] = 10**16
    e[carry] += 1
    d[zero] = 0
    e[zero] = 0
    unsettled |= ~(inside | zero)
    return d, e, unsettled


def _g17_template(x):
    """(rows, unsettled): the ``%.17g`` text of each float64 of ``x`` as
    column j of a list of uint8 (rows, len(x)) arrays, one row per
    character position and NUL where the text has no character; and the
    values whose text is left to %.

    %g with precision 17 writes d.dddde±XX when the decimal exponent e
    is below -4 or above 16, and fixed notation otherwise; it strips
    trailing zeros, and the point when nothing follows it.  The rows
    are: the sign; "0." and up to three zeros before the digits of
    0 < |x| < 1; the digits up to the point, then the point, then the
    digits after it, each of the 17 digits in both blocks but kept in
    one; and "e", the exponent's sign and its two or three digits.
    Blocks that no value of ``x`` uses are left out.
    """
    tables = _g17_tables()
    d, e, unsettled = _g17_digits(x, tables)
    n = d.size
    words, trailing = tables[4:]
    top = d // 10**16
    rest = d - top * 10**16
    high = rest // 10**8
    low = (rest - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    limbs = np.empty((5, n), np.uint32)
    np.take(words, top, out=limbs[0])
    quot = high // 10000
    np.take(words, quot, out=limbs[1])
    np.take(words, high - quot * 10000, out=limbs[2])
    quot = low // 10000
    np.take(words, quot, out=limbs[3])
    low -= quot * 10000
    np.take(words, low, out=limbs[4])
    # digit j of D is row j; the top limb's three leading zeros are cut
    digits = (limbs.view(np.uint8).reshape(5, n, 4).transpose(0, 2, 1)
              .reshape(20, n)[3:])
    ndig = 17 - trailing[low]  # digits up to the last nonzero one
    tail_zero = np.flatnonzero(low == 0)
    if tail_zero.size:
        nonzero = digits[:, tail_zero] != _ZERO
        ndig[tail_zero] = np.where(
            nonzero.any(axis=0), 17 - np.argmax(nonzero[::-1], axis=0), 0
        )
    e = e.astype(np.int16)
    sci = (e < -4) | (e > 16)
    # the digits up to index point precede the point; "0." precedes
    # them all for -1, and the digit 0 alone in d.dddde±XX
    point = np.where(sci, 0, np.maximum(e, -1)).astype(np.int8)
    kept = np.maximum(ndig, point + 1)  # digits written, zero or not
    lead = point < 0
    dot = kept > point + 1
    dot &= ~lead

    rows = []
    neg = np.signbit(x)
    if neg.any():
        rows.append(neg * _MINUS)
    if lead.any():
        rows += [lead * _ZERO, lead * _DOT]
        zeros = np.where(lead, -1 - e, 0)
        rows += [(zeros > k) * _ZERO for k in range(int(zeros.max()))]
    j = _DIGIT_INDEX
    heads = int(point.max()) + 1
    if heads:
        rows.append(digits[:heads] * (j[:heads] <= point))
    if dot.any():
        rows.append(dot * _DOT)
    first = int(point.min()) + 1
    rows.append(digits[first:] * ((j[first:] > point) & (j[first:] < kept)))
    if sci.any():
        rows += [sci * _E, np.where(e < 0, _MINUS, _PLUS) * sci]
        exponent = np.abs(e)
        text = np.take(words, exponent).view(np.uint8).reshape(n, 4).T
        big = sci & (exponent >= 100)
        if big.any():
            rows.append(text[1] * big)
        rows.append(text[2:] * sci)
    return [r.reshape(-1, n) for r in rows], unsettled


def _g17_text(columns):
    """(text, unsettled) for equal-length 1-D ``columns``: row i of the
    uint8 array ``text`` is row i of the CSV with NUL bytes among its
    characters, and ``unsettled`` marks the rows whose text must come
    from % instead.  Integer columns go through the float kernel, whose
    text for an integer of magnitude up to 2^53 is its %d text."""
    n = len(columns[0])
    rows, unsettled = [], np.zeros(n, dtype=bool)
    for k, col in enumerate(columns):
        if col.dtype.kind in "iu":
            unsettled |= (col < -_EXACT_INT) | (col > _EXACT_INT)
        col_rows, col_unsettled = _g17_template(col.astype(float))
        unsettled |= col_unsettled
        rows += col_rows
        separator = b",\n"[k == len(columns) - 1]
        rows.append(np.full((1, n), separator, np.uint8))
    return np.concatenate(rows).T.copy(), unsettled


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
    """:func:`read_lors_csv` one row at a time with the csv module.

    It is the one judge of bad rows: every row it cannot take raises an
    :class:`InputError` that names the line.  Bytes that are not UTF-8
    reach ``float`` and ``int`` as escapes and fail there, and so does a
    label beyond int64 or a field beyond the csv module's size limit.
    """
    try:
        fh = open(path, encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise InputError(f"cannot open LoR file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            return _lors_from_rows(reader)
        except csv.Error as exc:
            raise InputError(f"line {reader.line_num}: {exc}") from exc


def _lors_from_rows(reader):
    """(s, phi, labels-or-None) from the rows of ``reader``, header
    first."""
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
                label = int(row[2])
            except ValueError as exc:
                raise InputError(f"line {lineno}: {exc}") from exc
            if not -(1 << 63) <= label < (1 << 63):
                raise InputError(f"line {lineno}: label {label} beyond int64")
            label_vals.append(label)
    s = np.asarray(s_vals, dtype=float)
    phi = np.asarray(phi_vals, dtype=float)
    labels = np.asarray(label_vals, dtype=np.int64) if labeled else None
    return s, phi, labels
