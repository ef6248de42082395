"""Deterministic random streams for simulation and fitting.

Everything stochastic in the package draws from :class:`SeededStream`,
a thin layer over the raw 64-bit output of PCG64.  The transformations
from raw words to uniforms, normals, angles, and permutations are all
written out here, so a given seed produces byte-identical draws across
platforms and numpy versions: bulk sampling never goes through
``Generator`` convenience methods whose algorithms are free to change.

Each transformation works in place on the array it draws, so no step
leaves a temporary beside the arrays a draw keeps.  The arithmetic and
its order are those of the plain expressions in the docstrings, so the
draws keep their bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, _as_integer

#: Events per block of the passes over every event: the tie check of
#: :meth:`SeededStream.permutation`, every pass over an event batch
#: (``projection._Batch.blocks`` alone decides how one is walked), phase
#: 1's starting labels and relabelling runs.  A block's float
#: temporaries take 128 KiB each, so a pass stays in cache instead of
#: streaming N-length arrays through memory.  On a 2-core Xeon with one
#: BLAS thread, fitting the 10^6-event benchmark scan (median of 3) took
#: 4.5 s at 2^12, 4.2 s at 2^14, 4.9 s at 2^17 and 5.7 s in one block.
_BLOCK_EVENTS = 1 << 14


def _blocks(n: int):
    """Slices of at most :data:`_BLOCK_EVENTS` consecutive events that
    cover events 0 to n - 1 in order."""
    return (slice(i, i + _BLOCK_EVENTS) for i in range(0, n, _BLOCK_EVENTS))


_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """Child seed for stream ``index`` derived from ``master_seed``.

    SplitMix64 output mix of ``master + (index + 1) * golden_gamma``.
    Distinct indices give statistically independent child streams, and
    index 0 never collides with the master itself.  ``master_seed`` may
    be any integer and ``index`` any nonnegative one
    (:func:`errors._as_integer`).
    """
    master_seed = _as_integer(master_seed, "master_seed")
    index = _as_integer(index, "index", 0)
    z = (master_seed + (index + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SeededStream:
    """Deterministic draw primitives over a PCG64 raw-word stream.

    ``seed`` must be a nonnegative integer (:func:`errors._as_integer`;
    a bool is refused); anything else raises an :class:`InputError`, as
    PCG64 itself would refuse it with a bare ``TypeError`` or
    ``ValueError``.
    """

    def __init__(self, seed: int):
        _as_integer(seed, "seed", 0)
        self._bits = np.random.PCG64(seed)
        self.seed = seed

    def _raw(self, n: int) -> np.ndarray:
        return self._bits.random_raw(n)

    def uniform01(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), 53-bit resolution: (raw >> 11) * 2^-53."""
        raw = self._raw(n)
        raw >>= np.uint64(11)
        return raw * (2.0 ** -53)

    def open01(self, n: int) -> np.ndarray:
        """n doubles in (0, 1), safe as log/division arguments:
        ((raw >> 11) + 1) * 2^-53."""
        raw = self._raw(n)
        raw >>= np.uint64(11)
        out = np.add(raw, 1.0)
        out *= 2.0 ** -53
        return out

    def standard_normal_pairs(self, n_pairs: int) -> np.ndarray:
        """(n_pairs, 2) standard normals via Box-Muller.

        z0 = sqrt(-2 ln u1) cos(2 pi u2), z1 = the sine variant.  u1
        comes from :meth:`open01` so the log argument is never zero.
        The radius is formed in u1's array, the angle in u2's, and each
        column of the output in place.
        """
        r = self.open01(n_pairs)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta = self.uniform01(n_pairs)
        theta *= 2.0 * math.pi
        out = np.empty((n_pairs, 2))
        for column, trig in zip(out.T, (np.cos, np.sin)):
            trig(theta, out=column)
            column *= r
        return out

    def angles(self, n: int) -> np.ndarray:
        """n angles uniform on [-pi/2, pi/2): (u - 0.5) * pi."""
        u = self.uniform01(n)
        u -= 0.5
        u *= math.pi
        return u

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n) by stable argsort of n uniforms.

        The default sort is faster but not stable.  It gives the same
        order unless two draws are equal, so the stable sort runs only
        then.  The sorted draws are compared one block of
        :data:`_BLOCK_EVENTS` at a time, each block starting at the last
        draw of the one before, so a tie across a block edge is seen too.
        """
        u = self.uniform01(n)
        order = np.argsort(u)
        for block in _blocks(n):
            ranked = u[order[block.start:block.stop + 1]]
            if np.any(ranked[1:] == ranked[:-1]):
                return np.argsort(u, kind="stable")
        return order

    def categorical(self, probs, n: int) -> np.ndarray:
        """n iid category labels with the given probabilities.

        Inverse-CDF on the cumulative sum; the final edge is pinned to
        1 so a uniform draw of 1 - eps can never fall off the end.
        """
        probs = np.asarray(probs, dtype=float)
        edges = np.cumsum(probs)
        edges[-1] = 1.0
        return np.searchsorted(edges, self.uniform01(n), side="right")


def cholesky_2x2(covariance) -> np.ndarray:
    """Lower Cholesky factor of a 2x2 SPD matrix, written out directly.

    [[sqrt(a), 0], [b / sqrt(a), sqrt(c - b^2 / a)]]
    """
    a = float(covariance[0, 0])
    b = float(covariance[1, 0])
    c = float(covariance[1, 1])
    if a <= 0.0:
        raise InputError("covariance is not positive definite")
    la = math.sqrt(a)
    lb = b / la
    rem = c - lb * lb
    if rem <= 0.0:
        raise InputError("covariance is not positive definite")
    return np.array([[la, 0.0], [lb, math.sqrt(rem)]])
