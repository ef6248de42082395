"""Deterministic random streams for simulation and fitting.

Everything stochastic in the package draws from :class:`SeededStream`,
a thin layer over the raw 64-bit output of PCG64.  The transformations
from raw words to uniforms, normals, angles, and permutations are all
written out here, so a given seed produces byte-identical draws across
platforms and numpy versions: bulk sampling never goes through
``Generator`` convenience methods whose algorithms are free to change.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """Child seed for stream ``index`` derived from ``master_seed``.

    SplitMix64 output mix of ``master + (index + 1) * golden_gamma``.
    Distinct indices give statistically independent child streams, and
    index 0 never collides with the master itself.
    """
    if index < 0:
        raise InputError("stream index must be nonnegative")
    z = (master_seed + (index + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SeededStream:
    """Deterministic draw primitives over a PCG64 raw-word stream."""

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self.seed = seed

    def _raw(self, n: int) -> np.ndarray:
        return self._bits.random_raw(n)

    def uniform01(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), 53-bit resolution."""
        return (self._raw(n) >> np.uint64(11)) * (2.0 ** -53)

    def open01(self, n: int) -> np.ndarray:
        """n doubles in (0, 1), safe as log/division arguments."""
        return ((self._raw(n) >> np.uint64(11)) + 1.0) * (2.0 ** -53)

    def standard_normal_pairs(self, n_pairs: int) -> np.ndarray:
        """(n_pairs, 2) standard normals via Box-Muller.

        z0 = sqrt(-2 ln u1) cos(2 pi u2), z1 = the sine variant.  u1
        comes from :meth:`open01` so the log argument is never zero.
        """
        u1 = self.open01(n_pairs)
        u2 = self.uniform01(n_pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty((n_pairs, 2))
        out[:, 0] = r * np.cos(theta)
        out[:, 1] = r * np.sin(theta)
        return out

    def angles(self, n: int) -> np.ndarray:
        """n angles uniform on [-pi/2, pi/2): (u - 0.5) * pi."""
        return (self.uniform01(n) - 0.5) * math.pi

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n) by stable argsort of n uniforms.

        The default sort is faster but not stable.  It gives the same
        order unless two draws are equal, so the stable sort runs only
        then.
        """
        u = self.uniform01(n)
        order = np.argsort(u)
        ranked = u[order]
        if np.any(ranked[1:] == ranked[:-1]):
            order = np.argsort(u, kind="stable")
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
