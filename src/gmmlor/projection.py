"""Projection-domain math for bivariate Gaussians.

Integrating a bivariate normal along every line at angle ``phi`` yields a
univariate normal in the oriented distance ``s`` whose variance is the
quadratic form of the covariance with the line's unit normal
``n = (-sin(phi), cos(phi))``:

    sigma_p^2(phi) = n^T Sigma n
                   = sigma1^2 sin^2(phi - phi0) + sigma2^2 cos^2(phi - phi0)

where ``sigma1^2`` is the eigenvalue along the axis at angle ``phi0``.
Lines parallel to the major axis therefore see the minor variance, and
vice versa.

An event batch has one representation, :class:`_Batch`: the (s, phi)
pair with the angle features computed from it, and the one walk over
its events in blocks (:meth:`_Batch.blocks`).  It is the fit's private
working set: the public functions return plain arrays.  The functions
here take one in place of ``phi`` and read its sines and cosines.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DegenerateCovarianceError, InputError
from .model import EigenDecomposition2D
from .rng import _BLOCK_EVENTS, _blocks

SIGMA_P_SQ_FLOOR = 1e-15


class _Batch(tuple):
    """A batch of events: the (s, phi) or (s_c, phi) pair, with the sin
    and cos of phi, 2 phi and 4 phi of its events, held inside a fit
    and never returned by a public function.  It unpacks as the
    plain pair, and the projection functions below accept one wherever
    they accept ``phi``, reading its sines and cosines.

    Each feature is computed on first use and then kept, so a fit that
    holds one batch takes every sine and cosine once.  Only phi's pair
    comes from trigonometry: each doubled angle's pair follows from the
    one before, sin 2x = 2 sin x cos x and
    cos 2x = (cos x - sin x)(cos x + sin x), a few products in place of
    a trigonometric call, within 1e-15 of np.sin and np.cos.

    Its values are finite: ``estimate._as_arrays`` checks them when it
    builds one, so no reader checks them again.

    The E-step (``estimate._memberships_arrays``) leaves on the batch it
    is given the offsets of its events from each component's mean
    sinusoid, a (K, n) array ``offsets``.  Only the phase-2 pass
    (``estimate._soft_pass``) takes them off the block, as the offsets
    it squares; the handoff centres each block itself
    (``estimate.center_offsets``), and the closing log-likelihood
    (``estimate._soft_loglik``) leaves them.  :meth:`take` carries only
    the angle features, and :meth:`take_sin_cos` only s, sin and cos.
    """

    _FEATURES = ("sin", "cos", "sin2", "cos2", "sin4", "cos4")

    def __new__(cls, s, phi):
        return super().__new__(cls, (s, phi))

    @cached_property
    def sin(self):
        return np.sin(self[1])

    @cached_property
    def cos(self):
        return np.cos(self[1])

    @cached_property
    def sin2(self):
        return 2.0 * self.sin * self.cos

    @cached_property
    def cos2(self):
        return (self.cos - self.sin) * (self.cos + self.sin)

    @cached_property
    def sin4(self):
        return 2.0 * self.sin2 * self.cos2

    @cached_property
    def cos4(self):
        return (self.cos2 - self.sin2) * (self.cos2 + self.sin2)

    def take(self, idx):
        """The events ``idx`` selects, with the features computed so far
        indexed rather than computed again: views for a slice, copies for
        an index array.  Features computed on the result stay with it."""
        out = _Batch(self[0][idx], self[1][idx])
        for name, value in vars(self).items():
            if name in self._FEATURES:
                setattr(out, name, value[idx])
        return out

    def take_sin_cos(self, idx):
        """The events ``idx`` selects as s with the sin and cos of phi
        alone, indexed as :meth:`take` does, and None for phi: all that
        a distance to a mean sinusoid reads (phase 1's relabelling)."""
        out = _Batch(self[0][idx], None)
        out.sin, out.cos = self.sin[idx], self.cos[idx]
        return out

    def blocks(self):
        """(slice, batch) for each block of :data:`_BLOCK_EVENTS`
        consecutive events, in order: the one walk of every pass over a
        batch.

        A batch of one block yields itself, so the 2 phi and 4 phi
        features a pass forms stay with it for the next pass.  A larger
        batch takes its sin and cos once and yields views of them; the
        2 phi and 4 phi features of its blocks are formed per block and
        never kept.
        """
        n = self[0].size
        if n <= _BLOCK_EVENTS:
            yield slice(0, n), self
            return
        self.sin, self.cos  # kept for the whole batch; blocks read views
        for block in _blocks(n):
            yield block, self.take(block)


def _sin_cos(phi):
    """(sin phi, cos phi), read from ``phi`` when it is a :class:`_Batch`."""
    if isinstance(phi, _Batch):
        return phi.sin, phi.cos
    phi = np.asarray(phi, dtype=float)
    return np.sin(phi), np.cos(phi)


def mean_sinusoid(phi, mean) -> np.ndarray:
    """s-coordinate of the sinusoid traced by a point source at ``mean``:
    m(phi) = -mu_x sin(phi) + mu_y cos(phi)."""
    si, co = _sin_cos(phi)
    return -mean[0] * si + mean[1] * co


def projection_variance(covariance, phi) -> float | np.ndarray:
    """n^T Sigma n with n = (-sin(phi), cos(phi)), vectorized over phi.

    This is the variance of the line-integral profile at angle phi; a
    scalar phi gives a float.  ``covariance`` is any 2 x 2 array-like.
    """
    cov = np.asarray(covariance, dtype=float)
    if cov.shape != (2, 2):
        raise InputError(f"covariance must have shape (2, 2), got {cov.shape}")
    si, co = _sin_cos(phi)
    a, b, c = cov[0, 0], cov[0, 1], cov[1, 1]
    out = a * si * si - 2.0 * b * si * co + c * co * co
    return float(out) if out.ndim == 0 else out


def log_line_integral_profile(
    covariance, mean, s, phi, *, offsets=None
) -> np.ndarray:
    """Log of the line integral of a Gaussian's density along each LoR,
    vectorized over (s, phi).

    The integral is a univariate normal in ``s`` centered on the mean
    sinusoid with variance :func:`projection_variance`.  Kept in log space
    so far-away lines never underflow to zero before membership
    normalization.  The offsets s - m(phi) from the mean sinusoid are
    written to ``offsets`` when it is given.
    """
    var = projection_variance(covariance, phi)
    if np.min(var) < SIGMA_P_SQ_FLOOR:
        raise DegenerateCovarianceError("projected variance below floor")
    s_c = np.subtract(
        np.asarray(s, dtype=float), mean_sinusoid(phi, mean), out=offsets
    )
    # huge offsets may overflow to inf; the -inf log-density that results
    # is meaningful and handled by the membership normalizer
    with np.errstate(over="ignore"):
        return -0.5 * (np.log(2.0 * math.pi * var) + s_c * s_c / var)


def theoretical_moments(e: EigenDecomposition2D) -> tuple[float, float]:
    """Second and fourth moments of the centered-offset marginal.

    m2 = (sigma1^2 + sigma2^2) / 2
    m4 = (9 sigma1^4 + 6 sigma1^2 sigma2^2 + 9 sigma2^4) / 8

    Both are independent of phi0: rotating the ellipse only shifts the
    angle average.
    """
    s1, s2 = e.sigma1_sq, e.sigma2_sq
    m2 = 0.5 * (s1 + s2)
    m4 = (9.0 * s1 * s1 + 6.0 * s1 * s2 + 9.0 * s2 * s2) / 8.0
    return m2, m4
