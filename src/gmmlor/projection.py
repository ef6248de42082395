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
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DegenerateCovarianceError, InputError
from .model import EigenDecomposition2D

SIGMA_P_SQ_FLOOR = 1e-15


class _Angles:
    """sin and cos of phi, 2 phi and 4 phi for a batch of events.

    Each feature is computed on first use and then kept, so a fit that
    holds one of these takes every sine and cosine once.  Only phi's
    pair comes from trigonometry: each doubled angle's pair follows from
    the one before, sin 2x = 2 sin x cos x and
    cos 2x = (cos x - sin x)(cos x + sin x), a few products in place of
    a trigonometric call, within 1e-15 of np.sin and np.cos.  The
    projection functions below accept one wherever they accept ``phi``.

    :meth:`take` with a slice gives views of the features computed so
    far, and features computed on the result stay with the result.  The
    fit keeps sin and cos of every event for its whole run; the 2 phi
    and 4 phi features of a batch larger than one block are formed block
    by block (``estimate.moments_from_offsets`` and the phase-2 pass)
    and never for every event at once.
    """

    def __init__(self, phi):
        self.phi = phi

    @cached_property
    def sin(self):
        return np.sin(self.phi)

    @cached_property
    def cos(self):
        return np.cos(self.phi)

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
        """The features of the events ``idx`` selects, indexing those
        already computed rather than computing them again: views for a
        slice, copies for an index array."""
        out = _Angles(self.phi[idx])
        for name, value in vars(self).items():
            if name != "phi":
                setattr(out, name, value[idx])
        return out


def _sin_cos(phi):
    """(sin phi, cos phi), read from ``phi`` when it is an :class:`_Angles`."""
    if isinstance(phi, _Angles):
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


def log_line_integral_profile(covariance, mean, s, phi) -> np.ndarray:
    """Log of the line integral of a Gaussian's density along each LoR,
    vectorized over (s, phi).

    The integral is a univariate normal in ``s`` centered on the mean
    sinusoid with variance :func:`projection_variance`.  Kept in log space
    so far-away lines never underflow to zero before membership
    normalization.
    """
    var = projection_variance(covariance, phi)
    if np.min(var) < SIGMA_P_SQ_FLOOR:
        raise DegenerateCovarianceError("projected variance below floor")
    s_c = np.asarray(s, dtype=float) - mean_sinusoid(phi, mean)
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
