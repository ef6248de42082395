"""Projection-domain math for bivariate Gaussians.

Integrating a bivariate normal along every line at angle ``phi`` yields a
univariate normal in the oriented distance ``s`` whose variance is the
quadratic form of the covariance with the line's unit normal
``n = (-sin(phi), cos(phi))``:

    sigma_p^2(phi) = n^T Sigma n
                   = sigma1^2 sin^2(phi - phi0) + sigma2^2 cos^2(phi - phi0)

where ``sigma1^2`` is the eigenvalue along the axis at angle ``phi0``.
Lines parallel to the major axis therefore see the minor variance, and
vice versa.  In the entries of Sigma it is taken in the 2 phi basis,

    n^T Sigma n = (Sxx + Syy)/2 + (Syy - Sxx)/2 cos 2 phi - Sxy sin 2 phi,

which reads the cos 2 phi and sin 2 phi that the moment sums use too.

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

from .errors import DegenerateCovarianceError
from .model import EigenDecomposition2D, _as_cov2, _as_finite, _as_vec2
from .rng import _BLOCK_EVENTS, _blocks

SIGMA_P_SQ_FLOOR = 1e-15


class _Batch(tuple):
    """A batch of events: the (s, phi) or (s_c, phi) pair, with the sin
    and cos of phi and the feature table of its events, held inside a
    fit and never returned by a public function.  It unpacks as the
    plain pair, and the projection functions below accept one wherever
    they accept ``phi``, reading its sines and cosines.

    The feature table is a (4, n) array whose rows are cos and sin of
    2 phi and of 4 phi, the angle features of every weighted sum
    (``estimate._block_sums``) and, through its rows 0 and 1, cos 2 phi
    and sin 2 phi, of :func:`projection_variance`.  It is the one name
    of those features.

    Each feature is computed on first use and then kept, so a fit that
    holds one batch takes every sine and cosine once.  Only phi's pair
    comes from trigonometry: each doubled angle's pair follows from the
    one before by :func:`_double_angle`, a few products in place of a
    trigonometric call, within 1e-15 of np.sin and np.cos.

    Its values are finite: ``estimate._as_arrays`` checks them when it
    builds one, so no reader checks them again.

    The E-step (``estimate._memberships_arrays``) leaves on the batch it
    is given a (2K, n) array ``pass_rows``: its memberships, then the
    offsets of its events from each component's mean sinusoid.  Only the
    phase-2 pass (``estimate._soft_pass``) takes them off the block, as
    the weights and the offsets it squares; the handoff centres each
    block itself (``estimate.center_offsets``), and the closing
    log-likelihood (``estimate._soft_loglik``) leaves them.
    :meth:`take` carries s, phi, sin and cos, and :meth:`take_sin_cos`
    only s, sin and cos; a block forms its own table.
    """

    def __new__(cls, s, phi):
        return super().__new__(cls, (s, phi))

    @cached_property
    def sin(self):
        return np.sin(self[1])

    @cached_property
    def cos(self):
        return np.cos(self[1])

    @cached_property
    def table(self):
        """The (4, n) rows cos 2 phi, sin 2 phi, cos 4 phi and sin 4 phi,
        each pair the :func:`_double_angle` of the one before."""
        table = np.empty((4,) + np.shape(self.sin))
        cos2, sin2, cos4, sin4 = (table[i, ...] for i in range(4))
        _double_angle(self.cos, self.sin, cos2, sin2)
        _double_angle(cos2, sin2, cos4, sin4)
        return table

    def take(self, idx):
        """The events ``idx`` selects, with their sin and cos of phi
        indexed rather than computed again: views for a slice, copies for
        an index array.  Features computed on the result stay with it."""
        out = _Batch(self[0][idx], self[1][idx])
        out.sin, out.cos = self.sin[idx], self.cos[idx]
        return out

    def take_sin_cos(self, idx):
        """The events ``idx`` selects as s with the sin and cos of phi
        alone, indexed as :meth:`take` does, and None for phi: all that
        a distance to a mean sinusoid reads (phase 1's relabelling),
        without the gather of phi that :meth:`take` makes."""
        out = _Batch(self[0][idx], None)
        out.sin, out.cos = self.sin[idx], self.cos[idx]
        return out

    def blocks(self):
        """(slice, batch) for each block of :data:`_BLOCK_EVENTS`
        consecutive events, in order: the one walk of every pass over a
        batch.

        A batch of one block yields itself, so the feature table a pass
        forms stays with it for the next pass.  A larger batch takes its
        sin and cos once and yields views of them; the feature tables of
        its blocks are formed per block and never kept.
        """
        n = self[0].size
        if n <= _BLOCK_EVENTS:
            yield slice(0, n), self
            return
        self.sin, self.cos  # kept for the whole batch; blocks read views
        for block in _blocks(n):
            yield block, self.take(block)


def _double_angle(co, si, cos_out=None, sin_out=None):
    """cos 2x and sin 2x from cos x and sin x by products alone,
    cos 2x = (cos x - sin x)(cos x + sin x) and sin 2x = 2 sin x cos x,
    written into ``cos_out`` and ``sin_out`` when they are given: the
    one double-angle formula, of :attr:`_Batch.table` and of phase 1's
    per-label sums (``estimate._HardLabels``)."""
    sin_out = np.multiply(si, 2.0, out=sin_out)
    sin_out *= co
    cos_out = np.subtract(co, si, out=cos_out)
    cos_out *= co + si
    return cos_out, sin_out


def _angles(phi) -> _Batch:
    """Angles from outside the package as a batch with no s, whose angle
    features can be read: float angles of any shape, coerced by
    :func:`model._as_finite`, so a value that is not a finite number
    raises :class:`InputError`.

    The public functions below coerce ``phi`` and their other arguments
    only when ``phi`` is not a :class:`_Batch`.  A batch marks a call
    from inside the fit, whose values the fit built and checked, so the
    E-step and phase 1 pay for no coercion."""
    return _Batch(None, _as_finite(phi, None, "phi", "an array"))


def mean_sinusoid(phi, mean) -> np.ndarray:
    """s-coordinate of the sinusoid traced by a point source at ``mean``:
    m(phi) = -mu_x sin(phi) + mu_y cos(phi).  Unless ``phi`` is a
    :class:`_Batch`, ``mean`` must be a finite 2-vector and ``phi``
    finite (:func:`_angles`), or :class:`InputError` is raised."""
    if not isinstance(phi, _Batch):
        phi, mean = _angles(phi), _as_vec2(mean, "mean")
    out = np.multiply(phi.sin, -mean[0])
    out += mean[1] * phi.cos
    return out


def _variance_array(covariance, phi: _Batch) -> np.ndarray:
    """n^T Sigma n at each angle of the batch ``phi`` as a new array,
    also for a scalar angle, in the 2 phi basis:
    (Sxx + Syy)/2 + (Syy - Sxx)/2 cos 2 phi - Sxy sin 2 phi."""
    cos2, sin2 = phi.table[:2]
    a, c = covariance[0, 0], covariance[1, 1]
    out = np.multiply(cos2, 0.5 * (c - a), out=np.empty(np.shape(cos2)))
    out += 0.5 * (a + c)
    out -= covariance[0, 1] * sin2
    return out


def projection_variance(covariance, phi) -> float | np.ndarray:
    """n^T Sigma n with n = (-sin(phi), cos(phi)), vectorized over phi.

    This is the variance of the line-integral profile at angle phi; a
    scalar phi gives a float.  ``covariance`` is any 2 x 2 array-like.
    With sin^2 = (1 - cos 2 phi)/2, sin cos = sin 2 phi / 2 and
    cos^2 = (1 + cos 2 phi)/2 it is
    (Sxx + Syy)/2 + (Syy - Sxx)/2 cos 2 phi - Sxy sin 2 phi, read from
    the batch's cos 2 phi and sin 2 phi when ``phi`` is a
    :class:`_Batch`.  Otherwise ``covariance`` must be a finite 2 x 2
    matrix and ``phi`` finite (:func:`_angles`), or :class:`InputError`
    is raised.
    """
    if not isinstance(phi, _Batch):
        covariance, phi = _as_cov2(covariance, "covariance"), _angles(phi)
    out = _variance_array(covariance, phi)
    return float(out) if out.ndim == 0 else out


def log_line_integral_profile(
    covariance, mean, s, phi, *, offsets=None, out=None
) -> np.ndarray:
    """Log of the line integral of a Gaussian's density along each LoR,
    vectorized over (s, phi).

    The integral is a univariate normal in ``s`` centered on the mean
    sinusoid with variance :func:`projection_variance`.  Kept in log space
    so far-away lines never underflow to zero before membership
    normalization.  The offsets s - m(phi) from the mean sinusoid are
    written to ``offsets`` and the log-densities to ``out`` when they
    are given; then only the variances and the temporaries of their
    formula and of :func:`mean_sinusoid` are allocated.  Unless ``phi``
    is a :class:`_Batch`, ``covariance``, ``mean``, ``s`` and ``phi``
    must be finite numbers of the shapes that :func:`projection_variance`
    and :func:`mean_sinusoid` take, or :class:`InputError` is raised.

    A projected variance below :data:`SIGMA_P_SQ_FLOOR` raises
    :class:`DegenerateCovarianceError`.  The floor is absolute; a fit
    meets it in its standardised units (``estimate.fit``).
    """
    if not isinstance(phi, _Batch):
        covariance = _as_cov2(covariance, "covariance")
        mean = _as_vec2(mean, "mean")
        s = _as_finite(s, None, "s", "an array")
        phi = _angles(phi)
    var = _variance_array(covariance, phi)
    if np.min(var) < SIGMA_P_SQ_FLOOR:
        raise DegenerateCovarianceError("projected variance below floor")
    s_c = np.subtract(s, mean_sinusoid(phi, mean), out=offsets)
    # huge offsets may overflow to inf; the -inf log-density that results
    # is meaningful and handled by the membership normalizer
    with np.errstate(over="ignore"):
        out = np.multiply(s_c, s_c, out=out)
        out /= var
        var *= 2.0 * math.pi
        out += np.log(var, out=var)
        out *= -0.5
    return out


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
