"""Comparison of an estimated mixture against a known ground truth.

Component labels carry no meaning across models, so evaluation first
matches estimated components to truth components (exhaustively, K is
small), then reports per-component parameter errors and a numerical
Kullback-Leibler divergence of the estimated density from the truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _as_integer
# density_at_points is no longer called here, but benchmarks/tracing.py
# wraps it as a layer seam under this module's name
from .model import (  # noqa: F401
    MixtureModel2D,
    _mixture_density,
    _sym2_eigenvalues,
    density_at_points,
)
from .rng import _BLOCK_EVENTS


@dataclass(frozen=True)
class FitReport:
    """Per-component errors plus the density divergence.

    ``matching[j]`` is the truth component paired with estimated
    component ``j``; the error tuples are indexed by truth component so
    they line up across replicates regardless of label order.
    """

    matching: tuple[int, ...]
    mean_errors: tuple[float, ...]
    cov_errors: tuple[float, ...]
    weight_errors: tuple[float, ...]
    kl_divergence: float


def report_to_dict(report: FitReport) -> dict:
    return {
        "matching": list(report.matching),
        "mean_errors": list(report.mean_errors),
        "cov_errors": list(report.cov_errors),
        "weight_errors": list(report.weight_errors),
        "kl_divergence": report.kl_divergence,
    }


def _distances(estimated: MixtureModel2D, truth: MixtureModel2D):
    """The (K, K) tables of mean distances and of covariance Frobenius
    distances: entry [j, i] compares estimated component j with truth
    component i.  Models of different K raise :class:`InputError`."""
    ke = len(estimated.components)
    kt = len(truth.components)
    if kt != ke:
        raise InputError(
            f"component counts differ: estimated {ke}, truth {kt}"
        )
    mean_d = np.empty((ke, kt))
    cov_d = np.empty((ke, kt))
    for j, ce in enumerate(estimated.components):
        for i, ct in enumerate(truth.components):
            mean_d[j, i] = np.linalg.norm(ce.mean - ct.mean)
            cov_d[j, i] = np.linalg.norm(ce.covariance - ct.covariance)
    return mean_d, cov_d


def match_components(
    estimated: MixtureModel2D, truth: MixtureModel2D
) -> tuple[int, ...]:
    """Pair each estimated component with one truth component.

    Tries every permutation and keeps the one with the smallest total
    mean distance; exact ties fall through to the total covariance
    Frobenius distance (:func:`_distances`).  ``matching[j]`` is the
    truth index matched to estimated component ``j``.
    """
    mean_d, cov_d = _distances(estimated, truth)
    k = len(mean_d)

    def cost(perm):
        return (
            sum(mean_d[j, perm[j]] for j in range(k)),
            sum(cov_d[j, perm[j]] for j in range(k)),
        )

    # the first permutation of least cost, as min keeps the first
    return min(itertools.permutations(range(k)), key=cost)


def parameter_errors(
    estimated: MixtureModel2D, truth: MixtureModel2D, permutation=None
):
    """Per-component parameter errors, indexed by truth component.

    Mean error is the Euclidean distance, covariance error the
    Frobenius norm of the difference (the matched entries of
    :func:`_distances`), weight error the absolute difference.
    ``permutation`` maps estimated index to truth index as produced by
    :func:`match_components`; omitted, the matching is computed here.
    Returns three arrays indexed by truth component so replicate
    studies aggregate like against like.
    """
    if permutation is None:
        permutation = match_components(estimated, truth)
    mean_d, cov_d = _distances(estimated, truth)
    k = len(mean_d)
    if len(permutation) != k or sorted(permutation) != list(range(k)):
        raise InputError("permutation must map estimated onto truth indices")
    mean_err = np.empty(k)
    cov_err = np.empty(k)
    weight_err = np.empty(k)
    for j, ce in enumerate(estimated.components):
        i = permutation[j]
        mean_err[i] = mean_d[j, i]
        cov_err[i] = cov_d[j, i]
        weight_err[i] = abs(ce.weight - truth.components[i].weight)
    return mean_err, cov_err, weight_err


def union_bounding_box(models, n_sigma: float = 6.0):
    """Axis-aligned box covering every component mean plus n_sigma of
    the largest principal standard deviation across all models, the
    root of the largest of the components' larger covariance
    eigenvalues (:func:`model._sym2_eigenvalues`)."""
    means = []
    max_var = 0.0
    for model in models:
        for comp in model.components:
            means.append(comp.mean)
            cov = comp.covariance
            _, top = _sym2_eigenvalues(cov[0, 0], cov[0, 1], cov[1, 1])
            max_var = max(max_var, top)
    means = np.asarray(means)
    pad = n_sigma * math.sqrt(max_var)
    lo = means.min(axis=0) - pad
    hi = means.max(axis=0) + pad
    return (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))


def _cell_centers(box, grid_n: int):
    """The x and y cell centres of a grid_n x grid_n midpoint grid on
    ``box = (x_lo, x_hi, y_lo, y_hi)``, as two 1-D arrays."""
    x_lo, x_hi, y_lo, y_hi = box
    x = x_lo + (np.arange(grid_n) + 0.5) * ((x_hi - x_lo) / grid_n)
    y = y_lo + (np.arange(grid_n) + 0.5) * ((y_hi - y_lo) / grid_n)
    return x, y


#: Densities below this are clamped before taking logs in the KL sum;
#: the matching leading factor makes such terms vanish anyway.
_DENSITY_FLOOR = 1e-300


def kl_divergence(
    estimated: MixtureModel2D,
    truth: MixtureModel2D,
    *,
    grid_n: int = 512,
) -> float:
    """KL(estimated || truth) by midpoint quadrature on a shared box.

    Integrates ghat * log(ghat / g) where ghat is the estimated density
    and g the truth.  The box covers both models' means padded by
    6 times the largest standard deviation anywhere, so
    essentially all of both densities' mass is inside.  512 x 512
    midpoint cells push the quadrature error well below the tolerances
    this number is held to.

    Both densities are evaluated on tiles of grid rows, each a column of
    x times the row of y, so no point array is built and a tile's
    temporaries stay cache-sized.  Each tile writes its terms into its
    rows of one grid_n x grid_n array, which is summed once at the end,
    so the result does not depend on the tile size.
    """
    grid_n = _as_integer(grid_n, "grid_n", 2)
    box = union_bounding_box((estimated, truth))
    x, y = _cell_centers(box, grid_n)
    x, y = x[:, np.newaxis], y[np.newaxis, :]
    terms = np.empty((grid_n, grid_n))
    step = max(1, _BLOCK_EVENTS // grid_n)  # rows per tile
    for rows in (slice(i, i + step) for i in range(0, grid_n, step)):
        p = _mixture_density(estimated, x[rows], y)
        log_q = _mixture_density(truth, x[rows], y)
        np.log(np.maximum(log_q, _DENSITY_FLOOR, out=log_q), out=log_q)
        tile = terms[rows]
        np.maximum(p, _DENSITY_FLOOR, out=tile)
        np.log(tile, out=tile)
        tile -= log_q
        tile *= p
    x_lo, x_hi, y_lo, y_hi = box
    hx = (x_hi - x_lo) / grid_n
    hy = (y_hi - y_lo) / grid_n
    return float(np.sum(terms) * hx * hy)


def evaluate_against_truth(
    estimated: MixtureModel2D,
    truth: MixtureModel2D,
    *,
    kl_grid: int = 512,
) -> FitReport:
    """Match, score parameters, and compute the KL term."""
    matching = match_components(estimated, truth)
    mean_err, cov_err, weight_err = parameter_errors(
        estimated, truth, matching
    )
    return FitReport(
        matching=matching,
        mean_errors=tuple(float(v) for v in mean_err),
        cov_errors=tuple(float(v) for v in cov_err),
        weight_errors=tuple(float(v) for v in weight_err),
        kl_divergence=kl_divergence(estimated, truth, grid_n=kl_grid),
    )
