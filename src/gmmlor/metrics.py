"""Comparison of an estimated mixture against a known ground truth.

Component labels carry no meaning across models, so evaluation first
matches estimated components to truth components (exhaustively, K is
small), then reports per-component parameter errors and the
Kullback-Leibler divergence of the estimated density from the truth,
by a fixed Gauss-Hermite cubature rule in each estimated component's
own frame (:func:`kl_divergence`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
# density_at_points is no longer called here, but benchmarks/tracing.py
# wraps it as a layer seam under this module's name
from .model import (  # noqa: F401
    MixtureModel2D,
    _gaussian_exponent,
    density_at_points,
    eigen_from_covariance,
)


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
    eigenvalues (:func:`model.eigen_from_covariance`)."""
    means = []
    max_var = 0.0
    for model in models:
        for comp in model.components:
            means.append(comp.mean)
            top = eigen_from_covariance(comp.covariance).sigma1_sq
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


#: The positive half of the 64-point probabilists' Gauss-Hermite rule:
#: the roots of He_64 and their weights, normalised to sum to 1 over
#: both halves, so the rule takes expectations under N(0, 1).  Each is
#: the correctly rounded double of a Newton iterate carried to 80
#: digits; ``numpy.polynomial.hermite_e.hermegauss(64)`` gives the
#: same rule to 2e-15, but through LAPACK, whose bits vary by build.
_GH_HALF_NODES = (
    0.19558891056727554, 0.5868828233052925, 0.9785259089850292,
    1.3707539637008053, 1.76380737694281, 2.1579331167626106,
    2.5533868709840823, 2.9504354015399628, 3.3493591797524944,
    3.750455385225611, 4.154041371340909, 4.5604587281440505,
    4.970078111602426, 5.383305061164614, 5.800587101829209,
    6.222422532626455, 6.64937145634172, 7.082069830804841,
    7.521247661787309, 7.967752981941221, 8.422584092328586,
    8.88693390583818, 9.362252546252307, 9.85033845788215,
    10.353475921269002, 10.874651988398705, 11.417918056820673,
    11.989036605128156, 12.596752480605721, 13.255649357397285,
    13.99404990887647, 14.886186143339453,
)
_GH_HALF_WEIGHTS = (
    0.15310831636189678, 0.1314532313175009, 0.09686336389597527,
    0.061213638510676543, 0.03314048596192797, 0.015347721995577662,
    0.006068446015891507, 0.002043825838784881, 0.0005846860830696015,
    0.00014160238834136035, 2.8919958244145686e-05, 4.958379721063241e-06,
    7.099424621906631e-07, 8.437641047540985e-08, 8.266084421479308e-09,
    6.621423410950693e-10, 4.296426248985252e-11, 2.233726855525772e-12,
    9.186928787329663e-14, 2.94429314699773e-15, 7.222153573524414e-17,
    1.3269088554685256e-18, 1.7784691911122815e-20, 1.68290011204295e-22,
    1.0785651103547688e-24, 4.4355444204707806e-27, 1.088380154145859e-29,
    1.438492120858561e-32, 8.786635679310465e-36, 1.9301704298297755e-39,
    9.47696319004303e-44, 3.123187965107721e-49,
)
#: The whole 64-point rule in ascending node order, mirrored from the
#: halves so it is exactly symmetric.
_GH_NODES = np.concatenate((-np.array(_GH_HALF_NODES[::-1]), _GH_HALF_NODES))
_GH_WEIGHTS = np.concatenate((_GH_HALF_WEIGHTS[::-1], _GH_HALF_WEIGHTS))
#: The 64 x 64 product rule, flattened: the first and the second
#: standard coordinate of each node and the node's weight.
_Z1, _Z2 = (
    z.ravel() for z in np.meshgrid(_GH_NODES, _GH_NODES, indexing="ij")
)
_W2 = np.multiply.outer(_GH_WEIGHTS, _GH_WEIGHTS).ravel()


def _log_mixture_density(model: MixtureModel2D, x, y) -> np.ndarray:
    """Log mixture density at the points (x, y) of two arrays of one
    shape: the log-sum-exp over components of the log factor plus the
    exponent of :func:`model._gaussian_exponent`, so a point far out in
    every component's tail keeps a finite log where the density itself
    would underflow to 0."""
    terms = np.empty((len(model.components),) + x.shape)
    for row, comp in zip(terms, model.components):
        row += math.log(_gaussian_exponent(comp, x, y, row))
    top = terms.max(axis=0)
    terms -= top
    np.exp(terms, out=terms)
    return np.log(terms.sum(axis=0)) + top


def kl_divergence(estimated: MixtureModel2D, truth: MixtureModel2D) -> float:
    """KL(estimated || truth) by Gauss-Hermite cubature in each estimated
    component's own frame.

    KL = sum_j w_j E_{N_j}[log p - log q], with p the estimated density,
    q the truth and N_j estimated component j.  Each expectation is the
    64 x 64 product Gauss-Hermite rule at x = mu_j + V_j L_j^(1/2) z,
    with the eigenvalues L_j and the major-axis angle of V_j from
    :func:`model.eigen_from_covariance`, the package's one eigenframe.
    The nodes follow their component, so a needle-thin component is
    resolved as well as a round one, and a log-ratio that is quadratic,
    as between two single Gaussians, is integrated exactly.  Cf. Hershey
    and Olsen (2007), on approximating the KL between mixtures.

    All K * 64^2 nodes are evaluated in one stacked array, through
    :func:`_log_mixture_density`.  Nothing goes through BLAS or LAPACK,
    so the bits do not depend on their build.  A component with
    determinant at or below 1e-300, on either side, raises
    :class:`SingularCovarianceError`.
    """
    x = np.empty((len(estimated.components), _Z1.size))
    y = np.empty_like(x)
    for xj, yj, comp in zip(x, y, estimated.components):
        e = eigen_from_covariance(comp.covariance)
        major, minor = math.sqrt(e.sigma1_sq), math.sqrt(e.sigma2_sq)
        cos, sin = math.cos(e.phi0), math.sin(e.phi0)
        xj[:] = comp.mean[0] + (cos * major) * _Z1 - (sin * minor) * _Z2
        yj[:] = comp.mean[1] + (sin * major) * _Z1 + (cos * minor) * _Z2
    log_ratio = _log_mixture_density(estimated, x, y)
    log_ratio -= _log_mixture_density(truth, x, y)
    log_ratio *= _W2
    terms = estimated.weights * log_ratio.sum(axis=1)
    return float(terms.sum())


def evaluate_against_truth(
    estimated: MixtureModel2D,
    truth: MixtureModel2D,
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
        kl_divergence=kl_divergence(estimated, truth),
    )
