"""Core domain types: mixture components, lines of response, memberships.

Conventions used throughout the package:

* A line of response (LoR) is the pair ``(s, phi)`` where ``phi`` is the
  angle between the line and the x-axis, restricted to [-pi/2, pi/2], and
  ``s`` is the oriented distance from the origin.  A point ``(x, y)`` lies
  on the line iff ``s = -x*sin(phi) + y*cos(phi)``.
* The orientation angle ``phi0`` of a covariance ellipse is the direction
  of the eigenvector carrying the larger eigenvalue ``sigma1_sq``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError, SingularCovarianceError

SYMMETRY_ATOL = 1e-12
WEIGHT_SUM_ATOL = 1e-9
ISOTROPY_ATOL = 1e-12

#: Major version of every JSON artifact this package writes.  Readers
#: reject files whose major version differs.
FORMAT_VERSION = "1.0"

_TWO_PI = 2.0 * math.pi


def _as_vec2(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (2,):
        raise InputError(f"{name} must be a 2-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must be finite")
    return arr


def _as_cov2(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.shape != (2, 2):
        raise InputError(f"{name} must be a 2x2 matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class GaussianComponent2D:
    """One mixture component: mean, covariance, and mixing weight.

    The covariance must be symmetric (absolute tolerance 1e-12) and
    positive semidefinite; the weight must lie in (0, 1].
    """

    mean: np.ndarray
    covariance: np.ndarray
    weight: float

    def __post_init__(self):
        mean = _as_vec2(self.mean, "mean")
        cov = _as_cov2(self.covariance, "covariance")
        if abs(cov[0, 1] - cov[1, 0]) > SYMMETRY_ATOL:
            raise InputError(
                f"covariance is not symmetric: off-diagonals differ by "
                f"{abs(cov[0, 1] - cov[1, 0]):.3e}"
            )
        tr = cov[0, 0] + cov[1, 1]
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
        rad = math.sqrt(max(0.0, (tr / 2.0) ** 2 - det))
        lo = tr / 2.0 - rad
        if lo < -SYMMETRY_ATOL * max(1.0, abs(tr)):
            raise InputError(f"covariance is not PSD (min eigenvalue {lo:.3e})")
        if not self.weight > 0.0:
            raise InputError(f"weight must be positive, got {self.weight}")
        if self.weight > 1.0 + WEIGHT_SUM_ATOL:
            raise InputError(f"weight must not exceed 1, got {self.weight}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class MixtureModel2D:
    """An ordered list of Gaussian components with weights summing to one."""

    components: tuple[GaussianComponent2D, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise InputError("mixture needs at least one component")
        total = math.fsum(c.weight for c in comps)
        if abs(total - 1.0) > WEIGHT_SUM_ATOL:
            raise InputError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", comps)

    def __len__(self) -> int:
        return len(self.components)

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    def density(self, point) -> float:
        return density(self, point)


@dataclass(frozen=True)
class LineOfResponse:
    """A sinogram point (s, phi).

    Angles outside [-pi/2, pi/2] are folded back on construction by the
    pi-periodicity of undirected lines: (s, phi) and (-s, phi - pi)
    denote the same line with the s-axis orientation flipped.
    """

    s: float
    phi: float

    def __post_init__(self):
        s, phi = canonicalize_lor(self.s, self.phi)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "phi", phi)


def canonicalize_lor(s: float, phi: float) -> tuple[float, float]:
    """Fold (s, phi) into the canonical sinogram domain phi in [-pi/2, pi/2]."""
    s, phi = float(s), float(phi)
    if not math.isfinite(phi):
        raise InputError(f"phi must be finite, got {phi}")
    if -math.pi / 2.0 <= phi <= math.pi / 2.0:
        return s, phi
    k = math.floor((phi + math.pi / 2.0) / math.pi)
    phi -= k * math.pi
    # guard against rounding drift at the fold boundary
    phi = min(max(phi, -math.pi / 2.0), math.pi / 2.0)
    if k % 2:
        s = -s
    return s, phi


class MembershipMatrix:
    """N x K matrix of responsibilities p_ik; every row sums to one."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2:
            raise InputError(f"memberships must be 2-D, got shape {arr.shape}")
        if arr.size and (arr.min() < -0.0 or arr.max() > 1.0 + WEIGHT_SUM_ATOL):
            raise InputError("membership entries must lie in [0, 1]")
        rows = arr.sum(axis=1)
        if arr.size and np.max(np.abs(rows - 1.0)) > WEIGHT_SUM_ATOL:
            worst = float(np.max(np.abs(rows - 1.0)))
            raise InputError(f"membership rows must sum to 1 (worst residual {worst:.3e})")
        arr.setflags(write=False)
        self.entries = arr

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def column(self, k: int) -> np.ndarray:
        return self.entries[:, k]

    def masses(self) -> np.ndarray:
        """Per-component responsibility totals L_k = sum_i p_ik."""
        return self.entries.sum(axis=0)

    @classmethod
    def one_hot(cls, labels: Sequence[int], k: int) -> "MembershipMatrix":
        labels = np.asarray(labels, dtype=int)
        entries = np.zeros((labels.size, k))
        entries[np.arange(labels.size), labels] = 1.0
        return cls(entries)


@dataclass(frozen=True)
class EigenDecomposition2D:
    """Eigensystem of a 2x2 covariance: sigma1_sq >= sigma2_sq >= 0 and the
    major-axis angle phi0, canonicalized to (-pi/2, pi/2]."""

    sigma1_sq: float
    sigma2_sq: float
    phi0: float

    def __post_init__(self):
        if not (self.sigma1_sq >= self.sigma2_sq >= 0.0):
            raise InputError(
                f"eigenvalues must satisfy sigma1_sq >= sigma2_sq >= 0, "
                f"got ({self.sigma1_sq}, {self.sigma2_sq})"
            )
        phi0 = canonicalize_orientation(self.phi0)
        object.__setattr__(self, "sigma1_sq", float(self.sigma1_sq))
        object.__setattr__(self, "sigma2_sq", float(self.sigma2_sq))
        object.__setattr__(self, "phi0", phi0)


def canonicalize_orientation(phi0: float) -> float:
    """Reduce an ellipse orientation to (-pi/2, pi/2] (orientation is
    pi-periodic)."""
    phi0 = math.remainder(float(phi0), math.pi)
    if phi0 <= -math.pi / 2.0:
        phi0 += math.pi
    return phi0


def density(model: MixtureModel2D, point) -> float:
    """Mixture density sum_k tau_k * f_G(x; mu_k, Sigma_k) at one point."""
    x = _as_vec2(point, "point")
    return float(density_at_points(model, x[np.newaxis, :])[0])


def density_at_points(model: MixtureModel2D, points: np.ndarray) -> np.ndarray:
    """Vectorized mixture density over an (N, 2) array of points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InputError(f"points must have shape (N, 2), got {pts.shape}")
    return _mixture_density(model, pts[:, 0], pts[:, 1])


def _mixture_density(model: MixtureModel2D, x, y) -> np.ndarray:
    """Mixture density at the points (x, y) of two broadcastable arrays.

    The one density formula.  A grid passed as an (n, 1) column of x and
    a (1, m) row of y costs one reused (n, m) buffer and one exp per
    point and component: the x and y terms of each exponent are formed
    on the short axes.  The exponent is -(c dx^2 - 2 b dx dy + a dy^2)
    / (2 det) with the halving moved inside, which is exact, so it
    rounds as that expression does.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    out = np.zeros(shape)
    buf = np.empty(shape)
    for comp in model.components:
        a, b = comp.covariance[0, 0], comp.covariance[0, 1]
        c = comp.covariance[1, 1]
        det = a * c - b * b
        if det <= 1e-300:
            raise SingularCovarianceError(
                f"covariance determinant {det:.3e} underflows"
            )
        dx = x - comp.mean[0]
        dy = y - comp.mean[1]
        np.multiply(b * dx, dy, out=buf)
        buf += -0.5 * (c * dx * dx)
        buf += -0.5 * (a * dy * dy)
        buf /= det
        np.exp(buf, out=buf)
        buf *= comp.weight / (_TWO_PI * math.sqrt(det))
        out += buf
    return out


def covariance_from_eigen(e: EigenDecomposition2D) -> np.ndarray:
    """Assemble U diag(sigma1_sq, sigma2_sq) U^T with U the rotation whose
    first column is (cos(phi0), sin(phi0))."""
    co, si = math.cos(e.phi0), math.sin(e.phi0)
    s1, s2 = e.sigma1_sq, e.sigma2_sq
    # written out so the result is exactly symmetric
    return np.array(
        [
            [s1 * co * co + s2 * si * si, (s1 - s2) * si * co],
            [(s1 - s2) * si * co, s1 * si * si + s2 * co * co],
        ]
    )


def eigen_from_covariance(c) -> EigenDecomposition2D:
    """Closed-form eigensystem of a symmetric PSD 2x2 matrix.

    The major-axis angle is phi0 = atan2(2b, a - c) / 2, which points along
    the eigenvector of the larger eigenvalue.  Isotropic inputs (eigenvalue
    gap below 1e-12) get the deterministic representative phi0 = 0.
    """
    cov = _as_cov2(c, "covariance")
    a, b, d = cov[0, 0], cov[0, 1], cov[1, 1]
    if abs(b - cov[1, 0]) > SYMMETRY_ATOL:
        raise InputError("covariance must be symmetric")
    mid = 0.5 * (a + d)
    rad = math.hypot(0.5 * (a - d), b)
    s1, s2 = mid + rad, mid - rad
    if s2 < 0.0:
        if s2 < -SYMMETRY_ATOL * max(1.0, abs(a) + abs(d)):
            raise InputError(f"covariance is not PSD (min eigenvalue {s2:.3e})")
        s2 = 0.0
    if s1 - s2 <= ISOTROPY_ATOL:
        return EigenDecomposition2D(s1, s2, 0.0)
    phi0 = 0.5 * math.atan2(2.0 * b, a - d)
    return EigenDecomposition2D(s1, s2, phi0)


# --- JSON serialization -------------------------------------------------

def model_to_dict(model: MixtureModel2D) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "components": [
            {
                "mean": [c.mean[0], c.mean[1]],
                "cov": [
                    [c.covariance[0, 0], c.covariance[0, 1]],
                    [c.covariance[1, 0], c.covariance[1, 1]],
                ],
                "weight": c.weight,
            }
            for c in model.components
        ],
    }


def model_from_dict(obj) -> MixtureModel2D:
    if not isinstance(obj, dict) or "components" not in obj:
        raise InputError("model JSON must be an object with a 'components' list")
    check_format_version(obj)
    comps = []
    for i, entry in enumerate(obj["components"]):
        try:
            comps.append(
                GaussianComponent2D(
                    mean=entry["mean"],
                    covariance=entry["cov"],
                    weight=entry["weight"],
                )
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"component {i} is malformed: {exc}") from exc
    return MixtureModel2D(tuple(comps))


def save_model(model: MixtureModel2D, path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=2) + "\n", encoding="utf-8"
    )


def load_model(path) -> MixtureModel2D:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(obj)


def check_format_version(obj: dict) -> None:
    """Reject artifacts written under a different major format version.

    Files lacking the field (e.g. hand-written truth models) are accepted.
    """
    version = obj.get("format_version")
    if version is None:
        return
    major = str(version).split(".", 1)[0]
    ours = FORMAT_VERSION.split(".", 1)[0]
    if major != ours:
        raise InputError(
            f"unsupported format version {version!r} (this build reads {ours}.x)"
        )
