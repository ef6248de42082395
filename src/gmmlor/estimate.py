"""Mixture estimation from lines of response.

The fit alternates two regimes.  Phase 1 works on hard assignments:
each component's mean is the weighted least-squares fit of a sinusoid
to its LoRs in (s, phi), and LoRs move to whichever mean sinusoid
passes closest.  Phase 2 switches to soft memberships derived from the
per-component projected densities and re-estimates means, covariances,
and weights until the weights settle.

Covariances never come from point clouds: a component only sees the
scalar offsets of its LoRs from the mean sinusoid.  One pass over those
offsets (:func:`moments_from_offsets`) takes the weighted averages of
t = s_c^2 and t^2, of cos and sin of 2 phi and 4 phi, and of t times
cos and sin of 2 phi.  Every later step is a closed form in those
averages: the radial moments fix the two principal variances, the
angular dependence of the squared offsets fixes the orientation (a
quartic in cos of the doubled angle), and a final weighted least
squares refines the variances in the recovered frame.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ComponentDeathError,
    DegenerateGeometryError,
    InputError,
)
from .model import (
    EigenDecomposition2D,
    GaussianComponent2D,
    LineOfResponse,
    MixtureModel2D,
    canonicalize_orientation,
    covariance_from_eigen,
)
from .projection import _Angles, log_line_integral_profile, mean_sinusoid
from .quartic import solve_quartic
from .rng import SeededStream, derive_seed

#: Lower bound applied to estimated principal variances when no
#: configuration is in play (image-plane units squared).
DEFAULT_VARIANCE_FLOOR = 1e-8

#: A component whose responsibility mass stays below
#: N * MASS_FLOOR_FACTOR / K for DEATH_PATIENCE consecutive iterations
#: is reported as dead rather than silently dropped.
MASS_FLOOR_FACTOR = 1e-3
DEATH_PATIENCE = 3

#: Normal systems with condition number beyond this are refused: the
#: data no longer pins down the quantity being solved for.
CONDITION_LIMIT = 1e12

#: Stationarity-residual filter for quartic roots, relative to the
#: magnitude of the trigonometric coefficient set.
_ROOT_RESIDUAL_RTOL = 1e-8

#: Imaginary parts below this (relative) are treated as rounding noise
#: when screening quartic roots for real stationary points.
_IMAG_RTOL = 1e-9

_GRID_POINTS = 720

#: Events per block of the passes over every event (phase-1 relabelling
#: and the E-step), and grid cells per row tile of the KL quadrature
#: (``metrics.kl_divergence``).  A block's float temporaries take 128 KiB
#: each, so a pass stays in cache instead of streaming N-length arrays
#: through memory.  On a 2-core Xeon with one BLAS thread, fitting the
#: 10^6-event benchmark scan (median of 3) took 4.5 s at 2^12, 4.2 s at
#: 2^14, 4.9 s at 2^17 and 5.7 s in one block.  A 512 x 512 KL between a
#: fit of 7000 events and its truth, timed between fits (median of 30),
#: took 21.6 ms in tiles of 2^12 cells, 17.2 ms at 2^13, 14.8 ms at 2^14,
#: 14.2 ms at 2^15, 14.1 ms at 2^16 and 20.0 ms in one tile.
_BLOCK_EVENTS = 1 << 14


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`fit`.  Defaults suit a few thousand LoRs."""

    K: int
    max_iters_phase1: int = 50
    max_iters_phase2: int = 200
    weight_tol: float = 1e-4
    mean_tol: float = 1e-6
    variance_floor: float = DEFAULT_VARIANCE_FLOOR
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        if self.K < 1:
            raise InputError("K must be at least 1")
        if self.restarts < 1:
            raise InputError("restarts must be at least 1")
        for name in ("weight_tol", "mean_tol", "variance_floor"):
            if getattr(self, name) <= 0.0:
                raise InputError(f"{name} must be positive")
        for name in ("max_iters_phase1", "max_iters_phase2"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be at least 1")


_CONFIG_FIELDS = (
    "K", "max_iters_phase1", "max_iters_phase2", "weight_tol",
    "mean_tol", "variance_floor", "seed", "restarts",
)


def config_from_dict(mapping, **overrides) -> FitConfig:
    """Build a :class:`FitConfig` from a mapping, rejecting unknown keys.

    ``overrides`` win over the mapping; both must stay within the known
    field set so typos fail loudly instead of silently using defaults.
    """
    merged = dict(mapping)
    merged.update(overrides)
    unknown = set(merged) - set(_CONFIG_FIELDS)
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    if "K" not in merged:
        raise InputError("config requires K")
    return FitConfig(**merged)


def config_to_dict(config: FitConfig) -> dict:
    return {name: getattr(config, name) for name in _CONFIG_FIELDS}


@dataclass(frozen=True)
class TraceRecord:
    """One fit iteration: global index, phase, weights, loglik proxy.

    ``loglik_proxy`` is the soft-membership log-likelihood of the
    parameters entering the iteration; phase 1 has no memberships, so
    it carries None there.
    """

    iteration: int
    phase: int
    weights: tuple[float, ...]
    loglik_proxy: float | None


def trace_to_jsonl(trace) -> str:
    """Serialize trace records as JSON lines, one record per iteration."""
    lines = []
    for rec in trace:
        proxy = rec.loglik_proxy
        if proxy is not None and not math.isfinite(proxy):
            proxy = None
        lines.append(json.dumps({
            "iter": rec.iteration,
            "phase": rec.phase,
            "weights": list(rec.weights),
            "loglik_proxy": proxy,
        }))
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class FitState:
    """Why a fit stopped: its iteration count over both phases, and
    whether the weights settled before the iteration cap."""

    iteration: int
    converged: bool


@dataclass
class FitResult:
    model: MixtureModel2D
    state: FitState
    trace: list[TraceRecord]
    loglik: float
    restart_index: int

    @property
    def converged(self) -> bool:
        return self.state.converged


# ---------------------------------------------------------------------------
# covariance estimation from centered offsets


def _wsum(w, *features) -> float:
    """sum_i w_i times the product of the features at i.

    Every per-event weighted sum goes through this one reduction, or
    through the per-label sums of phase 1 (:func:`_label_pass`), which
    np.bincount takes.  np.dot would hand long sums to BLAS, which
    splits them across its threads, so the last digits of a fit would
    depend on the host's thread count; einsum adds in the same order
    everywhere, and so does np.bincount, a single loop in NumPy itself
    that adds each label's weights in event order.
    """
    subscripts = ",".join("i" * (1 + len(features))) + "->"
    return float(np.einsum(subscripts, w, *features))


def _as_weights(weights, n: int) -> np.ndarray:
    """The one coercion of per-event weights: ones for None, else an
    (n,) float array."""
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise InputError(f"weights must have shape ({n},), got {w.shape}")
    return w


@dataclass(frozen=True)
class WeightedMoments:
    """Weighted averages of the centered offsets that the covariance
    pipeline needs, plus the total weight ``mass``.

    With t = s_c^2 the fields are E[t] (``m2w``), E[t^2] (``m4w``),
    E[cos 2 phi], E[sin 2 phi], E[cos 4 phi], E[sin 4 phi],
    E[t cos 2 phi] and E[t sin 2 phi].  The angle averages default to 0,
    the uniform-angle case, so the radial pair alone builds an object
    fit for :func:`invert_moments`.

    m4w is clamped up to m2w^2 on construction: any distribution has
    E[X^4] >= E[X^2]^2, so a violation is pure sampling noise and would
    otherwise leak a negative discriminant into the moment inversion.
    """

    m2w: float
    m4w: float
    mass: float
    cos2w: float = 0.0
    sin2w: float = 0.0
    cos4w: float = 0.0
    sin4w: float = 0.0
    tcos2w: float = 0.0
    tsin2w: float = 0.0

    def __post_init__(self):
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise InputError("moment mass must be positive and finite")
        if not (self.m2w >= 0.0 and math.isfinite(self.m2w)):
            raise InputError("m2w must be nonnegative and finite")
        if not math.isfinite(self.m4w):
            raise InputError("m4w must be finite")
        floor = self.m2w * self.m2w
        if self.m4w < floor:
            object.__setattr__(self, "m4w", floor)


def moments_from_offsets(offsets, weights=None) -> WeightedMoments:
    """The weighted moments of the centered offsets, in one pass.

    The only step of the covariance pipeline that reads events; the
    others are closed forms in the returned :class:`WeightedMoments`.
    ``weights=None`` weighs every event 1.
    """
    batch = _as_arrays(offsets)
    s_c = batch[0]
    w = _as_weights(weights, s_c.size)
    mass = float(np.sum(w))
    if mass <= 0.0:
        raise InputError("total weight must be positive")
    t = s_c * s_c
    angles = batch.angles
    return WeightedMoments(
        m2w=_wsum(w, t) / mass,
        m4w=_wsum(w, t, t) / mass,
        mass=mass,
        cos2w=_wsum(w, angles.cos2) / mass,
        sin2w=_wsum(w, angles.sin2) / mass,
        cos4w=_wsum(w, angles.cos4) / mass,
        sin4w=_wsum(w, angles.sin4) / mass,
        tcos2w=_wsum(w, t, angles.cos2) / mass,
        tsin2w=_wsum(w, t, angles.sin2) / mass,
    )


def invert_moments(
    m: WeightedMoments, variance_floor: float = DEFAULT_VARIANCE_FLOOR
) -> tuple[float, float]:
    """Principal variances from the marginal moments.

    Inverts m2 = (s1 + s2)/2 and m4 = (9 s1^2 + 6 s1 s2 + 9 s2^2)/8 for
    the pair (s1, s2).  Sampling noise can push the discriminant
    m4/3 - m2^2 slightly negative (the isotropic boundary); it is
    clamped at zero, and both outputs are clamped at the variance
    floor so downstream divisions stay finite.
    """
    disc = m.m4w / 3.0 - m.m2w * m.m2w
    if disc < 0.0:
        disc = 0.0
    half_gap = math.sqrt(2.0 * disc)
    s1 = max(m.m2w + half_gap, variance_floor)
    s2 = max(m.m2w - half_gap, variance_floor)
    return s1, s2


def solve_orientation(
    m: WeightedMoments, sigma1_sq: float, sigma2_sq: float
) -> float:
    """Orientation phi0 minimizing the squared-offset residual.

    With alpha = 2 phi the model for the squared offset is
    e + c cos(alpha - alpha0), e = (s1 + s2)/2, c = (s2 - s1)/2.  In
    x = cos(alpha0), y = sin(alpha0) the weighted mean squared residual
    is, up to terms free of alpha0,

        L = c^2/2 ((x^2 - y^2) E[cos 4 phi] + 2 x y E[sin 4 phi])
            + 2 c (x T_c + y T_s),   T_c = E[(e - t) cos 2 phi], T_s alike,

    and its derivative gives the stationarity condition

        A_s2 (y^2 - x^2) + A_sc x y + A_s y + A_c x = 0

    which together with x^2 + y^2 = 1 reduces to a quartic in x.  Real
    roots are paired with both square-root branches of y, screened by
    the stationarity residual, and ranked by L.  If no root survives
    (flat objective, lost precision), a dense grid plus golden-section
    refinement takes over.
    """
    dsig = sigma2_sq - sigma1_sq
    ssum = sigma1_sq + sigma2_sq
    if abs(dsig) <= 1e-12 * max(1.0, ssum):
        return 0.0  # isotropic: every orientation is stationary

    c_amp = 0.5 * dsig
    Tc = 0.5 * ssum * m.cos2w - m.tcos2w
    Ts = 0.5 * ssum * m.sin2w - m.tsin2w
    A_s2 = c_amp * m.sin4w
    A_sc = 2.0 * c_amp * m.cos4w
    A_s = 2.0 * Tc
    A_c = -2.0 * Ts

    def objective_xy(x: float, y: float) -> float:
        quad = (x * x - y * y) * m.cos4w + 2.0 * x * y * m.sin4w
        return 0.5 * c_amp * c_amp * quad + 2.0 * c_amp * (x * Tc + y * Ts)

    def objective(alpha0: float) -> float:
        return objective_xy(math.cos(alpha0), math.sin(alpha0))

    a_scale = max(abs(A_s2), abs(A_sc), abs(A_s), abs(A_c))
    candidates: list[tuple[float, float]] = []
    if a_scale > 0.0:
        c4 = 4.0 * A_s2 * A_s2 + A_sc * A_sc
        c3 = 2.0 * A_sc * A_s - 4.0 * A_s2 * A_c
        c2 = A_c * A_c + A_s * A_s - A_sc * A_sc - 4.0 * A_s2 * A_s2
        c1 = 2.0 * A_s2 * A_c - 2.0 * A_sc * A_s
        c0 = A_s2 * A_s2 - A_s * A_s
        try:
            roots = solve_quartic(c4, c3, c2, c1, c0)
        except InputError:
            roots = []
        tol = _ROOT_RESIDUAL_RTOL * a_scale
        for z in roots:
            if abs(z.imag) > _IMAG_RTOL * max(1.0, abs(z)):
                continue
            x = z.real
            if abs(x) > 1.0 + 1e-9:
                continue
            x = min(1.0, max(-1.0, x))
            y_mag = math.sqrt(max(0.0, 1.0 - x * x))
            for y in (y_mag, -y_mag):
                resid = (
                    A_s2 * (y * y - x * x)
                    + A_sc * x * y
                    + A_s * y
                    + A_c * x
                )
                if abs(resid) <= tol:
                    candidates.append((objective_xy(x, y), math.atan2(y, x)))

    if candidates:
        best = min(candidates, key=lambda pair: pair[0])
        return canonicalize_orientation(0.5 * best[1])

    # fallback: the objective is 2 pi periodic in alpha0
    grid = np.linspace(-math.pi, math.pi, _GRID_POINTS, endpoint=False)
    vals = [objective(a0) for a0 in grid]
    i_best = int(np.argmin(vals))
    span = 2.0 * math.pi / _GRID_POINTS
    a0 = _golden_min(objective, grid[i_best] - span, grid[i_best] + span)
    return canonicalize_orientation(0.5 * a0)


def _golden_min(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def refine_sigmas(
    m: WeightedMoments,
    phi0: float,
    variance_floor: float = DEFAULT_VARIANCE_FLOOR,
) -> tuple[float, float, float]:
    """Re-fit the principal variances with the orientation held fixed.

    Weighted least squares of the squared offsets against
    (u, v) = (sin^2(phi0 - phi), cos^2(phi0 - phi)).  With d = phi0 - phi,
    u = (1 - cos 2d)/2 and v = (1 + cos 2d)/2, so the normal equations
    need only E[cos 2d], E[cos 4d] and E[t cos 2d], which the angle-sum
    formulas give from the moments.  The solution is clamped at the
    variance floor, and if the fit comes back with the minor variance
    larger, the pair is swapped and the orientation rotated a quarter
    turn so sigma1_sq stays the major variance.  The possibly adjusted
    orientation is returned with the pair: (sigma1_sq, sigma2_sq, phi0).
    """
    ca, sa = math.cos(2.0 * phi0), math.sin(2.0 * phi0)
    cos2d = ca * m.cos2w + sa * m.sin2w
    cos4d = math.cos(4.0 * phi0) * m.cos4w + math.sin(4.0 * phi0) * m.sin4w
    tcos2d = ca * m.tcos2w + sa * m.tsin2w
    m11 = 0.375 - 0.5 * cos2d + 0.125 * cos4d  # E[u^2]
    m12 = 0.125 * (1.0 - cos4d)  # E[u v]
    m22 = 0.375 + 0.5 * cos2d + 0.125 * cos4d  # E[v^2]
    b1 = 0.5 * (m.m2w - tcos2d)  # E[t u]
    b2 = 0.5 * (m.m2w + tcos2d)  # E[t v]

    mid = 0.5 * (m11 + m22)
    rad = math.hypot(0.5 * (m11 - m22), m12)
    lo, hi_ = mid - rad, mid + rad
    if lo <= 0.0 or hi_ / lo > CONDITION_LIMIT:
        raise DegenerateGeometryError(
            "angle coverage too thin to separate the principal variances"
        )
    det = m11 * m22 - m12 * m12
    s1 = (m22 * b1 - m12 * b2) / det
    s2 = (m11 * b2 - m12 * b1) / det
    s1 = max(s1, variance_floor)
    s2 = max(s2, variance_floor)
    if s2 > s1:
        s1, s2 = s2, s1
        phi0 = phi0 + 0.5 * math.pi
    return s1, s2, canonicalize_orientation(phi0)


def estimate_covariance(
    offsets, weights=None, config: FitConfig | None = None
) -> np.ndarray:
    """Covariance of one component from its centered offsets.

    Moment inversion gives the variance pair, the quartic solve gives
    the orientation, a least-squares pass re-fits the variances in that
    frame, and the orientation is solved once more with the refined
    pair.  Returns the symmetric positive-definite covariance matrix.
    """
    floor = config.variance_floor if config is not None else DEFAULT_VARIANCE_FLOOR
    m = moments_from_offsets(offsets, weights)
    s1, s2 = invert_moments(m, floor)
    phi0 = solve_orientation(m, s1, s2)
    s1, s2, phi0 = refine_sigmas(m, phi0, floor)
    phi0 = solve_orientation(m, s1, s2)
    eigen = EigenDecomposition2D(
        sigma1_sq=s1, sigma2_sq=s2, phi0=canonicalize_orientation(phi0)
    )
    return covariance_from_eigen(eigen)


# ---------------------------------------------------------------------------
# mean estimation and memberships


def _as_arrays(lors) -> _Batch:
    """The one coercion of an event batch to matching 1-D float arrays.

    Accepts an (s, phi) or (s_c, phi) array pair, an (N, 2) array, or a
    sequence of :class:`LineOfResponse` records.  A tuple of two records
    is a sequence of records, not an array pair.  Returns a
    :class:`_Batch` with fresh angle features, each computed on first
    use, after checking that every value is finite.  A batch passed in
    comes back as it is: it was checked where it was built.
    """
    if isinstance(lors, _Batch):
        return lors  # checked where it was built
    if (
        isinstance(lors, tuple)
        and len(lors) == 2
        and not isinstance(lors[0], LineOfResponse)
    ):
        s = np.asarray(lors[0], dtype=float)
        phi = np.asarray(lors[1], dtype=float)
    elif isinstance(lors, np.ndarray):
        arr = np.asarray(lors, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InputError("LoR array must have shape (N, 2)")
        s, phi = arr[:, 0].copy(), arr[:, 1].copy()
    else:
        items = list(lors)
        s = np.array([lor.s for lor in items], dtype=float)
        phi = np.array([lor.phi for lor in items], dtype=float)
    if s.shape != phi.shape or s.ndim != 1:
        raise InputError("s and phi must be matching 1-D arrays")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(phi))):
        raise InputError("LoRs contain non-finite values")
    return _Batch(s, phi, _Angles(phi))


class _Batch(tuple):
    """An (s, phi) or (s_c, phi) pair that carries its events' angle
    features, so the functions it is passed to read the sines and
    cosines instead of computing them.  It unpacks as the plain pair.

    Its values are finite: :func:`_as_arrays` and :func:`center_offsets`
    check them when they build one, so no reader checks them again."""

    def __new__(cls, s, phi, angles):
        batch = super().__new__(cls, (s, phi))
        batch.angles = angles
        return batch

    def __getnewargs__(self):
        # copy and pickle rebuild a tuple subclass from these
        return (self[0], self[1], self.angles)

    def take(self, idx):
        """The events ``idx`` selects, with their features."""
        angles = self.angles.take(idx)
        return _Batch(self[0][idx], angles.phi, angles)


def fit_mean(lors, weights=None) -> np.ndarray:
    """Weighted least-squares mean under the sinusoid model.

    Minimizes sum p_i (s_i - (-mu_x sin(phi_i) + mu_y cos(phi_i)))^2.
    The 2x2 normal system is solved in closed form; a condition number
    beyond 1e12 (all LoRs nearly parallel) is refused since the mean
    position is unidentifiable along the common line direction.
    """
    batch = _as_arrays(lors)
    s = batch[0]
    p = _as_weights(weights, s.size)
    si, co = batch.angles.sin, batch.angles.cos
    return _solve_mean(
        _wsum(p, si, si), _wsum(p, si, co), _wsum(p, co, co),
        _wsum(p, s, si), _wsum(p, s, co),
    )


def _solve_mean(a, b, c, s_sin, s_cos) -> np.ndarray:
    """The mean from the weighted sums of sin^2, sin cos, cos^2,
    s sin and s cos over the events: the closed-form solution of the
    2x2 normal system of :func:`fit_mean`."""
    r1 = -s_sin
    r2 = s_cos
    mid = 0.5 * (a + c)
    rad = math.hypot(0.5 * (a - c), b)
    lo = mid - rad
    if lo <= 0.0 or (mid + rad) / lo > CONDITION_LIMIT:
        raise DegenerateGeometryError(
            "LoR angles too concentrated to locate a mean"
        )
    det = a * c - b * b
    mu_x = (c * r1 + b * r2) / det
    mu_y = (b * r1 + a * r2) / det
    return np.array([mu_x, mu_y])


def center_offsets(lors, mean) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of each LoR from the mean sinusoid of ``mean``, as the
    (s_c, phi) pair the covariance pipeline takes.  Offsets that
    overflow, or a non-finite mean, raise :class:`InputError`."""
    batch = _as_arrays(lors)
    s, phi = batch
    s_c = s - mean_sinusoid(batch.angles, mean)
    if not np.all(np.isfinite(s_c)):
        raise InputError("offsets from the mean are not finite")
    return _Batch(s_c, phi, batch.angles)


def _blocks(n: int):
    """Slices of at most :data:`_BLOCK_EVENTS` consecutive events that
    cover events 0 to n - 1 in order."""
    return (slice(i, i + _BLOCK_EVENTS) for i in range(0, n, _BLOCK_EVENTS))


def _memberships_arrays(s, phi, means, covariances, tau):
    """Soft memberships and the log-likelihood proxy.

    Posterior over components per LoR, from weight times projected
    density, computed in log space and normalized after subtracting the
    row maximum so distant components underflow gracefully.  Rows where
    every component underflows entirely fall back to uniform.  Returns
    (memberships, sum of per-LoR log marginal densities).  ``phi`` may
    be an :class:`_Angles`, whose sines and cosines are then read, not
    computed.

    The memberships are stored component-major: the result is the (N, K)
    transposed view of a (K, N) array, so each column ``resp[:, k]`` is
    contiguous and every per-component step reads and writes one
    contiguous run of events.  The step runs over blocks of events, each
    normalized in place in its columns of that array, so its temporaries
    stay block-sized.  An event's memberships are summed in component
    order (np.sum over a row would round differently from K = 8 on).
    Each event's arithmetic is the same as in one pass over every event,
    and the per-event log marginals are summed once at the end, so
    neither output depends on the block size.
    """
    K = len(tau)
    angles = phi if isinstance(phi, _Angles) else _Angles(phi)
    resp = np.empty((K, s.size))
    log_marginal = np.empty(s.size)
    underflow = False
    for block in _blocks(s.size):
        logp = resp[:, block]
        s_b, angles_b = s[block], angles.take(block)
        for k in range(K):
            if tau[k] <= 0.0:
                logp[k] = -np.inf
            else:
                profile = log_line_integral_profile(
                    covariances[k], means[k], s_b, angles_b
                )
                np.add(profile, math.log(tau[k]), out=logp[k])
        row_max = logp[0].copy()
        for k in range(1, K):
            np.maximum(row_max, logp[k], out=row_max)
        bad = ~np.isfinite(row_max)
        if np.any(bad):
            # exp(0 - 0) in every component normalizes to exactly 1 / K
            underflow = True
            logp[:, bad] = 0.0
            row_max[bad] = 0.0
        logp -= row_max
        np.exp(logp, out=logp)
        row_sum = logp[0].copy()
        for k in range(1, K):
            row_sum += logp[k]
        logp /= row_sum
        np.add(row_max, np.log(row_sum), out=log_marginal[block])
    if underflow:
        return resp.T, -math.inf
    return resp.T, float(np.sum(log_marginal))


# ---------------------------------------------------------------------------
# driver


def _balanced_random_assignment(n: int, k: int, stream: SeededStream):
    """Random hard assignment with near-equal cluster sizes."""
    labels = np.empty(n, dtype=np.int64)
    labels[stream.permutation(n)] = np.arange(n) % k
    return labels


def _nearest_sinusoid(batch, means):
    """Label of the mean sinusoid passing closest to each event.

    Components are compared one at a time, so no N x K array is built;
    the strict < sends a tie to the lower label, as argmin would.
    """
    s = batch[0]
    si, co = batch.angles.sin, batch.angles.cos
    best = np.abs(s + means[0, 0] * si - means[0, 1] * co)
    labels = np.zeros(s.size, dtype=np.int64)
    for k in range(1, len(means)):
        dist = np.abs(s + means[k, 0] * si - means[k, 1] * co)
        labels[dist < best] = k
        np.minimum(best, dist, out=best)
    return labels


def _label_pass(batch, labels, K: int, means=None):
    """One pass of phase 1 over the events, block by block.

    Given ``means``, each event is first relabelled in place in
    ``labels`` to the nearest of their sinusoids.  Returns the events per
    label and a (5, K) array of the per-label sums of sin^2, sin cos,
    cos^2, s sin and s cos, the arguments of :func:`_solve_mean`.  The
    sums are the sufficient statistics of the hard-assignment mean fit
    (incremental EM, Neal & Hinton 1998), so the pass gathers no
    cluster's events.
    """
    # the batch keeps its sines and cosines from the first pass on, and
    # each block reads views of them
    s, si, co = batch[0], batch.angles.sin, batch.angles.cos
    counts = np.zeros(K, dtype=np.int64)
    sums = np.zeros((5, K))
    for block in _blocks(s.size):
        if means is not None:
            labels[block] = _nearest_sinusoid(batch.take(block), means)
        lab, s_b, si_b, co_b = labels[block], s[block], si[block], co[block]
        counts += np.bincount(lab, minlength=K)
        features = (
            si_b * si_b, si_b * co_b, co_b * co_b, s_b * si_b, s_b * co_b
        )
        for row, feature in zip(sums, features):
            row += np.bincount(lab, weights=feature, minlength=K)
    return counts, sums


def _run_single_fit(
    batch, config: FitConfig, assignment, trace, on_iteration
) -> FitResult:
    s = batch[0]
    n, K = s.size, config.K

    def record(phase, weights, loglik):
        rec = TraceRecord(
            iteration=len(trace),
            phase=phase,
            weights=tuple(float(w) for w in weights),
            loglik_proxy=loglik,
        )
        trace.append(rec)
        if on_iteration is not None:
            on_iteration(rec)

    # phase 1: hard assignments, means only; ``assignment`` is
    # relabelled in place
    means = np.zeros((K, 2))
    prev_means = None
    counts, sums = _label_pass(batch, assignment, K)
    for _ in range(config.max_iters_phase1):
        for k in range(K):
            if counts[k] == 0:
                raise ComponentDeathError(
                    component=k, mass=0.0, iteration=len(trace)
                )
            means[k] = _solve_mean(*sums[:, k])
        record(1, counts / n, None)
        if prev_means is not None:
            delta = float(np.max(np.linalg.norm(means - prev_means, axis=1)))
            if delta < config.mean_tol:
                break
        prev_means = means.copy()
        counts, sums = _label_pass(batch, assignment, K, means)

    covariances = np.empty((K, 2, 2))
    for k in range(K):
        if counts[k] == 0:
            raise ComponentDeathError(
                component=k, mass=0.0, iteration=len(trace)
            )
        idx = np.flatnonzero(assignment == k)
        offs = center_offsets(batch.take(idx), means[k])
        covariances[k] = estimate_covariance(offs, None, config)
    tau = counts / n

    # phase 2: soft memberships
    mass_floor = n * MASS_FLOOR_FACTOR / K
    low_streak = np.zeros(K, dtype=int)
    converged = False
    for _ in range(config.max_iters_phase2):
        resp = None  # the E-step builds its own; drop the last one first
        resp, loglik = _memberships_arrays(
            s, batch.angles, means, covariances, tau
        )
        masses = np.sum(resp, axis=0)
        for k in range(K):
            if masses[k] < mass_floor:
                low_streak[k] += 1
                if low_streak[k] >= DEATH_PATIENCE:
                    raise ComponentDeathError(
                        component=k,
                        mass=float(masses[k]),
                        iteration=len(trace),
                    )
            else:
                low_streak[k] = 0
        tau_new = masses / n
        for k in range(K):
            means[k] = fit_mean(batch, resp[:, k])
            offs = center_offsets(batch, means[k])
            covariances[k] = estimate_covariance(offs, resp[:, k], config)
        record(2, tau_new, loglik)
        shift = float(np.max(np.abs(tau_new - tau)))
        tau = tau_new
        if shift < config.weight_tol:
            converged = True
            break

    resp = None
    _, loglik = _memberships_arrays(s, batch.angles, means, covariances, tau)
    if np.any(tau <= 0.0):
        k = int(np.argmin(tau))
        raise ComponentDeathError(
            component=k, mass=float(tau[k] * n), iteration=len(trace)
        )
    weights = tau / math.fsum(tau)
    model = MixtureModel2D(
        components=tuple(
            GaussianComponent2D(
                mean=means[k].copy(),
                covariance=covariances[k].copy(),
                weight=float(weights[k]),
            )
            for k in range(K)
        )
    )
    return FitResult(
        model=model,
        state=FitState(iteration=len(trace), converged=converged),
        trace=trace,
        loglik=loglik,
        restart_index=0,
    )


def fit(
    lors,
    config: FitConfig,
    *,
    initial_assignment=None,
    on_iteration: Callable[[TraceRecord], None] | None = None,
) -> FitResult:
    """Fit a K-component mixture to LoRs.

    ``lors`` may be a (s, phi) array pair, an (N, 2) array, or a
    sequence of LoR objects.  ``initial_assignment`` pins the phase-1
    starting labels of the first restart; later restarts always start
    from a fresh seeded random balanced assignment.  Restarts that lose
    a component are skipped as long as at least one restart completes;
    the best completed restart by final log-likelihood wins.
    """
    batch = _as_arrays(lors)
    s, phi = batch
    K = config.K
    if s.size < 5 * K:
        raise InputError(
            f"need at least {5 * K} LoRs to fit {K} components, got {s.size}"
        )
    if initial_assignment is not None:
        initial_assignment = np.asarray(initial_assignment)
        if initial_assignment.shape != s.shape:
            raise InputError("initial_assignment length must match LoRs")
        if not np.issubdtype(initial_assignment.dtype, np.integer):
            raise InputError("initial_assignment must be integer labels")
        if initial_assignment.min() < 0 or initial_assignment.max() >= K:
            raise InputError("initial_assignment labels out of range")

    best: FitResult | None = None
    last_death: ComponentDeathError | None = None
    for r in range(config.restarts):
        seed_r = config.seed if r == 0 else derive_seed(config.seed, r)
        if r == 0 and initial_assignment is not None:
            assignment = initial_assignment.astype(np.int64).copy()
        else:
            stream = SeededStream(seed_r)
            assignment = _balanced_random_assignment(s.size, K, stream)
        try:
            result = _run_single_fit(
                batch, config, assignment, [], on_iteration
            )
        except ComponentDeathError as death:
            last_death = death
            continue
        result.restart_index = r
        if best is None or result.loglik > best.loglik:
            best = result
    if best is None:
        assert last_death is not None
        raise last_death
    return best
