"""Mixture estimation from lines of response.

The fit alternates two regimes.  Phase 1 works on hard assignments:
each component's mean is the weighted least-squares fit of a sinusoid
to its LoRs in (s, phi), and LoRs move to whichever mean sinusoid
passes closest.  The means come from running per-label sums that only
the moving LoRs change, and a pass recomputes only the LoRs whose
nearest sinusoid the last moves of the means can have changed.  Phase 1
holds one label per event, in the smallest unsigned type that holds K
labels, one float32 skip key per event, rounded so that it never
exceeds the float64 key it stands for, and sin and cos of phi; it
recomputes its candidates one block at a time.  The handoff is a
phase-2 pass whose memberships are one-hot: every event weighs 1 for
its phase-1 label, each block of events is centred on each phase-1
mean, and each hard cluster's covariance comes from the moment sums of
its offsets, so no cluster's events are gathered.  Phase 2 switches to
soft memberships derived from the per-component projected densities
and re-estimates means, covariances, and weights until the weights
settle.  Each phase-2 iteration is one pass over blocks of events: a
block's memberships are formed, weigh that block's terms of every
per-component sum, and are dropped.  The covariance moments are taken
about the means that entered the iteration (lagged centering, which
has the same fixed point as centering on the new means), so all the
sums an iteration needs are known once its memberships are, and the
means and covariances are then solved from K rows of 11 sums.  The
sums are taken in the 2 phi basis: the mean's normal system reads the
mass and the sums of cos 2 phi and sin 2 phi that the covariance
moments read, and the E-step's projected variances read the same
cos 2 phi and sin 2 phi of each event.  Every mean, of phase 1, of
phase 2 and of :func:`fit_mean`, comes from the same five sums by one
formula, :func:`_mean_from_sums`.

The driver, :func:`_run_single_fit`, is three steps and a policy.
:func:`_phase1` relabels until the means settle and returns them;
:func:`_handoff` turns them into the parameters theta0 = (tau, means,
covariances) that phase 2 starts from; and each phase-2
iteration is the map theta -> :func:`_m_step` of the sums of
:func:`_soft_pass` at theta.  The driver keeps the trace, stops when no
weight moves by ``weight_tol``, takes the closing log-likelihood and
builds the model.  A component dies in one place, :func:`_die_if`:
when a phase-1 label is empty at the start of an iteration or after
phase 1's cap; when its phase-2 mass has stayed below N *
MASS_FLOOR_FACTOR / K for DEATH_PATIENCE passes in a row (judged after
the pass, before the M-step that the mass would break); or when its
weight ends at 0.  :func:`fit` skips a restart that dies.

The fit finds its own scale.  :func:`fit` divides the events by 2^k,
k = ceil(log2 rms(s)) (:func:`_scale_exponent`), fits in those units
with the fixed tolerances :data:`MEAN_TOL` and
:data:`DEFAULT_VARIANCE_FLOOR`, and scales the model and the
log-likelihoods back at exit (:func:`_run_single_fit`).  Division by a
power of two is exact, so a fit scales exactly with the image plane:
the fit of 2^j s is bit for bit 2^j times the fit of s, and the fit of
c s for any other c differs from c times the fit of s only by rounding.

Every pass over the events walks the blocks of
:meth:`projection._Batch.blocks`, the one event batch type: a batch of
one block is its own block and keeps the feature table (cos and sin of
2 phi and 4 phi) a pass forms, and a larger batch keeps only sin and
cos of every event.  Every weighted pass is one loop, :func:`_pass`,
around one kernel, :func:`_block_sums`, whose angle sums are one einsum
against that table: the handoff, each phase-2 pass, and
:func:`fit_mean` and :func:`moments_from_offsets`, which take one batch
as one component.  The passes differ only in how they weigh a block's
events and where its offsets come from: phase 2 weighs by the E-step's
memberships and takes the offsets the E-step formed, the handoff weighs
by the one-hot phase-1 labels and centres the block with
:func:`center_offsets`, and the single-batch readers weigh by the
caller's weights with s as the offset.  Phase 1 alone sums per label
with np.bincount, since a relabelling pass changes only the sums of the
events that move; it keeps only the five sums that a mean reads.

Covariances never come from point clouds: a component only sees the
scalar offsets of its LoRs from the mean sinusoid.  One pass over those
offsets takes the weighted averages of t = s_c^2 and t^2, of cos and
sin of 2 phi and 4 phi, and of t times cos and sin of 2 phi.  Every
later step is a closed form in those averages: the radial moments fix
the two principal variances, the angular dependence of the squared
offsets fixes the orientation (the best-scoring root of a quartic in
exp(2i phi0), which :func:`quartic.solve_quartic` solves in closed
form), and a final weighted least squares refines the variances in the
recovered frame.  A refit that puts the minor variance at the
floor is dropped for the moment inversion's pair.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, fields
from numbers import Real
from typing import Callable

import numpy as np

from .errors import (
    ComponentDeathError,
    DegenerateGeometryError,
    InputError,
    _as_integer,
)
from .model import (
    EigenDecomposition2D,
    GaussianComponent2D,
    LineOfResponse,
    MixtureModel2D,
    _as_finite,
    _as_finite_real,
    _as_vec2,
    _sym2_eigenvalues,
    canonicalize_orientation,
    covariance_from_eigen,
)
from .projection import (
    _Batch, _double_angle, log_line_integral_profile, mean_sinusoid,
)
from .quartic import solve_quartic
from .rng import _BLOCK_EVENTS, SeededStream, _blocks, derive_seed

#: Lower bound applied to estimated principal variances: in a fit's
#: standardised units (:func:`fit`), and in image-plane units squared for
#: :func:`estimate_covariance` and the defaults of :func:`invert_moments`
#: and :func:`refine_sigmas`.
DEFAULT_VARIANCE_FLOOR = 1e-8

#: Phase 1 stops when no mean moves by this much, in a fit's standardised
#: units (:func:`fit`).
MEAN_TOL = 1e-6

#: A component whose responsibility mass stays below
#: N * MASS_FLOOR_FACTOR / K for DEATH_PATIENCE consecutive iterations
#: is reported as dead rather than silently dropped.
MASS_FLOOR_FACTOR = 1e-3
DEATH_PATIENCE = 3

#: Normal systems with condition number beyond this are refused: the
#: data no longer pins down the quantity being solved for.
CONDITION_LIMIT = 1e12


#: The integer fields and their least values (None: any integer).
_INTEGER_FIELDS = {"K": 1, "restarts": 1, "max_iters_phase1": 1,
                   "max_iters_phase2": 1, "seed": None}
_TOLERANCE_FIELDS = ("weight_tol",)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`fit`.  Defaults suit a few thousand LoRs.

    ``K``, ``restarts`` and the two iteration caps must be integers of
    at least 1 and ``seed`` an integer (:func:`errors._as_integer`; a
    bool is refused), and ``weight_tol`` a finite positive real (an int
    counts as one); anything else raises an :class:`InputError` that
    names the field.  ``seed`` may be any integer here: the stream that
    draws from it refuses a negative one, and a replicate study derives
    nonnegative seeds from it.  Phase 1's tolerance and the variance
    floor are no fields: the fit works in standardised units, where they
    are the constants :data:`MEAN_TOL` and :data:`DEFAULT_VARIANCE_FLOOR`.
    """

    K: int
    max_iters_phase1: int = 50
    max_iters_phase2: int = 200
    weight_tol: float = 1e-4
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        for name, minimum in _INTEGER_FIELDS.items():
            _as_integer(getattr(self, name), name, minimum)
        for name in _TOLERANCE_FIELDS:
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, Real)
                or not (math.isfinite(value) and value > 0.0)
            ):
                raise InputError(
                    f"{name} must be a finite positive number, got {value!r}"
                )


_CONFIG_FIELDS = tuple(field.name for field in fields(FitConfig))


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


def _as_weights(weights, n: int) -> np.ndarray:
    """The one coercion of per-event weights: ones for None, else an
    (n,) float array of finite (:func:`model._as_finite`), nonnegative
    weights."""
    if weights is None:
        return np.ones(n)
    w = _as_finite(weights, (n,), "weights", f"an ({n},) array")
    if not np.all(w >= 0.0):
        raise InputError("weights must be nonnegative")
    return w


def _block_sums(rows, b) -> np.ndarray:
    """The sums of every weighted pass over the events of one block
    ``b``: a (K, 11) array, one row per component, from the (2K, n)
    array ``rows`` whose first K rows are the components' weights w and
    whose last K rows are their squared offsets t.

    Row k holds the mass (the sum of w), the weighted sums of s sin and
    s cos (s the block's first coordinate), and the eight sums of
    :class:`WeightedMoments` in field order (t, t^2, cos and sin of
    2 phi and 4 phi, t cos 2 phi and t sin 2 phi).  Columns
    :data:`_MEAN_COLUMNS` are the five sums of :func:`_mean_from_sums`.
    They are the sufficient statistics of the M-step (Neal & Hinton
    1998), so a pass adds them block by block.

    The angle sums are two np.einsum("kn,fn->kf") against the block's
    feature table (:attr:`_Batch.table`): the w rows against the whole
    table, and the w t rows, once the squared offsets are weighed in
    place, against its cos 2 phi and sin 2 phi rows alone, so no sum is
    formed that the result drops.  The masses and the sums of w t are
    one np.sum over the rows.  np.dot or
    @ would hand long sums to BLAS, which splits them across its
    threads, so the last digits of a fit would depend on the host's
    thread count; einsum and np.sum add in the same order everywhere.
    Phase 1's per-label sums are np.bincount's (:class:`_HardLabels`),
    a single loop in NumPy itself that adds each label's terms in event
    order.
    """
    K = len(rows) // 2
    w, t = rows[:K], rows[K:]
    s = b[0]
    t_sq = np.einsum("kn,kn,kn->k", w, t, t)
    s_sin = np.einsum("kn,n,n->k", w, s, b.sin)
    s_cos = np.einsum("kn,n,n->k", w, s, b.cos)
    np.multiply(t, w, out=t)  # the squared offsets are spent once weighed
    mass = np.sum(rows, axis=1)
    angular = np.einsum("kn,fn->kf", w, b.table)
    t_angular = np.einsum("kn,fn->kf", t, b.table[:2])
    return np.column_stack([
        mass[:K], s_sin, s_cos, mass[K:], t_sq, angular, t_angular
    ])


def _pass(batch, K: int, weigh) -> tuple[np.ndarray, float]:
    """The one walk of every weighted pass over the events: the (K, 11)
    sums of :func:`_block_sums` over the blocks of
    :meth:`_Batch.blocks`, and the sum of the blocks' log-likelihood
    terms.

    ``weigh(block, b)`` gives the (2K, n) rows of the block ``b`` of
    events ``block``, K rows of weights and then K rows of offsets, and
    its log-likelihood term; the rows must be the pass's own, since the
    offsets are squared and weighed in place.  Offsets that are not
    finite raise :class:`InputError`.  The sums add in block order, and
    a block's arrays die before the next block is weighed.
    """
    sums = np.zeros((K, 11))
    loglik = 0.0
    for block, b in batch.blocks():
        rows, block_loglik = weigh(block, b)
        loglik += block_loglik
        t = rows[K:]
        if not np.all(np.isfinite(t)):
            raise InputError("offsets from the mean are not finite")
        np.multiply(t, t, out=t)  # the offsets are spent once squared
        sums += _block_sums(rows, b)
        b = rows = t = None  # the next block's would run beside them
    return sums, loglik


def _one_component_sums(lors, weights) -> tuple[np.ndarray, float]:
    """The 11 sums of :func:`_block_sums` over a batch of events as one
    component, and its total weight: the pass of :func:`fit_mean` and
    :func:`moments_from_offsets`.

    Event i weighs ``weights[i]`` (1 for None), and its offset is its
    first coordinate s, so t = s^2 (:func:`_pass`), and an s that
    :func:`_check_reach` refuses raises :class:`InputError`.  The total
    is one np.sum of every weight, and must be positive and finite.
    """
    batch = _as_arrays(lors)
    _check_reach(batch[0], "s", 1.001)
    w = _as_weights(weights, batch[0].size)
    mass = float(np.sum(w))
    if not (mass > 0.0 and math.isfinite(mass)):
        raise InputError("total weight must be positive and finite")

    def weigh(block, b):
        return np.stack([w[block], b[0]]), 0.0

    return _pass(batch, 1, weigh)[0][0], mass


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
    Every field must be a finite number (:func:`model._as_finite_real`).
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
        for name, value in vars(self).items():
            _as_finite_real(value, name)
        if not self.mass > 0.0:
            raise InputError("moment mass must be positive")
        if not self.m2w >= 0.0:
            raise InputError("m2w must be nonnegative")
        floor = self.m2w * self.m2w
        if self.m4w < floor:
            object.__setattr__(self, "m4w", floor)


def moments_from_offsets(offsets, weights=None) -> WeightedMoments:
    """The weighted moments of the centered offsets, in one pass.

    The only step of the covariance pipeline that reads events; the
    others are closed forms in the returned :class:`WeightedMoments`.
    ``weights=None`` weighs every event 1.  The eight sums are those of
    :func:`_block_sums` with the offsets as one component, taken block
    by block (:func:`_one_component_sums`).
    """
    sums, mass = _one_component_sums(offsets, weights)
    return _moments_from_sums(sums[3:], mass)


def _moments_from_sums(sums, mass: float) -> WeightedMoments:
    """The moments whose eight weighted sums, in field order, are
    ``sums`` over events of total weight ``mass``."""
    m2w, m4w, *angular = (sums / mass).tolist()
    return WeightedMoments(m2w, m4w, mass, *angular)


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
    e + c cos(alpha - alpha0), e = (s1 + s2)/2, c = (s2 - s1)/2.  The
    weighted mean squared residual is, up to terms free of alpha0,

        L = P cos 2 alpha0 + Q sin 2 alpha0 + R cos alpha0 + S sin alpha0,

    with P = c^2/2 E[cos 4 phi], Q = c^2/2 E[sin 4 phi], R = 2 c T_c,
    S = 2 c T_s and T_c = E[(e - t) cos 2 phi], T_s alike.  In
    z = exp(i alpha0) its stationarity condition is the quartic

        (2iQ - 2P) z^4 + (iS - R) z^3 + (iS + R) z + (2iQ + 2P) = 0.

    The minimizer is a stationary point, so its angle is the phase of a
    root; every root's phase is ranked by L and the best one wins.
    """
    dsig = sigma2_sq - sigma1_sq
    ssum = sigma1_sq + sigma2_sq
    if abs(dsig) <= 1e-12 * max(1.0, ssum):
        return 0.0  # isotropic: every orientation is stationary

    c_amp = 0.5 * dsig
    P = 0.5 * c_amp * c_amp * m.cos4w
    Q = 0.5 * c_amp * c_amp * m.sin4w
    R = 2.0 * c_amp * (0.5 * ssum * m.cos2w - m.tcos2w)
    S = 2.0 * c_amp * (0.5 * ssum * m.sin2w - m.tsin2w)
    if P == Q == R == S == 0.0:
        return 0.0  # flat objective: likewise

    def objective(alpha0: float) -> float:
        return (
            P * math.cos(2.0 * alpha0) + Q * math.sin(2.0 * alpha0)
            + R * math.cos(alpha0) + S * math.sin(alpha0)
        )

    roots = solve_quartic(
        complex(-2.0 * P, 2.0 * Q), complex(-R, S), 0.0,
        complex(R, S), complex(2.0 * P, 2.0 * Q),
    )
    best = min((cmath.phase(z) for z in roots), key=objective)
    return canonicalize_orientation(0.5 * best)


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
    formulas give from the moments.  The system is solved by
    :func:`_solve_sym2`, which refuses it when the angles covered are too
    few to tell u from v.  The solution is clamped at the
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
    s1, s2 = _solve_sym2(
        m11, m12, m22, b1, b2,
        "angle coverage too thin to separate the principal variances",
    )
    s1 = max(s1, variance_floor)
    s2 = max(s2, variance_floor)
    if s2 > s1:
        s1, s2 = s2, s1
        phi0 = phi0 + 0.5 * math.pi
    return s1, s2, canonicalize_orientation(phi0)


def estimate_covariance(offsets, weights=None) -> np.ndarray:
    """Covariance of one component from its centered offsets.

    Moment inversion gives the variance pair, the quartic solve gives
    the orientation, a least-squares pass re-fits the variances in that
    frame, and the orientation is solved once more with the refined
    pair; a refit whose minor variance lands at the floor is dropped
    (:func:`_covariance_from_moments`).  Returns the symmetric
    positive-definite covariance matrix.
    """
    return _covariance_from_moments(moments_from_offsets(offsets, weights))


def _covariance_from_moments(m: WeightedMoments) -> np.ndarray:
    """The closed forms of :func:`estimate_covariance` after the moments:
    the covariance that the moments ``m`` give, with variance floor
    :data:`DEFAULT_VARIANCE_FLOOR`, in the units of the moments' offsets.

    A refit whose minor variance comes back at the floor has left the
    feasible set (the least squares wanted a variance below it), so the
    moment inversion's pair and the orientation solved for it stand, and
    the orientation is not solved again.
    """
    floor = DEFAULT_VARIANCE_FLOOR
    s1, s2 = invert_moments(m, floor)
    phi0 = solve_orientation(m, s1, s2)
    r1, r2, _ = refine_sigmas(m, phi0, floor)
    if r2 > floor:
        s1, s2 = r1, r2
        phi0 = solve_orientation(m, s1, s2)
    return covariance_from_eigen(EigenDecomposition2D(s1, s2, phi0))


def _covariances(sums) -> np.ndarray:
    """The covariance M-step of the handoff and of phase 2: the
    (K, 2, 2) covariances of the K rows of the (K, 11) sums of
    :func:`_block_sums`, each row's moment sums averaged over its mass,
    column 0."""
    return np.array([
        _covariance_from_moments(_moments_from_sums(row[3:], float(row[0])))
        for row in sums
    ])


# ---------------------------------------------------------------------------
# mean estimation and memberships


def _as_arrays(lors) -> _Batch:
    """The one coercion of an event batch to matching 1-D float arrays.

    Accepts an (s, phi) or (s_c, phi) array pair, an (N, 2) array, or a
    sequence of :class:`LineOfResponse` records; anything else is
    refused.  A tuple of two records is a sequence of
    records, not an array pair.  Every array goes through
    :func:`model._as_finite`, so a value that is not a finite number
    raises :class:`InputError`.  Returns a :class:`_Batch` with fresh
    angle features, each computed on first use.  A batch passed in
    comes back as it is: it was checked where it was built.
    """
    if isinstance(lors, _Batch):
        return lors  # checked where it was built
    if (
        isinstance(lors, tuple)
        and len(lors) == 2
        and not isinstance(lors[0], LineOfResponse)
    ):
        s, phi = lors
    elif isinstance(lors, np.ndarray):
        arr = _as_finite(lors, (None, 2), "the LoR array", "an (N, 2) array")
        return _Batch(arr[:, 0].copy(), arr[:, 1].copy())
    else:
        items = list(lors) if np.iterable(lors) else [None]
        if not all(isinstance(lor, LineOfResponse) for lor in items):
            raise InputError(
                "events must be an (s, phi) pair, an (N, 2) array or a "
                "sequence of LineOfResponse records"
            )
        s = [lor.s for lor in items]
        phi = [lor.phi for lor in items]
    what = "one of two matching 1-D arrays"
    s = _as_finite(s, (None,), "s", what)
    phi = _as_finite(phi, (None,), "phi", what)
    if s.shape != phi.shape:
        raise InputError("s and phi must be matching 1-D arrays")
    return _Batch(s, phi)


def _check_reach(s, name: str, room: float) -> float:
    """The largest |s| of a batch (0 for no events), refusing a batch
    whose sum of s^4 could overflow with an :class:`InputError` that
    names the values ``name``.  :func:`fit` checks its events and takes
    its scale from the result (:func:`_scale_exponent`);
    :func:`center_offsets`, :func:`fit_mean` and
    :func:`moments_from_offsets` check the offsets they sum.  A LoR CSV
    may hold any finite s, so :func:`_as_arrays` does not check it.

    The largest |s| of N events must be at most (F / N)^(1/4) / ``room``,
    F the largest double (``np.finfo(float).max``).  Then N (room |s|)^4
    is at most F, so the sum of t^2 = s^4, the largest sum of
    :func:`_block_sums` at unit weights, stays finite.  A fit's events
    take room 2, for offsets about a mean sinusoid up to twice the
    largest |s|; offsets take room 1.001, for the rounding of the limit
    and of the sum.  The largest |s| comes from np.max and np.min, as
    in :class:`_HardLabels`, so no event-length temporary is made.
    """
    if s.size == 0:
        return 0.0
    reach = float(max(np.max(s), -np.min(s)))
    limit = (np.finfo(float).max / s.size) ** 0.25 / room
    if reach > limit:
        raise InputError(
            f"|{name}| reaches {reach:.3g}, beyond {limit:.3g}, the most "
            f"whose fourth powers sum over {s.size} events without overflow"
        )
    return reach


def _scale_exponent(s, top: float) -> int:
    """k = ceil(log2 rms(s)) for the events s of largest |s| ``top``: the
    exponent of the power of two that :func:`fit` divides its events by,
    so that their rms lies in (1/2, 1].  It is 0 when every s is 0.

    Each block of :func:`rng._blocks` is scaled by 2^-e, top < 2^e, so
    every square is below 1 (the scaling is exact down to the normal
    range, and what it rounds below that cannot move the sum), and its
    squares are summed by np.einsum, so no event-length temporary is
    made and no sum is handed to BLAS.  k is read off math.frexp of the
    rms.  Events scaled by 2^j give k + j, since their scaled blocks are
    the same numbers."""
    e = math.frexp(top)[1]
    total = 0.0
    for block in _blocks(s.size):
        x = np.ldexp(s[block], -e)
        total += float(np.einsum("n,n->", x, x))
    mantissa, k = math.frexp(math.ldexp(math.sqrt(total / s.size), e))
    return k - 1 if mantissa == 0.5 else k


def fit_mean(lors, weights=None) -> np.ndarray:
    """Weighted least-squares mean under the sinusoid model.

    Minimizes sum p_i (s_i - (-mu_x sin(phi_i) + mu_y cos(phi_i)))^2.
    The sums of the 2x2 normal system come from those of
    :func:`_block_sums` with the events as one component, taken block by
    block (:func:`_one_component_sums`), and the system is solved in
    closed form (:func:`_mean_from_sums`); a condition number beyond
    1e12 (all LoRs nearly parallel) is refused since the mean position
    is unidentifiable along the common line direction.
    """
    sums, _ = _one_component_sums(lors, weights)
    return _mean_from_sums(sums[_MEAN_COLUMNS])


#: The columns of the sums of :func:`_block_sums` that a mean reads: the
#: mass and the weighted sums of s sin, s cos, cos 2 phi and sin 2 phi.
_MEAN_COLUMNS = [0, 1, 2, 5, 6]


def _mean_from_sums(sums) -> np.ndarray:
    """The one mean formula: the mean that the five weighted sums
    ``sums`` give, the mass, s sin, s cos, C and S, with C and S the sums
    of cos 2 phi and sin 2 phi.  These are columns :data:`_MEAN_COLUMNS`
    of the sums of :func:`_block_sums` and phase 1's per-label tally
    (:class:`_HardLabels`).

    The 2x2 normal system of :func:`fit_mean` has the sums of sin^2,
    sin cos and cos^2 in its matrix, (mass - C)/2, S/2 and (mass + C)/2
    in the 2 phi basis: [[(mass - C)/2, -S/2], [-S/2, (mass + C)/2]] mu
    = (-s sin, s cos), solved by :func:`_solve_sym2`."""
    mass, s_sin, s_cos, cos2, sin2 = sums
    return np.array(_solve_sym2(
        0.5 * (mass - cos2), -0.5 * sin2, 0.5 * (mass + cos2),
        -s_sin, s_cos, "LoR angles too concentrated to locate a mean",
    ))


def _solve_sym2(p, q, r, b1, b2, what: str) -> tuple[float, float]:
    """The solution (x1, x2) of [[p, q], [q, r]] (x1, x2) = (b1, b2) by
    Cramer's rule: the one conditioned 2x2 solve, for the normal systems
    of :func:`_mean_from_sums` and :func:`refine_sigmas`.

    The matrix is a sum of outer products, so it is positive
    semidefinite.  If its smaller eigenvalue (:func:`_sym2_eigenvalues`)
    is not positive, or the ratio of its eigenvalues exceeds
    :data:`CONDITION_LIMIT`, the data do not pin the solution down, and
    :class:`DegenerateGeometryError` is raised with the message ``what``.
    """
    lo, hi = _sym2_eigenvalues(p, q, r)
    if lo <= 0.0 or hi / lo > CONDITION_LIMIT:
        raise DegenerateGeometryError(what)
    det = p * r - q * q
    return (r * b1 - q * b2) / det, (p * b2 - q * b1) / det


def center_offsets(lors, mean) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of each LoR from the mean sinusoid of ``mean``, as the
    (s_c, phi) pair the covariance pipeline takes.  Offsets that
    overflow, offsets whose sum of fourth powers could
    (:func:`_check_reach`), or a mean that is not a finite 2-vector
    (:func:`model._as_vec2`) raise :class:`InputError`.

    The offsets are written and checked block by block into one
    N-length array, so the temporaries of :func:`mean_sinusoid` stay
    block-sized.  The result is a plain tuple of two float arrays whose
    phi is the batch's own.
    """
    batch = _as_arrays(lors)
    mean = _as_vec2(mean, "mean")
    s_c = np.empty_like(batch[0])
    for block, b in batch.blocks():
        out = s_c[block]
        np.subtract(b[0], mean_sinusoid(b, mean), out=out)
        if not np.all(np.isfinite(out)):
            raise InputError("offsets from the mean are not finite")
    _check_reach(s_c, "s_c", 1.001)
    return s_c, batch[1]


def _memberships_arrays(s, phi, means, covariances, tau):
    """Soft memberships and the log-likelihood proxy.

    Posterior over components per LoR, from weight times projected
    density, computed in log space and normalized after subtracting the
    row maximum so distant components underflow gracefully.  Rows where
    every component underflows entirely fall back to uniform.  Returns
    (memberships, sum of per-LoR log marginal densities).  ``phi`` may
    be a :class:`_Batch`, whose sines and cosines are then read, not
    computed.

    The memberships are stored component-major: the result is the (N, K)
    transposed view of rows 0 to K - 1 of a (2K, N) array, so each
    column ``resp[:, k]`` is contiguous and every per-component step
    reads and writes one contiguous run of events.  Each component's
    log-density is written into its row by
    :func:`log_line_integral_profile`, and the rows are normalized in
    place.  An event's memberships are summed in component order
    (np.sum over a row would round differently from K = 8 on), and the
    per-event log marginals are summed once at the end.

    It handles its whole input at once: the fit calls it on one block of
    events at a time (:func:`_soft_pass`, :func:`_soft_loglik`), so it
    never holds every event's memberships.  Rows K to 2K - 1 hold the
    offsets of the events from each mean sinusoid, s - m_k(phi), and
    the whole (2K, N) array is left on the batch as ``phi.pass_rows``,
    the weights and offsets that :func:`_soft_pass` takes instead of
    forming them again.
    """
    K = len(tau)
    if not isinstance(phi, _Batch):
        phi = _Batch(s, phi)  # one sin and cos for every component
    phi.pass_rows = rows = np.empty((2 * K, s.size))
    logp, offsets = rows[:K], rows[K:]
    for k in range(K):
        if tau[k] <= 0.0:
            logp[k] = -np.inf
            np.subtract(s, mean_sinusoid(phi, means[k]), out=offsets[k])
        else:
            log_line_integral_profile(
                covariances[k], means[k], s, phi,
                offsets=offsets[k], out=logp[k],
            )
            logp[k] += math.log(tau[k])
    row_max = logp[0].copy()
    for k in range(1, K):
        np.maximum(row_max, logp[k], out=row_max)
    bad = ~np.isfinite(row_max)
    underflow = bool(np.any(bad))
    if underflow:
        # exp(0 - 0) in every component normalizes to exactly 1 / K
        logp[:, bad] = 0.0
        row_max[bad] = 0.0
    logp -= row_max
    np.exp(logp, out=logp)
    row_sum = logp[0].copy()
    for k in range(1, K):
        row_sum += logp[k]
    logp /= row_sum
    if underflow:
        return logp.T, -math.inf
    row_max += np.log(row_sum)  # the per-event log marginals
    return logp.T, float(np.sum(row_max))


def _soft_pass(batch, means, covariances, tau):
    """One phase-2 pass over the events: a (K, 11) array of
    per-component sums, and the log-likelihood proxy of the entering
    parameters.

    Each block is weighed by its E-step memberships
    (:func:`_memberships_arrays`), and its offsets are those the E-step
    formed from the entering means: both are the rows the E-step left
    on the block, taken off it here, so row k holds component k's
    membership mass, the sums of its mean and the eight moment sums
    about the entering mean k (:func:`_pass`).  A block with an
    underflow row makes the proxy -inf.
    """

    def weigh(block, b):
        loglik = _memberships_arrays(b[0], b, means, covariances, tau)[1]
        return vars(b).pop("pass_rows"), loglik

    return _pass(batch, len(tau), weigh)


def _soft_loglik(batch, means, covariances, tau) -> float:
    """The log-likelihood proxy of the parameters alone: the sum of the
    E-step's sums of log marginals over the blocks of
    :meth:`_Batch.blocks`, -inf after an underflow row.  For a batch of
    one block it is the proxy that :func:`_memberships_arrays` returns
    for every event."""
    loglik = 0.0
    for _, b in batch.blocks():
        loglik += _memberships_arrays(b[0], b, means, covariances, tau)[1]
    return loglik


# ---------------------------------------------------------------------------
# driver


def _label_dtype(K: int):
    """The smallest unsigned integer type that holds the labels 0 to
    K - 1: phase 1 holds one label per event, one byte up to K = 256."""
    return np.min_scalar_type(K - 1)


def _balanced_random_assignment(n: int, k: int, stream: SeededStream):
    """Random hard assignment with near-equal cluster sizes: the event
    at position i of a seeded permutation gets label i mod k.  The labels
    are written one block of positions at a time."""
    labels = np.empty(n, dtype=_label_dtype(k))
    perm = stream.permutation(n)
    for block in _blocks(n):
        labels[perm[block]] = np.arange(block.start, min(block.stop, n)) % k
    return labels


def _nearest_sinusoid(batch, means):
    """Label of the mean sinusoid passing closest to each event, and the
    gap from that distance to the second-closest (inf when K = 1).

    The distance is |s - m_k(phi)|, the offset of :func:`center_offsets`
    and the E-step, from :func:`mean_sinusoid`.  Components are compared
    one at a time, so no N x K array is built; the strict < sends a tie
    to the lower label, as argmin would, and a tie leaves a gap of 0.
    The labels are of phase 1's label type (:func:`_label_dtype`).
    Only s and the sin and cos of phi are read, so phase 1 passes the
    batches of :meth:`_Batch.take_sin_cos`.
    """
    s = batch[0]
    best = np.abs(s - mean_sinusoid(batch, means[0]))
    second = np.full(s.size, np.inf)
    labels = np.zeros(s.size, dtype=_label_dtype(len(means)))
    for k in range(1, len(means)):
        dist = np.abs(s - mean_sinusoid(batch, means[k]))
        labels[dist < best] = k
        nearer = np.minimum(best, dist)
        np.maximum(best, dist, out=dist)
        np.minimum(second, dist, out=second)
        best = nearer
    second -= best
    return labels, second


class _HardLabels:
    """Phase 1's labels with their per-label sums, kept up to date
    across relabelling passes, and with a bound that lets a pass skip
    the events whose nearest sinusoid cannot have changed.

    The distance |s - m(phi)| of an event to the mean sinusoid
    m(phi) = -mu_x sin phi + mu_y cos phi is the distance from the point
    mu to the event's line, so moving a mean by d changes every distance
    to it by at most d.  If the means moved by at most d since an event
    was last relabelled, its gap between the second-nearest and the
    nearest distance has shrunk by at most 2 d (Elkan 2003; Hamerly
    2010).  So each event keeps the key gap + drift from its last
    relabel, where ``drift`` sums 2 d over the passes, and a pass
    recomputes only the events whose key is not above the current drift
    by more than a rounding margin.  A skipped event keeps a label that
    is strictly nearest, which is what :func:`_nearest_sinusoid` would
    give it; ties are always recomputed.  Keys start at -inf, so the
    first relabelling pass recomputes every event.

    The keys are float32 (:func:`_key_floor`): each stored key is at
    most the float64 key it stands for, so a key that clears the limit
    in float32 clears it in float64 too (:meth:`_candidates`), and the
    rounding can only send more events to be recomputed.  Besides its
    batch and labels, phase 1 holds 4 bytes of key per event and the
    batch's sin and cos of phi (16).

    The (5, K) ``sums`` are the sufficient statistics of the
    hard-assignment mean fit (incremental EM, Neal & Hinton 1998): per
    label, the five sums of :func:`_mean_from_sums`, the mass (the
    label's count, an exact integer), s sin, s cos, cos 2 phi and
    sin 2 phi, which are columns :data:`_MEAN_COLUMNS` of a pass's sums.
    They start from zero with every event tallied to its starting label,
    one block at a time, and a relabelling pass tallies only the events
    that move, by the same np.bincount code (:meth:`_move`).
    """

    def __init__(self, batch, labels, K: int):
        self.batch, self.labels, self.K = batch, labels, K
        self.sums = np.zeros((5, K))
        for block, b in batch.blocks():
            self._move(labels[block], labels[:0], b[0], b.sin, b.cos)
        self.keys = np.full(labels.size, -np.inf, dtype=np.float32)
        self.drift = 0.0
        s = batch[0]
        self.s_max = float(max(np.max(s), -np.min(s)))  # max |s|

    def relabel(self, means, moved_by: float) -> int:
        """Move each event to the nearest of the sinusoids of ``means``,
        given that no mean moved by more than ``moved_by`` since the last
        pass.  Returns how many events were recomputed.

        Each run of :meth:`_candidates` is recomputed in pieces of at
        most one block (:meth:`_recompute`), each gathering only s, sin
        phi and cos phi, and the run's moved events are tallied by one
        :meth:`_move`, in index order, whatever its pieces.
        """
        self.drift += 2.0 * moved_by
        # bounds the rounding of two computed distances, each within a
        # few ulps of max |s| plus its mean's entries, and of the keys,
        # within an ulp of the drift: every term is relative, so the
        # margin scales with the events and has no absolute term
        margin = 1e-12 * (
            self.s_max + 2.0 * float(np.max(np.abs(means))) + self.drift
        )
        # a limit beyond float32 recomputes every event, as the keys
        # never exceed its largest value
        limit = min(self.drift + margin, _KEY_MAX)
        batch, n = self.batch, self.keys.size
        recomputed = 0
        for run in self._candidates(limit):
            if isinstance(run, slice):
                pieces = [run]
                recomputed += len(range(n)[run])
            else:
                pieces = [run[piece] for piece in _blocks(run.size)]
                recomputed += run.size
            moves = [self._recompute(piece, means) for piece in pieces]
            idx, old, new = (np.concatenate(m) for m in zip(*moves))
            moves = None  # the pieces' arrays would run beside _move's
            self._move(
                new, old, batch[0][idx], batch.sin[idx], batch.cos[idx]
            )
        return recomputed

    def _recompute(self, piece, means):
        """Relabel the events ``piece`` selects, a slice or an index
        array of at most one block, and key them from the current drift.
        Returns the positions, old labels and new labels of those that
        moved."""
        new, gap = _nearest_sinusoid(self.batch.take_sin_cos(piece), means)
        gap += self.drift
        self.keys[piece] = _key_floor(gap)
        moved = np.flatnonzero(new != self.labels[piece])
        if isinstance(piece, slice):
            idx = moved + piece.start
        else:
            idx = piece[moved]
        old = self.labels[idx]
        self.labels[idx] = new = new[moved]
        return idx, old, new

    def _move(self, new, old, s, si, co):
        """Move events from the labels ``old`` to the labels ``new`` in
        the sums, given their s, sin phi and cos phi: a count for the
        mass, then s sin, s cos and the cos 2 phi and sin 2 phi of
        :func:`projection._double_angle`, the products of the feature
        table."""
        K = self.K
        features = None, s * si, s * co, *_double_angle(co, si)
        for row, feature in zip(self.sums, features):
            row += np.bincount(new, weights=feature, minlength=K)
            row -= np.bincount(old, weights=feature, minlength=K)

    def _candidates(self, limit: float):
        """The events whose key is not above ``limit``, block by block.

        A block whose every event is a candidate comes as its slice, so
        the pass reads views of it.  The others come as index arrays, in
        ascending runs of one to two blocks' worth, so that a pass that
        recomputes few events handles them together.

        The float32 keys meet a Python float ``limit``, which NumPy 2
        (NEP 50) and NumPy 1's value-based casting both round to float32
        for the comparison (so it must not exceed float32's largest
        value).  Rounded either way, it skips an event only when its
        float64 key is above the unrounded limit: a float32 key above a
        limit rounded down is at least the next float32, which is above
        the limit, and a stored key is never above the float64 key.
        """
        pending, held = [], 0
        for block in _blocks(self.keys.size):
            # not (key > limit), so that a NaN key is recomputed too
            due = ~(self.keys[block] > limit)
            if due.all():
                if held:
                    yield np.concatenate(pending)
                    pending, held = [], 0
                yield block
                continue
            idx = np.flatnonzero(due)
            idx += block.start
            pending.append(idx)
            held += idx.size
            if held >= _BLOCK_EVENTS:
                yield np.concatenate(pending)
                pending, held = [], 0
        if held:
            yield np.concatenate(pending)


#: The largest float32, where :func:`_key_floor` clamps phase 1's keys.
_KEY_MAX = float(np.finfo(np.float32).max)


def _key_floor(key) -> np.ndarray:
    """The float32 keys of the nonnegative float64 ``key``, each at most
    the value it stands for: clamped at :data:`_KEY_MAX` (so an infinite
    or overflowing key casts without overflow), then rounded toward -inf.
    ``key`` is clamped in place; a NaN stays NaN.

    A key is a gap plus the drift, both nonnegative, so a float32 that
    the cast rounded up is positive, and the next float32 below it is one
    less in its bit pattern (np.nextafter is several times slower).
    """
    np.minimum(key, _KEY_MAX, out=key)
    low = key.astype(np.float32)
    bits = low.view(np.int32)
    bits -= low > key
    return low


def _cluster_moment_sums(batch, labels, means) -> np.ndarray:
    """The handoff's pass: a phase-2 pass whose memberships are the
    one-hot phase-1 ``labels``, about the phase-1 ``means``.  Returns
    the (K, 11) sums of :func:`_block_sums`, one row per row of
    ``means``; the mass column is each label's count.

    Each block is centred on each mean by :func:`center_offsets`, and an
    event weighs 1 in its own cluster's row and 0 in the others
    (:func:`_pass`), so no cluster's events are gathered.  The weights
    and offsets are written into the block's rows as they are formed.
    """
    K = len(means)

    def weigh(block, b):
        rows = np.empty((2 * K, b[0].size))
        np.equal(labels[block], np.arange(K)[:, None], out=rows[:K])
        for k, mean in enumerate(means):
            rows[K + k] = center_offsets(b, mean)[0]
        return rows, 0.0

    return _pass(batch, K, weigh)[0]


def _die_if(dead, masses, iteration: int) -> None:
    """The one place a fit declares a component dead (the rules are in
    the module docstring): raises :class:`ComponentDeathError` for the
    first component that ``dead`` marks, with its entry of ``masses``,
    at trace iteration ``iteration``."""
    if np.any(dead):
        k = int(np.argmax(dead))
        raise ComponentDeathError(
            component=k, mass=float(masses[k]), iteration=iteration
        )


def _phase1(batch, labels, config: FitConfig, record):
    """Phase 1: hard assignments, means only.  Returns the means of its
    last labels; ``labels`` is relabelled in place, and
    ``record(1, shares, None)`` is called once per iteration with each
    label's share of the events.  It stops when no mean moves by
    :data:`MEAN_TOL` or more, or at ``config.max_iters_phase1``.
    """
    prev_means = None
    delta = 0.0
    hard = _HardLabels(batch, labels, config.K)
    counts = hard.sums[0]  # a view, so it follows every move
    for i in range(config.max_iters_phase1):
        _die_if(counts == 0, counts, i)
        means = np.array([_mean_from_sums(label) for label in hard.sums.T])
        record(1, counts / labels.size, None)
        if prev_means is not None:
            delta = float(np.max(np.linalg.norm(means - prev_means, axis=1)))
            if delta < MEAN_TOL:
                return means
        prev_means = means
        hard.relabel(means, delta)
    _die_if(counts == 0, counts, config.max_iters_phase1)
    return means


def _handoff(batch, labels, means):
    """The parameters phase 2 starts from, (tau, means, covariances):
    the phase-1 ``means``, and each cluster's share of the events and
    covariance from the sums of one pass over the events
    (:func:`_cluster_moment_sums`).  The pass's mass column holds each
    label's count, the exact integers of phase 1's mass row, so tau is
    the label shares that phase 1 recorded last."""
    sums = _cluster_moment_sums(batch, labels, means)
    return sums[:, 0] / labels.size, means, _covariances(sums)


def _m_step(sums, n: int):
    """The M-step of phase 2: the parameters (tau, means, covariances)
    that the (K, 11) sums of a pass over ``n`` events give.  Each row's
    mass is its weight times n, its mass and angle sums give its mean
    (:func:`_mean_from_sums`), and its moment sums its covariance
    (:func:`_covariances`).

    One phase-2 iteration is the map theta -> _m_step(sums, n) with
    ``sums`` from :func:`_soft_pass` at theta."""
    return (
        sums[:, 0] / n,
        np.array([_mean_from_sums(row) for row in sums[:, _MEAN_COLUMNS]]),
        _covariances(sums),
    )


def _run_single_fit(batch, config: FitConfig, assignment, on_iteration, k):
    """One restart from the starting labels ``assignment``: phase 1, the
    handoff, then the phase-2 map until no weight moves by
    ``config.weight_tol`` or more, or ``config.max_iters_phase2``
    iterations.  The driver keeps the trace, judges deaths
    (:func:`_die_if`) and assembles the model.

    ``batch`` holds the events in standardised units, divided by 2^k
    (:func:`fit`).  The model's means are scaled back by 2^k and its
    covariances by 4^k, exactly, and every log-likelihood, of the trace
    and the closing one, is shifted by -N k ln 2, the log of the
    Jacobian of s -> 2^-k s over N events."""
    n, K = batch[0].size, config.K
    shift = n * k * math.log(2.0)
    trace = []

    def record(phase, weights, loglik):
        rec = TraceRecord(
            iteration=len(trace),
            phase=phase,
            weights=tuple(float(w) for w in weights),
            loglik_proxy=None if loglik is None else loglik - shift,
        )
        trace.append(rec)
        if on_iteration is not None:
            on_iteration(rec)

    means = _phase1(batch, assignment, config, record)
    tau, means, covariances = _handoff(batch, assignment, means)
    assignment = None  # the phase-1 labels are spent

    mass_floor = n * MASS_FLOOR_FACTOR / K
    low_streak = np.zeros(K, dtype=int)
    converged = False
    for _ in range(config.max_iters_phase2):
        sums, loglik = _soft_pass(batch, means, covariances, tau)
        masses = sums[:, 0]
        low_streak = np.where(masses < mass_floor, low_streak + 1, 0)
        _die_if(low_streak >= DEATH_PATIENCE, masses, len(trace))
        tau_new, means, covariances = _m_step(sums, n)
        record(2, tau_new, loglik)
        step = float(np.max(np.abs(tau_new - tau)))
        tau = tau_new
        if step < config.weight_tol:
            converged = True
            break

    loglik = _soft_loglik(batch, means, covariances, tau) - shift
    _die_if(tau <= 0.0, tau * n, len(trace))
    weights = tau / math.fsum(tau)
    model = MixtureModel2D(
        components=tuple(
            GaussianComponent2D(
                mean=np.ldexp(mean, k),
                covariance=np.ldexp(cov, 2 * k),
                weight=float(weight),
            )
            for mean, cov, weight in zip(means, covariances, weights)
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
    the best completed restart by final log-likelihood wins, and of
    restarts whose log-likelihoods agree within 1e-12 relative, the
    earliest.

    The fit finds its own scale: it divides the events by 2^k, k =
    ceil(log2 rms(s)) (:func:`_scale_exponent`), so that their rms lies
    in (1/2, 1], where phase 1's :data:`MEAN_TOL`, the variance floor
    :data:`DEFAULT_VARIANCE_FLOOR` and the floor of the projected
    variances are set, and scales the model back at the end
    (:func:`_run_single_fit`).  Scaling by a power of two is exact, so
    the fit of 2^j s is bit for bit 2^j times the fit of s, with the
    same iterations.  When k = 0 the fit runs on the caller's arrays.
    """
    batch = _as_arrays(lors)
    s, phi = batch
    top = _check_reach(s, "s", 2.0)
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
    k = _scale_exponent(s, top)
    if k:
        batch = _Batch(np.ldexp(s, -k), phi)

    best: FitResult | None = None
    last_death: ComponentDeathError | None = None
    for r in range(config.restarts):
        seed_r = config.seed if r == 0 else derive_seed(config.seed, r)
        pinned = r == 0 and initial_assignment is not None
        try:
            # the starting labels go straight into the call, so that the
            # fit frees them once phase 1 is done with them
            result = _run_single_fit(
                batch, config,
                initial_assignment.astype(_label_dtype(K)) if pinned
                else _balanced_random_assignment(
                    s.size, K, SeededStream(seed_r)
                ),
                on_iteration, k,
            )
        except ComponentDeathError as death:
            last_death = death
            continue
        result.restart_index = r
        # a later restart wins only by more than rounding: restarts that
        # reach one optimum differ in their last digits
        if best is None or (
            result.loglik > best.loglik
            and not math.isclose(result.loglik, best.loglik, rel_tol=1e-12)
        ):
            best = result
    if best is None:
        assert last_death is not None
        raise last_death
    return best
