"""Root extraction for quartic polynomials.

The orientation estimate reduces to the roots of a quartic in
z = exp(2i phi0) with complex coefficients.  They come in closed form:
Ferrari's method splits the depressed quartic into two quadratics, with
the splitting term a root of its resolvent cubic, which Cardano's
formula gives.  A polynomial whose leading coefficient is negligible is
solved by the same cubic, quadratic or linear formula.  Each root is
then polished by Newton steps on the polynomial as given, which take a
simple root to full precision (cf. Orellana & De Michele 2020, ACM TOMS
46(2), "Algorithm 1010").  It is complex scalar arithmetic in Python:
no array is built and no LAPACK routine called.
"""

from __future__ import annotations

import cmath
import math

from .errors import InputError

#: Leading coefficients below this fraction of the largest coefficient
#: magnitude are treated as zero and the polynomial degree reduced.
_LEADING_EPS = 1e-14

#: The most Newton steps that polish one root, and the relative size
#: below which a step is taken without checking the residual.
_NEWTON_STEPS = 4
_SMALL_STEP = 2.0**-30

#: A primitive cube root of unity, exp(2 pi i / 3).
_OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))


def solve_quartic(
    c4: complex, c3: complex, c2: complex, c1: complex, c0: complex
) -> list[complex]:
    """All roots of c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0, with multiplicity.

    The coefficients may be real or complex.  Returns four complex roots
    for a genuine quartic.  A leading coefficient that is negligible
    against the rest demotes the polynomial rather than amplifying noise
    through division, so the list is shorter in that case.  Roots are
    sorted by real part then imaginary part.
    """
    coeffs = (c4, c3, c2, c1, c0)
    if not all(map(cmath.isfinite, coeffs)):
        raise InputError("quartic coefficients must be finite")
    mags = [abs(c) for c in coeffs]
    scale = max(mags)
    if scale == 0.0:
        raise InputError("all quartic coefficients are zero")
    limit = _LEADING_EPS * scale
    lead = 0
    while mags[lead] <= limit:
        lead += 1
    if lead == 4:
        return []  # a nonzero constant
    # the polynomial as given, its demoted leading coefficients zeroed
    poly = [complex(c) if i >= lead else 0j for i, c in enumerate(coeffs)]
    head = poly[lead]
    monic = [c / head for c in poly[lead + 1:]]
    roots = [_polish(poly, z) for z in _SOLVERS[3 - lead](*monic)]
    if not any(c.imag for c in poly):
        roots = _conjugate_pairs(roots)
    return sorted(roots, key=lambda z: (z.real, z.imag))


def _polish(poly, z: complex) -> complex:
    """``z`` after Newton steps on the quartic with coefficients
    ``poly``, highest first.

    A step below 2^-30 of |z| is taken and ends the polish: Newton's
    convergence is quadratic there, so the error it leaves is about the
    square of the step over the distance to the nearest other root, at
    most 1e-16 of |z| unless a root lies within 1% of |z|.  A larger
    step is kept only if it shrinks the residual, so a clustered root is
    not thrown off, and at most :data:`_NEWTON_STEPS` are taken.
    """
    value, slope = _value_and_slope(poly, z)
    for _ in range(_NEWTON_STEPS):
        if slope == 0.0:
            break
        step = value / slope
        moved = z - step
        if abs(step) <= _SMALL_STEP * abs(z):
            return moved
        moved_value, moved_slope = _value_and_slope(poly, moved)
        if not abs(moved_value) < abs(value):
            break
        z, value, slope = moved, moved_value, moved_slope
    return z


def _conjugate_pairs(roots) -> list[complex]:
    """The roots of a polynomial with real coefficients, closed under
    conjugation exactly, as a real eigenvalue solver returns them.

    Taken in order of falling |imaginary part|, each root is paired
    with the other root nearest its conjugate, unless the root itself
    is nearer: then it is real, and its imaginary part is dropped.  A
    pair becomes the conjugate pair of their mean real part and mean
    |imaginary part|.
    """
    left = sorted(roots, key=lambda z: -abs(z.imag))
    out = []
    while left:
        z = left.pop(0)
        mirror = z.conjugate()
        gaps = [abs(w - mirror) for w in left]
        if not gaps or min(gaps) >= abs(z - mirror):
            out.append(complex(z.real, 0.0))
            continue
        w = left.pop(gaps.index(min(gaps)))
        x = 0.5 * (z.real + w.real)
        y = 0.5 * (abs(z.imag) + abs(w.imag))
        out += [complex(x, y), complex(x, -y)]
    return out


def _value_and_slope(poly, z: complex) -> tuple[complex, complex]:
    """The quartic with coefficients ``poly`` (highest first) and its
    derivative at ``z``, by Horner's rule."""
    a, b, c, d, e = poly
    value = a * z + b
    slope = a * z + value
    value = value * z + c
    slope = slope * z + value
    value = value * z + d
    slope = slope * z + value
    return value * z + e, slope


def _linear(a: complex) -> list[complex]:
    """The root of x + a."""
    return [-a]


def _quadratic(b: complex, c: complex) -> list[complex]:
    """The roots of x^2 + b x + c.  The square root of the discriminant
    takes the sign that adds to b without cancelling, and the second
    root is c over the first."""
    d = cmath.sqrt(b * b - 4.0 * c)
    if (b.real * d.real + b.imag * d.imag) < 0.0:
        d = -d
    big = -0.5 * (b + d)
    if big == 0.0:  # b = c = 0
        return [0j, 0j]
    return [big, c / big]


def _cubic(a: complex, b: complex, c: complex) -> list[complex]:
    """The roots of x^3 + a x^2 + b x + c by Cardano's formula: with
    x = y - a/3 the cubic is y^3 + p y + q, and y = u + v with
    u^3 = -q/2 +- sqrt(q^2/4 + p^3/27) (the sign of the larger
    magnitude) and u v = -p/3, taken over the three cube roots of u^3."""
    shift = a / 3.0
    p = b - a * shift
    q = c - shift * (b - 2.0 * shift * shift)
    h = cmath.sqrt(0.25 * q * q + p * p * p / 27.0)
    cube = -0.5 * q + h
    other = -0.5 * q - h
    if abs(other) > abs(cube):
        cube = other
    if cube == 0.0:  # p = q = 0: a triple root
        return [-shift] * 3
    u = cube ** (1.0 / 3.0)
    v = -p / (3.0 * u)
    w = _OMEGA
    return [u + v - shift,
            w * u + v / w - shift,
            u / w + w * v - shift]


def _quartic(a: complex, b: complex, c: complex, d: complex) -> list[complex]:
    """The roots of x^4 + a x^3 + b x^2 + c x + d by Ferrari's method.

    With x = y - a/4 the quartic is y^4 + p y^2 + q y + r, which is
    (y^2 + m)^2 - (s y - q/(2s))^2 with s^2 = 2m - p whenever m is a
    root of the resolvent cubic 8 m^3 - 4 p m^2 - 8 r m + 4 p r - q^2.
    Of its three roots, the one farthest from p/2 is taken, so that s
    is as far from 0 as it can be; s = 0 only when q = 0 as well, and
    the quartic is then a quadratic in y^2."""
    shift = 0.25 * a
    sq = shift * shift
    p = b - 6.0 * sq
    q = c - 2.0 * shift * b + 8.0 * sq * shift
    r = d - shift * c + sq * b - 3.0 * sq * sq
    m = max(
        _cubic(-0.5 * p, -r, 0.5 * p * r - 0.125 * q * q),
        key=lambda m: abs(2.0 * m - p),
    )
    s = cmath.sqrt(2.0 * m - p)
    if s == 0.0:
        ys = [sign * cmath.sqrt(y2) for y2 in _quadratic(p, r)
              for sign in (1.0, -1.0)]
    else:
        t = q / (2.0 * s)
        ys = _quadratic(-s, m + t) + _quadratic(s, m - t)
    return [y - shift for y in ys]


#: The closed-form solver of each monic degree from 1 to 4.
_SOLVERS = (_linear, _quadratic, _cubic, _quartic)
