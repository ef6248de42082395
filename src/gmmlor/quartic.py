"""Root extraction for quartic polynomials.

The orientation estimate reduces to the roots of a quartic in
z = exp(2i phi0) with complex coefficients.  The roots are the
eigenvalues of the polynomial's companion matrix, a backward-stable
root finder in one LAPACK call (Edelman & Murakami 1995, Math. Comp.
64, "Polynomial roots from companion matrix eigenvalues").
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import InputError

#: Leading coefficients below this fraction of the largest coefficient
#: magnitude are treated as zero and the polynomial degree reduced.
_LEADING_EPS = 1e-14


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
    lead = next(i for i, mag in enumerate(mags) if mag > _LEADING_EPS * scale)
    degree = 4 - lead
    if degree == 0:
        return []
    is_complex = any(isinstance(c, (complex, np.complexfloating)) for c in coeffs)
    dtype = complex if is_complex else float
    companion = np.eye(degree, k=-1, dtype=dtype)
    companion[0] = np.array(coeffs[lead + 1:], dtype=dtype) / -coeffs[lead]
    roots = np.linalg.eigvals(companion).tolist()
    return sorted(map(complex, roots), key=lambda z: (z.real, z.imag))
