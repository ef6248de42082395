"""Quartic root solver: companion-matrix eigenvalues."""

import cmath
import math

import numpy as np
import pytest

from gmmlor import InputError
from gmmlor.quartic import solve_quartic


def poly_eval(coeffs, z):
    c4, c3, c2, c1, c0 = coeffs
    return (((c4 * z + c3) * z + c2) * z + c1) * z + c0


def assert_root_sets_close(got, expect, atol):
    assert len(got) == len(expect)
    got = sorted(got, key=lambda z: (z.real, z.imag))
    expect = sorted(expect, key=lambda z: (z.real, z.imag))
    for g, e in zip(got, expect):
        assert abs(g - e) < atol, f"{g} vs {e}"


def test_fourth_roots_of_unity():
    roots = solve_quartic(1.0, 0.0, 0.0, 0.0, -1.0)
    assert_root_sets_close(roots, [1, -1, 1j, -1j], 1e-10)


def test_double_real_root_with_complex_pair():
    # (x - 0.5)^2 (x^2 + 1)
    roots = solve_quartic(1.0, -1.0, 1.25, -1.0, 0.25)
    assert_root_sets_close(roots, [0.5, 0.5, 1j, -1j], 1e-6)


def test_cyclotomic_roots():
    # x^4 + x^3 + x^2 + x + 1: primitive fifth roots of unity
    roots = solve_quartic(1.0, 1.0, 1.0, 1.0, 1.0)
    expect = [cmath.exp(2j * math.pi * k / 5) for k in (1, 2, 3, 4)]
    assert_root_sets_close(roots, expect, 1e-9)


def test_quadruple_root():
    # (x - 1)^4, root condition is eps^(1/4) so allow 1e-3
    roots = solve_quartic(1.0, -4.0, 6.0, -4.0, 1.0)
    assert len(roots) == 4
    for r in roots:
        assert abs(r - 1.0) < 1e-3


def test_two_double_roots():
    # (x - 1)^2 (x + 1)^2 = x^4 - 2 x^2 + 1
    roots = solve_quartic(1.0, 0.0, -2.0, 0.0, 1.0)
    assert_root_sets_close(roots, [1.0, 1.0, -1.0, -1.0], 1e-6)


def test_biquadratic():
    # x^4 - 5 x^2 + 4 = (x^2 - 1)(x^2 - 4)
    roots = solve_quartic(1.0, 0.0, -5.0, 0.0, 4.0)
    assert_root_sets_close(roots, [1.0, -1.0, 2.0, -2.0], 1e-10)


def test_residual_bound_random_coefficients():
    rng = np.random.default_rng(1609)
    for _ in range(10000):
        coeffs = rng.uniform(-10.0, 10.0, size=5)
        if coeffs[0] == 0.0:
            coeffs[0] = 1.0
        roots = solve_quartic(*coeffs)
        assert len(roots) == 4
        scale = np.sum(np.abs(coeffs))
        for r in roots:
            bound = 1e-8 * scale * max(1.0, abs(r)) ** 4
            assert abs(poly_eval(coeffs, r)) <= bound


def test_complex_roots_come_in_conjugate_pairs():
    rng = np.random.default_rng(55)
    for _ in range(500):
        coeffs = rng.uniform(-5.0, 5.0, size=5)
        if abs(coeffs[0]) < 0.1:
            coeffs[0] = 1.0
        roots = solve_quartic(*coeffs)
        # real coefficients: the multiset is closed under conjugation
        for r in roots:
            gap = min(abs(r.conjugate() - other) for other in roots)
            assert gap < 1e-6 * max(1.0, abs(r))


def test_degree_demotion_to_cubic():
    roots = solve_quartic(0.0, 1.0, 0.0, -1.0, 0.0)  # x^3 - x
    assert_root_sets_close(roots, [-1.0, 0.0, 1.0], 1e-10)


def test_degree_demotion_by_relative_scale():
    # leading coefficient negligible next to the rest: solved as a cubic
    roots = solve_quartic(1e-22, 1.0, 0.0, 0.0, -1.0)
    assert len(roots) == 3
    for r in roots:
        assert abs(r**3 - 1.0) < 1e-9


def test_degree_demotion_to_quadratic_and_linear():
    assert_root_sets_close(solve_quartic(0, 0, 1.0, 0.0, -4.0), [2.0, -2.0], 1e-12)
    assert_root_sets_close(solve_quartic(0, 0, 0, 2.0, -1.0), [0.5], 1e-14)


def test_all_zero_coefficients_raise():
    with pytest.raises(InputError):
        solve_quartic(0.0, 0.0, 0.0, 0.0, 0.0)


def test_constant_only_has_no_roots():
    assert solve_quartic(0.0, 0.0, 0.0, 0.0, 3.0) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 1)])
@pytest.mark.parametrize("slot", range(5))
def test_non_finite_coefficients_raise(bad, slot):
    coeffs = [1.0, -2.0, 0.5, 3.0, -1.0]
    coeffs[slot] = bad
    with pytest.raises(InputError):
        solve_quartic(*coeffs)


def test_complex_coefficients_from_known_roots():
    rng = np.random.default_rng(77)
    for _ in range(200):
        expect = rng.normal(size=4) + 1j * rng.normal(size=4)
        lead = complex(*rng.normal(size=2))
        coeffs = lead * np.poly(expect)
        roots = solve_quartic(*coeffs)
        assert len(roots) == 4
        scale = np.sum(np.abs(coeffs))
        for r in roots:
            bound = 1e-8 * scale * max(1.0, abs(r)) ** 4
            assert abs(poly_eval(coeffs, r)) <= bound
