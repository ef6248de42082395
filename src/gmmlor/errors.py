"""Exception types shared across the package, and the one check of an
integer argument.

The CLI maps these onto process exit codes, so estimator internals raise
the most specific class that applies instead of bare ValueError.
"""

from numbers import Integral


class GmmLorError(Exception):
    """Base class for all library errors."""


class InputError(GmmLorError):
    """Unreadable, malformed, or schema-violating input data."""


class NumericalError(GmmLorError):
    """A numerical operation could not be completed."""


class SingularCovarianceError(NumericalError):
    """Covariance determinant underflowed or the matrix is not invertible."""


class DegenerateCovarianceError(NumericalError):
    """Projected variance collapsed below the usable floor."""


class DegenerateGeometryError(NumericalError):
    """The weighted normal equations are numerically singular,
    typically because all contributing lines are nearly parallel."""


class ComponentDeathError(GmmLorError):
    """A mixture component's responsibility mass collapsed during fitting."""

    def __init__(self, component: int, mass: float, iteration: int):
        self.component = component
        self.mass = mass
        self.iteration = iteration
        super().__init__(
            f"component {component} collapsed (mass {mass:.6g}) "
            f"at iteration {iteration}"
        )


def _as_integer(value, name: str, minimum=None) -> int:
    """``value`` as a Python int, if it is an integer (a NumPy one too,
    but not a bool) of at least ``minimum``, or of any value for None.

    The one check of a count, seed or stream index.  Anything
    else raises an :class:`InputError` that names the argument ``name``.
    """
    if minimum is None:
        what = "an integer"
    elif minimum == 0:
        what = "a nonnegative integer"
    else:
        what = f"an integer of at least {minimum}"
    if (
        isinstance(value, bool)
        or not isinstance(value, Integral)
        or (minimum is not None and value < minimum)
    ):
        raise InputError(f"{name} must be {what}, got {value!r}")
    return int(value)
