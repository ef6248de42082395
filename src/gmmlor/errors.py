"""Exception types shared across the package.

The CLI maps these onto process exit codes, so estimator internals raise
the most specific class that applies instead of bare ValueError.
"""


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
