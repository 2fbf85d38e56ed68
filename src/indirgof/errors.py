"""Exception types shared across the package."""


class IndirgofError(Exception):
    """Base class for all errors raised by this package."""


class LatticeCapError(IndirgofError):
    """Requested frequency lattice would exceed the configured size cap."""


class InsufficientDataError(IndirgofError):
    """Too few observations for the requested operation."""


class DegenerateFitError(IndirgofError):
    """The residual scale is zero or not finite, so the test is undefined."""


class SingularMatrixError(IndirgofError):
    """A tail-information matrix is numerically singular on the scan grid."""


class QuadratureError(IndirgofError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class ConvergenceError(IndirgofError):
    """An iterative evaluation of a distribution function did not converge."""


class DataFormatError(IndirgofError):
    """An input file is malformed or violates the documented format."""
