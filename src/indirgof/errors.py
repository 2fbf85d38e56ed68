"""Exception types shared across the package."""


class IndirgofError(Exception):
    """Base class for all errors raised by this package."""


class LatticeCapError(IndirgofError):
    """Requested frequency lattice would exceed the configured size cap."""


class InsufficientDataError(IndirgofError):
    """Too few observations for the requested operation."""


class DegenerateFitError(IndirgofError):
    """All residuals vanish, so the scale estimate and the test are undefined."""


class SingularMatrixError(IndirgofError):
    """A tail-information matrix is numerically singular on the scan grid."""


class QuadratureError(IndirgofError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class DataFormatError(IndirgofError):
    """An input file is malformed or violates the documented format."""
