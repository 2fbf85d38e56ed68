"""Covariate density and regression estimation by truncated Fourier series.

Both estimates are series in the real basis Z(x) of the lattice
(:meth:`FreqLattice.basis`), whose products give the Dirichlet kernel,
W(x - x') = 1 + Z(x).Z(x').  :func:`fit` builds Z once at the sample points
and runs two steps on it.  :func:`estimate_density` gives the covariate
density estimate at those points,

    g_hat(x_i) = 1 + Z(x_i).mean_j Z(x_j),

clamped below at the constant :data:`DENSITY_FLOOR` because the Dirichlet
kernel oscillates and the raw estimate can dip to zero or below in small
samples.  With u_j = y_j / g_hat(x_j), :func:`estimate_coeffs` gives the
coefficients of the distorted regression surface

    fitted(x) = mean_j u_j + Z(x).mean_j u_j Z(x_j) = mean_j u_j W(x - x_j).

Because the series contains the constant term, the residuals sum to zero
exactly (up to accumulated rounding) provided the clamp never activates;
the property is structural and no recentring is applied.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFitError
from .spectral import FreqLattice

#: Lower clamp for the covariate density estimate.
DENSITY_FLOOR = 0.05


@dataclass(frozen=True)
class Dataset:
    """Covariate points in the unit cube paired with scalar responses.

    ``x`` has shape (n, m) with every coordinate in [0, 1]; ``y`` has
    shape (n,).  All values must be finite.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2:
            raise ValueError("covariates must form an (n, m) array")
        if len(x) != len(y):
            raise ValueError(f"{len(x)} covariate rows but {len(y)} responses")
        if len(x) < 1:
            raise ValueError("dataset must contain at least one observation")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite values")
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ValueError("covariates must lie in the unit cube [0, 1]^m")

    @property
    def n(self):
        return len(self.y)

    @property
    def m(self):
        return self.x.shape[1]


def estimate_density(basis):
    """Clamped density estimate at the rows of the sample's basis, shape (n, N - 1)."""
    return np.maximum(1.0 + basis @ basis.mean(axis=0), DENSITY_FLOOR)


def estimate_coeffs(basis, y, density):
    """Coefficients ``(mean(u), u @ basis / n)`` of the regression, ``u = y / density``.

    The clamped density keeps every divisor above zero.  In complex form the
    coefficient of the i-th stored index k is ``(c[2i] - 1j c[2i + 1]) / sqrt(2)``
    for ``c`` the second value, and that of -k is its conjugate.
    """
    u = y / density
    return np.mean(u), u @ basis / len(u)


@dataclass(frozen=True)
class RegressionFit:
    """Fitted regression surface and its residuals.

    The surface is ``coeffs[0] + basis(x) @ coeffs[1:]``, the two values of
    :func:`estimate_coeffs` joined.  ``sigma_hat`` is the root
    mean square of the residuals and ``z`` the standardized residuals, both
    arrays in data order; their empirical law belongs to the test
    (:mod:`indirgof.khmaladze`).
    """

    lattice: FreqLattice
    coeffs: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    sigma_hat: float
    z: np.ndarray = field(repr=False)

    @property
    def n(self):
        return len(self.residuals)

    def predict(self, x):
        """Fitted surface at the points ``x``, one value per row."""
        return self.coeffs[0] + self.lattice.basis(x) @ self.coeffs[1:]


def response_exponent(y):
    """Binary exponent e of max|y| (0 when y is all zero).

    ``ldexp(y, -e)`` peaks in [0.5, 1).  Scaling by a power of two commutes
    exactly with sums, products, quotients and the root of a mean square, so
    working on it and scaling back gives the unscaled results bit for bit
    wherever those are in double range.
    """
    return int(np.frexp(np.max(np.abs(y)))[1])


def fit(data, lattice, basis=None):
    """Fit the Fourier-series regression and standardize its residuals.

    Fitted values at the data points come from the coefficient series,
    O(nN) for N lattice indices, computed on the responses scaled by
    :func:`response_exponent`.  ``basis`` is ``lattice.basis(data.x)``,
    formed here unless the caller already holds it.  Raises
    :class:`DegenerateFitError` when the residual scale vanishes relative to
    max|y|, since the error-distribution test is undefined for an
    interpolating fit.
    """
    e = response_exponent(data.y)
    y = np.ldexp(data.y, -e)
    if basis is None:
        basis = lattice.basis(data.x)
    const, coeffs = estimate_coeffs(basis, y, estimate_density(basis))
    residuals = y - (const + basis @ coeffs)
    sigma = float(np.sqrt(np.mean(residuals**2)))
    if sigma <= 1e-13 * np.max(np.abs(y)):
        raise DegenerateFitError(
            f"residual scale {np.ldexp(sigma, e):.3e} is numerically zero; "
            "the fit interpolates the data and the test is undefined"
        )
    return RegressionFit(
        lattice=lattice,
        coeffs=np.ldexp(np.concatenate(([const], coeffs)), e),
        residuals=np.ldexp(residuals, e),
        sigma_hat=float(np.ldexp(sigma, e)),
        z=residuals / sigma,
    )
