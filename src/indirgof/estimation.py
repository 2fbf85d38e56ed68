"""Covariate density and regression estimation by truncated Fourier series.

Both estimates are series in the real basis Z(x) of the lattice
(:meth:`FreqLattice.basis`), whose products give the Dirichlet kernel,
W(x - x') = 1 + Z(x).Z(x').  The covariate density estimate

    g_hat(x) = 1 + Z(x).mean_j Z(x_j)

is held at or above a configurable floor because the Dirichlet kernel
oscillates and the raw estimate can dip to zero or below in small samples.
With u_j = y_j / g_hat(x_j), the distorted regression surface is

    fitted(x) = mean_j u_j + Z(x).mean_j u_j Z(x_j) = mean_j u_j W(x - x_j).

Because the series contains the constant term, the residuals sum to zero
exactly (up to accumulated rounding) provided the floor never activates;
the property is structural and no recentring is applied.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFitError
from .spectral import FreqLattice

#: Default lower clamp for the covariate density estimate.
DEFAULT_DENSITY_FLOOR = 0.05


def check_density_floor(floor):
    """Refuse a floor outside (0, 1): the raw estimate integrates to 1, so a
    clamp at 1 or above lifts it to at least its mean everywhere."""
    if not 0.0 < floor < 1.0:
        raise ValueError(f"density floor must be positive and below 1, got {floor}")


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


@dataclass(frozen=True)
class DensityEstimate:
    """Fourier-series covariate density estimate with a lower clamp.

    ``coeffs`` is the sample mean of the lattice basis over the covariates
    and the estimate is ``1 + basis(x) @ coeffs``; the constant term is
    exactly 1, so the raw estimate integrates to one over the unit cube.
    Evaluation clamps below at ``floor``.
    """

    lattice: FreqLattice
    coeffs: np.ndarray = field(repr=False)
    floor: float

    def __post_init__(self):
        check_density_floor(self.floor)

    def evaluate(self, x):
        """Density at the points ``x``, at least ``floor``; one value per row."""
        return self._at(self.lattice.basis(x))

    def _at(self, z):
        """Density, at least ``floor``, at the points whose basis rows are ``z``."""
        return np.maximum(1.0 + z @ self.coeffs, self.floor)


def estimate_density(data, lattice, floor=DEFAULT_DENSITY_FLOOR):
    """Estimate the covariate density by Fourier smoothing.

    Parameters
    ----------
    data : Dataset
    lattice : FreqLattice
    floor : float
        Lower clamp in (0, 1) applied on evaluation.

    Returns
    -------
    DensityEstimate
    """
    return DensityEstimate(lattice, lattice.basis(data.x).mean(axis=0), float(floor))


def _series_coeffs(z, ratios):
    """Coefficients ``(mean(u), mean(u_j Z_j))`` of the regression series."""
    return np.concatenate(([np.mean(ratios)], ratios @ z / len(ratios)))


def estimate_coeffs(data, density, lattice):
    """Estimate the real Fourier coefficients of the distorted regression.

    Returns ``c`` of length N with ``c[0] = (1/n) sum_j u_j`` and
    ``c[1:] = (1/n) sum_j u_j basis(x_j)``, where ``u_j = y_j / g_hat(x_j)``
    uses the density with its floor, so no term divides by a value at or
    below zero.  In complex form the coefficient of the i-th stored index k
    has real part ``c[2i + 1] / sqrt(2)`` and imaginary part
    ``-c[2i + 2] / sqrt(2)``; that of -k is its conjugate.
    """
    return _series_coeffs(lattice.basis(data.x), data.y / density.evaluate(data.x))


@dataclass(frozen=True)
class RegressionFit:
    """Fitted regression surface, residuals and their empirical law.

    The surface is ``coeffs[0] + basis(x) @ coeffs[1:]`` with the
    coefficients of :func:`estimate_coeffs`.  ``sigma_hat`` is the root
    mean square of the residuals and ``z`` the standardized residuals in
    data order; ``z_sorted`` backs the right-continuous empirical
    distribution function.
    """

    lattice: FreqLattice
    coeffs: np.ndarray = field(repr=False)
    density: DensityEstimate
    residuals: np.ndarray = field(repr=False)
    sigma_hat: float
    z: np.ndarray = field(repr=False)
    z_sorted: np.ndarray = field(repr=False)

    @property
    def n(self):
        return len(self.residuals)

    def predict(self, x):
        """Fitted surface at the points ``x``, one value per row."""
        return self.coeffs[0] + self.lattice.basis(x) @ self.coeffs[1:]

    def ecdf(self, t):
        """Empirical distribution of the standardized residuals at ``t``."""
        t = np.asarray(t, dtype=float)
        counts = np.searchsorted(self.z_sorted, t, side="right")
        return counts / self.n


def response_exponent(y):
    """Binary exponent e of max|y| (0 when y is all zero).

    ``ldexp(y, -e)`` peaks in [0.5, 1).  Scaling by a power of two commutes
    exactly with sums, products, quotients and the root of a mean square, so
    working on it and scaling back gives the unscaled results bit for bit
    wherever those are in double range.
    """
    return int(np.frexp(np.max(np.abs(y)))[1])


def fit(data, lattice, floor=DEFAULT_DENSITY_FLOOR):
    """Fit the Fourier-series regression and standardize its residuals.

    Fitted values at the data points come from the coefficient series,
    O(nN) for N lattice indices, computed on the responses scaled by
    :func:`response_exponent`.  Raises :class:`DegenerateFitError` when the
    residual scale vanishes relative to max|y|, since the error-distribution
    test is undefined for an interpolating fit.
    """
    e = response_exponent(data.y)
    y = np.ldexp(data.y, -e)
    basis = lattice.basis(data.x)
    density = DensityEstimate(lattice, basis.mean(axis=0), float(floor))
    coeffs = _series_coeffs(basis, y / density._at(basis))
    residuals = y - (coeffs[0] + basis @ coeffs[1:])
    sigma = float(np.sqrt(np.mean(residuals**2)))
    if sigma <= 1e-13 * np.max(np.abs(y)):
        raise DegenerateFitError(
            f"residual scale {np.ldexp(sigma, e):.3e} is numerically zero; "
            "the fit interpolates the data and the test is undefined"
        )
    z = residuals / sigma
    return RegressionFit(
        lattice=lattice,
        coeffs=np.ldexp(coeffs, e),
        density=density,
        residuals=np.ldexp(residuals, e),
        sigma_hat=float(np.ldexp(sigma, e)),
        z=z,
        z_sorted=np.sort(z),
    )
