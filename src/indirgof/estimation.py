"""Covariate density and regression estimation by truncated Fourier series.

The distorted regression surface is estimated by the truncated Fourier
series with the coefficients ``rhat`` of every lattice index,

    fitted(x) = sum_{|k| <= radius}  rhat_k * exp(i 2 pi k.x)
              = (1/n) * sum_j  [y_j / g_hat(x_j)] * W(x - x_j),

where W is the Dirichlet kernel of the lattice.  The covariate density
g_hat is itself a Fourier smoother built from the empirical characteristic
coefficients, clamped below at a configurable floor because the Dirichlet
kernel oscillates and the raw estimate can dip to zero or below in small
samples.

Because the lattice contains the zero frequency, the residuals sum to zero
exactly (up to accumulated rounding) provided the floor never activates;
the property is structural and no recentring is applied.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFitError
from .spectral import FreqLattice

#: Default lower clamp for the covariate density estimate.
DEFAULT_DENSITY_FLOOR = 0.05

TWO_PI = 2.0 * np.pi


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


def _upper_trig(lattice, x, density=None):
    """cos and sin of ``2 pi k.x`` over the upper half of the lattice.

    Reuses the pair that ``density`` was estimated from when it belongs
    to the same lattice and the same array of points, so one fit forms
    its phase matrix once.
    """
    if density is not None:
        own_lattice, own_x, trig = density._sample
        if own_lattice is lattice and own_x is x:
            return trig
    ph = lattice.phases(x)[:, lattice.zero_position + 1:]
    return np.cos(ph), np.sin(ph)


def _mirrored_coeffs(trig, values, zero_value):
    """Mean of ``values * exp(-i 2 pi k.x)`` for every lattice index.

    Computes only the upper (lexicographically positive) half of the
    lattice from its cos/sin pair and mirrors the conjugates, so the
    conjugate symmetry ``coeff(-k) == conj(coeff(k))`` holds exactly and
    the zero-frequency coefficient is the supplied exact value.
    """
    cos_up, sin_up = trig
    mid = cos_up.shape[1]
    re = values @ cos_up / len(values)
    im = -(values @ sin_up) / len(values)
    coeffs = np.empty(2 * mid + 1, dtype=complex)
    upper = re + 1j * im
    coeffs[mid + 1:] = upper
    coeffs[mid] = zero_value
    coeffs[:mid] = np.conj(upper)[::-1]
    return coeffs


def _eval_series(trig, coeffs):
    """Real part of ``sum_k coeffs_k * exp(i 2 pi k.x)`` at the points of ``trig``.

    For conjugate-symmetric ``coeffs`` this is the zero-frequency term plus
    twice the real part of the upper half.
    """
    cos_up, sin_up = trig
    mid = cos_up.shape[1]
    upper = coeffs[mid + 1:]
    return coeffs[mid].real + 2.0 * (cos_up @ upper.real - sin_up @ upper.imag)


@dataclass(frozen=True)
class DensityEstimate:
    """Fourier-series covariate density estimate with a lower clamp.

    ``coeffs[k]`` holds the empirical characteristic coefficient
    ``(1/n) sum_j exp(-i 2 pi k . x_j)``; the zero-frequency coefficient
    is exactly 1, so the raw estimate integrates to one over the unit
    cube.  Evaluation clamps below at ``floor`` unless asked not to.
    """

    lattice: FreqLattice
    coeffs: np.ndarray = field(repr=False)
    floor: float
    # (lattice, x, cos/sin pair) of the sample the estimate was built from;
    # evaluating at that very array reuses the pair
    _sample: tuple = field(default=(None, None, None), repr=False, compare=False)

    def evaluate(self, x, clamped=True):
        """Density value(s) at ``x``; shape follows the input points."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        vals = _eval_series(_upper_trig(self.lattice, np.atleast_2d(x), self), self.coeffs)
        if clamped:
            vals = np.maximum(vals, self.floor)
        return float(vals[0]) if single else vals


def estimate_density(data, lattice, floor=DEFAULT_DENSITY_FLOOR):
    """Estimate the covariate density by Fourier smoothing.

    Parameters
    ----------
    data : Dataset
    lattice : FreqLattice
    floor : float
        Positive lower clamp applied on evaluation.

    Returns
    -------
    DensityEstimate
    """
    if not floor > 0:
        raise ValueError(f"density floor must be positive, got {floor}")
    trig = _upper_trig(lattice, data.x)
    coeffs = _mirrored_coeffs(trig, np.ones(data.n), 1.0 + 0.0j)
    return DensityEstimate(lattice=lattice, coeffs=coeffs, floor=float(floor),
                           _sample=(lattice, data.x, trig))


def estimate_coeffs(data, density, lattice):
    """Estimate the Fourier coefficients of the distorted regression.

    Returns the complex array ``rhat`` with
    ``rhat[k] = (1/n) sum_j [y_j / g_hat(x_j)] exp(-i 2 pi k . x_j)``
    for every lattice index, where the density is evaluated with its
    clamp so no term divides by a value at or below zero.  Conjugate
    symmetry ``rhat(-k) == conj(rhat(k))`` holds exactly.
    """
    ratios = data.y / density.evaluate(data.x)
    trig = _upper_trig(lattice, data.x, density)
    return _mirrored_coeffs(trig, ratios, np.mean(ratios) + 0.0j)


@dataclass(frozen=True)
class RegressionFit:
    """Fitted regression surface, residuals and their empirical law.

    ``sigma_hat`` is the root mean square of the residuals and ``z`` the
    standardized residuals in data order; ``z_sorted`` backs the
    right-continuous empirical distribution function.
    """

    lattice: FreqLattice
    rhat: np.ndarray = field(repr=False)
    density: DensityEstimate
    residuals: np.ndarray = field(repr=False)
    sigma_hat: float
    z: np.ndarray = field(repr=False)
    z_sorted: np.ndarray = field(repr=False)

    @property
    def n(self):
        return len(self.residuals)

    def predict(self, x):
        """Fitted surface at arbitrary points via the coefficient form."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        vals = _eval_series(_upper_trig(self.lattice, np.atleast_2d(x)), self.rhat)
        return float(vals[0]) if single else vals

    def ecdf(self, t):
        """Empirical distribution of the standardized residuals at ``t``."""
        t = np.asarray(t, dtype=float)
        counts = np.searchsorted(self.z_sorted, t, side="right")
        return counts / self.n


def fit(data, lattice, floor=DEFAULT_DENSITY_FLOOR):
    """Fit the Fourier-series regression and standardize its residuals.

    Fitted values at the data points come from the coefficient series,
    O(nN) for N lattice indices.  Raises :class:`DegenerateFitError` when
    the residual scale vanishes relative to the response size, since the
    error-distribution test is undefined for an interpolating fit.
    """
    density = estimate_density(data, lattice, floor)
    rhat = estimate_coeffs(data, density, lattice)
    residuals = data.y - _eval_series(_upper_trig(lattice, data.x, density), rhat)
    sigma_hat = float(np.sqrt(np.mean(residuals**2)))
    if sigma_hat <= 1e-13 * (1.0 + float(np.mean(np.abs(data.y)))):
        raise DegenerateFitError(
            f"residual scale {sigma_hat:.3e} is numerically zero; "
            "the fit interpolates the data and the test is undefined"
        )
    z = residuals / sigma_hat
    return RegressionFit(
        lattice=lattice,
        rhat=rhat,
        density=density,
        residuals=residuals,
        sigma_hat=sigma_hat,
        z=z,
        z_sorted=np.sort(z),
    )
