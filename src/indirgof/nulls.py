"""Standardized null error laws of the martingale transform and their scores.

A :class:`NullModel` bundles the cdf, pdf, location score and quantile of
a candidate standardized error distribution (mean zero, variance one by
convention).  With the location score psi = -f'/f in closed form, the
augmented score

    h(t) = (1, psi(t), t psi(t) - 1)

collects the constant, location and scale score directions used by the
martingale transform.  It never divides by the density, so it stays
finite far beyond the point where the density underflows.  Finite Fisher
information for location and scale is a documented precondition;
:func:`check_fisher_information` probes it by quadrature and warns, but
nothing in the test calls it.

The built-in nulls are the Gaussian and the unit-variance Student t.  The
Gaussian law is built from the standard library (``math.erfc`` and
``statistics.NormalDist``), so a Gaussian run imports nothing from scipy;
the Student t functions import ``scipy.special`` when first called.  Both
have smooth scores, so the tail information matrix of the transform stays
invertible at every finite point, and both give that matrix in closed
form.  A law whose location score is piecewise
constant, such as the Laplace, makes that matrix singular beyond its kink
and is not offered as a null; the Laplace remains an error law of the
simulation study (see :data:`indirgof.simulation.ERROR_LAWS`).
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from statistics import NormalDist
from typing import Callable

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class NullModel:
    """Standardized null error law with the pieces the transform needs.

    ``location_score`` is psi = -f'/f in closed form.  ``tail_matrix``
    evaluates the tail information matrix on an array of points in closed
    form, with shape ``t.shape + (3, 3)``.
    """

    name: str
    cdf: Callable = field(repr=False)
    pdf: Callable = field(repr=False)
    location_score: Callable = field(repr=False)
    quantile: Callable = field(repr=False)
    tail_matrix: Callable = field(repr=False)


def _norm_pdf(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * t * t) / _SQRT_2PI


def _norm_score(t):
    return np.asarray(t, dtype=float)


def _elementwise(func, x):
    """``func`` of every element of ``x``: a float for a scalar, else an array of its shape."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(func, x.ravel().tolist()), float, x.size).reshape(x.shape)[()]


def _norm_sf(t):
    """Upper tail 1 - Phi(t) as erfc(t / sqrt 2) / 2, accurate far into both tails."""
    return 0.5 * _elementwise(math.erfc, _SQRT_HALF * np.asarray(t, dtype=float))


def _norm_cdf(t):
    return _norm_sf(-np.asarray(t, dtype=float))


def _norm_quantile_at(p):
    if 0.0 < p < 1.0:
        return _STANDARD_NORMAL.inv_cdf(p)
    if p == 0.0:
        return -math.inf
    return math.inf if p == 1.0 else math.nan


def _norm_quantile(p):
    """Inverse of :func:`_norm_cdf`: -inf at 0, +inf at 1, NaN for NaN or p outside [0, 1]."""
    return _elementwise(_norm_quantile_at, p)


def _symmetric(g00, g01, g02, g11, g12, g22):
    """Symmetric 3x3 matrices, shape ``g00.shape + (3, 3)``, from their upper triangles."""
    out = np.empty(np.shape(g00) + (3, 3))
    out[..., 0, 0], out[..., 1, 1], out[..., 2, 2] = g00, g11, g22
    out[..., 0, 1] = out[..., 1, 0] = g01
    out[..., 0, 2] = out[..., 2, 0] = g02
    out[..., 1, 2] = out[..., 2, 1] = g12
    return out


def gamma_closed_form_gaussian(t):
    """Closed-form tail information matrix of the standard normal null.

    Vectorized: scalar ``t`` yields a (3, 3) matrix, an array of shape
    ``s`` yields ``s + (3, 3)``.  The survival function is evaluated
    through erfc for tail stability.
    """
    t = np.asarray(t, dtype=float)
    phi = _norm_pdf(t)
    sf = _norm_sf(t)
    tp = (t * t + 1.0) * phi
    return _symmetric(sf, phi, t * phi, sf + t * phi, tp, 2.0 * sf + t * tp)


def gaussian_null():
    """Standard normal null model.

    The cdf is ``math.erfc`` and the quantile ``statistics.NormalDist``'s
    ``inv_cdf``, each applied element by element; they invert each other
    well below the 1e-10 contract checked in the tests.
    """
    return NullModel(
        name="gaussian",
        cdf=_norm_cdf,
        pdf=_norm_pdf,
        location_score=_norm_score,
        quantile=_norm_quantile,
        tail_matrix=gamma_closed_form_gaussian,
    )


def _t_scale(df):
    return math.sqrt(df / (df - 2.0))


def _t_log_norm(df):
    from scipy.special import gammaln  # local: a Gaussian run loads no scipy module

    return gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0) - 0.5 * math.log(df * math.pi)


def _t_pdf_raw(df, x):
    x = np.asarray(x, dtype=float)
    return np.exp(_t_log_norm(df) - 0.5 * (df + 1.0) * np.log1p(x * x / df))


def _t_cdf(df, scale, t):
    from scipy.special import stdtr

    return stdtr(df, scale * np.asarray(t, dtype=float))


def _t_pdf(df, scale, t):
    return scale * _t_pdf_raw(df, scale * np.asarray(t, dtype=float))


def _t_score(df, scale, t):
    x = scale * np.asarray(t, dtype=float)
    return scale * (df + 1.0) * x / (df + x * x)


def _t_quantile(df, scale, p):
    from scipy.special import stdtrit

    return stdtrit(df, np.asarray(p, dtype=float)) / scale


def _t_tail_matrix(df, scale, t):
    """Closed-form tail information matrix of the unit-variance Student t.

    With x = scale * t, w = 1 + x^2/df and f the raw t_df density at x,
    integration by parts against psi f = -f' leaves only Student t tails
    with df and df + 2 degrees of freedom, and no two terms cancel:

        e2 = (df + 3)/df * integral_x^inf u^2 f(u) / w(u)^2 du
           = c_df / c_(df+2) * sqrt(df/(df+2)) * Tbar_(df+2)(x sqrt((df+2)/df))
             + x f / w,

    where c_d is the t_d normalising constant.  The entries tend to
    :func:`gamma_closed_form_gaussian` as df -> inf.
    """
    from scipy.special import stdtr

    x = scale * np.asarray(t, dtype=float)
    w = 1.0 + x * x / df
    f = _t_pdf_raw(df, x)
    ratio = math.exp(_t_log_norm(df) - _t_log_norm(df + 2.0)) * math.sqrt(df / (df + 2.0))
    e2 = ratio * stdtr(df + 2.0, -x * math.sqrt((df + 2.0) / df)) + x * f / w
    return _symmetric(
        stdtr(df, -x), scale * f, x * f,
        scale * scale * (df + 1.0) ** 2 / (df * (df + 3.0)) * e2,
        scale * f * (df - 1.0 + (df + 3.0) * x * x) / ((df + 3.0) * w),
        x * f * (x * x - 1.0) / w + 2.0 * (df + 1.0) / (df + 3.0) * e2,
    )


def student_t_null(df=6.0):
    """Unit-variance Student t null model (df > 2).

    The raw t variate is divided by sqrt(df / (df - 2)), so the law has
    variance one; all score functions are smooth and the tail
    information matrix, given in closed form, stays invertible at every
    finite point.
    """
    if not df > 2.0:
        raise ValueError(f"degrees of freedom must exceed 2, got {df}")
    scale = _t_scale(df)
    return NullModel(
        name=f"student-t({df:g})",
        cdf=partial(_t_cdf, df, scale),
        pdf=partial(_t_pdf, df, scale),
        location_score=partial(_t_score, df, scale),
        quantile=partial(_t_quantile, df, scale),
        tail_matrix=partial(_t_tail_matrix, df, scale),
    )


_NULL_BUILDERS = {
    "gaussian": gaussian_null,
    "student-t": student_t_null,
}


def get_null(name):
    """Look up a built-in null model by name."""
    try:
        return _NULL_BUILDERS[name]()
    except KeyError:
        options = ", ".join(sorted(_NULL_BUILDERS))
        raise ValueError(f"unknown null model {name!r}; options: {options}") from None


def score_h(null, t):
    """Augmented score vector(s) at ``t``.

    Returns shape ``t.shape + (3,)`` (a plain 3-vector for scalar input).
    For the Gaussian null this reduces to ``(1, t, t**2 - 1)``.
    """
    t = np.asarray(t, dtype=float)
    psi = np.asarray(null.location_score(t), dtype=float)
    return np.stack([np.ones_like(t), psi, t * psi - 1.0], axis=-1)


def check_fisher_information(null):
    """Diagnostic quadrature of the location-scale Fisher integral.

    Returns the value of ``integral (1 + t^2) psi^2 f dt`` and emits a
    warning when the quadrature fails to converge or the value is not
    finite.  Never raises: finiteness is a precondition of the theory,
    not something this package enforces.
    """
    from scipy.integrate import quad  # local: no pipeline path loads scipy.integrate

    def integrand(t):
        f = null.pdf(t)
        if f <= 0.0:
            return 0.0
        return (1.0 + t * t) * null.location_score(t) ** 2 * f

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, abserr = quad(integrand, -np.inf, np.inf, limit=200)
    if caught or not np.isfinite(value) or abserr > max(1e-6, 1e-6 * abs(value)):
        warnings.warn(
            f"Fisher-information quadrature for null {null.name!r} is unreliable "
            f"(value={value}, abserr={abserr}); the finite-information "
            "precondition may fail",
            stacklevel=2,
        )
    return float(value)
