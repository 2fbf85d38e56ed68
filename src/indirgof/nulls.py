"""Standardized null error laws of the martingale transform and their scores.

A :class:`NullModel` bundles the cdf, pdf, location score and quantile of
a candidate standardized error distribution (mean zero, variance one by
convention).  With the location score psi = -f'/f in closed form, the
augmented score

    h(t) = (1, psi(t), t psi(t) - 1)

collects the constant, location and scale score directions used by the
martingale transform.  It never divides by the density, so it stays
finite far beyond the point where the density underflows.  Finite Fisher
information for location and scale is a documented precondition, which
:func:`check_fisher_information` probes by quadrature; no run calls it.

The built-in nulls are the Gaussian and the unit-variance Student t, and
neither imports anything from scipy.  The Gaussian law is built from the
standard library (``math.erfc`` and ``statistics.NormalDist``).  The Student
t tail is one continued fraction of the incomplete beta function, evaluated
in numpy, its normalising constant comes from ``math``, and its inverse takes
Halley steps from Hill's closed-form approximation.  Both laws are symmetric,
so one routine turns either tail inverse into the quantile.  Both have smooth
scores, so the tail information matrix of the transform stays invertible at
every finite point, and both give that matrix in closed form.  A law whose
location score is piecewise constant, such as the Laplace, makes that matrix
singular beyond its kink and is not offered as a null; the Laplace remains an
error law of the simulation study (see :data:`indirgof.simulation.ERROR_LAWS`).
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import ConvergenceError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_STANDARD_NORMAL = NormalDist()

#: Relative move of the incomplete-beta continued fraction at which it stops.
_CF_TOL = 1e-15
#: Pairs of terms after which a continued fraction still moving raises.
_CF_MAX_PAIRS = 1000
#: Halley steps after which a Student t quantile still moving raises.
_HALLEY_STEPS = 8


@dataclass(frozen=True)
class NullModel:
    """Standardized null error law with the pieces the transform needs.

    ``location_score`` is psi = -f'/f in closed form.  ``tail_matrix``
    evaluates the tail information matrix on an array of points in closed
    form, with shape ``t.shape + (3, 3)``; its (0, 1) entry is f, by the
    same expression as ``pdf``.  No run calls ``pdf``: only the reference
    quadratures read it.
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


def _norm_isf(tail):
    """t >= 0 with Phibar(t) = ``tail`` in (0, 1/2], from ``NormalDist.inv_cdf``."""
    return -_elementwise(_STANDARD_NORMAL.inv_cdf, tail)


def _symmetric_quantile(isf, p, *args):
    """Quantile of a law symmetric about 0 from its upper-tail inverse ``isf(*args, tail)``.

    With tail = min(p, 1 - p), exact for p >= 1/2, it is copysign(isf(tail), p - 1/2):
    -inf at 0 (and -0.0), +inf at 1, NaN for NaN or p outside [0, 1].  A scalar p
    gives a float, cached per process: every scan starts at the 1e-6 quantile.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        return _symmetric_quantile_at(isf, float(p), *args)
    tail = np.minimum(p, 1.0 - p)
    inside = tail > 0.0
    x = np.where(p == 0.0, -np.inf, np.where(p == 1.0, np.inf, np.nan))
    x[inside] = np.copysign(isf(*args, tail[inside]), p[inside] - 0.5)
    return x


@lru_cache
def _symmetric_quantile_at(isf, p, *args):
    return float(_symmetric_quantile(isf, np.array([p]), *args)[0])


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
    ``inv_cdf`` of min(p, 1 - p), signed by symmetry, each element by element;
    they invert each other well below the 1e-10 contract checked in the tests.
    """
    return NullModel(
        name="gaussian",
        cdf=_norm_cdf,
        pdf=_norm_pdf,
        location_score=_norm_score,
        quantile=partial(_symmetric_quantile, _norm_isf),
        tail_matrix=gamma_closed_form_gaussian,
    )


def _t_scale(df):
    return math.sqrt(df / (df - 2.0))


def _t_log_norm(df):
    """log c_df, where c_df = Gamma((df + 1)/2) / (Gamma(df/2) sqrt(df pi)) is the t density at 0.

    Below df = 100 the ratio of ``math.gamma`` keeps a few ulp.  Beyond, with
    x = df/2, log Gamma(x + 1/2) - log Gamma(x) is the asymptotic series
    log(x)/2 - 1/(8x) + 1/(192x^3) - 1/(640x^5) + 17/(14336x^7), whose next term
    is below 1e-18 there.  A difference of ``math.lgamma`` values would lose an
    ulp of each, 2e-11 relative at df = 1e5.
    """
    x = 0.5 * df
    if df < 100.0:
        log_ratio = math.log(math.gamma(x + 0.5) / math.gamma(x))
    else:
        inv = 1.0 / x
        inv2 = inv * inv
        log_ratio = 0.5 * math.log(x) + inv * (-1.0 / 8.0 + inv2 * (1.0 / 192.0 + inv2 * (
            -1.0 / 640.0 + inv2 * 17.0 / 14336.0)))
    return log_ratio - 0.5 * math.log(df * math.pi)


def _t_pdf_raw(df, x):
    x = np.asarray(x, dtype=float)
    return np.exp(_t_log_norm(df) - 0.5 * (df + 1.0) * np.log1p(x * x / df))


def _beta_cf(pairs, group, z):
    """Continued fraction K of the regularized incomplete beta function.

    I_z(a, b) = z^a (1 - z)^b / (a B(a, b)) * K, where K = 1/(1 + d_1/(1 + d_2/(1 + ...))) with
    d_2m = m (b - m) z / ((a + 2m - 1)(a + 2m)) and
    d_2m+1 = -(a + m)(a + b + m) z / ((a + 2m)(a + 2m + 1)); it converges fastest for
    z < (a + 1)/(a + b + 2).  Element i of the array ``z`` takes (a, b) = pairs[group[i]],
    so each term's coefficient is worked out once per pair.  The modified Lentz method
    iterates only the elements still converging, two pairs of terms between checks: each
    element stops once its last pair moves K by at most ``_CF_TOL`` relative.  NaN z
    gives NaN; an element still moving after ``_CF_MAX_PAIRS`` pairs raises
    :class:`ConvergenceError`, so no unconverged value is returned.
    """
    shape = np.shape(z)
    out = np.full(shape, np.nan).ravel()
    live = np.flatnonzero(~np.isnan(z))
    group, z = np.ravel(group)[live], np.ravel(z)[live]
    d = 1.0 / (1.0 - np.array([(a + b) / (a + 1.0) for a, b in pairs])[group] * z)
    c = np.ones_like(d)
    h = d.copy()
    m = 0
    while live.size:
        if m >= _CF_MAX_PAIRS:
            a, b = pairs[group[0]]
            raise ConvergenceError(
                f"incomplete beta continued fraction did not converge in {_CF_MAX_PAIRS} "
                f"pairs of terms at a={a:.17g}, b={b:.17g}, z={z[0]:.17g}"
            )
        for m in range(m + 1, m + 3):
            for coef in ([m * (b - m) / ((a + 2 * m - 1.0) * (a + 2 * m)) for a, b in pairs],
                         [-(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1.0))
                          for a, b in pairs]):
                num = np.array(coef)[group] * z
                d = 1.0 / (1.0 + num * d)
                c = 1.0 + num / c
                delta = c * d
                h *= delta
        done = np.abs(delta - 1.0) <= _CF_TOL
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, group, z, c, d, h = (v[keep] for v in (live, group, z, c, d, h))
    return out.reshape(shape)


def _t_upper(dfs, which, x):
    """Upper tail Tbar_d(x) = P(T > x) of the raw t law, and x f_d(x), for x >= 0.

    Element i of ``x`` has d = dfs[which[i]] degrees of freedom; ``which`` is 0
    for a single df.  With r = x^2/d, one continued fraction K
    (:func:`_beta_cf`) is taken at z = 1/(1 + r) beyond r (d + 2) = 3 and at
    z = r/(1 + r) within, where each converges fastest:

        Tbar = x f K(d/2, 1/2; z) / d    and    Tbar = 1/2 - x f K(1/2, d/2; z).

    In both, x f = c_d sqrt(d r/(1 + r)) (1 + r)^(-d/2), which keeps its
    digits where f alone underflows, and log(1 + r) is 2 log x - log d once
    r overflows.  x = inf gives 0.
    """
    df = np.asarray(dfs)[which]
    norm = np.exp([_t_log_norm(d) for d in dfs])[which]
    with np.errstate(over="ignore"):
        r = x * x / df
        far = r * (df + 2.0) > 3.0
    log1p_r = np.where(r < np.inf, np.log1p(r), 2.0 * np.log(np.maximum(x, 1.0)) - np.log(df))
    r = np.minimum(r, 1e300)  # keeps the ratios below off inf / inf
    z = np.where(far, 1.0, r) / (1.0 + r)
    xf = norm * np.sqrt(df * r / (1.0 + r)) * np.exp(-0.5 * df * log1p_r)
    pairs = [pair for d in dfs for pair in ((0.5, 0.5 * d), (0.5 * d, 0.5))]
    k = _beta_cf(pairs, 2 * which + far, z)
    return np.where(far, xf * k / df, 0.5 - xf * k), xf


def _t_sf(df, x):
    """Upper tail Tbar_df(x) of the raw t law on an array ``x``; Tbar(-x) = 1 - Tbar(x)."""
    x = np.asarray(x, dtype=float)
    upper, _ = _t_upper((df,), 0, np.abs(x))
    return np.where(x < 0.0, 1.0 - upper, upper)[()]


def _t_hill(df, tail):
    """Hill's closed-form approximation to x with Tbar_df(x) = ``tail`` in (0, 1/2].

    G. W. Hill (1970), "Algorithm 396: Student's t-quantiles", CACM 13(10),
    for the two-sided level P = 2 tail: y = (d P)^(2/df) picks an expansion
    about the normal quantile where y > 0.05 + a, and otherwise a series in y,
    whose leading term sqrt(df / y) is used once y falls below the double
    epsilon.  Its relative error was measured at most 4e-6 for df = 6,
    5e-5 for df = 2.5 and 2e-3 as df nears 2.
    """
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    log_y = 2.0 * (math.log(d) + np.log(2.0 * tail)) / df
    y = np.exp(log_y)
    x = math.sqrt(df) * np.exp(-0.5 * log_y)
    series = (y >= np.finfo(float).eps) & (y <= 0.05 + a)
    ys = y[series]
    ys = ((1.0 / (((df + 6.0) / (df * ys) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
           + 0.5 / (df + 4.0)) * ys - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / ys
    x[series] = np.sqrt(df * ys)
    normal = y > 0.05 + a
    u = -_norm_isf(tail[normal])
    if df < 5.0:
        c = c + 0.3 * (df - 4.5) * (u + 0.6)
    c = (((0.05 * d * u - 5.0) * u - 7.0) * u - 2.0) * u + b + c
    u2 = u * u
    v = (((((0.4 * u2 + 6.3) * u2 + 36.0) * u2 + 94.5) / c - u2 - 3.0) / b + 1.0) * u
    x[normal] = np.sqrt(df * np.expm1(a * v * v))
    return x


def _t_isf(df, tail):
    """x >= 0 with Tbar_df(x) = ``tail`` in (0, 1/2], by Halley steps from :func:`_t_hill`.

    With s = (Tbar(x) - tail) / (x f), the Newton step relative to x (it
    keeps its digits where f underflows), and k = x psi(x) = (df + 1)(1 - q),
    q = 1/(1 + x^2/df), a step takes x to x (1 + s / (1 - s k / 2)).  Its
    relative error is then (k^2/12 + (df + 1)(1 - q)(2q - 1)/6) s^3 to
    leading order, and an element stops once that is below the double
    epsilon: after one step from Hill's start for df = 6.  It also stops once
    a step is no smaller than the one before, as rounding in Tbar then
    dominates (subnormal tails, or df in the billions).
    """
    x = _t_hill(df, tail)
    live = np.flatnonzero(x > 0.0)
    last = np.full(live.size, np.inf)
    for _ in range(_HALLEY_STEPS):
        upper, xf = _t_upper((df,), 0, x[live])
        step = (upper - tail[live]) / xf
        with np.errstate(over="ignore"):
            q = 1.0 / (1.0 + np.square(x[live] / math.sqrt(df)))
        k = (df + 1.0) * (1.0 - q)
        x[live] *= 1.0 + step / (1.0 - 0.5 * step * k)
        step = np.abs(step)
        error = np.abs(k * k / 12.0 + (df + 1.0) * (1.0 - q) * (2.0 * q - 1.0) / 6.0) * step**3
        going = ~((error <= np.finfo(float).eps) | (step >= last))
        live, last = live[going], step[going]
        if not live.size:
            return x
    raise ConvergenceError(
        f"Student t quantile (df={df:g}) did not converge in {_HALLEY_STEPS} Halley "
        f"steps at tail probability {tail[live[0]]:.17g}"
    )


def _t_cdf(df, scale, t):
    return _t_sf(df, -scale * np.asarray(t, dtype=float))


def _t_pdf(df, scale, t):
    return scale * _t_pdf_raw(df, scale * np.asarray(t, dtype=float))


def _t_score(df, scale, t):
    x = scale * np.asarray(t, dtype=float)
    return scale * (df + 1.0) * x / (df + x * x)


def _t_quantile(df, scale, p):
    return _symmetric_quantile(_t_isf, p, df) / scale


def _t_tail_matrix(df, scale, t):
    """Closed-form tail information matrix of the unit-variance Student t.

    With x = scale * t, w = 1 + x^2/df and f the raw t_df density at x,
    integration by parts against psi f = -f' leaves only Student t tails
    with df and df + 2 degrees of freedom, and no two terms cancel:

        e2 = (df + 3)/df * integral_x^inf u^2 f(u) / w(u)^2 du
           = df/(df + 1) * Tbar_(df+2)(y) + x f / w,    y = x sqrt((df+2)/df),

    since c_df/c_(df+2) sqrt(df/(df+2)) = df/(df + 1) for the t_d normalising
    constants c_d.  The two tails differ by a closed-form term,

        Tbar_df(x) = Tbar_(df+2)(y) + x f / df,

    so one continued fraction (:func:`_t_upper`) gives both.  It is taken for
    whichever tail makes both terms of this identity the same sign, so the
    sum cancels nothing: Tbar_(df+2)(y) for x >= 0, and
    Tbar_df(x) = 1 - Tbar_df(|x|) for x < 0, whence
    Tbar_(df+2)(y) = Tbar_df(x) + |x| f / df.  The entries tend to
    :func:`gamma_closed_form_gaussian` as df -> inf.
    """
    x = scale * np.asarray(t, dtype=float)
    w = 1.0 + x * x / df
    f = _t_pdf_raw(df, x)
    gap = x * f / df
    neg = x < 0.0
    upper, _ = _t_upper((df, df + 2.0), (~neg).astype(np.intp),
                        np.where(neg, -x, x * math.sqrt((df + 2.0) / df)))
    sf = np.where(neg, 1.0 - upper, upper + gap)
    e2 = df / (df + 1.0) * np.where(neg, sf - gap, upper) + x * f / w
    return _symmetric(
        sf, scale * f, x * f,
        scale * scale * (df + 1.0) ** 2 / (df * (df + 3.0)) * e2,
        scale * f * (df - 1.0 + (df + 3.0) * x * x) / ((df + 3.0) * w),
        x * f * (x * x - 1.0) / w + 2.0 * (df + 1.0) / (df + 3.0) * e2,
    )


def student_t_null(df=6.0):
    """Unit-variance Student t null model (df > 2).

    The raw t variate is divided by sqrt(df / (df - 2)), so the law has
    variance one; all score functions are smooth and the tail
    information matrix, given in closed form, stays invertible at every
    finite point.  The continued fraction behind the cdf loses about
    df * 1e-16 relative near |t| = 1.5 (7e-12 at df = 1e5), and beyond
    df of about 1e10 a quantile may raise :class:`ConvergenceError`.
    """
    if not df > 2.0:
        raise ValueError(f"degrees of freedom must exceed 2, got {df}")
    scale = _t_scale(df)
    return NullModel(
        name=f"student-t({repr(float(df)).removesuffix('.0')})",
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
    not something this package enforces.  Needs scipy (the ``test`` extra).
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
