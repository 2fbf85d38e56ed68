"""Martingale-transform goodness-of-fit test for the error distribution.

The residual empirical process is projected onto its martingale part via
the tail-information matrix

    Gamma(t) = integral_t^inf  h(u) h(u)^T f(u) du,

where h is the augmented score of the null law.  With the accumulated
scan function

    G0(t) = integral_-inf^t  h(y)^T Gamma(y)^{-1} f(y) dy       (3-vector)

the transformed process of standardized residuals z_1..z_n is

    xi(t) = sqrt(n) * { Fhat(t) - (1/n) sum_j G0(min(t, z_j)) . h(z_j) },

evaluated for t up to the 99% residual order statistic t0, where Gamma
stays well conditioned.  The statistic sup |xi| / sqrt(Fhat(t0)) is
asymptotically distributed as the supremum of |Brownian motion| on
[0, 1], so its critical values do not depend on the null law.
"""

import functools
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InsufficientDataError, QuadratureError, SingularMatrixError
from .nulls import score_h

#: Number of scan-grid points for the accumulated integral G0.
DEFAULT_SCAN_GRID = 4096

#: Condition-number guard for inverting Gamma on the scan grid.
GAMMA_CONDITION_LIMIT = 1e12

_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Tail information matrix
# ---------------------------------------------------------------------------

def gamma_quadrature(null, t, tol=1e-9):
    """Tail information matrix by adaptive quadrature: the reference.

    The transform uses each null's closed-form ``tail_matrix``; this
    independent quadrature is what those closed forms are checked against.
    It integrates ``h(u) h(u)^T f(u)`` over ``(t, inf)`` to an absolute
    per-entry tolerance ``tol`` and symmetrizes the result by averaging.
    Raises :class:`QuadratureError` when the error estimate exceeds the
    tolerance or the result is not finite.
    """
    from scipy.integrate import quad_vec  # local: no pipeline path loads scipy.integrate

    def integrand(u):
        f = float(null.pdf(u))
        if f < 1e-300:
            return np.zeros((3, 3))
        h = score_h(null, u)
        return np.outer(h, h) * f

    result, err = quad_vec(integrand, float(t), np.inf,
                           epsabs=tol * 1e-2, epsrel=1e-10)
    if not np.all(np.isfinite(result)) or err > tol:
        raise QuadratureError(
            f"tail information quadrature from t={t} for null "
            f"{null.name!r} failed (error estimate {err:.3e})"
        )
    return (result + result.T) * 0.5


# ---------------------------------------------------------------------------
# Scan function and transformed process
# ---------------------------------------------------------------------------

def _solve_spd(gam, b):
    """Solve ``gam x = b`` for a stack of SPD 3x3 matrices by closed-form Cholesky.

    ``gam`` has shape ``(k, 3, 3)`` and ``b`` shape ``(k, 3)``.  The factor
    L (gam = L L^T) and both substitutions are written out over the six
    upper-triangle entries, vectorized over the stack.
    """
    l00 = np.sqrt(gam[:, 0, 0])
    l10 = gam[:, 0, 1] / l00
    l20 = gam[:, 0, 2] / l00
    l11 = np.sqrt(gam[:, 1, 1] - l10 * l10)
    l21 = (gam[:, 1, 2] - l10 * l20) / l11
    l22 = np.sqrt(gam[:, 2, 2] - l20 * l20 - l21 * l21)
    y0 = b[:, 0] / l00
    y1 = (b[:, 1] - l10 * y0) / l11
    y2 = (b[:, 2] - l20 * y0 - l21 * y1) / l22
    x2 = y2 / l22
    x1 = (y1 - l21 * x2) / l11
    x0 = (y0 - l10 * x1 - l20 * x2) / l00
    return np.stack([x0, x1, x2], axis=-1)


def _check_condition(grid, gam):
    """Raise :class:`SingularMatrixError` at the first unusable grid point.

    The end-point bound (see :func:`build_scan`) must clear the limit by a
    factor of two, far more than eigenvalue rounding (about 1e-16 times
    the condition number, relative) can move it.
    """
    ends = np.linalg.eigvalsh(gam[[0, -1]])
    if ends[1, 0] > 0.0 and 2.0 * ends[0, -1] <= GAMMA_CONDITION_LIMIT * ends[1, 0]:
        return
    eigs = np.linalg.eigvalsh(gam)
    bad = (eigs[:, 0] <= 0.0) | (eigs[:, -1] > GAMMA_CONDITION_LIMIT * eigs[:, 0])
    if np.any(bad):
        t_bad = float(grid[int(np.argmax(bad))])
        raise SingularMatrixError(
            f"tail information matrix exceeds condition limit "
            f"{GAMMA_CONDITION_LIMIT:.0e} at t={t_bad:.6g}"
        )


def build_scan(null, t0):
    """G0 by the trapezoid rule on ``DEFAULT_SCAN_GRID`` points up to ``t0``.

    Returns the uniform ``grid`` and ``g0``, one row per point and zero at
    the first.  The grid starts at the 1e-6 quantile of the null law, below
    which the neglected mass contributes nothing at the tolerances of interest.
    Gamma must have condition number at most ``GAMMA_CONDITION_LIMIT``
    (1e12) on the whole grid; it degenerates only as t -> +inf, which the
    choice of t0 excludes.  As a tail integral of the PSD h h^T f, Gamma
    shrinks in the Loewner order, so every grid point s has
    cond Gamma(s) <= lambda_max(Gamma(t_lo)) / lambda_min(Gamma(t0)).
    Only the two end matrices are decomposed unless that bound fails;
    then every point is checked and :class:`SingularMatrixError` names
    the first offending one.  Each point costs one closed-form 3x3
    Cholesky solve.  The trapezoid sum repeats the numpy operations of
    ``scipy.integrate.cumulative_trapezoid`` in order, so it matches it bit
    for bit without importing it.
    """
    t0 = float(t0)
    if not np.isfinite(t0):
        raise ValueError("scan endpoint t0 must be finite")
    t_lo = float(null.quantile(1e-6))
    if not t0 > t_lo:
        raise ValueError(
            f"scan endpoint {t0} must exceed the lower integration point {t_lo}"
        )
    grid = np.linspace(t_lo, t0, DEFAULT_SCAN_GRID)
    gam = null.tail_matrix(grid)
    _check_condition(grid, gam)
    h = score_h(null, grid)
    f = np.asarray(null.pdf(grid), dtype=float)
    g = _solve_spd(gam, h) * f[:, None]
    values = np.cumsum(np.diff(grid)[:, None] * (g[1:] + g[:-1]) / 2.0, axis=0)
    return grid, np.vstack([np.zeros(3), values])


@dataclass(frozen=True)
class ProcessTrace:
    """Transformed process evaluated on jump points and the scan grid.

    Jump points appear twice: once with the left-limit value of the
    process (the compensator is continuous, only the empirical step
    changes) and once with the value at the point.
    """

    eval_points: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    t0: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("transformed process contains non-finite values")
        if len(self.eval_points) and float(np.max(self.eval_points)) > self.t0 + 1e-12:
            raise ValueError("evaluation points must not exceed t0")


def transform_standardized(z, null):
    """Transformed empirical process of pre-standardized residuals.

    ``z`` is the array of standardized residuals (any order); the scan
    endpoint is the ceil(0.99 n)-th order statistic.  The compensator sum
    is evaluated through prefix sums over the sorted residuals, so each
    evaluation point costs O(1) after the O(n log n) sort.
    """
    z = np.sort(np.asarray(z, dtype=float).ravel())
    n = len(z)
    if n < 10:
        raise InsufficientDataError(
            f"the transform needs at least 10 residuals, got {n}"
        )
    t0 = float(z[int(np.ceil(0.99 * n)) - 1])
    grid, g0 = build_scan(null, t0)

    h = score_h(null, z)                                    # (n, 3)
    z_lo = np.minimum(z, t0)
    g_at_z = np.stack([np.interp(z_lo, grid, g0[:, c]) for c in range(3)], axis=-1)
    pref_dot = np.concatenate([[0.0], np.cumsum(np.einsum("ij,ij->i", g_at_z, h))])
    pref_h = np.vstack([np.zeros(3), np.cumsum(h, axis=0)])

    # The grid, then each jump (a residual at or below t0, where G0 is known)
    # twice: its left limit and its value.  Plain ``unique`` keeps the sign
    # of a tied zero, which ``return_index`` may flip.
    jumps = np.unique(z[z <= t0])
    below = np.searchsorted(z, jumps)
    upto = np.searchsorted(z, jumps, side="right")
    counts = np.concatenate([np.searchsorted(z, grid, side="right"), below, upto])
    g_pts = np.concatenate([g0, g_at_z[below], g_at_z[below]])
    suffix = pref_h[-1] - pref_h[counts]
    comp = (pref_dot[counts] + np.einsum("ij,ij->i", g_pts, suffix)) / n
    vals = math.sqrt(n) * (counts / n - comp)
    pts = np.concatenate([grid, jumps, jumps])
    # Stable order: ascending t, left limits before values at the point.
    order = np.lexsort((np.repeat([0, -1, 0], [len(grid), len(jumps), len(jumps)]), pts))
    return ProcessTrace(eval_points=pts[order], values=vals[order], t0=t0)


def transform(regression_fit, null):
    """Transformed empirical process of a fit's standardized residuals."""
    return transform_standardized(regression_fit.z_sorted, null)


def statistic(trace, regression_fit):
    """Supremum statistic ``max |xi| / sqrt(Fhat(t0))``.

    The denominator uses the exact value of the residual ecdf at t0
    (0.995 seen elsewhere is just sqrt(0.99) rounded).
    """
    f_t0 = float(regression_fit.ecdf(trace.t0))
    return float(np.max(np.abs(trace.values)) / math.sqrt(f_t0))


def ks_diagnostic(regression_fit, null):
    """Plain Kolmogorov-Smirnov distance sup |Fhat - F*|.

    Diagnostic only: its null distribution depends on the hypothesized
    law, so no critical values are attached.
    """
    z = regression_fit.z_sorted
    n = len(z)
    cdf = np.asarray(null.cdf(z), dtype=float)
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / n))))


# ---------------------------------------------------------------------------
# Brownian supremum quantiles and the decision
# ---------------------------------------------------------------------------

def _norm_sf(x):
    """Phibar(x) = erfc(x / sqrt 2) / 2 for a scalar x.

    The scalar twin of the Gaussian null's survival function: the quantile
    bisection calls it over a hundred times, where numpy's per-call cost
    would show.
    """
    return 0.5 * math.erfc(x * _SQRT_HALF)


def _log_norm_sf(x):
    """log Phibar(x) for a scalar x, finite where Phibar underflows.

    Where Phibar(x) is a normal double (x up to about 37.5) this is its log.
    Beyond, Phibar(x) = phi(x) / x * (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...),
    the asymptotic Mills-ratio series; at x > 37.5 its terms shrink by a
    factor below 1/700 at first, so a few terms reach 1e-17.
    """
    tail = _norm_sf(x)
    if tail >= sys.float_info.min:
        return math.log(tail)
    inv_x2 = 1.0 / (x * x)
    total, term, k = 1.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) * inv_x2
        total += term
        k += 1
    return -0.5 * x * x - math.log(x) - _LOG_SQRT_2PI + math.log(total)


def brownian_sup_tail(q):
    """P(sup_{0<=s<=1} |B(s)| > q).

    For q >= 1 the reflection series 4 * sum_k (-1)^k Phibar((2k+1) q)
    keeps the upper tail's relative accuracy down to underflow; its sixth
    term is below 1e-18 of the sum.  Below 1 the tail exceeds 0.6 and the
    alternating exponential series, accumulated until a term falls below
    1e-14 in magnitude, converges faster.
    """
    if q <= 0.0:
        return 1.0
    if q >= 1.0:
        return 4.0 * sum((-1) ** k * _norm_sf((2 * k + 1) * q) for k in range(5))
    c = math.pi * math.pi / (8.0 * q * q)
    total = 0.0
    k = 0
    while True:
        term = ((-1.0) ** k / (2 * k + 1)) * math.exp(-c * (2 * k + 1) ** 2)
        total += term
        if abs(term) < 1e-14 or k > 10_000:
            break
        k += 1
    return 1.0 - (4.0 / math.pi) * total


def brownian_sup_log10_tail(q):
    """log10 P(sup_{0<=s<=1} |B(s)| > q), finite where the tail underflows.

    For q >= 1 the reflection series is summed relative to its leading
    term on a log scale,
    log P = log 4 + log Phibar(q) + log1p(sum_{k=1..4} (-1)^k Phibar((2k+1) q) / Phibar(q)),
    so gross departures keep their digits; below 1 the tail exceeds 0.6.
    """
    if q < 1.0:
        return math.log10(brownian_sup_tail(q))
    lead = _log_norm_sf(q)
    rest = sum((-1) ** k * math.exp(_log_norm_sf((2 * k + 1) * q) - lead)
               for k in range(1, 5))
    return (math.log(4.0) + lead + math.log1p(rest)) / math.log(10.0)


@functools.lru_cache
def brownian_sup_quantile(alpha):
    """Upper alpha-quantile of sup |B| on [0, 1], accurate to 1e-6.

    Bisection of the log10 tail on (1e-6, 10], extending the bracket
    upward for the rare alpha below the tail mass at 10; on the log scale
    alpha below the underflow point of the tail keeps its quantile.  The
    result depends on alpha alone, so it is cached per alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    log10_alpha = math.log10(alpha)
    lo, hi = 1e-6, 10.0
    while brownian_sup_log10_tail(hi) > log10_alpha and hi < 1e6:
        hi *= 2.0
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if brownian_sup_log10_tail(mid) > log10_alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TestReport:
    """Outcome of the goodness-of-fit test with its diagnostics."""

    statistic: float
    p_value: float
    log10_p_value: float
    t0: float
    f_hat_t0: float
    alpha: float
    q_alpha: float
    reject: bool
    sigma_hat: float
    chosen_radius: float
    n: int
    null_name: str
    ks_diagnostic: float
    trace: ProcessTrace = field(repr=False)

    def to_dict(self):
        """Every field but ``trace`` in declaration order; ``null_name`` as ``null``."""
        return {"null" if f.name == "null_name" else f.name: getattr(self, f.name)
                for f in fields(self) if f.name != "trace"}


def decide(regression_fit, null, alpha):
    """Run the full test on a fitted regression.

    Builds the scan from the null's closed-form tail information matrices
    on the fixed ``DEFAULT_SCAN_GRID``-point grid, the transformed process
    and the supremum statistic, then compares against the Brownian
    supremum quantile and reports the matching p-value.
    """
    q_alpha = brownian_sup_quantile(alpha)
    trace = transform(regression_fit, null)
    t_stat = statistic(trace, regression_fit)
    return TestReport(
        statistic=t_stat,
        p_value=brownian_sup_tail(t_stat),
        log10_p_value=brownian_sup_log10_tail(t_stat),
        t0=trace.t0,
        f_hat_t0=float(regression_fit.ecdf(trace.t0)),
        alpha=float(alpha),
        q_alpha=q_alpha,
        reject=bool(t_stat > q_alpha),
        sigma_hat=regression_fit.sigma_hat,
        chosen_radius=regression_fit.lattice.radius,
        n=regression_fit.n,
        null_name=null.name,
        ks_diagnostic=ks_diagnostic(regression_fit, null),
        trace=trace,
    )
