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

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad_vec
from scipy.special import log_ndtr, ndtr

from .errors import InsufficientDataError, QuadratureError, SingularMatrixError
from .nulls import score_h
from .nulls import gamma_closed_form_gaussian  # noqa: F401  (re-exported)

#: Number of scan-grid points for the accumulated integral G0.
DEFAULT_SCAN_GRID = 4096

#: Condition-number guard for inverting Gamma on the scan grid.
GAMMA_CONDITION_LIMIT = 1e12


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

@dataclass(frozen=True)
class ScanFunction:
    """Accumulated compensator integrand G0 on a grid, linearly interpolated.

    ``values[0]`` is the zero vector; queries left of the grid clamp to
    zero and queries are never expected right of the grid (the transform
    only evaluates at t <= t0 = grid[-1]).
    """

    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack(
            [np.interp(t, self.grid, self.values[:, c]) for c in range(3)],
            axis=-1,
        )


def build_scan(null, t0, grid_size=DEFAULT_SCAN_GRID):
    """Accumulate G0 by the trapezoid rule on a uniform grid up to ``t0``.

    The grid starts at the 1e-6 quantile of the null law, below which the
    neglected mass contributes nothing at the tolerances of interest.
    Each grid point costs one symmetric 3x3 solve; a condition number
    above 1e12 (expected only as t -> +inf, excluded by the choice of
    t0) raises :class:`SingularMatrixError` naming the offending point.
    A grid needs at least two points to reach ``t0``.
    """
    grid_size = int(grid_size)
    if grid_size < 2:
        raise ValueError(f"scan grid needs at least 2 points, got {grid_size}")
    t0 = float(t0)
    if not np.isfinite(t0):
        raise ValueError("scan endpoint t0 must be finite")
    t_lo = float(null.quantile(1e-6))
    if not t0 > t_lo:
        raise ValueError(
            f"scan endpoint {t0} must exceed the lower integration point {t_lo}"
        )
    grid = np.linspace(t_lo, t0, grid_size)
    gam = null.tail_matrix(grid)
    eigs = np.linalg.eigvalsh(gam)
    bad = (eigs[:, 0] <= 0.0) | (eigs[:, -1] > GAMMA_CONDITION_LIMIT * eigs[:, 0])
    if np.any(bad):
        t_bad = float(grid[int(np.argmax(bad))])
        raise SingularMatrixError(
            f"tail information matrix exceeds condition limit "
            f"{GAMMA_CONDITION_LIMIT:.0e} at t={t_bad:.6g}"
        )
    h = score_h(null, grid)
    f = np.asarray(null.pdf(grid), dtype=float)
    solved = np.linalg.solve(gam, h[..., None])[..., 0]
    values = cumulative_trapezoid(solved * f[:, None], grid, axis=0, initial=0.0)
    return ScanFunction(grid=grid, values=values)


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
    n: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("transformed process contains non-finite values")
        if len(self.eval_points) and float(np.max(self.eval_points)) > self.t0 + 1e-12:
            raise ValueError("evaluation points must not exceed t0")

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,xi\n")
            for t, v in zip(self.eval_points, self.values):
                fh.write(f"{float(t)!r},{float(v)!r}\n")


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
    scan = build_scan(null, t0)

    h = score_h(null, z)                                    # (n, 3)
    g_at_z = scan(np.minimum(z, t0))
    pref_dot = np.concatenate([[0.0], np.cumsum(np.einsum("ij,ij->i", g_at_z, h))])
    pref_h = np.vstack([np.zeros(3), np.cumsum(h, axis=0)])
    total_h = pref_h[-1]
    root_n = math.sqrt(n)

    def evaluate(ts, side):
        idx = np.searchsorted(z, ts, side=side)
        g0 = scan(ts)
        suffix = total_h[None, :] - pref_h[idx]
        comp = (pref_dot[idx] + np.einsum("ij,ij->i", g0, suffix)) / n
        return root_n * (idx / n - comp)

    jumps = np.unique(z[z <= t0])
    pts = np.concatenate([scan.grid, jumps, jumps])
    vals = np.concatenate([
        evaluate(scan.grid, "right"),
        evaluate(jumps, "left"),
        evaluate(jumps, "right"),
    ])
    # Stable order: ascending t, left limits before values at the point.
    is_left = np.concatenate([
        np.zeros(len(scan.grid)), np.zeros(len(jumps)) - 1.0, np.zeros(len(jumps)),
    ])
    order = np.lexsort((is_left, pts))
    return ProcessTrace(eval_points=pts[order], values=vals[order], t0=t0, n=n)


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
        return 4.0 * sum((-1) ** k * float(ndtr(-(2 * k + 1) * q)) for k in range(5))
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
    lead = float(log_ndtr(-q))
    rest = sum((-1) ** k * math.exp(float(log_ndtr(-(2 * k + 1) * q)) - lead)
               for k in range(1, 5))
    return (math.log(4.0) + lead + math.log1p(rest)) / math.log(10.0)


def brownian_sup_quantile(alpha):
    """Upper alpha-quantile of sup |B| on [0, 1], accurate to 1e-6.

    Bisection of the log10 tail on (1e-6, 10], extending the bracket
    upward for the rare alpha below the tail mass at 10; on the log scale
    alpha below the underflow point of the tail keeps its quantile.
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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    trace = transform(regression_fit, null)
    t_stat = statistic(trace, regression_fit)
    q_alpha = brownian_sup_quantile(alpha)
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
