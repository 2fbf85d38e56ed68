"""Synthetic data generation and Monte-Carlo level/power studies.

The study's regression surface is fixed: the bivariate trigonometric
series :data:`THETA_COEFFS`, distorted by the product of two truncated,
normalized Laplace densities (:func:`laplace_psi`, mean 1/2 and scale
1/10 per axis).  Data generation uses the analytic Fourier product of
distortion and regression coefficients over the 13-point support of the
regression, so no quadrature sits in the hot path.  Covariates are either
uniform on the unit square or drawn componentwise from the non-trivial
cosine density via inverse-cdf sampling; errors come from the named laws
of :data:`ERROR_LAWS`.
"""

import ctypes
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .bandwidth import select_and_fit
from .errors import IndirgofError
from .estimation import Dataset
from .khmaladze import decide
from .nulls import gaussian_null

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Covariate law
# ---------------------------------------------------------------------------

def g1_density(x):
    """Non-trivial marginal covariate density on [0, 1]."""
    x = np.asarray(x, dtype=float)
    return 1.0 - (SQRT2 / 4.0) * np.cos(TWO_PI * x) - (SQRT2 / 8.0) * np.cos(2.0 * TWO_PI * x)


def g1_cdf(x):
    """Antiderivative of :func:`g1_density` with G(0) = 0, G(1) = 1."""
    x = np.asarray(x, dtype=float)
    return (x
            - (SQRT2 / (8.0 * math.pi)) * np.sin(TWO_PI * x)
            - (SQRT2 / (32.0 * math.pi)) * np.sin(2.0 * TWO_PI * x))


def sample_g1(rng, n):
    """Draw from the non-trivial marginal by inverse-cdf sampling.

    The cdf is strictly increasing (its density is bounded below by
    about 0.47), so a bracketed Newton iteration converges to residual
    1e-12 in a handful of steps.
    """
    u = rng.random(n)
    x = u.copy()
    lo = np.zeros_like(x)
    hi = np.ones_like(x)
    for _ in range(100):
        g = g1_cdf(x) - u
        done = np.abs(g) <= 1e-12
        if np.all(done):
            break
        hi = np.where(g > 0.0, x, hi)
        lo = np.where(g < 0.0, x, lo)
        x = x - g / g1_density(x)
        outside = (x <= lo) | (x >= hi)
        x = np.where(outside, 0.5 * (lo + hi), x)
    return x


# ---------------------------------------------------------------------------
# Error laws
# ---------------------------------------------------------------------------

def _normal(rng, n):
    return 0.5 * rng.standard_normal(n)                   # sd 1/2


def _laplace(rng, n):
    return rng.laplace(0.0, 0.5, n)                       # sd sqrt(2)/2


def _skew_normal(rng, n):
    """Skew-normal (shape 3, scale 1) as delta*|U| + sqrt(1-delta^2)*V, centred."""
    delta = 3.0 / math.sqrt(10.0)                         # alpha / sqrt(1 + alpha^2)
    u = np.abs(rng.standard_normal(n))
    v = rng.standard_normal(n)
    return delta * u + math.sqrt(1.0 - delta * delta) * v - delta * math.sqrt(2.0 / math.pi)


def _student_t(rng, n):
    return rng.standard_t(6.0, n)                         # sd sqrt(6/4)


def _zero(rng, n):
    return np.zeros(n)


#: Error laws of the simulation study by name; ``ERROR_LAWS[name](rng, n)`` draws n errors.
ERROR_LAWS = {"normal": _normal, "laplace": _laplace, "skew-normal": _skew_normal,
              "student-t": _student_t, "zero": _zero}


# ---------------------------------------------------------------------------
# Distortion coefficients and the synthetic model
# ---------------------------------------------------------------------------

#: Per-axis mean and scale of the study's truncated Laplace distortion.
LAPLACE_MEAN, LAPLACE_SCALE = 0.5, 0.1


def laplace_psi(k):
    """Fourier coefficients of the study's product of truncated Laplace densities.

    Per axis, the density is Laplace(LAPLACE_MEAN, LAPLACE_SCALE)
    restricted to [0, 1] and renormalized, so the coefficient at k = 0
    is 1 and the rest decay like |k|^-2 per axis.
    """
    k = np.asarray(k, dtype=np.int64)
    edge = math.exp(-(1.0 - LAPLACE_MEAN) / LAPLACE_SCALE)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    factor = (sign - edge) / ((1.0 + (TWO_PI * LAPLACE_SCALE) ** 2 * k.astype(float) ** 2)
                              * (1.0 - edge))
    return np.prod(factor, axis=-1)


#: Fourier coefficients of the simulation-study regression function: a
#: constant plus six cosine terms, all real and even in k.
THETA_COEFFS = {
    (0, 0): 5.0,
    (1, 0): 0.5, (-1, 0): 0.5,
    (0, 1): 0.75, (0, -1): 0.75,
    (2, 0): 0.75, (-2, 0): 0.75,
    (0, 2): -1.0, (0, -2): -1.0,
    (1, 1): -1.0, (-1, -1): -1.0,
    (1, -1): -0.25, (-1, 1): -0.25,
}
# The 13 frequencies of THETA_COEFFS in sorted order, and their coefficients.
_SUPPORT = np.array(sorted(THETA_COEFFS), dtype=np.int64)
_THETA = np.array([THETA_COEFFS[k] for k in sorted(THETA_COEFFS)], dtype=float)

COVARIATE_LAWS = ("uniform", "nontrivial")


@dataclass(frozen=True)
class SyntheticModel:
    """Distortion, covariate law and error law of a study model.

    The distortion is a module-level function such as :func:`laplace_psi`,
    so the model pickles for the process pool.
    """

    psi_coeffs: object
    covariate_law: str
    error: str

    def __post_init__(self):
        if self.covariate_law not in COVARIATE_LAWS:
            raise ValueError(f"covariate law must be one of {COVARIATE_LAWS}, "
                             f"got {self.covariate_law!r}")
        if self.error not in ERROR_LAWS:
            options = ", ".join(sorted(ERROR_LAWS))
            raise ValueError(f"unknown error law {self.error!r}; options: {options}")


def ktheta_true(model, x):
    """Distorted regression surface at the points ``x``, one value per row."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    phases = TWO_PI * (pts @ _SUPPORT.T.astype(float))
    return np.cos(phases) @ (model.psi_coeffs(_SUPPORT) * _THETA)


def paper_model(error="normal", design="uniform"):
    """Simulation-study model with the named error law and design."""
    return SyntheticModel(psi_coeffs=laplace_psi, covariate_law=design, error=error)


def generate(model, n, rng):
    """Draw a dataset of size ``n`` from the synthetic model."""
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    if model.covariate_law == "uniform":
        x = rng.random((n, _SUPPORT.shape[1]))
    else:
        x = np.column_stack([sample_g1(rng, n) for _ in range(_SUPPORT.shape[1])])
    y = ktheta_true(model, x) + ERROR_LAWS[model.error](rng, n)
    return Dataset(x=x, y=y)


# ---------------------------------------------------------------------------
# Monte-Carlo study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerRow:
    """One (scenario, sample size) cell of the study."""

    error: str
    design: str
    n: int
    reps: int
    rejections: int
    failures: int
    rate: float
    seed: int


@dataclass(frozen=True)
class PowerTable:
    """Rejection rates of the Monte-Carlo study."""

    rows: tuple
    alpha: float

    def to_dict(self):
        """Strict-JSON form: a cell with no successful repetition has rate ``None``."""
        rows = [{**asdict(r), "rate": None if math.isnan(r.rate) else r.rate}
                for r in self.rows]
        return {"alpha": self.alpha, "rows": rows}


def run_single_rep(model, n, alpha, seed_key, cv_radii=None):
    """One Monte-Carlo repetition: generate, ``select_and_fit``, then decide.

    ``seed_key`` is the (master seed, cell index, rep index) triple that
    pins the RNG stream of this repetition.
    """
    data = generate(model, n, np.random.default_rng(list(seed_key)))
    _, fitted = select_and_fit(data, cv_radii)
    return bool(decide(fitted, gaussian_null(), alpha).reject)


def _openblas_threads():
    """numpy's OpenBLAS thread-count getter and setter; ``None`` for another BLAS.

    A symbol lookup on numpy's linear-algebra extension also searches the
    libraries it links: the bundled scipy-openblas or a system OpenBLAS.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
        getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


_POOL_CHUNK = 4  # repetitions that one pool task runs in a row


def _rep_task(args):
    model, n, alpha, seed_key, cv_radii = args
    try:
        return run_single_rep(model, n, alpha, seed_key, cv_radii), None
    except IndirgofError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def power_study(scenarios, n_list, reps, alpha=0.05, seed=0, *,
                cv_radii=None, workers=1):
    """Monte-Carlo rejection rates of the Gaussian-null test.

    Parameters
    ----------
    scenarios : sequence of SyntheticModel
    n_list : sequence of int
    reps : int
        Repetitions per (scenario, n) cell.
    alpha : float
    seed : int
        Master seed; repetition r of cell c uses the stream
        ``(seed, c, r)`` regardless of scheduling, so results are
        reproducible for any worker count.
    cv_radii : sequence, optional
        Override for the candidate radius grid (default: size-based).
    workers : int
        Most processes for parallel repetitions; 1 runs them serially.  No
        more start than CPUs or chunks of ``_POOL_CHUNK`` repetitions, and
        the repetitions run serially when that leaves one.  The
        pool's workers inherit one OpenBLAS thread through fork: it is set
        here while the pool runs, and the caller's count is restored after.

    Returns
    -------
    PowerTable
        One row per cell.  Failed repetitions (degenerate fits, singular
        information matrices) are counted in the ``failures`` column and
        excluded from the rate denominator, never silently dropped.
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cells = [(model, n) for model in scenarios for n in n_list]
    if not cells:
        raise ValueError("a study needs at least one scenario and one sample size")
    tasks = [
        (model, n, alpha, (seed, ci, r), cv_radii)
        for ci, (model, n) in enumerate(cells)
        for r in range(reps)
    ]
    # a fork pool starts all its processes at once: start no idle one, and a
    # pool of one only costs its start over the serial loop
    workers = min(workers, -(-len(tasks) // _POOL_CHUNK), os.cpu_count() or 1)
    if workers > 1:
        # Workers busy with whole repetitions inherit one BLAS thread through
        # fork; more would only oversubscribe the cores.
        get_threads, set_threads = _openblas_threads() or (lambda: None, lambda count: None)
        threads = get_threads()
        set_threads(1)
        try:
            from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

            with ProcessPoolExecutor(max_workers=workers) as pool:
                raw = list(pool.map(_rep_task, tasks, chunksize=_POOL_CHUNK))
        finally:
            set_threads(threads)
    else:
        raw = [_rep_task(t) for t in tasks]
    rows = []
    for ci, (model, n) in enumerate(cells):
        # both the pool and the serial list keep the task order
        outcomes = raw[ci * reps:(ci + 1) * reps]
        rej = sum(rejected for rejected, error in outcomes if error is None)
        fails = sum(error is not None for _, error in outcomes)
        ok = reps - fails
        rows.append(PowerRow(
            error=model.error,
            design=model.covariate_law,
            n=n,
            reps=reps,
            rejections=rej,
            failures=fails,
            rate=rej / ok if ok else float("nan"),
            seed=seed,
        ))
    return PowerTable(rows=tuple(rows), alpha=float(alpha))
