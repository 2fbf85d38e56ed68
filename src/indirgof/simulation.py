"""Synthetic data generation and Monte-Carlo level/power studies.

The built-in synthetic model is a bivariate trigonometric regression
distorted by the product of two truncated, normalized Laplace densities
(mean 1/2, scale 1/10 per axis).  Data generation uses the analytic
Fourier product of distortion and regression coefficients over the
13-point support of the regression, so no quadrature sits in the hot
path.  Covariates are either uniform on the unit square or drawn
componentwise from the non-trivial cosine density via inverse-cdf
sampling.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .bandwidth import cv_select, default_radius_grid
from .errors import IndirgofError
from .estimation import DEFAULT_DENSITY_FLOOR, Dataset, fit
from .khmaladze import decide
from .nulls import ErrorSampler, gaussian_null, get_sampler
from .spectral import enumerate_lattice

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
# Distortion coefficients and the synthetic model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaplaceProductPsi:
    """Fourier coefficients of a product of truncated Laplace densities.

    Per axis, the density is Laplace(mean, scale) restricted to [0, 1]
    and renormalized; the defaults match the simulation-study distortion
    (mean 1/2, scale 1/10), whose coefficients decay like |k|^-2 per
    axis.
    """

    mean: float = 0.5
    scale: float = 0.1

    def __call__(self, k):
        k = np.asarray(k, dtype=np.int64)
        edge = math.exp(-(1.0 - self.mean) / self.scale)
        sign = np.where(k % 2 == 0, 1.0, -1.0)
        factor = (sign - edge) / (
            (1.0 + (TWO_PI * self.scale) ** 2 * k.astype(float) ** 2) * (1.0 - edge)
        )
        return np.prod(factor, axis=-1)


@dataclass(frozen=True)
class IdentityPsi:
    """No distortion: the direct-regression special case."""

    def __call__(self, k):
        k = np.asarray(k, dtype=np.int64)
        return np.ones(k.shape[:-1], dtype=float)


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

COVARIATE_LAWS = ("uniform", "nontrivial")


@dataclass(frozen=True)
class SyntheticModel:
    """Regression coefficients, distortion, covariate law, error law."""

    theta_coeffs: dict
    psi_coeffs: object
    covariate_law: str
    error_sampler: ErrorSampler

    def __post_init__(self):
        if self.covariate_law not in COVARIATE_LAWS:
            raise ValueError(
                f"covariate law must be one of {COVARIATE_LAWS}, "
                f"got {self.covariate_law!r}"
            )
        for k, v in self.theta_coeffs.items():
            neg = tuple(-ki for ki in k)
            if self.theta_coeffs.get(neg) != v:
                raise ValueError(f"regression coefficients must be even in k ({k})")
        ks = np.array(sorted(self.theta_coeffs), dtype=np.int64)
        zero = np.zeros((1, ks.shape[1]), dtype=np.int64)
        if not math.isclose(float(self.psi_coeffs(zero)[0]), 1.0, rel_tol=1e-12):
            raise ValueError("distortion coefficient at k = 0 must be 1")
        amps = self.psi_coeffs(ks) * np.array(
            [self.theta_coeffs[tuple(k)] for k in ks], dtype=float
        )
        object.__setattr__(self, "_support", ks)
        object.__setattr__(self, "_amplitudes", amps)

    @property
    def m(self):
        return self._support.shape[1]


def ktheta_true(model, x):
    """Distorted regression surface via the coefficient product form."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    phases = TWO_PI * (pts @ model._support.T.astype(float))
    vals = np.cos(phases) @ model._amplitudes
    return float(vals[0]) if single else vals


def paper_model(error="normal", design="uniform", psi=None):
    """Simulation-study model with the requested error law and design."""
    sampler = error if isinstance(error, ErrorSampler) else get_sampler(error)
    return SyntheticModel(
        theta_coeffs=THETA_COEFFS,
        psi_coeffs=psi if psi is not None else LaplaceProductPsi(),
        covariate_law=design,
        error_sampler=sampler,
    )


def generate(model, n, rng):
    """Draw a dataset of size ``n`` from the synthetic model."""
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    if model.covariate_law == "uniform":
        x = rng.random((n, model.m))
    else:
        x = np.column_stack([sample_g1(rng, n) for _ in range(model.m)])
    errors = model.error_sampler.sample(rng, n)
    y = ktheta_true(model, x) + errors
    return Dataset(x=x, y=y)


def poisson_count_image(model, size, rng, scale=20.0):
    """Synthetic photon-count image of the distorted surface.

    Pixel (i, j) (1-based) observes a Poisson count with mean
    ``scale * surface((i-0.5)/size, (j-0.5)/size)``, clipped below at a
    tiny positive mean so every pixel has a valid Poisson rate.
    """
    mids = (np.arange(size) + 0.5) / size
    xi, xj = np.meshgrid(mids, mids, indexing="ij")
    pts = np.column_stack([xi.ravel(), xj.ravel()])
    mu = np.maximum(scale * ktheta_true(model, pts), 1e-3)
    return rng.poisson(mu).reshape(size, size)


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

    def to_csv(self, path):
        """One column per :class:`PowerRow` field, in declaration order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(f.name for f in fields(PowerRow)) + "\n")
            for r in self.rows:
                fh.write(",".join(map(str, astuple(r))) + "\n")

    def to_dict(self):
        return {"alpha": self.alpha, "rows": [asdict(r) for r in self.rows]}

    def rate_for(self, error, n):
        for r in self.rows:
            if r.error == error and r.n == n:
                return r.rate
        raise KeyError(f"no row for error={error!r}, n={n}")


def run_single_rep(model, n, alpha, seed_key, cv_radii=None,
                   floor=DEFAULT_DENSITY_FLOOR):
    """One Monte-Carlo repetition: generate, cross-validate, fit, decide.

    ``seed_key`` is the (master seed, cell index, rep index) triple that
    pins the RNG stream of this repetition.
    """
    rng = np.random.default_rng(list(seed_key))
    data = generate(model, n, rng)
    radii = cv_radii if cv_radii is not None else default_radius_grid(n, data.m)
    report = cv_select(data, radii, floor)
    lattice = enumerate_lattice(data.m, report.chosen)
    fitted = fit(data, lattice, floor)
    outcome = decide(fitted, gaussian_null(), alpha)
    return bool(outcome.reject)


def _rep_task(args):
    model, n, alpha, seed_key, cv_radii, floor = args
    try:
        return run_single_rep(model, n, alpha, seed_key, cv_radii, floor), None
    except IndirgofError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def power_study(scenarios, n_list, reps, alpha=0.05, seed=0, *,
                cv_radii=None, floor=DEFAULT_DENSITY_FLOOR, workers=1):
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
        Process count for parallel repetitions.

    Returns
    -------
    PowerTable
        One row per cell.  Failed repetitions (degenerate fits, singular
        information matrices) are counted in the ``failures`` column and
        excluded from the rate denominator, never silently dropped.
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    cells = [(model, n) for model in scenarios for n in n_list]
    tasks = [
        (model, n, alpha, (seed, ci, r), cv_radii, floor)
        for ci, (model, n) in enumerate(cells)
        for r in range(reps)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_rep_task, tasks, chunksize=4))
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
            error=model.error_sampler.name,
            design=model.covariate_law,
            n=n,
            reps=reps,
            rejections=rej,
            failures=fails,
            rate=rej / ok if ok else float("nan"),
            seed=seed,
        ))
    return PowerTable(rows=tuple(rows), alpha=float(alpha))
