"""Independent oracle implementations shared by the test modules.

Everything here deliberately avoids the production code paths it is used
to check: the transformed process is evaluated by a direct double sum
with adaptive quadrature, the Brownian supremum law comes from the
reflection (inclusion-exclusion) series, leave-one-out predictions
come from literal refits on reduced datasets, leave-one-out scores from
the full n x n weight matrix one radius at a time, the basis's phases
from one product of the points with the stored indices, the transformed
process's step counts from one search of the residuals per evaluation
point (on the production scan and score), and the smoothing
weight function is a plain cosine sum over the full lattice, whose pairs
+-k are built here from the one index of each that the lattice stores.  The
study model's undistorted surface, a photon-count image drawn from it and a
lookup in a power table round out the fixtures.
"""

import math

import numpy as np
from scipy.integrate import quad_vec
from scipy.special import ndtr

from indirgof.estimation import DENSITY_FLOOR, estimate_coeffs, estimate_density
from indirgof.nulls import gamma_closed_form_gaussian, score_h
from indirgof.simulation import ktheta_true
from indirgof.spectral import weight_matrix


def reflection_sup_cdf(x, terms=40):
    """P(sup |B| <= x) by the reflection series (independent of the
    exponential series used in production)."""
    total = 0.0
    for k in range(-terms, terms + 1):
        total += (-1) ** k * (ndtr((2 * k + 1) * x) - ndtr((2 * k - 1) * x))
    return float(total)


def xi_oracle(z, null, t_points, sides):
    """Direct double-sum transformed process with quadrature-built G0.

    G0 is accumulated by adaptive quadrature over segments between the
    sorted points where it is needed, starting from the 1e-12 quantile.
    Only the Gaussian null is supported (its closed-form tail matrix is
    itself validated against quadrature elsewhere); its score
    ``(1, y, y^2 - 1)`` is written out here rather than taken from the
    production ``score_h`` this oracle checks.
    """
    z = np.sort(np.asarray(z, dtype=float))
    n = len(z)
    t0 = float(z[int(np.ceil(0.99 * n)) - 1])

    def gaussian_h(y):
        y = np.asarray(y, dtype=float)
        return np.stack([np.ones_like(y), y, y * y - 1.0], axis=-1)

    def integrand(y):
        h = gaussian_h(y)
        return np.linalg.solve(gamma_closed_form_gaussian(y), h) * float(null.pdf(y))

    needed = np.unique(np.concatenate([z[z <= t0], np.asarray(t_points, float)]))
    start = float(null.quantile(1e-12))
    table = {}
    acc = np.zeros(3)
    prev = start
    for u in needed:
        if u <= start:
            table[float(u)] = np.zeros(3)
            continue
        seg, _ = quad_vec(integrand, prev, float(u), epsabs=1e-11, epsrel=1e-11)
        acc = acc + seg
        table[float(u)] = acc.copy()
        prev = float(u)

    h_at_z = gaussian_h(z)
    out = []
    for t, side in zip(t_points, sides):
        idx = int(np.searchsorted(z, t, side=side))
        comp = 0.0
        for j in range(n):
            u = float(min(t, z[j]))
            g0 = table[u] if u in table else np.zeros(3)
            comp += float(g0 @ h_at_z[j])
        out.append(math.sqrt(n) * (idx / n - comp / n))
    return np.array(out), t0


def xi_production_at(z, null, t_points, sides):
    """Production-path process values at chosen points and sides."""
    from indirgof.khmaladze import build_scan

    z = np.sort(np.asarray(z, dtype=float))
    n = len(z)
    t0 = float(z[int(np.ceil(0.99 * n)) - 1])
    grid, g0 = build_scan(null, t0)

    def scan(t):
        return np.stack([np.interp(t, grid, g0[:, c]) for c in range(3)], axis=-1)

    h = score_h(null, z)
    g_at = scan(np.minimum(z, t0))
    pref_dot = np.concatenate([[0.0], np.cumsum(np.einsum("ij,ij->i", g_at, h))])
    pref_h = np.vstack([np.zeros(3), np.cumsum(h, axis=0)])
    total_h = pref_h[-1]
    out = []
    for t, side in zip(t_points, sides):
        idx = int(np.searchsorted(z, t, side=side))
        comp = (pref_dot[idx] + scan(np.array([t]))[0] @ (total_h - pref_h[idx])) / n
        out.append(math.sqrt(n) * (idx / n - comp))
    return np.array(out), t0


def transform_by_search(z, null):
    """``(eval_points, values, f_hat_t0)`` of :func:`indirgof.khmaladze.transform`, counted by search.

    The same sums as the production transform, with the residuals at or
    below each grid point counted by ``searchsorted(z, grid, side="right")``
    and the prefix rows gathered by fancy indexing.
    """
    from indirgof.khmaladze import build_scan

    z = np.sort(np.asarray(z, dtype=float).ravel())
    n = len(z)
    t0 = float(z[int(np.ceil(0.99 * n)) - 1])
    grid, g0 = build_scan(null, t0)
    h = score_h(null, z)
    g_at_z = np.stack([np.interp(np.minimum(z, t0), grid, g0[:, c]) for c in range(3)], axis=-1)
    pref_dot = np.concatenate([[0.0], np.cumsum(np.einsum("ij,ij->i", g_at_z, h))])
    pref_h = np.vstack([np.zeros(3), np.cumsum(h, axis=0)])
    jumps = z[(z <= t0) & np.concatenate([[True], z[1:] != z[:-1]])]
    below = np.searchsorted(z, jumps)
    upto = np.searchsorted(z, jumps, side="right")
    counts = np.concatenate([np.searchsorted(z, grid, side="right"), below, upto])
    g_pts = np.concatenate([g0, g_at_z[below], g_at_z[below]])
    suffix = pref_h[-1] - pref_h[counts]
    comp = (pref_dot[counts] + np.einsum("ij,ij->i", g_pts, suffix)) / n
    vals = math.sqrt(n) * (counts / n - comp)
    pts = np.concatenate([grid, jumps, jumps])
    order = np.lexsort((np.repeat([0, -1, 0], [len(grid), len(jumps), len(jumps)]), pts))
    return pts[order], vals[order], float(counts[len(grid) - 1] / n)


def oracle_points_for(z, t0, extra=23):
    """Comparison points: all jumps twice (left/right) plus a spread."""
    z = np.sort(np.asarray(z, dtype=float))
    jumps = np.unique(z[z <= t0])
    spread = np.linspace(t0 - 6.0, t0, extra)
    pts = np.concatenate([jumps, jumps, spread])
    sides = ["left"] * len(jumps) + ["right"] * (len(jumps) + extra)
    return pts, sides


def dense_loo_score(data, lattice):
    """Mean squared leave-one-out prediction error for one lattice."""
    n = data.n
    wmat = weight_matrix(lattice, data.x)
    row_sums = wmat.sum(axis=1)
    # g_minus[i, j] = density estimate without observation j, at x_i.
    g_minus = (row_sums[:, None] - wmat) / (n - 1)
    np.maximum(g_minus, DENSITY_FLOOR, out=g_minus)
    contrib = (data.y[:, None] / g_minus) * wmat
    pred = (contrib.sum(axis=0) - np.diagonal(contrib)) / (n - 1)
    return float(np.mean((data.y - pred) ** 2))


def refit_loo_prediction(data, lattice, j):
    """Leave-one-out prediction at x_j by a literal refit without row j."""
    keep = np.arange(data.n) != j
    basis = lattice.basis(data.x[keep])
    const, c = estimate_coeffs(basis, data.y[keep], estimate_density(basis))
    ph = phases(lattice, data.x[j][None, :])[0]
    return float(const + np.sqrt(2.0) * (np.cos(ph) @ c[0::2] + np.sin(ph) @ c[1::2]))


def phases(lattice, x):
    """2*pi*k.x for every stored index, shape ``(P, H)``: the direct phases of the basis."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return 2.0 * np.pi * (x @ lattice.indices.T)


def full_indices(lattice):
    """Every index of the lattice: zero, the stored half, then its negation."""
    half = lattice.indices
    return np.vstack([np.zeros((1, half.shape[1]), dtype=half.dtype), half, -half])


def full_phases(lattice, x):
    """2*pi*k.x over :func:`full_indices`, shape ``(P, N)``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return 2.0 * np.pi * (x @ full_indices(lattice).T)


def smoothing_weight(lattice, x):
    """Dirichlet kernel ``W(x) = sum_k cos(2 pi k.x)`` of the lattice.

    ``x`` may be a single point of shape ``(m,)`` (returns a float) or an
    array of points of shape ``(P, m)`` (returns shape ``(P,)``).
    """
    x = np.asarray(x, dtype=float)
    vals = np.cos(full_phases(lattice, x)).sum(axis=1)
    return float(vals[0]) if x.ndim == 1 else vals


def complex_weight_sum(lattice, x):
    """Complex-exponential evaluation of the smoothing weight function."""
    return np.exp(1j * full_phases(lattice, x)).sum(axis=1)


def brute_lattice_count(m, radius, span):
    """Count lattice points by scanning the integer box [-span, span]^m."""
    axes = [np.arange(-span, span + 1)] * m
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    return int(np.sum(np.sum(grid * grid, axis=1) <= radius * radius))


def truncated_laplace_pdf(w, scale=0.1):
    """Normalized Laplace(1/2, scale) density on [0, 1], extended periodically.

    Centred at 1/2, the two clipped tails each hold mass exp(-1/(2*scale))/2,
    so the kept mass is 1 - exp(-1/(2*scale)).
    """
    w = np.mod(np.asarray(w, dtype=float), 1.0)
    kept = 1.0 - math.exp(-0.5 / scale)
    return np.exp(-np.abs(w - 0.5) / scale) / (2.0 * scale) / kept


def identity_psi(k):
    """No distortion: the direct-regression special case of the study model."""
    return np.ones(np.shape(k)[:-1])


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


def rate_for(table, error, n):
    """Rejection rate of the ``power_study`` cell with this error law and n."""
    return next(r.rate for r in table.rows if r.error == error and r.n == n)
