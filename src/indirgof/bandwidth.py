"""Leave-one-out choice of the cutoff radius, and the fit at it (:func:`select_and_fit`).

The score of a radius is the mean squared leave-one-out prediction error;
leaving out observation j removes it from both the density estimate and
the coefficient sums (sums over i != j, normalized by n - 1).  With
pairwise weights W and row sums rs this is the exact identity
pred_j = sum_{i != j} y_i W_ij / max(rs_i - W_ij, floor (n - 1)).

All radii are scored in one blocked pass over nested shells: the largest
lattice's real basis Z (:meth:`FreqLattice.basis`) is held as one
C-contiguous (N - 1, n) array Z^T; its indices are sorted by norm, so each
smaller lattice is a row prefix.  W_ij = 1 + Z_i.Z_j and rs costs
O(nN).  Each block of 32 rows adds one shell per radius by one full-width
product and sums its held-out terms while in cache, in O(32 n) working
memory with no n x n matrix; W_jj is the lattice size N_r, so the i = j
term is closed-form.  As |W_ij| <= N_r, a block whose rows all have
rs_i - N_r (1 + 1e-9) >= floor (n - 1) skips the clamp, which cannot act.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .estimation import DEFAULT_DENSITY_FLOOR, check_density_floor, fit, response_exponent
from .spectral import enumerate_lattice

_BLOCK_ROWS = 32


@dataclass(frozen=True)
class CvReport:
    """Candidate radii with their scores and the selected radius."""

    candidates: tuple
    chosen: float

    def as_dict(self):
        """Strict-JSON form: a score beyond double range is ``None``."""
        return {
            "candidates": [[r, s if np.isfinite(s) else None] for r, s in self.candidates],
            "chosen": self.chosen,
        }


def default_radius_grid(n, m):
    """Integer candidate radii 1..max(2, floor(n**(1/(2+m)))).

    Keeps the largest lattice O(n) while bracketing the bias-variance
    sweet spot for the smoothness levels used in the simulation study.
    """
    r_max = max(2, int(np.floor(n ** (1.0 / (2 + m)))))
    return list(range(1, r_max + 1))


def _prefix_scores(data, zt, prefixes, floor):
    """Leave-one-out scores of the lattices spanned by row prefixes of ``zt``.

    ``zt`` is a real basis at the data, shape (N - 1, n), with its cos/sin
    pairs ordered so that every lattice is a row prefix; ``prefixes`` are
    distinct ascending row counts.  Returns the scores of y scaled by 2**-e,
    e from :func:`response_exponent`, and those of y, inf beyond double range.
    """
    e = response_exponent(data.y)
    n, y, lo = data.n, np.ldexp(data.y, -e), floor * (data.n - 1)
    shells = list(zip([0, *prefixes], prefixes))
    total = zt.sum(axis=1)
    row_sums = n + np.cumsum([total[a:b] @ zt[a:b] for a, b in shells], axis=0)
    sizes = np.array(prefixes, dtype=float)[:, None] + 1.0
    starts = range(0, n, _BLOCK_ROWS)
    clamps = np.minimum.reduceat(row_sums, starts, axis=1) - sizes * (1 + 1e-9) < lo
    colsum = np.zeros((len(shells), n))
    w_rows, tmp_rows = np.empty((2, _BLOCK_ROWS, n))
    for start, clamp in zip(starts, clamps.T):
        rows = slice(start, min(start + _BLOCK_ROWS, n))
        w, tmp = w_rows[:rows.stop - start], tmp_rows[:rows.stop - start]
        w.fill(1.0)
        for r, (a, b) in enumerate(shells):
            w += zt[a:b, rows].T @ zt[a:b]
            np.copyto(tmp, row_sums[r, rows, None])
            tmp -= w
            if clamp[r]:
                np.maximum(tmp, lo, out=tmp)
            colsum[r] += y[rows] @ np.divide(w, tmp, out=tmp)
    pred = colsum - y * sizes / np.maximum(row_sums - sizes, lo)
    scaled = np.mean((y - pred) ** 2, axis=1)
    with np.errstate(over="ignore"):
        return scaled, np.ldexp(scaled, 2 * e)


def loo_score(data, lattice, floor=DEFAULT_DENSITY_FLOOR):
    """Mean squared leave-one-out prediction error for one lattice."""
    check_density_floor(floor)
    zt = lattice.basis(data.x).T
    return float(_prefix_scores(data, zt, [len(zt)], floor)[1][0])


def cv_select(data, radii=None, floor=DEFAULT_DENSITY_FLOOR):
    """Choose the cutoff radius minimizing the leave-one-out score.

    Parameters
    ----------
    data : Dataset
    radii : sequence of positive reals, optional
        Candidate cutoff radii; each must pass the lattice size cap.
        Defaults to :func:`default_radius_grid`.
    floor : float
        Density clamp in (0, 1) forwarded to the leave-one-out fits.

    Returns
    -------
    CvReport
        All (radius, score) pairs in the given order and the argmin; ties
        break toward the smaller radius.  Scores are compared on the scaled
        responses, so the choice stands where a score in y's units is inf.
    """
    check_density_floor(floor)
    if data.n < 3:
        raise InsufficientDataError(
            f"cross-validation needs at least 3 observations, got {data.n}"
        )
    if radii is None:
        radii = default_radius_grid(data.n, data.m)
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("candidate radius grid is empty")
    for radius in radii:
        if not radius > 0:
            raise ValueError(f"radius must be positive, got {radius}")
    lattice = enumerate_lattice(data.m, max(radii))
    norms = np.sum(lattice.indices**2, axis=1)
    counts = np.searchsorted(norms, np.square(radii), side="right")
    prefixes, which = np.unique(2 * counts, return_inverse=True)
    zt = np.ascontiguousarray(lattice.basis(data.x).T)
    scaled, scores = _prefix_scores(data, zt, prefixes.tolist(), floor)
    scored = tuple((r, float(scores[k])) for r, k in zip(radii, which))
    chosen = min(zip(radii, which), key=lambda rk: (scaled[rk[1]], rk[0]))[0]
    return CvReport(candidates=scored, chosen=chosen)


def select_and_fit(data, radii=None, floor=DEFAULT_DENSITY_FLOOR, *, radius=None):
    """Fit the regression at the cross-validated radius, or at a fixed one.

    Returns ``(report, fitted)``: the :class:`CvReport` of :func:`cv_select`
    over ``radii``, or ``None`` when a fixed ``radius`` skips cross-validation,
    and the :class:`~indirgof.estimation.RegressionFit` at the chosen radius.
    """
    report = None
    if radius is None:
        report = cv_select(data, radii, floor)
        radius = report.chosen
    return report, fit(data, enumerate_lattice(data.m, float(radius)), floor)
