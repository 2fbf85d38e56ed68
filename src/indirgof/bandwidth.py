"""Leave-one-out cross-validation over a grid of cutoff radii.

The score of a radius is the mean squared leave-one-out prediction error;
leaving out observation j removes it from both the density estimate and
the coefficient sums (sums over i != j, normalized by n - 1).  With
pairwise weights W and row sums rs this is the exact identity
pred_j = sum_{i != j} y_i W_ij / max(rs_i - W_ij, floor (n - 1)).

All radii are scored in one blocked pass over nested shells: with the
pairs of the largest lattice's real basis Z (:meth:`FreqLattice.basis`)
sorted by norm, each smaller lattice is a column prefix.  W_ij = 1 + Z_i.Z_j
and rs costs O(nN).  Each block of 32 rows adds one shell per radius and
sums its held-out terms while in cache, in O(32 n) working memory with no
n x n matrix; W_jj is the lattice size, so the i = j term is closed-form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .estimation import DEFAULT_DENSITY_FLOOR, check_density_floor, response_exponent
from .spectral import enumerate_lattice

_BLOCK_ROWS = 32
#: OpenBLAS runs products of at most 2**19 multiply-adds on one thread; block
#: products stalled ~16 ms when threaded, so each is cut into column pieces that size.
_SERIAL_TERMS = 2**19


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


def _prefix_scores(data, z, prefixes, floor):
    """Leave-one-out scores of the lattices spanned by column prefixes of ``z``.

    ``z`` is a real basis at the data with its cos/sin pairs ordered so that
    every lattice is a column prefix; ``prefixes`` are distinct ascending
    column counts.  Returns the scores of y scaled by 2**-e, e from
    :func:`response_exponent`, and those of y, which are inf beyond double range.
    """
    e = response_exponent(data.y)
    n, y, lo = data.n, np.ldexp(data.y, -e), floor * (data.n - 1)
    shells = list(zip([0, *prefixes], prefixes))
    total = z.sum(axis=0)
    row_sums = n + np.cumsum([z[:, a:b] @ total[a:b] for a, b in shells], axis=0)
    colsum = np.zeros((len(shells), n))
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, n))
        w = np.ones((rows.stop - start, n))
        tmp = np.empty_like(w)
        for r, (a, b) in enumerate(shells):
            step = max(1, _SERIAL_TERMS // (_BLOCK_ROWS * max(b - a, 1)))
            for c in range(0, n, step):
                w[:, c:c + step] += z[rows, a:b] @ z[c:c + step, a:b].T
            np.subtract(row_sums[r, rows, None], w, out=tmp)
            np.maximum(tmp, lo, out=tmp)
            colsum[r] += y[rows] @ np.divide(w, tmp, out=tmp)
    sizes = np.array(prefixes, dtype=float)[:, None] + 1.0
    pred = colsum - y * sizes / np.maximum(row_sums - sizes, lo)
    scaled = np.mean((y - pred) ** 2, axis=1)
    with np.errstate(over="ignore"):
        return scaled, np.ldexp(scaled, 2 * e)


def loo_score(data, lattice, floor=DEFAULT_DENSITY_FLOOR):
    """Mean squared leave-one-out prediction error for one lattice."""
    z = lattice.basis(data.x)
    return float(_prefix_scores(data, z, [z.shape[1]], floor)[1][0])


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
    norms = np.sum(lattice.indices[lattice.zero_position + 1:] ** 2, axis=1)
    order = np.argsort(norms, kind="stable")
    counts = np.searchsorted(norms[order], np.square(radii), side="right")
    prefixes, which = np.unique(2 * counts, return_inverse=True)
    z = lattice.basis(data.x).reshape(data.n, -1, 2)[:, order].reshape(data.n, -1)
    scaled, scores = _prefix_scores(data, z, prefixes.tolist(), floor)
    scored = tuple((r, float(scores[k])) for r, k in zip(radii, which))
    chosen = min(zip(radii, which), key=lambda rk: (scaled[rk[1]], rk[0]))[0]
    return CvReport(candidates=scored, chosen=chosen)
