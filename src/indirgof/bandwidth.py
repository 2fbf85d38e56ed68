"""Leave-one-out choice of the cutoff radius, and the fit at it (:func:`select_and_fit`).

The score of a radius is the mean squared leave-one-out prediction error;
leaving out observation j removes it from both the density estimate and
the coefficient sums (sums over i != j, normalized by n - 1).  With
pairwise weights W and row sums rs this is the exact identity
pred_j = sum_{i != j} y_i W_ij / max(rs_i - W_ij, DENSITY_FLOOR (n - 1)).

All radii are scored in one blocked pass over nested shells: the largest
lattice's real basis Z (:meth:`FreqLattice.basis`) is held as one
C-contiguous (N - 1, n) array Z^T; its indices are sorted by norm, so each
smaller lattice is a row prefix.  W_ij = 1 + Z_i.Z_j and rs costs
O(nN).  Each block of max(32, 32768 // n) rows (32 from n = 1024 on, 65 at
n = 500) adds one shell per radius by one full-width product, written into
the block's own buffer, and sums its held-out terms while in cache, in
O(max(32 n, 32768)) working memory allocated once per pass on 64-byte
cache lines, with no n x n matrix; W_jj is the lattice size N_r, so the
i = j term is closed-form.  As |W_ij| <= N_r, a block whose rows all have
rs_i - N_r (1 + 1e-9) >= DENSITY_FLOOR (n - 1) skips the clamp, which cannot act.
The fit at the chosen radius reads that lattice's row prefix of Z^T, so a
call of :func:`select_and_fit` enumerates one lattice and forms one basis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .estimation import DENSITY_FLOOR, fit, response_exponent
from .spectral import FreqLattice, enumerate_lattice, max_squared_norm

#: Values per row block of the CV pass: blocks have max(32, _BLOCK_VALUES // n)
#: rows, so small samples run fewer, wider products.
_BLOCK_VALUES = 32768


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
    """Integer candidate radii 1..max(2, floor(n**(1/(2+m)))), the root taken exactly.

    The top radius grows as n**(1/(2+m)) but is never below 2, so for
    n < 3**(m+2) the grid is 1..2; in high dimension the radius-2 lattice
    can then exceed n (N = 1713 for m = 8 at n = 300 and at n = 2000).
    """
    p = m + 2
    r = round(n ** (1.0 / p))  # the float root can fall short at exact powers
    while r**p > n:
        r -= 1
    while (r + 1) ** p <= n:
        r += 1
    return list(range(1, max(2, r) + 1))


def _cache_aligned(rows, n):
    """Uninitialized (rows, n) array whose data starts on a 64-byte boundary.

    The blocked pass runs 5-8% faster with its buffers so aligned than 16 or
    48 bytes past one (n = 500 to 2000); left to malloc, where they start
    depends on the state of the process's heap.
    """
    raw = np.empty(rows * n + 7)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + rows * n].reshape(rows, n)


def _prefix_scores(data, zt, prefixes):
    """Leave-one-out scores of the lattices spanned by row prefixes of ``zt``.

    ``zt`` is a real basis at the data, shape (N - 1, n), with its cos/sin
    pairs ordered so that every lattice is a row prefix; ``prefixes`` are
    distinct ascending row counts.  Returns the scores of y scaled by 2**-e,
    e from :func:`response_exponent`, and those of y, inf beyond double range.
    """
    e = response_exponent(data.y)
    n, y, lo = data.n, np.ldexp(data.y, -e), DENSITY_FLOOR * (data.n - 1)
    shells = list(zip([0, *prefixes], prefixes))
    total = zt.sum(axis=1)
    row_sums = n + np.cumsum([total[a:b] @ zt[a:b] for a, b in shells], axis=0)
    sizes = np.array(prefixes, dtype=float)[:, None] + 1.0
    block = min(n, max(32, _BLOCK_VALUES // n))
    starts = range(0, n, block)
    clamps = np.minimum.reduceat(row_sums, starts, axis=1) - sizes * (1 + 1e-9) < lo
    colsum = np.zeros((len(shells), n))
    w_rows, tmp_rows = _cache_aligned(block, n), _cache_aligned(block, n)
    for start, clamp in zip(starts, clamps.T):
        rows = slice(start, min(start + block, n))
        w, tmp = w_rows[:rows.stop - start], tmp_rows[:rows.stop - start]
        w.fill(1.0)
        for r, (a, b) in enumerate(shells):
            w += np.matmul(zt[a:b, rows].T, zt[a:b], out=tmp)
            np.copyto(tmp, row_sums[r, rows, None])
            tmp -= w
            if clamp[r]:
                np.maximum(tmp, lo, out=tmp)
            colsum[r] += y[rows] @ np.divide(w, tmp, out=tmp)
    pred = colsum - y * sizes / np.maximum(row_sums - sizes, lo)
    scaled = np.mean((y - pred) ** 2, axis=1)
    with np.errstate(over="ignore"):
        return scaled, np.ldexp(scaled, 2 * e)


def loo_score(data, lattice):
    """Mean squared leave-one-out prediction error for one lattice."""
    zt = lattice.basis(data.x).T
    return float(_prefix_scores(data, zt, [len(zt)])[1][0])


def cv_select(data, radii=None, *, fit_basis=None):
    """Choose the cutoff radius minimizing the leave-one-out score.

    Parameters
    ----------
    data : Dataset
    radii : sequence of positive reals, optional
        Candidate cutoff radii; each must pass the lattice size cap.
        Defaults to :func:`default_radius_grid`.
    fit_basis : list, optional
        When given, the lattice of the chosen radius and its basis at
        ``data.x`` are appended to it, equal to what :func:`fit` would form
        and copied from the pass's basis, so the fit need not form them again.

    Returns
    -------
    CvReport
        All (radius, score) pairs in the given order and the argmin; ties
        break toward the smaller radius.  Scores are compared on the scaled
        responses, so the choice stands where a score in y's units is inf.
    """
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
    counts = np.searchsorted(norms, [max_squared_norm(r) for r in radii], side="right")
    prefixes, which = np.unique(2 * counts, return_inverse=True)
    zt = lattice.basis(data.x).T  # C-contiguous, as the blocked pass reads it
    scaled, scores = _prefix_scores(data, zt, prefixes.tolist())
    scored = tuple((r, float(scores[k])) for r, k in zip(radii, which))
    chosen, k = min(zip(radii, which), key=lambda rk: (scaled[rk[1]], rk[0]))
    if fit_basis is not None:
        rows = prefixes[k]  # copied, so the largest lattice's basis is freed
        fit_basis += [FreqLattice(chosen, lattice.indices[: rows // 2].copy()),
                      zt[:rows].copy().T]
    return CvReport(candidates=scored, chosen=chosen)


def select_and_fit(data, radii=None, *, radius=None):
    """Fit the regression at the cross-validated radius, or at a fixed one.

    Returns ``(report, fitted)``: the :class:`CvReport` of :func:`cv_select`
    over ``radii``, or ``None`` when a fixed ``radius`` skips cross-validation,
    and the :class:`~indirgof.estimation.RegressionFit` at the chosen radius.
    Either way one lattice is enumerated and one basis formed.
    """
    if radius is not None:
        return None, fit(data, enumerate_lattice(data.m, float(radius)))
    shared = []
    report = cv_select(data, radii, fit_basis=shared)
    return report, fit(data, *shared)
