"""Frequency lattices and the pairwise spectral-cutoff weight matrix.

A frequency index is a length-m integer vector k.  The lattice of a cutoff
radius, every k with |k| <= radius, is closed under negation, so every real
series on it is the constant plus a combination of the real basis
Z(x) = sqrt(2) (cos, sin)(2*pi*k.x) over one index of each pair +-k; a
:class:`FreqLattice` stores those.  The associated smoothing weight function

    W(x) = sum_{|k| <= radius}  cos(2*pi*k.x)

is the multivariate Dirichlet kernel of the sharp spectral cutoff: every
index inside the radius carries weight 1, and W(x - x') = 1 + Z(x).Z(x').

The basis makes no cos or sin call per (point, index) entry.  Each axis d
has a table of e^(2 pi i j x_d) for j = 0..max|k_d|, built by repeated
products from one complex exponential per point, and each index's column
pair is the real and imaginary part of the product of one entry per axis
(conjugated for a negative k_d).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LatticeCapError

#: Cap on the candidate indices formed at each axis of the enumeration; it
#: also bounds the lattice size N, and so the n x N basis built from it.
LATTICE_CAP = 100_000

TWO_PI = 2.0 * np.pi

#: Points per block of :meth:`FreqLattice.basis`, and complex values per row
#: block within one.  Its temporaries, the block's per-axis tables and two
#: buffers of at most 64 KiB, are bounded whatever the number of points.
_BLOCK_VALUES = 4096


@dataclass(frozen=True)
class FreqLattice:
    """Integer frequency vectors within a cutoff radius.

    Attributes
    ----------
    radius : float
        Cutoff radius in index units; indices satisfy ``norm(k) <= radius``.
    indices : ndarray of shape (H, m), int64
        The lexicographically later member of each pair +-k with
        0 < |k| <= radius, sorted stably by |k|^2, so the lattice of any
        smaller radius is a row prefix.
    """

    radius: float
    indices: np.ndarray

    @property
    def size(self):
        """Number N = 2 H + 1 of indices in the full lattice, zero included."""
        return 2 * len(self.indices) + 1

    def basis(self, x):
        """Real Fourier basis of the lattice, shape ``(P, N - 1)``.

        Columns ``2i`` and ``2i + 1`` hold sqrt(2) cos and sqrt(2) sin of
        2*pi*k.x for the i-th stored index k.  The result is the view of a
        C-contiguous (N - 1, P) array, so its transpose copies nothing.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n_points, m = x.shape
        if m != self.indices.shape[1]:
            raise ValueError(f"x has {m} columns, but the lattice has m = {self.indices.shape[1]}")
        negative = self.indices < 0
        # not np.abs, whose integer loop would page in code no other step runs
        powers = np.where(negative, -self.indices, self.indices)
        z = np.empty((len(powers), 2, n_points))
        for start in range(0, n_points, _BLOCK_VALUES):
            cols = slice(start, start + _BLOCK_VALUES)
            _fill_pairs(z[:, :, cols], x[cols], powers, negative)
        return z.reshape(2 * len(powers), n_points).T


def _fill_pairs(out, x, powers, negative):
    """Write sqrt(2) (Re, Im) of prod_d e^(2 pi i k_d x_d) into ``out[i, 0]`` and ``out[i, 1]``.

    The i-th index k is given as |k| (``powers[i]``) and the mask of its
    entries below zero (``negative[i]``), whose table entries are conjugated.
    Products are formed in row blocks of about :data:`_BLOCK_VALUES` values.
    """
    tables = _power_tables(x, powers.max(axis=0, initial=0))
    signed = negative.any(axis=0)
    rows = max(1, min(len(powers), _BLOCK_VALUES // len(x)))
    buf = np.empty((2, rows, len(x)), dtype=complex)
    for lo in range(0, len(powers), rows):
        hi = min(lo + rows, len(powers))
        prod, factor = buf[0, : hi - lo], buf[1, : hi - lo]
        for d, table in enumerate(tables):
            dest = factor if d else prod
            np.take(table, powers[lo:hi, d], axis=0, out=dest, mode="clip")
            if signed[d]:
                np.conjugate(dest, out=dest, where=negative[lo:hi, d, None])
            if d:
                prod *= factor
        np.multiply(prod.real, np.sqrt(2.0), out=out[lo:hi, 0])
        np.multiply(prod.imag, np.sqrt(2.0), out=out[lo:hi, 1])


def _power_tables(x, tops):
    """Tables of e^(2 pi i j x_d), j = 0..tops[d], one ``(tops[d] + 1, P)`` array per axis d.

    Each is built by repeated products from one exponential of x_d less its
    nearest integer.  That difference is exact, and its phase, at most pi in
    size, carries half the rounding error of 2 pi x_d.
    """
    turns = x - np.rint(x)
    tables = []
    for d, top in enumerate(tops):
        table = np.empty((top + 1, len(x)), dtype=complex)
        table[0] = 1.0
        if top:
            table[1] = np.exp(1j * TWO_PI * turns[:, d])
        for j in range(2, top + 1):
            np.multiply(table[j - 1], table[1], out=table[j])
        tables.append(table)
    return tables


def max_squared_norm(radius):
    """Largest integer J with ``math.sqrt(J) <= radius``.

    An index k belongs to the lattice of ``radius`` when its integer squared
    norm is at most J, so shell membership is decided on integers.  Comparing
    with ``radius * radius`` instead drops a shell where the product rounds
    below it, as at radius ``math.sqrt(3)``.
    """
    j = math.floor(radius * radius)
    while math.sqrt(j + 1) <= radius:
        j += 1
    while math.sqrt(j) > radius:
        j -= 1
    return j


def enumerate_lattice(m, radius):
    """Enumerate the integer frequency vectors with Euclidean norm <= radius.

    Parameters
    ----------
    m : int
        Dimension, at least 1.
    radius : float
        Positive, finite cutoff radius.  At most :data:`LATTICE_CAP` candidate
        indices may be formed at any axis.

    Returns
    -------
    FreqLattice
        One index of each pair +-k, sorted by norm.
    """
    if m < 1:
        raise ValueError(f"dimension must be at least 1, got {m}")
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    half = int(np.floor(radius))
    # Grow the ball axis by axis in lexicographic order, never forming the cube
    # and checking the cap before each axis: a partial vector goes once its
    # integer squared norm passes max_squared_norm(radius).
    ball, norms = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(m):
        total = len(ball) * (2 * half + 1)
        if total > LATTICE_CAP:
            from decimal import Decimal  # rounds an int past the float range

            raise LatticeCapError(
                f"frequency lattice scan of {Decimal(total):.4g} candidate indices "
                f"(m={m}, radius={radius}) exceeds the cap of {LATTICE_CAP}"
            )
        values = np.arange(-half, half + 1, dtype=np.int64)
        grown = norms[:, None] + values * values
        rows, cols = np.nonzero(grown <= max_squared_norm(radius))
        ball, norms = np.column_stack([ball[rows], values[cols]]), grown[rows, cols]
    # Of each pair +-k keep the lexicographically later: first nonzero entry > 0.
    upper = ball[np.arange(len(ball)), np.argmax(ball != 0, axis=1)] > 0
    indices = ball[upper][np.argsort(norms[upper], kind="stable")]
    return FreqLattice(radius=float(radius), indices=indices)


def weight_matrix(lattice, x):
    """Pairwise smoothing weights ``W(x_i - x_j) = 1 + Z_i.Z_j`` as an (n, n) matrix.

    NumPy evaluates a product ``Z @ Z.T`` as a symmetric rank-(N - 1) update
    and mirrors one triangle, so the result is exactly symmetric.
    """
    z = lattice.basis(x)
    mat = z @ z.T
    mat += 1.0
    return mat
