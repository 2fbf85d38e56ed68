"""Frequency lattices and the pairwise spectral-cutoff weight matrix.

A frequency index is a length-m integer vector k.  The lattice of a cutoff
radius, every k with |k| <= radius, is closed under negation, so every real
series on it is the constant plus a combination of the real basis
Z(x) = sqrt(2) (cos, sin)(2*pi*k.x) over one index of each pair +-k; a
:class:`FreqLattice` stores those.  The associated smoothing weight function

    W(x) = sum_{|k| <= radius}  cos(2*pi*k.x)

is the multivariate Dirichlet kernel of the sharp spectral cutoff: every
index inside the radius carries weight 1, and W(x - x') = 1 + Z(x).Z(x').
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LatticeCapError

#: Cap on the candidate indices formed at each axis of the enumeration; it
#: also bounds the lattice size N, and so the n x N basis built from it.
LATTICE_CAP = 100_000

TWO_PI = 2.0 * np.pi


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

    def phases(self, x):
        """2*pi*k.x for every stored index, shape ``(P, H)``: the view of an (H, P) array."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ph = self.indices.astype(float) @ x.T
        ph *= TWO_PI  # in place: no second (H, P) temporary
        return ph.T

    def basis(self, x):
        """Real Fourier basis of the lattice, shape ``(P, N - 1)``.

        Columns ``2i`` and ``2i + 1`` hold sqrt(2) cos and sqrt(2) sin of the
        phase of the i-th stored index.  The result is the view of a
        C-contiguous (N - 1, P) array, so its transpose copies nothing.
        """
        ph = self.phases(x).T
        z = np.empty((len(ph), 2, ph.shape[1]))
        np.cos(ph, out=z[:, 0])
        np.sin(ph, out=z[:, 1])
        z *= np.sqrt(2.0)
        return z.reshape(-1, ph.shape[1]).T


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
