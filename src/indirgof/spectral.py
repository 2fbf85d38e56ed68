"""Frequency lattices and the pairwise spectral-cutoff weight matrix.

A frequency index is a length-m integer vector k.  A :class:`FreqLattice`
collects every index inside a cutoff radius.  The associated smoothing
weight function

    W(x) = sum_{|k| <= radius}  cos(2*pi*k.x)

is the multivariate Dirichlet kernel of the sharp spectral cutoff: every
index inside the radius carries weight 1.  Because the lattice is closed
under negation, every real series on it is the constant plus a
combination of the real basis Z(x) = sqrt(2) (cos, sin)(2*pi*k.x) over
its upper half; in particular W(x - x') = 1 + Z(x).Z(x').
"""

from dataclasses import dataclass

import numpy as np

from .errors import LatticeCapError

#: Hard cap on the number of candidate indices scanned when enumerating a
#: lattice; (2*floor(radius)+1)**m grows quickly for m >= 3.
LATTICE_CAP = 10_000_000

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FreqLattice:
    """Integer frequency vectors within a cutoff radius.

    Attributes
    ----------
    m : int
        Dimension of the frequency vectors.
    radius : float
        Cutoff radius in index units; indices satisfy ``norm(k) <= radius``.
    indices : ndarray of shape (N, m), int64
        All lattice points, in lexicographic order.  Closed under
        negation, so ``indices[i] == -indices[N - 1 - i]`` and the middle
        row is the zero vector.
    """

    m: int
    radius: float
    indices: np.ndarray

    def __post_init__(self):
        n = len(self.indices)
        if n % 2 != 1:
            raise ValueError("lattice must contain an odd number of indices")
        mid = (n - 1) // 2
        if np.any(self.indices[mid] != 0):
            raise ValueError("lattice must contain the zero frequency at its centre")
        if np.any(self.indices != -self.indices[::-1]):
            raise ValueError("lattice must be closed under negation")

    @property
    def size(self):
        return len(self.indices)

    @property
    def zero_position(self):
        """Row of the zero frequency (centre of the lexicographic order)."""
        return (len(self.indices) - 1) // 2

    def phases(self, x):
        """2*pi*k.x for every lattice index, shape ``(P, N)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return TWO_PI * (x @ self.indices.T.astype(float))

    def basis(self, x):
        """Real Fourier basis of the upper half, shape ``(P, N - 1)``.

        Columns ``2i`` and ``2i + 1`` hold sqrt(2) cos and sqrt(2) sin of the
        phase of the i-th index after the zero frequency.
        """
        ph = self.phases(x)[:, self.zero_position + 1:]
        z = np.empty((len(ph), 2 * ph.shape[1]))
        np.cos(ph, out=z[:, 0::2])
        np.sin(ph, out=z[:, 1::2])
        z *= np.sqrt(2.0)
        return z


def enumerate_lattice(m, radius):
    """Enumerate all integer frequency vectors with Euclidean norm <= radius.

    Parameters
    ----------
    m : int
        Dimension, at least 1.
    radius : float
        Positive, finite cutoff radius.  At most :data:`LATTICE_CAP` candidate
        indices may be scanned.

    Returns
    -------
    FreqLattice
        Indices in lexicographic order, closed under negation.
    """
    if m < 1:
        raise ValueError(f"dimension must be at least 1, got {m}")
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    half = int(np.floor(radius))
    total = (2 * half + 1) ** m
    if total > LATTICE_CAP:
        raise LatticeCapError(
            f"frequency lattice scan of {total} candidate indices "
            f"(m={m}, radius={radius}) exceeds the cap of {LATTICE_CAP}"
        )
    axes = [np.arange(-half, half + 1, dtype=np.int64)] * m
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    # Integer norm comparison avoids any floating-point boundary fuzz.
    inside = np.sum(grid * grid, axis=1) <= radius * radius
    indices = np.ascontiguousarray(grid[inside])
    return FreqLattice(m=m, radius=float(radius), indices=indices)


def weight_matrix(lattice, x):
    """Pairwise smoothing weights ``W(x_i - x_j)`` as an (n, n) matrix.

    Uses cos(a - b) = cos a cos b + sin a sin b so the matrix is built
    from two rank-N products instead of n^2 lattice sums.  NumPy evaluates
    a product ``A @ A.T`` as a symmetric rank-N update and mirrors one
    triangle, so the result is exactly symmetric without a further pass.
    """
    ph = lattice.phases(x)
    cos_ph = np.cos(ph)
    sin_ph = np.sin(ph)
    mat = cos_ph @ cos_ph.T
    mat += sin_ph @ sin_ph.T
    return mat
