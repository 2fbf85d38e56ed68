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
        """2*pi*k.x for every stored index, shape ``(P, H)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return TWO_PI * (x @ self.indices.T.astype(float))

    def basis(self, x):
        """Real Fourier basis of the lattice, shape ``(P, N - 1)``.

        Columns ``2i`` and ``2i + 1`` hold sqrt(2) cos and sqrt(2) sin of the
        phase of the i-th stored index.
        """
        ph = self.phases(x)
        z = np.empty((len(ph), 2 * ph.shape[1]))
        np.cos(ph, out=z[:, 0::2])
        np.sin(ph, out=z[:, 1::2])
        z *= np.sqrt(2.0)
        return z


def enumerate_lattice(m, radius):
    """Enumerate the integer frequency vectors with Euclidean norm <= radius.

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
        One index of each pair +-k, sorted by norm.
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
    # The scan is lexicographic, so its later half holds one index of each
    # pair.  Integer norm comparison avoids any floating-point boundary fuzz.
    upper = grid[(total + 1) // 2:]
    norms = np.sum(upper * upper, axis=1)
    inside = norms <= radius * radius
    indices = upper[inside][np.argsort(norms[inside], kind="stable")]
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
