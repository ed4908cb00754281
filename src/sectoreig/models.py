"""Surrogate sector Jacobians with known or oracle-checkable spectra.

These generators stand in for a flow-solver Jacobian: same nearest-neighbor
sector coupling pattern, and spectra that can be checked either analytically
(the ring model is a scalar circulant) or against the dense oracle.  Every
block is built sparse from its stencil, and the random model draws its
stream one row at a time, so memory stays O(N + nnz) at any size.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .sector import DofLayout, SectorJacobian

# Fixed stencils for the rotating-vector model.  The local dynamics are
# stable with eigenvalues -2 +/- 1j; the neighbor couplings are deliberately
# anisotropic so they do not commute with a frame rotation, which makes the
# rotation-disabled negative control discriminating.
_LOCAL_BLOCK = np.array([[-2.0, -1.0], [1.0, -2.0]])
_FORWARD_COUPLING = np.array([[0.7, 0.2], [-0.1, 0.4]])
_BACKWARD_COUPLING = np.array([[0.3, -0.2], [0.25, 0.5]])


def _ring_coefficients(M: int, n: int, peclet: float, diffusion: float, scheme: str):
    """Stencil coefficients (c_prev, c_self, c_next) for the periodic ring."""
    if M < 3:
        raise ValueError(f"ring model needs M >= 3, got {M}")
    if n < 1:
        raise ValueError(f"points per sector must be >= 1, got {n}")
    if peclet < 0:
        raise ValueError(f"peclet must be >= 0, got {peclet}")
    if diffusion < 0:
        raise ValueError(f"diffusion must be >= 0, got {diffusion}")
    if scheme not in ("upwind", "central"):
        raise ValueError(f"unknown advection scheme {scheme!r}")
    h = 2.0 * math.pi / (M * n)
    d = diffusion / h**2
    if scheme == "upwind":
        c_prev = d + peclet / h
        c_self = -2.0 * d - peclet / h
        c_next = d
    else:
        c_prev = d + peclet / (2.0 * h)
        c_self = -2.0 * d
        c_next = d - peclet / (2.0 * h)
    return c_prev, c_self, c_next


def ring_first_row(M: int, n: int, peclet: float, diffusion: float = 1.0,
                   scheme: str = "upwind") -> np.ndarray:
    """First row of the full ring operator, a K x K scalar circulant with K = M*n.

    Its exact spectrum, the analytic oracle, is ``circulant_eigenvalues`` of this row.
    """
    c_prev, c_self, c_next = _ring_coefficients(M, n, peclet, diffusion, scheme)
    K = M * n
    row = np.zeros(K, dtype=np.complex128)
    row[0] = c_self
    row[1 % K] += c_next
    row[(K - 1) % K] += c_prev
    return row


def make_ring_advection_diffusion(M: int, n: int, peclet: float,
                                  diffusion: float = 1.0,
                                  scheme: str = "upwind") -> SectorJacobian:
    """Scalar advection-diffusion on a periodic ring of M*n nodes.

    Central-difference diffusion plus advection (first-order upwind by
    default, central when requested) with mesh spacing h = 2*pi/(M*n).
    The advection speed is peclet.  The full operator is a scalar
    circulant, so the exact spectrum comes from the circulant formula on
    the M*n-point first row (see :func:`ring_first_row`).
    """
    c_prev, c_self, c_next = _ring_coefficients(M, n, peclet, diffusion, scheme)
    d_self = sp.diags([c_prev, c_self, c_next], [-1, 0, 1], shape=(n, n))
    d_next = c_next * sp.eye(n, k=1 - n)
    d_prev = c_prev * sp.eye(n, k=n - 1)
    return SectorJacobian(d_self, d_next, d_prev, M, DofLayout(n, 1))


def make_rotating_vector_model(M: int, n: int, coupling: float) -> SectorJacobian:
    """Two rotating variables per point with anisotropic neighbor coupling.

    Each point carries one rotating pair with identical stable local
    dynamics; points are chained within the sector and across the sector
    interfaces with fixed anisotropic stencils scaled by ``coupling``.
    The couplings are stated in the sector's own frame, so the neighbor
    blocks are passed through the change of variables (T applied
    internally); dropping that rotation produces a provably different
    spectrum, which is the discriminating test for the transform.
    """
    if M < 3:
        raise ValueError(f"rotating-vector model needs M >= 3, got {M}")
    if n < 1:
        raise ValueError(f"points per sector must be >= 1, got {n}")
    c = float(coupling)
    forward, backward = c * _FORWARD_COUPLING, c * _BACKWARD_COUPLING
    d_self = (sp.kron(sp.identity(n), _LOCAL_BLOCK)
              + sp.kron(sp.eye(n, k=1), forward) + sp.kron(sp.eye(n, k=-1), backward))
    corner = sp.eye(n, k=1 - n)
    next_unrot = sp.kron(corner, forward)
    prev_unrot = sp.kron(corner.T, backward)
    layout = DofLayout(points_per_sector=n, vars_per_point=2, rotating_pairs=((0, 1),))
    return SectorJacobian.from_unrotated(d_self, next_unrot, prev_unrot, M, layout)


def make_random_sector_jacobian(M: int, N: int, density: float, seed: int) -> SectorJacobian:
    """Seeded random sector blocks with the nearest-neighbor coupling pattern.

    Entries are uniform on [-1, 1] at seeded positions; the diagonal of the
    self block is shifted by -2 * (row degree) so spectra lean left, which
    mimics a stable operator.  Degenerate M in {1, 2} is allowed and forces
    empty neighbor blocks (no inter-sector coupling to speak of).  The layout
    is N scalar points; for another, pass the blocks on:
    ``SectorJacobian(*make_random_sector_jacobian(M, N, density, seed).blocks, M, layout)``.
    """
    if M < 1:
        raise ValueError(f"sector count must be >= 1, got {M}")
    if N < 1:
        raise ValueError(f"block dimension must be >= 1, got {N}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)

    def block() -> sp.csr_matrix:
        # The same doubles as rng.random((N, N)) then rng.uniform(-1, 1, (N, N)),
        # drawn a row at a time so that only the kept entries are stored.
        cols = [np.flatnonzero(rng.random(N) < density) for _ in range(N)]
        vals = [rng.uniform(-1.0, 1.0, N)[c] for c in cols]
        indptr = np.concatenate(([0], np.cumsum([len(c) for c in cols])))
        return sp.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr), shape=(N, N))

    d_self = block()
    empty = sp.csr_matrix((N, N))
    d_next, d_prev = (block(), block()) if M >= 3 else (empty, empty)
    degree = sum(np.diff((b != 0).indptr) for b in (d_self, d_next, d_prev))
    d_self = d_self - sp.diags(2.0 * degree)
    return SectorJacobian(d_self, d_next, d_prev, M, DofLayout(N, 1))
