"""DFT facts of circulant matrices: the scalar spectrum and the block lift.

A circulant matrix is diagonalized by the DFT vectors [1, rho_m, rho_m^2,
...]; at block granularity the same structure reduces an MN x MN operator
to M independent N x N problems, one per harmonic index m (the reduction
itself, built from one sector's blocks, lives in :mod:`sectoreig.sector`).
"""

from __future__ import annotations

import numpy as np

from .sparsecore import check_harmonic, root_of_unity, unity_power


def circulant_eigenvalues(first_row) -> np.ndarray:
    """All K eigenvalues of the K x K circulant with this first row, ordered by harmonic.

    Harmonic m sees sum_k b_k rho_m^k over the nonzero entries b_k only, the
    rule of :func:`sectoreig.sector.reduced_block` with 1 x 1 blocks; its
    eigenvector is [1, rho_m, ..., rho_m^{K-1}], ``lift_block_eigenvector([1.0], m, K)``.
    """
    row = np.asarray(first_row, dtype=np.complex128)
    if row.ndim != 1 or row.size == 0:
        raise ValueError(f"first_row must be a non-empty 1-D array, got shape {row.shape}")
    K = row.size
    roots = np.array([root_of_unity(j, K) for j in range(K)])
    k = np.flatnonzero(row)
    return roots[np.outer(np.arange(K), k) % K] @ row[k]


def lift_block_eigenvector(v, m: int, M: int) -> np.ndarray:
    """Expand a length-N reduced eigenvector, or (N, k) columns, to length M*N.

    Segment s of the output is rho_m^s * v, so a reduced eigenpair of the
    harmonic-m block becomes an eigenpair of the full operator.
    """
    check_harmonic(m, M)
    v = np.asarray(v, dtype=np.complex128)
    return np.concatenate([unity_power(m, s, M) * v for s in range(M)])
