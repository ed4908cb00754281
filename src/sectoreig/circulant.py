"""Scalar and block circulant operators and their analytic eigenstructure.

A circulant matrix is diagonalized by the DFT vectors [1, rho_m, rho_m^2,
...]; at block granularity the same structure reduces an MN x MN operator
to M independent N x N problems, one per harmonic index m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .sparsecore import (
    BudgetExceededError,
    canonical_csr,
    check_harmonic,
    root_of_unity,
    unity_power,
)

# Largest full dimension M*N for which materializing the whole operator
# (the dense-oracle side) is allowed by default.
DENSE_ORACLE_BUDGET = 20_000


def circulant_eigenvalues(first_row) -> np.ndarray:
    """All K eigenvalues of the K x K circulant with this first row, ordered by harmonic.

    Harmonic m sees sum_k b_k rho_m^k over the nonzero entries b_k only, the
    rule of :func:`reduced_block` with 1 x 1 blocks; its eigenvector is
    [1, rho_m, ..., rho_m^{K-1}], ``lift_block_eigenvector([1.0], m, K)``.
    """
    row = np.asarray(first_row, dtype=np.complex128)
    if row.ndim != 1 or row.size == 0:
        raise ValueError(f"first_row must be a non-empty 1-D array, got shape {row.shape}")
    K = row.size
    roots = np.array([root_of_unity(j, K) for j in range(K)])
    k = np.flatnonzero(row)
    return roots[np.outer(np.arange(K), k) % K] @ row[k]


@dataclass(frozen=True)
class BlockCirculantOperator:
    """Block circulant stored as M plus its nonzero offsets.

    ``blocks`` maps offset k in [0, M) to the N x N block at (i, (i + k) mod M),
    in ascending offset order; missing offsets are zero blocks.
    """

    M: int
    blocks: dict = field(repr=False)

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"sector count must be >= 1, got {self.M}")
        if not self.blocks:
            raise ValueError("need at least one block")
        blocks = {}
        for k in sorted(self.blocks):
            if not 0 <= k < self.M:
                raise ValueError(f"block offset {k} out of range [0, {self.M})")
            blocks[k] = canonical_csr(self.blocks[k])
        dim = next(iter(blocks.values())).shape
        if dim[0] != dim[1]:
            raise ValueError(f"blocks must be square, got {dim}")
        for b in blocks.values():
            if b.shape != dim:
                raise ValueError(f"inconsistent block shapes: {b.shape} vs {dim}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def N(self) -> int:
        return next(iter(self.blocks.values())).shape[0]


def cyclic_shift(M: int, k: int) -> sp.csr_matrix:
    """M x M cyclic shift S^k: ones at (i, (i + k) mod M)."""
    i = np.arange(M)
    return sp.csr_matrix((np.ones(M), (i, (i + k) % M)), shape=(M, M))


def reduced_block(op: BlockCirculantOperator, m: int) -> sp.csr_matrix:
    """Per-harmonic N x N reduction: sum of rho_m^k * b_k over the nonzero offsets k."""
    check_harmonic(m, op.M)
    return canonical_csr(sum(unity_power(m, k, op.M) * b for k, b in op.blocks.items()))


def lift_block_eigenvector(v, m: int, M: int) -> np.ndarray:
    """Expand a length-N reduced eigenvector, or (N, k) columns, to length M*N.

    Segment s of the output is rho_m^s * v, so a reduced eigenpair of the
    harmonic-m block becomes an eigenpair of the full operator.
    """
    check_harmonic(m, M)
    v = np.asarray(v, dtype=np.complex128)
    return np.concatenate([unity_power(m, s, M) * v for s in range(M)])


def materialize(op: BlockCirculantOperator, budget: int = DENSE_ORACLE_BUDGET) -> sp.csr_matrix:
    """Assemble the full MN x MN operator by Kronecker assembly: sum_k kron(S^k, b_k).

    Block (i, j) is b_{(j-i) mod M}.  Intended for oracle-side
    verification only, hence the size budget.
    """
    full = op.M * op.N
    if full > budget:
        raise BudgetExceededError(
            f"materializing a {full}x{full} operator exceeds budget {budget}",
            required=full,
        )
    return canonical_csr(sum(sp.kron(cyclic_shift(op.M, k), b, format="csr")
                             for k, b in op.blocks.items()))


def block_shift_permutation(M: int, N: int) -> sp.csr_matrix:
    """Cyclic block-shift permutation: segment s of P @ x is segment (s+1) mod M of x."""
    return canonical_csr(sp.kron(cyclic_shift(M, 1), sp.identity(N), format="csr"))
