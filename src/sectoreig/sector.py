"""Cyclic-symmetric Jacobians stored as one sector and a sector count, and their reduction.

A rotationally periodic operator is fully described by the three nonzero
sector blocks (self, next-neighbor, previous-neighbor coupling, all in
rotated per-sector variables), the sector count M and the per-sector layout,
whose rotating pairs turn by 2 pi/M from sector to sector.  The full
operator A is similar to a block circulant B via the block-diagonal
rotation stack.  B has three nonzero block offsets, so harmonic m sees the
N x N block d_self + rho_m d_next + conj(rho_m) d_prev (:func:`reduced_block`,
canonical arrays built by numpy alone), the spectrum splits into M per-harmonic
problems, and eigenvectors lift back to the full annulus segment by segment,
segment s scaled by rho_m^s, where rho_m = exp(2 pi i m/M) (:func:`root_of_unity`).
With 1 x 1 blocks the same rule gives a scalar circulant's spectrum.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .sparsecore import (
    BudgetExceededError,
    CsrArrays,
    canonical_arrays,
    canonical_csr,
    csr_from_arrays,
    parse_matrix_market,
    write_matrix_market,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

BLOCK_FILES = ("d_self.mtx", "d_next.mtx", "d_prev.mtx")
LAYOUT_FILE = "layout.txt"
LAYOUT_KEYS = ("M", "points_per_sector", "vars_per_point")

# Largest full dimension M*N that materialize and materialize_full assemble
# by default, as one sparse matrix (the whole-annulus solve); verify passes
# the smaller eig.DENSE_EIG_BUDGET, since it forms the dense array.
ASSEMBLY_BUDGET = 200_000


def check_harmonic(m: int, M: int) -> None:
    """Validate a harmonic index against the sector count: 0 <= m < M."""
    if not 0 <= m < M:
        raise ValueError(f"harmonic index {m} out of range [0, {M})")


def root_of_unity(m: int, M: int) -> complex:
    """Return rho_m = exp(2j*pi*m/M), the m-th of the M complex roots of 1.

    Computed from the angle directly (never by repeated multiplication),
    and folded so that root_of_unity(M - m, M) is the exact complex
    conjugate of root_of_unity(m, M): the conj(c) mirror of real sector
    blocks rests on it.
    """
    check_harmonic(m, M)
    if 2 * m > M:
        return root_of_unity(M - m, M).conjugate()
    # exact values at the axis crossings
    if m == 0:
        return 1.0 + 0.0j
    if 2 * m == M:
        return -1.0 + 0.0j
    if 4 * m == M:
        return 1.0j
    angle = 2.0 * math.pi * m / M
    return complex(math.cos(angle), math.sin(angle))


def unity_power(m: int, k: int, M: int) -> complex:
    """rho_m**k with the exponent reduced mod M, so large powers stay exact."""
    return root_of_unity((m * k) % M, M)


@dataclass(frozen=True)
class DofLayout:
    """Per-sector degree-of-freedom layout.

    ``rotating_pairs`` lists index pairs (into the per-point variable
    vector) that transform as in-plane vector components under frame
    rotation; all other variables are rotation-invariant scalars.
    """

    points_per_sector: int
    vars_per_point: int
    rotating_pairs: tuple = ()

    def __post_init__(self):
        if self.points_per_sector < 1 or self.vars_per_point < 1:
            raise ValueError("layout sizes must be positive")
        pairs = tuple((int(a), int(b)) for a, b in self.rotating_pairs)
        seen = set()
        for a, b in pairs:
            if a == b or not (0 <= a < self.vars_per_point) or not (0 <= b < self.vars_per_point):
                raise ValueError(f"invalid rotating pair ({a}, {b})")
            if a in seen or b in seen:
                raise ValueError("rotating pair indices must be distinct")
            seen.update((a, b))
        object.__setattr__(self, "rotating_pairs", pairs)

    @property
    def N(self) -> int:
        return self.points_per_sector * self.vars_per_point


def rotation_matrix(layout: DofLayout, M: int, power: int) -> sp.csr_matrix:
    """Per-sector frame rotation T**power of M sectors as an N x N sparse matrix.

    Block diagonal per grid point: identity on non-rotating variables, a
    2x2 plane rotation by power * 2 pi/M on each rotating pair.  The angle
    is formed directly from ``power`` (negative means inverse), so large
    powers do not accumulate roundoff.
    """
    import scipy.sparse as sp
    point = np.eye(layout.vars_per_point, dtype=np.complex128)
    angle = power * (2.0 * math.pi / M)
    c, s = math.cos(angle), math.sin(angle)
    for a, b in layout.rotating_pairs:
        point[a, a] = c
        point[a, b] = -s
        point[b, a] = s
        point[b, b] = c
    return canonical_csr(sp.kron(sp.identity(layout.points_per_sector), point, format="csr"))


class SectorJacobian:
    """One sector's Jacobian blocks in rotated variables, the sector count M
    and the per-sector layout.

    ``d_self`` couples the sector to itself, ``d_next`` to the sector one
    pitch (2 pi/M) ahead, ``d_prev`` to the sector one pitch behind.  All
    farther couplings are structurally zero.

    The blocks are kept once, as canonical CSR arrays in ``blocks`` (self,
    next, prev); ``csr_from_arrays(J.blocks[i])`` is the scipy matrix of one,
    sharing its memory.  A block given as :class:`CsrArrays` is taken as
    canonical; anything else goes through ``canonical_csr``.  ``rows`` holds
    the row index of each block's stored entries, built once for every
    harmonic's reduction.
    """

    def __init__(self, d_self, d_next, d_prev, M: int, layout: DofLayout):
        if M < 1:
            raise ValueError(f"sector count must be >= 1, got {M}")
        self.M, self.layout = M, layout
        self.N = N = layout.N
        blocks = []
        for name, blk in (("d_self", d_self), ("d_next", d_next), ("d_prev", d_prev)):
            if not isinstance(blk, CsrArrays):
                c = canonical_csr(blk)
                blk = CsrArrays(c.indptr, c.indices, c.data, c.shape)
            if blk.shape != (N, N):
                raise ValueError(f"{name} must be {N}x{N}, got {blk.shape}")
            blocks.append(blk)
        self.blocks = tuple(blocks)
        self.rows = tuple(np.repeat(np.arange(N), np.diff(b.indptr)) for b in blocks)
        if M < 3 and (blocks[1].nnz or blocks[2].nnz):
            raise ValueError(
                "neighbor blocks address distinct sectors only for M >= 3; "
                f"got M = {M} with nonzero neighbor coupling"
            )

    @property
    def is_real(self) -> bool:
        """Whether all three blocks are real, so that reduced_block(J, M - m)
        is conj(reduced_block(J, m)) bit for bit.  O(nnz)."""
        return not any(np.any(b.data.imag) for b in self.blocks)

    @cached_property
    def rotation_stack(self) -> sp.csr_matrix:
        """Block-diagonal stack diag(T^0, T^1, ..., T^{M-1}); its transpose is its inverse."""
        import scipy.sparse as sp
        parts = [rotation_matrix(self.layout, self.M, s) for s in range(self.M)]
        return sp.block_diag(parts, format="csr")

    @classmethod
    def from_unrotated(cls, d_self, d_next, d_prev, M: int, layout: DofLayout) -> "SectorJacobian":
        """Build from neighbor blocks taken with respect to unrotated variables.

        Applies the change of variables internally: the stored next/prev
        blocks are the unrotated ones right-multiplied by T / T^{-1}.
        """
        return cls(d_self, canonical_csr(d_next) @ rotation_matrix(layout, M, 1),
                   canonical_csr(d_prev) @ rotation_matrix(layout, M, -1), M, layout)


def _sum_of_terms(terms, shape) -> CsrArrays:
    """Canonical arrays of the sum of (rows, cols, values) terms in the order
    given, then + 0.0, which makes a -0.0 part +0.0 as a scipy sum does."""
    rows, cols, vals = (np.concatenate(x) for x in zip(*terms))
    a = canonical_arrays(rows, cols, vals, shape)
    a.data[:] += 0.0
    return a


def reduced_block(J: SectorJacobian, m: int) -> CsrArrays:
    """Per-harmonic N x N reduction d_self + rho_m d_next + conj(rho_m) d_prev,
    as canonical arrays; csr_from_arrays makes its scipy matrix, sharing its
    memory.  The offsets 0, 1 and M-1 collide below three sectors, but the
    neighbor blocks are then empty (enforced by SectorJacobian) and add
    nothing."""
    check_harmonic(m, J.M)
    return _sum_of_terms([(rows, b.indices, b.data * unity_power(m, k, J.M))
                          for k, b, rows in zip((0, 1, J.M - 1), J.blocks, J.rows)], (J.N, J.N))


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


def materialize(J: SectorJacobian, budget: int = ASSEMBLY_BUDGET) -> sp.csr_matrix:
    """Assemble the MN x MN block circulant in rotated variables.

    Block (i, j) is b_{(j-i) mod M}: each sector block is tiled into its M
    block positions and the whole is made canonical once.  Refuses
    instances above the size budget.
    """
    full = J.M * J.N
    if full > budget:
        raise BudgetExceededError(
            f"materializing a {full}x{full} operator exceeds budget {budget}",
            required=full,
        )
    i = np.arange(J.M)[:, None]  # block row i holds b_k in block column (i + k) mod M
    terms = [((i * J.N + rows).ravel(), ((i + k) % J.M * J.N + b.indices).ravel(),
              np.tile(b.data, J.M)) for k, b, rows in zip((0, 1, J.M - 1), J.blocks, J.rows)]
    return csr_from_arrays(_sum_of_terms(terms, (full, full)))


def materialize_full(J: SectorJacobian, budget: int = ASSEMBLY_BUDGET) -> sp.csr_matrix:
    """Full MN x MN operator in original (unrotated) variables.

    Block (m1, m2) equals T^{m1} b_{(m2-m1) mod M} T^{-m2}; assembled as
    the similarity product of the rotation stack with the block circulant
    of :func:`materialize`.  Refuses instances above the size budget.
    """
    B = materialize(J, budget=budget)
    if not J.layout.rotating_pairs:
        return B
    stack = J.rotation_stack
    return canonical_csr(stack @ B @ stack.T)


def lift_block_eigenvector(v, m: int, M: int) -> np.ndarray:
    """Expand a length-N reduced eigenvector, or (N, k) columns, to length M*N.

    Segment s of the output is rho_m^s * v, so a reduced eigenpair of the
    harmonic-m block becomes an eigenpair of the block circulant.
    """
    check_harmonic(m, M)
    v = np.asarray(v, dtype=np.complex128)
    return np.concatenate([unity_power(m, s, M) * v for s in range(M)])


def lift_to_annulus(v, m: int, J: SectorJacobian) -> np.ndarray:
    """Lift a reduced eigenvector, or (N, k) columns, to the annulus: segment s is rho_m^s T^s v."""
    v = np.asarray(v)
    if v.shape[0] != J.N:
        raise ValueError(f"vector length {v.shape[0]} != block dimension {J.N}")
    lifted = lift_block_eigenvector(v, m, J.M)
    if not J.layout.rotating_pairs:
        return lifted
    return J.rotation_stack @ lifted


def nodal_diameter(m: int, M: int) -> int:
    """Count of circumferential sign-change diameters of harmonic m: min(m, M - m)."""
    check_harmonic(m, M)
    return min(m, M - m)


def without_rotation(J: SectorJacobian) -> SectorJacobian:
    """Variant with the frame rotation forced to identity (negative control).

    De-rotates the stored neighbor blocks back to original variables and
    empties the rotating pairs, i.e. skips the change of variables that
    makes the operator block circulant.  For genuinely rotating layouts
    the reduced spectra of the result disagree with the true operator.
    """
    lay = J.layout
    if not lay.rotating_pairs:
        return J
    d_self, d_next, d_prev = J.blocks
    return SectorJacobian(d_self, csr_from_arrays(d_next) @ rotation_matrix(lay, J.M, -1),
                          csr_from_arrays(d_prev) @ rotation_matrix(lay, J.M, 1),
                          J.M, DofLayout(lay.points_per_sector, lay.vars_per_point))


def _format_pairs(pairs) -> str:
    return ",".join(f"{a}:{b}" for a, b in pairs)


def _parse_pairs(text: str):
    text = text.strip()
    if not text:
        return ()
    pairs = []
    for chunk in text.split(","):
        try:
            a, b = chunk.split(":")
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ValueError(f"rotating_pairs: cannot read {chunk.strip()!r} as a pair a:b") from None
    return tuple(pairs)


def save_sector_jacobian(J: SectorJacobian, out_dir) -> None:
    """Write the on-disk form: three Matrix Market blocks plus layout.txt."""
    os.makedirs(out_dir, exist_ok=True)
    lay = J.layout
    with open(os.path.join(out_dir, LAYOUT_FILE), "w", encoding="ascii") as fh:
        fh.write(f"M = {J.M}\n")
        fh.write(f"points_per_sector = {lay.points_per_sector}\n")
        fh.write(f"vars_per_point = {lay.vars_per_point}\n")
        fh.write(f"rotating_pairs = {_format_pairs(lay.rotating_pairs)}\n")
    for name, blk in zip(BLOCK_FILES, J.blocks):
        write_matrix_market(os.path.join(out_dir, name), blk)


def load_sector_jacobian(in_dir) -> SectorJacobian:
    """Read a SectorJacobian directory written by :func:`save_sector_jacobian`."""
    layout_path = os.path.join(in_dir, LAYOUT_FILE)
    entries = {}
    with open(layout_path, encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    missing = [key for key in LAYOUT_KEYS if key not in entries]
    if missing:
        raise ValueError(f"{layout_path}: missing key {', '.join(missing)}")
    try:
        M = int(entries["M"])
        if M < 1:
            raise ValueError(f"sector count must be >= 1, got {M}")
        layout = DofLayout(
            points_per_sector=int(entries["points_per_sector"]),
            vars_per_point=int(entries["vars_per_point"]),
            rotating_pairs=_parse_pairs(entries.get("rotating_pairs", "")),
        )
    except ValueError as exc:
        raise ValueError(f"{layout_path}: {exc}") from exc
    blocks = [parse_matrix_market(os.path.join(in_dir, name)) for name in BLOCK_FILES]
    return SectorJacobian(*blocks, M, layout)
