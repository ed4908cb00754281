"""Cyclic-symmetric Jacobians stored as one sector plus a rotation.

A rotationally periodic operator is fully described by the three nonzero
sector blocks (self, next-neighbor, previous-neighbor coupling, all in
rotated per-sector variables) and the per-sector frame rotation.  The full
operator A is similar to a block circulant B via the block-diagonal
rotation stack.  B has three nonzero block offsets, so harmonic m sees the
N x N block d_self + rho_m d_next + conj(rho_m) d_prev (:func:`reduced_block`),
the spectrum splits into M per-harmonic problems, and eigenvectors lift
back to the full annulus segment by segment.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .circulant import lift_block_eigenvector
from .sparsecore import (
    BudgetExceededError,
    canonical_csr,
    check_harmonic,
    read_matrix_market,
    unity_power,
    write_matrix_market,
)

BLOCK_FILES = ("d_self.mtx", "d_next.mtx", "d_prev.mtx")
LAYOUT_FILE = "layout.txt"
LAYOUT_KEYS = ("M", "points_per_sector", "vars_per_point")

# Largest full dimension M*N for which materializing the whole operator
# (the dense-oracle side) is allowed by default.
DENSE_ORACLE_BUDGET = 20_000


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


@dataclass(frozen=True)
class RotationSpec:
    """Sector count plus layout; the pitch angle is 2*pi/M by construction."""

    M: int
    layout: DofLayout

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"sector count must be >= 1, got {self.M}")

    @property
    def theta(self) -> float:
        return 2.0 * math.pi / self.M


def rotation_matrix(spec: RotationSpec, power: int) -> sp.csr_matrix:
    """Per-sector frame rotation T**power as an N x N sparse matrix.

    Block diagonal per grid point: identity on non-rotating variables, a
    2x2 plane rotation by power * theta on each rotating pair.  The angle
    is formed directly from ``power`` (negative means inverse), so large
    powers do not accumulate roundoff.
    """
    lay = spec.layout
    point = np.eye(lay.vars_per_point, dtype=np.complex128)
    angle = power * spec.theta
    c, s = math.cos(angle), math.sin(angle)
    for a, b in lay.rotating_pairs:
        point[a, a] = c
        point[a, b] = -s
        point[b, a] = s
        point[b, b] = c
    return canonical_csr(sp.block_diag([point] * lay.points_per_sector, format="csr"))


@dataclass(frozen=True)
class SectorJacobian:
    """One sector's Jacobian blocks in rotated variables, plus the rotation.

    ``d_self`` couples the sector to itself, ``d_next`` to the sector one
    pitch ahead (positive theta), ``d_prev`` to the sector one pitch
    behind.  All farther couplings are structurally zero.
    """

    d_self: sp.csr_matrix = field(repr=False)
    d_next: sp.csr_matrix = field(repr=False)
    d_prev: sp.csr_matrix = field(repr=False)
    rotation: RotationSpec

    def __post_init__(self):
        N = self.rotation.layout.N
        for name in ("d_self", "d_next", "d_prev"):
            blk = canonical_csr(getattr(self, name))
            if blk.shape != (N, N):
                raise ValueError(f"{name} must be {N}x{N}, got {blk.shape}")
            object.__setattr__(self, name, blk)
        if self.rotation.M < 3 and (self.d_next.nnz or self.d_prev.nnz):
            raise ValueError(
                "neighbor blocks address distinct sectors only for M >= 3; "
                f"got M = {self.rotation.M} with nonzero neighbor coupling"
            )

    @property
    def M(self) -> int:
        return self.rotation.M

    @property
    def N(self) -> int:
        return self.rotation.layout.N

    @property
    def is_real(self) -> bool:
        """Whether all three blocks are real, so that reduced_block(J, M - m)
        is conj(reduced_block(J, m)) bit for bit.  O(nnz)."""
        return not any(np.any(b.data.imag) for b in (self.d_self, self.d_next, self.d_prev))

    @cached_property
    def rotation_stack(self) -> sp.csr_matrix:
        """Block-diagonal stack diag(T^0, T^1, ..., T^{M-1}); its transpose is its inverse."""
        parts = [rotation_matrix(self.rotation, s) for s in range(self.M)]
        return sp.block_diag(parts, format="csr")

    @classmethod
    def from_unrotated(cls, d_self, d_next, d_prev, rotation: RotationSpec) -> "SectorJacobian":
        """Build from neighbor blocks taken with respect to unrotated variables.

        Applies the change of variables internally: the stored next/prev
        blocks are the unrotated ones right-multiplied by T / T^{-1}.
        """
        t_fwd = rotation_matrix(rotation, 1)
        t_bwd = rotation_matrix(rotation, -1)
        return cls(
            d_self=d_self,
            d_next=canonical_csr(d_next) @ t_fwd,
            d_prev=canonical_csr(d_prev) @ t_bwd,
            rotation=rotation,
        )


def cyclic_shift(M: int, k: int) -> sp.csr_matrix:
    """M x M cyclic shift S^k: ones at (i, (i + k) mod M)."""
    i = np.arange(M)
    return sp.csr_matrix((np.ones(M), (i, (i + k) % M)), shape=(M, M))


def reduced_block(J: SectorJacobian, m: int) -> sp.csr_matrix:
    """Per-harmonic N x N reduction: d_self + rho_m d_next + conj(rho_m) d_prev.

    The offsets are 0, 1 and M-1; below three sectors they collide, but the
    neighbor blocks are then empty (enforced by SectorJacobian) and add nothing.
    """
    check_harmonic(m, J.M)
    terms = ((0, J.d_self), (1, J.d_next), (J.M - 1, J.d_prev))
    return canonical_csr(sum(unity_power(m, k, J.M) * b for k, b in terms))


def materialize(J: SectorJacobian, budget: int = DENSE_ORACLE_BUDGET) -> sp.csr_matrix:
    """Assemble the MN x MN block circulant in rotated variables: sum_k kron(S^k, b_k).

    Block (i, j) is b_{(j-i) mod M}.  Intended for oracle-side
    verification only, hence the size budget.
    """
    full = J.M * J.N
    if full > budget:
        raise BudgetExceededError(
            f"materializing a {full}x{full} operator exceeds budget {budget}",
            required=full,
        )
    terms = ((0, J.d_self), (1, J.d_next), (J.M - 1, J.d_prev))
    return canonical_csr(sum(sp.kron(cyclic_shift(J.M, k), b, format="csr") for k, b in terms))


def materialize_full(J: SectorJacobian, budget: int = DENSE_ORACLE_BUDGET) -> sp.csr_matrix:
    """Full MN x MN operator in original (unrotated) variables.

    Block (m1, m2) equals T^{m1} b_{(m2-m1) mod M} T^{-m2}; assembled as
    the similarity product of the rotation stack with the block circulant's
    Kronecker assembly.  Refuses instances above the size budget.
    """
    B = materialize(J, budget=budget)
    if not J.rotation.layout.rotating_pairs:
        return B
    stack = J.rotation_stack
    return canonical_csr(stack @ B @ stack.T)


def lift_to_annulus(v, m: int, J: SectorJacobian) -> np.ndarray:
    """Lift a reduced eigenvector, or (N, k) columns, to the annulus: segment s is rho_m^s T^s v."""
    v = np.asarray(v)
    if v.shape[0] != J.N:
        raise ValueError(f"vector length {v.shape[0]} != block dimension {J.N}")
    lifted = lift_block_eigenvector(v, m, J.M)
    if not J.rotation.layout.rotating_pairs:
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
    lay = J.rotation.layout
    if not lay.rotating_pairs:
        return J
    stripped = DofLayout(lay.points_per_sector, lay.vars_per_point, ())
    spec = RotationSpec(J.M, stripped)
    t_fwd = rotation_matrix(J.rotation, 1)
    t_bwd = rotation_matrix(J.rotation, -1)
    return SectorJacobian(
        d_self=J.d_self,
        d_next=J.d_next @ t_bwd,
        d_prev=J.d_prev @ t_fwd,
        rotation=spec,
    )


def _format_pairs(pairs) -> str:
    return ",".join(f"{a}:{b}" for a, b in pairs)


def _parse_pairs(text: str):
    text = text.strip()
    if not text:
        return ()
    pairs = []
    for chunk in text.split(","):
        a, b = chunk.strip().split(":")
        pairs.append((int(a), int(b)))
    return tuple(pairs)


def save_sector_jacobian(J: SectorJacobian, out_dir) -> None:
    """Write the on-disk form: three Matrix Market blocks plus layout.txt."""
    os.makedirs(out_dir, exist_ok=True)
    lay = J.rotation.layout
    with open(os.path.join(out_dir, LAYOUT_FILE), "w", encoding="ascii") as fh:
        fh.write(f"M = {J.M}\n")
        fh.write(f"points_per_sector = {lay.points_per_sector}\n")
        fh.write(f"vars_per_point = {lay.vars_per_point}\n")
        fh.write(f"rotating_pairs = {_format_pairs(lay.rotating_pairs)}\n")
    for name, blk in zip(BLOCK_FILES, (J.d_self, J.d_next, J.d_prev)):
        write_matrix_market(os.path.join(out_dir, name), blk)


def load_sector_jacobian(in_dir) -> SectorJacobian:
    """Read a SectorJacobian directory written by :func:`save_sector_jacobian`."""
    layout_path = os.path.join(in_dir, LAYOUT_FILE)
    entries = {}
    with open(layout_path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    missing = [key for key in LAYOUT_KEYS if key not in entries]
    if missing:
        raise ValueError(f"{layout_path}: missing key {', '.join(missing)}")
    layout = DofLayout(
        points_per_sector=int(entries["points_per_sector"]),
        vars_per_point=int(entries["vars_per_point"]),
        rotating_pairs=_parse_pairs(entries.get("rotating_pairs", "")),
    )
    spec = RotationSpec(int(entries["M"]), layout)
    blocks = [read_matrix_market(os.path.join(in_dir, name)) for name in BLOCK_FILES]
    return SectorJacobian(blocks[0], blocks[1], blocks[2], spec)
