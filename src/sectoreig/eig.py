"""Interior eigenvalue extraction near complex shifts, plus the dense oracle.

The workhorse is shift-invert Arnoldi: factor (A - sigma I), iterate on its
inverse so eigenvalues near sigma become dominant, then map Ritz values
back via lambda = sigma + 1/mu.  The inner iteration is ARPACK through
scipy.

Each block's route is chosen once, from its dimension n, before any LU:
a block with MIN_SUBSPACE_DIM < n <= DENSE_ROUTE_MAX_DIM takes the dense
route, where all n eigenvalues are computed once and answer every shift.
Other blocks go to Arnoldi; on one with n <= DENSE_EIG_BUDGET, Arnoldi may
apply the inverse n + 1 times, the cost of one pass over the whole space,
and when that runs out (or k > n - 2) the block takes the dense route
after all.  The dense route computes eigenvalues only; each chosen
eigenvalue gets its vector from one step of inverse iteration, a single
dense solve, which from a backward-stable eigenvalue leaves a residual
near eps ||B||.

When all three sector blocks are real, B_{M-m} = conj(B_m) bit for bit,
so once harmonic m's eigenvalues are computed densely, their conjugates
are harmonic M - m's; its vectors are solved on B_{M-m} itself.  Blocks
on the Arnoldi route solve their own matrix, since the LU of
B_m - conj(sigma) I would only replace that of B_{M-m} - sigma I one for
one.  Pairs from every route are re-verified by a direct sparse residual
on their own block and accepted on their normwise backward error, so
nothing is trusted from the inner iteration or the mirror alone.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

from .sector import SectorJacobian, materialize_full, reduced_block
from .sparsecore import (
    BudgetExceededError,
    SingularMatrixError,
    SparseLU,
    canonical_csr,
    spmv,
)

# Largest dimension accepted by the dense eigendecomposition oracle.
DENSE_EIG_BUDGET = 4_000
# Largest block sent straight to the dense route: the largest block of a
# perfbench workload that gains from it (rotvec-clustered, n = 100, whose
# clustered spectrum spends the Arnoldi budget and ends dense anyway).
# Measured on 2 cores, BLAS at 1 thread, 3 shifts and k = 2 (medians of 21),
# the dense route (all eigenvalues, then one solve per chosen vector)
# against three Arnoldi solves: random blocks 10-12 against 20-26 ms at
# n = 100, 49-52 against 44-46 ms at n = 200; ring blocks 2.2 against
# 6.4-7.0 ms at n = 50, but 14 against 7 ms at n = 100.  No workload has a
# block between 100 and 800, so the crossover in that range is not pinned.
# Blocks with n <= MIN_SUBSPACE_DIM stay on Arnoldi, whose subspace is then
# the whole block: perfbench's tracer test counts one LU factorization per
# (harmonic, shift) on such a block.
DENSE_ROUTE_MAX_DIM = 100
# Largest full dimension M*N the sparse whole-annulus solve will assemble.
SPARSE_SOLVE_BUDGET = 200_000

# Arnoldi subspace dimension is max(MIN_SUBSPACE_DIM, 2k + 1), capped at n.
MIN_SUBSPACE_DIM = 20
# ARPACK restart cap; on blocks within DENSE_EIG_BUDGET the budget of n + 1
# inverse applications normally ends Arnoldi first.
MAX_RESTARTS = 300
# Relative distance below which two eigenvalues of one harmonic are merged.
DEDUP_BASE_TOL = 1e-6

# Fixed seed for the Arnoldi start vector so repeated runs are bit-stable.
_START_VECTOR_SEED = 20230817


@dataclass(frozen=True)
class ShiftInvertConfig:
    """Knobs for the shift-invert solves.

    ``scale`` divides the operator before solving, so reported eigenvalues
    come out in engine-order-like units when it is set to the rotor
    angular rate.

    ``tol`` bounds the normwise backward error of an accepted pair,
    ``||Bv - lambda v|| / ((||B||_1 + |lambda|) ||v||)``, so it does not
    depend on the scale of B.
    """

    shifts: tuple = (1j, 2j, 3j)
    eigs_per_shift: int = 2
    tol: float = 1e-10
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(complex(s) for s in self.shifts))
        if self.eigs_per_shift < 1:
            raise ValueError("eigs_per_shift must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


@dataclass
class EigenPair:
    """One accepted eigenpair with its provenance."""

    value: complex
    vector: np.ndarray = field(repr=False)
    harmonic: int | None
    residual: float
    shift: complex


@dataclass
class SolveInfo:
    """Bookkeeping from a single shift-invert solve."""

    factor_nnz: int = 0
    matvecs: int = 0
    perturbed_shift: complex | None = None
    warnings: list = field(default_factory=list)


@dataclass
class SpectrumReport:
    """Aggregated eigenpairs over harmonics and shifts plus run metadata."""

    pairs: list
    M: int
    N: int
    wall_times: dict = field(default_factory=dict)
    # per block: LU factor nonzeros, or n**2 once it is decomposed densely
    storage: dict = field(default_factory=dict)
    # per block: "arnoldi", "dense", or "conj(c)" when mirrored from harmonic c
    routes: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    perturbed_shifts: list = field(default_factory=list)
    raw_count: int = 0

    @property
    def peak_storage(self) -> int:
        return max(self.storage.values(), default=0)

    @property
    def dedup_removed(self) -> int:
        return self.raw_count - len(self.pairs)

    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.pairs])


@functools.cache
def _start_vector(n: int) -> np.ndarray:
    """Unit start vector of length n, shared (read-only) by ARPACK's v0 and
    the inverse-iteration step."""
    rng = np.random.default_rng(_START_VECTOR_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


class Block:
    """One square operator solved at several shifts.

    Holds the canonical CSR matrix, its 1-norm (the scale of the acceptance
    test) and, on the dense route, all its eigenvalues, which then answer
    every later shift with no LU factorization and no Arnoldi.  The vector
    of a chosen eigenvalue is solved on demand and kept until
    :meth:`release`, so a pair chosen by several shifts is solved once.
    """

    def __init__(self, A):
        self.matrix = canonical_csr(A)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"matrix must be square, got {self.matrix.shape}")
        self.n = self.matrix.shape[0]
        # ||B||_1, the largest column sum of |b_ij|
        self.norm1 = float(np.bincount(self.matrix.indices, np.abs(self.matrix.data),
                                       minlength=self.n).max(initial=0.0))
        self.values = None
        self._vectors = {}

    def decompose(self) -> None:
        """Store every eigenvalue of the dense block, once."""
        if self.values is None:
            self.values = np.linalg.eigvals(self.matrix.toarray())

    def vector(self, i: int) -> np.ndarray:
        """Eigenvector of values[i] by one step of inverse iteration: the
        solution of (B - values[i] I) x = v0.  An exactly singular
        B - values[i] I is retried once with the eigenvalue moved by
        eps * (1 + ||B||_1)."""
        if i not in self._vectors:
            shifted = self.matrix.toarray()
            diagonal = np.diag_indices(self.n)
            shifted[diagonal] -= self.values[i]
            # v0 times a power of two within a factor 2 of ||B||_1, an exact
            # scaling: ||x|| is then near 1/eps whatever the scale of B, so
            # on a tiny block x neither overflows nor overflows its norm
            rhs = _start_vector(self.n) * math.ldexp(1.0, math.frexp(self.norm1)[1])
            try:
                x = np.linalg.solve(shifted, rhs)
            except np.linalg.LinAlgError:
                shifted[diagonal] -= np.finfo(float).eps * (1.0 + self.norm1)
                x = np.linalg.solve(shifted, rhs)
            self._vectors[i] = x
        return self._vectors[i]

    def release(self) -> None:
        """Drop the solved vectors; keep the values."""
        self._vectors = {}


class _BudgetSpent(Exception):
    """Arnoldi asked for more operator applications than its budget."""


def _arnoldi(block: Block, sigma: complex, k: int, info: SolveInfo):
    """Shift-invert Arnoldi candidates [(lambda, v)] near sigma.

    On a block within DENSE_EIG_BUDGET, Arnoldi may apply the inverse at
    most n + 1 times, the cost of one pass over the whole space.  Past that
    the block's eigenvalues are computed densely and no candidates are
    returned.
    """
    n = block.n
    eye = sp.identity(n, dtype=np.complex128, format="csr")
    sigma_used = sigma
    try:
        lu = SparseLU(block.matrix - sigma_used * eye)
    except SingularMatrixError:
        sigma_used = sigma + 1e-8 * (1.0 + abs(sigma))
        info.perturbed_shift = sigma_used
        lu = SparseLU(block.matrix - sigma_used * eye)
    info.factor_nnz = lu.factor_nnz
    budget = n + 1 if n <= DENSE_EIG_BUDGET else math.inf

    def apply_inverse(x):
        if info.matvecs >= budget:
            raise _BudgetSpent
        info.matvecs += 1
        return lu.solve(x)

    op = LinearOperator((n, n), matvec=apply_inverse, dtype=np.complex128)
    ncv = max(k + 2, min(max(MIN_SUBSPACE_DIM, 2 * k + 1), n))
    try:
        mu, W = eigs(op, k=k, which="LM", ncv=ncv,
                     maxiter=MAX_RESTARTS, tol=0, v0=_start_vector(n))
    except _BudgetSpent:
        block.decompose()
        return []
    except ArpackNoConvergence as exc:
        mu, W = exc.eigenvalues, exc.eigenvectors
        info.warnings.append(
            f"shift {sigma}: only {len(mu)}/{k} eigenvalues converged "
            f"after {MAX_RESTARTS} restarts"
        )
    return [(sigma_used + 1.0 / mu[i], W[:, i]) for i in range(len(mu))]


def _accept(block: Block, lam: complex, v: np.ndarray, sigma: complex, harmonic,
            cfg: ShiftInvertConfig, info: SolveInfo):
    """The pair with v normalized if its normwise backward error
    ||Bv - lam v|| / ((||B||_1 + |lam|) ||v||) is within cfg.tol; else None,
    with the drop recorded in info.warnings."""
    v = v / np.linalg.norm(v)
    res = float(np.linalg.norm(spmv(block.matrix, v) - lam * v))
    scale = block.norm1 + abs(lam)
    if not res <= cfg.tol * scale:  # a NaN residual is dropped too
        info.warnings.append(
            f"dropped pair near {lam:.6g}: re-verified residual {res:.3e}, "
            f"backward error {res / scale:.3e} > {cfg.tol:.1e}"
        )
        return None
    return EigenPair(complex(lam), v, harmonic, res, sigma)


def shift_invert_eigs(A, sigma: complex, k: int, cfg: ShiftInvertConfig,
                      harmonic: int | None = None):
    """Up to k eigenpairs of A nearest sigma, ordered by |lambda - sigma|.

    A is a sparse matrix or a :class:`Block`; passing the same Block for
    every shift lets one dense eigenvalue computation answer all of them.
    The dense route is taken when the block's eigenvalues are already
    known, when k > n - 2 (too small for ARPACK) or when Arnoldi spends its
    budget of n + 1 inverse applications; it needs no sparse LU, and each
    chosen eigenvalue's vector costs one dense solve.

    Returns (pairs, info).  A singular (A - sigma I) is retried once with
    sigma perturbed by 1e-8 * (1 + |sigma|) and the perturbation flagged;
    non-convergence returns the converged subset with a warning.  Every
    pair, from either route, is re-verified by direct sparse application
    and dropped (with a warning) when its backward error exceeds cfg.tol.
    """
    block = A if isinstance(A, Block) else Block(A)
    if k < 1:
        raise ValueError("k must be >= 1")
    n = block.n
    sigma = complex(sigma)
    info = SolveInfo()

    if block.values is None and k > n - 2:
        block.decompose()
    if block.values is None:
        candidates = _arnoldi(block, sigma, k, info)
    if block.values is not None:
        w = block.values
        order = np.argsort(np.abs(w - sigma), kind="stable")[:k]
        candidates = [(w[i], block.vector(i)) for i in order]

    pairs = [p for lam, v in candidates
             if (p := _accept(block, lam, v, sigma, harmonic, cfg, info)) is not None]
    pairs.sort(key=lambda p: (abs(p.value - sigma), p.value.real, p.value.imag))
    return pairs, info


def dense_eigs(A, budget: int = DENSE_EIG_BUDGET):
    """Full dense eigendecomposition oracle: returns (values, right vectors).

    Accepts a dense array or a sparse matrix; refuses dimensions above the
    budget, before any densification, since this path is strictly for
    verification.
    """
    if not sp.issparse(A):
        A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    n = A.shape[0]
    if n > budget:
        raise BudgetExceededError(
            f"dense oracle refuses dimension {n} > budget {budget}", required=n
        )
    if sp.issparse(A):
        A = A.toarray()
    return np.linalg.eig(np.asarray(A, dtype=np.complex128))


def deduplicate_pairs(pairs):
    """Merge duplicates (same harmonic, nearby eigenvalues), keeping the
    smaller residual.  Idempotent: a second pass changes nothing."""
    kept: list = []
    ordered = sorted(pairs, key=lambda p: (p.residual, p.value.real, p.value.imag))
    for cand in ordered:
        dup = False
        for prev in kept:
            if prev.harmonic != cand.harmonic:
                continue
            if abs(prev.value - cand.value) < DEDUP_BASE_TOL * max(1.0, abs(prev.value)):
                dup = True
                break
        if not dup:
            kept.append(cand)
    kept.sort(key=lambda p: (
        -1 if p.harmonic is None else p.harmonic,
        abs(p.value - p.shift),
        p.value.imag,
        p.value.real,
    ))
    return kept


def _solve_block(block: Block, cfg: ShiftInvertConfig, report: SpectrumReport,
                 key) -> list:
    """Solve one block at every configured shift, fold the bookkeeping into
    report (keyed by harmonic, or "full"), and return its deduplicated pairs.

    The block's eigenvalues are computed up front when its dimension puts
    it on the dense route.  Its solved vectors are released on return; its
    eigenvalues stay for a mirrored harmonic.
    """
    harmonic = None if key == "full" else key
    prefix = "" if harmonic is None else f"harmonic {harmonic}: "
    if MIN_SUBSPACE_DIM < block.n <= DENSE_ROUTE_MAX_DIM:
        block.decompose()
    collected = []
    storage = 0
    for sigma in cfg.shifts:
        pairs, info = shift_invert_eigs(block, sigma, cfg.eigs_per_shift, cfg,
                                        harmonic=harmonic)
        collected.extend(pairs)
        storage = max(storage, info.factor_nnz)
        report.warnings.extend(prefix + w for w in info.warnings)
        if info.perturbed_shift is not None:
            report.perturbed_shifts.append((key, sigma, info.perturbed_shift))
    block.release()
    dense = block.values is not None
    report.storage[key] = max(storage, block.n ** 2 if dense else 0)
    # a mirrored block's route, conj(c), is already set by its caller
    report.routes.setdefault(key, "dense" if dense else "arnoldi")
    report.raw_count += len(collected)
    return deduplicate_pairs(collected)


def solve_annulus_spectrum(J: SectorJacobian, harmonics=None,
                           cfg: ShiftInvertConfig | None = None) -> SpectrumReport:
    """Per-harmonic (single-sector) spectrum of the full annulus operator.

    Each distinct harmonic m is solved on its own block, divided by
    cfg.scale, near every configured shift; duplicates across shifts are
    merged per harmonic.  When the sector blocks are real, harmonics c and
    M - c are solved one after the other, and the dense eigenvalues of B_c,
    conjugated, are those of B_{M-c} (route "conj(c)"), whose vectors are
    solved on B_{M-c}; at most one block's eigenvalues are held at a time.
    Failures in one harmonic are recorded as warnings without aborting the
    others.  Pairs come out in ascending harmonic order.
    """
    cfg = cfg or ShiftInvertConfig()
    if harmonics is None:
        harmonics = range(J.M)
    report = SpectrumReport(pairs=[], M=J.M, N=J.N)
    mirror = J.is_real
    by_source: dict = {}
    for m in sorted(set(harmonics)):
        by_source.setdefault(min(m, J.M - m) if mirror else m, []).append(m)
    for c, members in by_source.items():
        source = None
        for m in members:
            t0 = time.perf_counter()
            try:
                block = Block(reduced_block(J, m) * (1.0 / cfg.scale))
                if source is not None and source.values is not None:
                    # B_m = conj(B_c): conjugate c's eigenvalues, then drop them
                    block.values = source.values.conj()
                    report.routes[m] = f"conj({c})"
                    source = None
                report.pairs.extend(_solve_block(block, cfg, report, m))
                source = block
            except ValueError as exc:
                report.warnings.append(f"harmonic {m} failed: {exc}")
            report.wall_times[m] = time.perf_counter() - t0
    report.pairs.sort(key=lambda p: p.harmonic)
    return report


def solve_full_annulus(J: SectorJacobian, cfg: ShiftInvertConfig | None = None) -> SpectrumReport:
    """Whole-annulus spectrum: assemble A sparsely, shift-invert per shift.

    No harmonic labels are available on this route; pairs carry
    harmonic = None.
    """
    cfg = cfg or ShiftInvertConfig()
    A = materialize_full(J, budget=SPARSE_SOLVE_BUDGET) * (1.0 / cfg.scale)
    report = SpectrumReport(pairs=[], M=J.M, N=J.N)
    t0 = time.perf_counter()
    report.pairs = _solve_block(Block(A), cfg, report, "full")
    report.wall_times["full"] = time.perf_counter() - t0
    return report


def greedy_match(a, b):
    """Greedy minimum-distance bipartite pairing of two complex multisets.

    Returns the per-pair distances (ascending order of pairing).  Lengths
    must agree; this is the spectrum-comparison rule used everywhere a
    multiset equality is asserted.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"multisets differ in size: {a.shape} vs {b.shape}")
    n = len(a)
    if n == 0:
        return np.zeros(0)
    dist = np.abs(a[:, None] - b[None, :])
    order = np.argsort(dist, axis=None, kind="stable")
    used_a = np.zeros(n, dtype=bool)
    used_b = np.zeros(n, dtype=bool)
    out = []
    for flat in order:
        i, j = divmod(int(flat), n)
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = True
        used_b[j] = True
        out.append(dist[i, j])
        if len(out) == n:
            break
    return np.array(out)
