"""Interior eigenvalue extraction near complex shifts, plus the dense oracle.

The workhorse is shift-invert Arnoldi: factor (A - sigma I), iterate on its
inverse so eigenvalues near sigma become dominant, then map Ritz values
back via lambda = sigma + 1/mu.  The inner iteration is ARPACK through
scipy.  On a block of dimension n <= DENSE_EIG_BUDGET, Arnoldi may apply
the inverse n + 1 times, the cost of one pass over the whole space; when
that runs out (or k > n - 2), the block is decomposed densely once and
that decomposition answers the current shift and every later shift of the
same block.  Pairs from both routes are re-verified by a direct sparse
residual and accepted on their normwise backward error, so nothing is
trusted from the inner iteration alone.
"""

from __future__ import annotations

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
    factor_nnz: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    perturbed_shifts: list = field(default_factory=list)
    dense_blocks: list = field(default_factory=list)
    raw_count: int = 0

    @property
    def peak_factor_nnz(self) -> int:
        return max(self.factor_nnz.values(), default=0)

    @property
    def dedup_removed(self) -> int:
        return self.raw_count - len(self.pairs)

    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.pairs])


def _start_vector(n: int) -> np.ndarray:
    rng = np.random.default_rng(_START_VECTOR_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class Block:
    """One square operator solved at several shifts.

    Holds the canonical CSR matrix, its 1-norm (the scale of the acceptance
    test) and, once computed, its dense eigendecomposition, which then
    answers every later shift with no LU factorization and no Arnoldi.
    """

    def __init__(self, A):
        self.matrix = canonical_csr(A)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"matrix must be square, got {self.matrix.shape}")
        self.n = self.matrix.shape[0]
        # ||B||_1, the largest column sum of |b_ij|
        self.norm1 = float(np.bincount(self.matrix.indices, np.abs(self.matrix.data),
                                       minlength=self.n).max(initial=0.0))
        self.dense = None

    def decompose(self) -> None:
        """Store (values, vectors) of the dense eigendecomposition, once."""
        if self.dense is None:
            self.dense = np.linalg.eig(self.matrix.toarray())


class _BudgetSpent(Exception):
    """Arnoldi asked for more operator applications than its budget."""


def _arnoldi(block: Block, sigma: complex, k: int, info: SolveInfo):
    """Shift-invert Arnoldi candidates [(lambda, v)] near sigma.

    On a block within DENSE_EIG_BUDGET, Arnoldi may apply the inverse at
    most n + 1 times, the cost of one pass over the whole space.  Past that
    the block is decomposed densely and no candidates are returned.
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
    if res > cfg.tol * scale:
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
    every shift lets one dense decomposition answer all of them.  The dense
    route is taken when k > n - 2 (too small for ARPACK) or when Arnoldi
    spends its budget of n + 1 inverse applications; it needs no LU.

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

    if block.dense is None and k > n - 2:
        block.decompose()
    if block.dense is None:
        candidates = _arnoldi(block, sigma, k, info)
    if block.dense is not None:
        w, V = block.dense
        order = np.argsort(np.abs(w - sigma), kind="stable")[:k]
        candidates = [(w[i], V[:, i]) for i in order]

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


def _solve_block(A, cfg: ShiftInvertConfig, report: SpectrumReport,
                 harmonic: int | None) -> list:
    """Solve one block at every configured shift, fold the bookkeeping into
    report (keyed by harmonic, or "full"), and return its deduplicated pairs."""
    key = "full" if harmonic is None else harmonic
    prefix = "" if harmonic is None else f"harmonic {harmonic}: "
    block = Block(A)
    collected = []
    for sigma in cfg.shifts:
        pairs, info = shift_invert_eigs(block, sigma, cfg.eigs_per_shift, cfg,
                                        harmonic=harmonic)
        collected.extend(pairs)
        report.factor_nnz[key] = max(report.factor_nnz.get(key, 0), info.factor_nnz)
        report.warnings.extend(prefix + w for w in info.warnings)
        if info.perturbed_shift is not None:
            report.perturbed_shifts.append((key, sigma, info.perturbed_shift))
    if block.dense is not None:
        report.dense_blocks.append(key)
    report.raw_count += len(collected)
    return deduplicate_pairs(collected)


def solve_annulus_spectrum(J: SectorJacobian, harmonics=None,
                           cfg: ShiftInvertConfig | None = None) -> SpectrumReport:
    """Per-harmonic (single-sector) spectrum of the full annulus operator.

    For each distinct harmonic m, in ascending order, the reduced block is
    assembled, divided by cfg.scale, and solved near every configured
    shift; duplicates across shifts are merged per harmonic.  Failures in
    one harmonic are recorded as warnings without aborting the others.
    """
    cfg = cfg or ShiftInvertConfig()
    if harmonics is None:
        harmonics = range(J.M)
    report = SpectrumReport(pairs=[], M=J.M, N=J.N)
    for m in sorted(set(harmonics)):
        t0 = time.perf_counter()
        try:
            Bm = reduced_block(J, m) * (1.0 / cfg.scale)
            report.pairs.extend(_solve_block(Bm, cfg, report, m))
        except ValueError as exc:
            report.warnings.append(f"harmonic {m} failed: {exc}")
        report.wall_times[m] = time.perf_counter() - t0
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
    report.pairs = _solve_block(A, cfg, report, None)
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
