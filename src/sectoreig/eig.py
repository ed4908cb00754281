"""Interior eigenvalue extraction near complex shifts, plus the dense oracle.

The workhorse is shift-invert Arnoldi: factor (A - sigma I), iterate on its
inverse so eigenvalues near sigma become dominant, then map Ritz values
back via lambda = sigma + 1/mu.  The inner iteration is ARPACK through
scipy; every accepted pair is re-verified by a direct sparse residual, so
nothing is trusted from the inner iteration alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

from .circulant import reduced_block
from .sector import SectorJacobian, materialize_full, to_block_circulant
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

# Fixed seed for the Arnoldi start vector so repeated runs are bit-stable.
_START_VECTOR_SEED = 20230817


@dataclass(frozen=True)
class ShiftInvertConfig:
    """Knobs for the shift-invert solves.

    ``scale`` divides the operator before solving, so reported eigenvalues
    come out in engine-order-like units when it is set to the rotor
    angular rate.  ``subspace_dim`` of None means max(20, 2k + 1).
    """

    shifts: tuple = (1j, 2j, 3j)
    eigs_per_shift: int = 2
    subspace_dim: int | None = None
    tol: float = 1e-10
    max_restarts: int = 300
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(complex(s) for s in self.shifts))
        if self.eigs_per_shift < 1:
            raise ValueError("eigs_per_shift must be >= 1")
        if self.subspace_dim is not None and self.subspace_dim < 2 * self.eigs_per_shift + 1:
            raise ValueError("subspace_dim must be >= 2 * eigs_per_shift + 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def ncv(self, k: int, n: int) -> int:
        want = self.subspace_dim if self.subspace_dim is not None else max(20, 2 * k + 1)
        return max(k + 2, min(want, n))


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
    wall_time: float = 0.0
    perturbed_shift: complex | None = None
    warning: str | None = None


@dataclass
class SpectrumReport:
    """Aggregated eigenpairs over harmonics and shifts plus run metadata."""

    pairs: list
    M: int
    N: int
    scale: float
    dedup_tolerance: float
    method: str
    wall_times: dict = field(default_factory=dict)
    factor_nnz: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    perturbed_shifts: list = field(default_factory=list)
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


def _dense_nearest(A: sp.csr_matrix, sigma: complex, k: int, harmonic):
    """Fallback for blocks too small for ARPACK: dense solve, pick nearest."""
    w, V = np.linalg.eig(A.toarray())
    order = np.argsort(np.abs(w - sigma))[:k]
    pairs = []
    for idx in order:
        v = V[:, idx] / np.linalg.norm(V[:, idx])
        res = float(np.linalg.norm(spmv(A, v) - w[idx] * v))
        pairs.append(EigenPair(complex(w[idx]), v, harmonic, res, sigma))
    return pairs


def shift_invert_eigs(A, sigma: complex, k: int, cfg: ShiftInvertConfig,
                      harmonic: int | None = None):
    """Up to k eigenpairs of A nearest sigma, ordered by |lambda - sigma|.

    Returns (pairs, info).  A singular (A - sigma I) is retried once with
    sigma perturbed by 1e-8 * (1 + |sigma|) and the perturbation flagged;
    non-convergence returns the converged subset with a warning.  Residuals
    are re-verified by direct sparse application and pairs that fail the
    configured tolerance are dropped (with a warning).
    """
    A = canonical_csr(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = A.shape[0]
    sigma = complex(sigma)
    info = SolveInfo()
    start = time.perf_counter()

    if k > n - 2:
        pairs = _dense_nearest(A, sigma, min(k, n), harmonic)
        info.wall_time = time.perf_counter() - start
        return pairs, info

    eye = sp.identity(n, dtype=np.complex128, format="csr")
    sigma_used = sigma
    try:
        lu = SparseLU(A - sigma_used * eye, shift=sigma_used)
    except SingularMatrixError:
        sigma_used = sigma + 1e-8 * (1.0 + abs(sigma))
        info.perturbed_shift = sigma_used
        lu = SparseLU(A - sigma_used * eye, shift=sigma_used)
    info.factor_nnz = lu.factor_nnz

    op = LinearOperator((n, n), matvec=lu.solve, dtype=np.complex128)
    try:
        mu, W = eigs(op, k=k, which="LM", ncv=cfg.ncv(k, n),
                     maxiter=cfg.max_restarts, tol=0, v0=_start_vector(n))
    except ArpackNoConvergence as exc:
        mu, W = exc.eigenvalues, exc.eigenvectors
        info.warning = (
            f"shift {sigma}: only {len(mu)}/{k} eigenvalues converged "
            f"after {cfg.max_restarts} restarts"
        )

    pairs = []
    for i in range(len(mu)):
        lam = sigma_used + 1.0 / mu[i]
        v = W[:, i]
        v = v / np.linalg.norm(v)
        res = float(np.linalg.norm(spmv(A, v) - lam * v))
        if res > cfg.tol:
            info.warning = (info.warning or "") + (
                f" dropped pair near {lam:.6g}: re-verified residual {res:.3e} > {cfg.tol:.1e};"
            )
            continue
        pairs.append(EigenPair(complex(lam), v, harmonic, res, sigma))
    pairs.sort(key=lambda p: (abs(p.value - sigma), p.value.real, p.value.imag))
    info.wall_time = time.perf_counter() - start
    return pairs, info


def dense_eigs(A, budget: int = DENSE_EIG_BUDGET):
    """Full dense eigendecomposition oracle: returns (values, right vectors).

    Accepts a dense array or a sparse matrix; refuses dimensions above the
    budget since this path is strictly for verification.
    """
    if sp.issparse(A):
        n = A.shape[0]
        if n > budget:
            raise BudgetExceededError(
                f"dense oracle refuses dimension {n} > budget {budget}", required=n
            )
        A = A.toarray()
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    if A.shape[0] > budget:
        raise BudgetExceededError(
            f"dense oracle refuses dimension {A.shape[0]} > budget {budget}",
            required=A.shape[0],
        )
    return np.linalg.eig(A)


def deduplicate_pairs(pairs, base_tol: float = 1e-6):
    """Merge duplicates (same harmonic, nearby eigenvalues), keeping the
    smaller residual.  Idempotent: a second pass changes nothing."""
    kept: list = []
    ordered = sorted(pairs, key=lambda p: (p.residual, p.value.real, p.value.imag))
    for cand in ordered:
        dup = False
        for prev in kept:
            if prev.harmonic != cand.harmonic:
                continue
            if abs(prev.value - cand.value) < base_tol * max(1.0, abs(prev.value)):
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


DEDUP_BASE_TOL = 1e-6


def solve_annulus_spectrum(J: SectorJacobian, harmonics=None,
                           cfg: ShiftInvertConfig | None = None) -> SpectrumReport:
    """Per-harmonic (single-sector) spectrum of the full annulus operator.

    For each harmonic m the reduced block is assembled, divided by
    cfg.scale, and solved near every configured shift; duplicates across
    shifts are merged per harmonic.  Failures in one harmonic are recorded
    as warnings without aborting the others.
    """
    cfg = cfg or ShiftInvertConfig()
    op = to_block_circulant(J)
    if harmonics is None:
        harmonics = range(J.M)
    report = SpectrumReport(
        pairs=[], M=J.M, N=J.N, scale=cfg.scale,
        dedup_tolerance=DEDUP_BASE_TOL, method="reduced",
    )
    for m in harmonics:
        t0 = time.perf_counter()
        try:
            Bm = reduced_block(op, m) * (1.0 / cfg.scale)
            collected = []
            for sigma in cfg.shifts:
                pairs, info = shift_invert_eigs(Bm, sigma, cfg.eigs_per_shift, cfg,
                                                harmonic=m)
                collected.extend(pairs)
                report.factor_nnz[m] = max(report.factor_nnz.get(m, 0), info.factor_nnz)
                if info.warning:
                    report.warnings.append(f"harmonic {m}: {info.warning}")
                if info.perturbed_shift is not None:
                    report.perturbed_shifts.append((m, sigma, info.perturbed_shift))
            report.raw_count += len(collected)
            report.pairs.extend(deduplicate_pairs(collected, DEDUP_BASE_TOL))
        except (SingularMatrixError, ValueError) as exc:
            report.warnings.append(f"harmonic {m} failed: {exc}")
        report.wall_times[m] = time.perf_counter() - t0
    report.pairs = deduplicate_pairs(report.pairs, DEDUP_BASE_TOL)
    return report


def solve_full_annulus(J: SectorJacobian, cfg: ShiftInvertConfig | None = None,
                       budget: int = SPARSE_SOLVE_BUDGET) -> SpectrumReport:
    """Whole-annulus spectrum: assemble A sparsely, shift-invert per shift.

    No harmonic labels are available on this route; pairs carry
    harmonic = None.
    """
    cfg = cfg or ShiftInvertConfig()
    A = materialize_full(J, budget=budget) * (1.0 / cfg.scale)
    report = SpectrumReport(
        pairs=[], M=J.M, N=J.N, scale=cfg.scale,
        dedup_tolerance=DEDUP_BASE_TOL, method="full",
    )
    t0 = time.perf_counter()
    collected = []
    for sigma in cfg.shifts:
        pairs, info = shift_invert_eigs(A, sigma, cfg.eigs_per_shift, cfg, harmonic=None)
        collected.extend(pairs)
        report.factor_nnz["full"] = max(report.factor_nnz.get("full", 0), info.factor_nnz)
        if info.warning:
            report.warnings.append(info.warning)
        if info.perturbed_shift is not None:
            report.perturbed_shifts.append((None, sigma, info.perturbed_shift))
    report.raw_count = len(collected)
    report.pairs = deduplicate_pairs(collected, DEDUP_BASE_TOL)
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
