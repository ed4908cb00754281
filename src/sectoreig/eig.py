"""Interior eigenvalue extraction near complex shifts, plus the dense oracle.

The workhorse is shift-invert Arnoldi: factor (A - sigma I), iterate on its
inverse so eigenvalues near sigma become dominant, then map Ritz values
back via lambda = sigma + 1/mu.  The inner iteration is ARPACK through
scipy, stopped at the accuracy the acceptance test needs rather than at
machine precision.  A block's LU kind is decided once, from its pattern
(_fills_densely): when a SuperLU factor of that pattern fills
DENSE_LU_MIN_FILL of n**2 or more, every factorization is dense LAPACK LU
(SparseLU(..., dense=True)), which a report shows as storage n**2 on the
arnoldi route.

Each block is built once and stored once, at unit norm (Block).  Every
shift, on either route, is answered by shift_invert_eigs, the one place a
block's route is chosen, by one rule (_dense_route): a zero block, or one
with MIN_SUBSPACE_DIM < n <= DENSE_ROUTE_MAX_DIM or asked for k > n - 2
eigenvalues, takes the dense route; others go to Arnoldi, and end dense
when it spends its budget.  A dense block keeps only its eigenvalues,
computed once, and each distinct eigenvalue any shift picks gets one
inverse-iteration solve and one residual check.
One driver shares the harmonics out among workers, on either route; with
one worker it is the serial solve.  Every harmonic block has the pattern
of the sector's three blocks, so the annulus driver decides the LU kind
of them all once, from that pattern, and hands it to every block.  It
runs one worker per CPU the process may run on, when their estimated
work pays for the forks (FORK_WORK) and the process runs one thread;
each worker is confined to its own CPU for the call.  Each forked worker
sends its partial reports through a pipe, or nothing, and the calling
process solves any share that comes back empty, with one warning;
reports merge in the order one worker gives, so the output does not
depend on the count.

On real sector blocks, harmonic M - m takes harmonic m's solved dense
block and conjugates it in place: the entries of B_m and its eigenvalues.
Blocks on the Arnoldi route solve their own matrix, since the LU of
B_m - conj(sigma) I would only replace that of B_{M-m} - sigma I one for
one.  Pairs from every route are re-verified by a direct sparse
residual on their own block and accepted on their normwise backward
error, so nothing is trusted from the inner iteration or the mirror
alone.  Each block's pairs are deduplicated and leave in the CSV's order
(deduplicate_pairs), which the annulus driver keeps.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigs

from . import sparsecore
from .sector import SectorJacobian, check_harmonic, materialize_full, reduced_block
from .sparsecore import (
    BudgetExceededError,
    CsrArrays,
    SingularMatrixError,
    SparseLU,
    canonical_csr,
    csr_from_arrays,
    spmv,
)

# Largest n for which the package forms an n x n dense array: dense_eigs
# (the oracle, and verify's whole operator), the dense fallback of a block
# that spent its Arnoldi budget, and the dense LU.
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
# When a SuperLU factor of a block's pattern fills at least this fraction
# of n**2, and n <= DENSE_EIG_BUDGET, every factorization of the block is
# dense LAPACK LU: all blocks of a call share the pattern of d_self +
# d_next + d_prev, so one decision serves them all.  Measured on random
# blocks (2 cores, BLAS at 1 thread, medians of 15) as one factorization
# plus 41 trsv solves, random-fill's count per shift: the two cost the
# same at fill 0.26-0.31 for n = 800 (60-65 ms), 0.17-0.18 for n = 400
# (15 ms) and below 0.12 for n = 200; at fill 0.13, n = 800, SuperLU took
# 45 ms against 70 ms, at random-fill's 0.50 it took 163 ms against 73 ms.
# The constant follows n = 800, the size of random-fill.  Ring and rotvec
# blocks fill to under 0.01.
DENSE_LU_MIN_FILL = 0.25

# Estimated work, sum n**3 over a call's source blocks, that pays for one
# forked worker.  Measured on 2 cores, BLAS at 1 thread, workers pinned to
# their own CPUs (medians of 41, alternated): forking a worker and
# collecting its reports cost 9-13 ms beyond half the one-process solve
# time on the README ring 22 x 40, rotvec 4 x 15 and 8 x 50 and ring
# 4 x 200; the dense route does 3.2e4-7.4e4 n**3 per ms, so 12 ms is about
# 6e5 n**3.  Two workers need twice this: the README ring (7.7e5) stays in
# one process, where two take 24.5 against 23.7 ms.  n**3 overstates a
# sparse Arnoldi block's work, yet ring 4 x 200 gains: 31.5 against 37.5 ms.
FORK_WORK = 600_000

# Arnoldi subspace dimension is max(MIN_SUBSPACE_DIM, 2k + 1), capped at n.
MIN_SUBSPACE_DIM = 20
# ARPACK restart cap; on blocks within DENSE_EIG_BUDGET the budget of n + 1
# inverse applications normally ends Arnoldi first.
MAX_RESTARTS = 300
# Relative distance below which two eigenvalues of one harmonic are merged,
# relative to |lambda| but at least to DEDUP_FLOOR * ||B||_1: near 0 it
# merges within 1e-10 ||B||_1, the default backward-error tol.  On the
# benchmark models and the README ring, merged copies lie within
# 1e-15 ||B||_1, distinct eigenvalues at least 5e-7 ||B||_1 apart (ring-full).
DEDUP_BASE_TOL = 1e-6
DEDUP_FLOOR = 1e-4

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
        if not self.shifts:
            raise ValueError("shifts must not be empty")
        if self.eigs_per_shift < 1:
            raise ValueError("eigs_per_shift must be >= 1")
        for name in ("tol", "scale"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not np.isfinite(self.shifts).all():
            raise ValueError("shifts must be finite")


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
    perturbed_shift: complex | None = None
    warnings: list = field(default_factory=list)


@dataclass
class SpectrumReport:
    """Aggregated eigenpairs over harmonics and shifts plus run metadata;
    pairs come in the CSV's order (deduplicate_pairs)."""

    pairs: list
    M: int
    N: int
    wall_times: dict = field(default_factory=dict)
    # per block: its largest LU factor's nonzeros, n**2 for a dense LU (the
    # only place its LU kind shows), or n**2 once it is decomposed densely
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
    """One square operator solved at several shifts, stored at unit scale.

    Block(A, scale) takes A given as :class:`CsrArrays` as canonical, and
    anything else through canonical_csr; it stores A / (scale unit), one
    factor applied to a copy of the entries, with unit = 4**j within a
    factor 4 of ||A||_1 / scale (1 for a zero block).  Every later step runs
    on this matrix of 1-norm norm1 in [1, 4), at shifts sigma / unit;
    values, residuals and shifts are multiplied back by unit where they
    leave the block.  Scaling by a power of four leaves LAPACK's results the
    same up to that power, bit for bit (by an odd power of two it does
    not).  matrix is the one copy of the block kept: once decomposed, the
    block also holds all its eigenvalues in values, and in checked each
    (lam, v, residual) it has solved and checked, by the index of lam.
    dense_lu, its LU kind, is None until its caller sets it or its first
    factorization takes its pattern's (_factor).
    """

    def __init__(self, A, scale: float = 1.0):
        if not isinstance(A, CsrArrays):
            A = canonical_csr(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        self.n = A.shape[0]
        # ||A||_1, the largest column sum of |a_ij|
        norm = float(np.bincount(A.indices, np.abs(A.data), minlength=self.n).max(initial=0.0))
        # norm / scale, which may overflow, lies in [2**(e-1), 2**e); the factor
        # is fl(1 / scale) / 4**j exactly, as fl(1 / scale) = fl(1 / ms) 2**-es
        (ms, es), (mn, en) = math.frexp(scale), math.frexp(norm)
        j = (en - es + math.frexp(mn / ms)[1] - 1) // 2 if norm else 0
        if not (norm < math.inf and -1022 <= 2 * j <= 1022):
            raise ValueError(f"||A||_1 / scale = {norm / scale:.3e} leaves the normal range")
        self.unit, factor = math.ldexp(1.0, 2 * j), math.ldexp(1.0 / ms, -es - 2 * j)
        self.norm1 = norm * factor
        self.matrix = csr_from_arrays(CsrArrays(A.indptr, A.indices, A.data * factor, A.shape))
        self.values = self.dense_lu = None
        self.checked = {}

    def decompose(self) -> None:
        """Store all the matrix's eigenvalues, once."""
        if self.values is None:
            self.values = dense_eigs(self.matrix.toarray(), vectors=False)


def _times(z, f: float) -> complex:
    """z * f, part by part: exact for a power of two f, signed zeros kept."""
    return complex(z.real * f, z.imag * f)


def _dense_route(n: int, k: int) -> bool:
    """Whether a block of dimension n asked for k eigenvalues per shift
    takes the dense route: MIN_SUBSPACE_DIM < n <= DENSE_ROUTE_MAX_DIM, or
    k > n - 2, too many for ARPACK."""
    return MIN_SUBSPACE_DIM < n <= DENSE_ROUTE_MAX_DIM or k > n - 2


class _BudgetSpent(Exception):
    """Arnoldi asked for more operator applications than its budget."""


def _fills_densely(*patterns) -> bool:
    """The LU kind of matrices with the union of the patterns (n x n CSR
    arrays or matrices) and a full diagonal: whether n <= DENSE_EIG_BUDGET
    and a real matrix with that pattern, factored by SuperLU in SparseLU's
    order, fills DENSE_LU_MIN_FILL of n**2 or more.  Its diagonal dominates
    every column, so SuperLU pivots on it and the fill is the pattern's."""
    n = patterns[0].shape[0]
    if n > DENSE_EIG_BUDGET:
        return False
    probe = sp.identity(n, format="csr") * (4.0 * n)
    for p in patterns:
        probe += sp.csr_matrix((np.ones(p.nnz), p.indices, p.indptr), shape=(n, n))
    lu = sparsecore.splu(probe.tocsc(), permc_spec="MMD_AT_PLUS_A")
    return lu.L.nnz + lu.U.nnz >= DENSE_LU_MIN_FILL * n ** 2


def _factor(block: Block, sigma: complex):
    """(lu, s): the LU of B - s I at s = sigma / unit, dense LAPACK LU when
    block.dense_lu is set, else SuperLU; a block with no LU kind yet takes
    its own pattern's (_fills_densely).  An exactly singular B - s I is
    factored once more with s moved by 1e-8 (1 + |s|)."""
    if block.dense_lu is None:
        block.dense_lu = _fills_densely(block.matrix)
    eye = sp.identity(block.n, dtype=np.complex128, format="csr")
    s = _times(sigma, 1.0 / block.unit)
    try:
        lu = SparseLU(block.matrix - s * eye, dense=block.dense_lu)
    except SingularMatrixError:
        s += 1e-8 * (1.0 + abs(s))
        lu = SparseLU(block.matrix - s * eye, dense=block.dense_lu)
    return lu, s


def _arnoldi(block: Block, sigma: complex, k: int, tol: float, info: SolveInfo):
    """Shift-invert Arnoldi candidates [(lambda, v)] near sigma.

    ARPACK stops at tol / 100 rather than at machine precision.  At ARPACK
    tolerance t, its test ||OP w - mu w|| <= t |mu|, OP = (B - sigma I)^-1,
    bounds the residual ||(B - lambda I) w|| by t ||B - sigma I||_2, which
    may exceed the ||B||_1 + |lambda| of the acceptance test: two digits of
    margin keep converged pairs within tol.

    On a block within DENSE_EIG_BUDGET, Arnoldi may apply the inverse at
    most n + 1 times, the cost of one pass over the whole space.  Past that
    the block's eigenvalues are computed densely and no candidates are
    returned.  Any other ARPACK error is recorded in info.warnings and
    returns no candidates.  sigma is given in the block's input units, the
    candidates come in those of its stored matrix.
    """
    n = block.n
    lu, sigma_used = _factor(block, sigma)
    if sigma_used != _times(sigma, 1.0 / block.unit):
        info.perturbed_shift = _times(sigma_used, block.unit)
    info.factor_nnz = lu.factor_nnz
    budget = n + 1 if n <= DENSE_EIG_BUDGET else math.inf  # inverse applications left

    def apply_inverse(x):
        nonlocal budget
        if not budget:
            raise _BudgetSpent
        budget -= 1
        return lu.solve(x)

    op = LinearOperator((n, n), matvec=apply_inverse, dtype=np.complex128)
    ncv = max(k + 2, min(max(MIN_SUBSPACE_DIM, 2 * k + 1), n))
    try:
        mu, W = eigs(op, k=k, which="LM", ncv=ncv,
                     maxiter=MAX_RESTARTS, tol=tol / 100, v0=_start_vector(n))
    except _BudgetSpent:
        block.decompose()
        return []
    except ArpackNoConvergence as exc:
        mu, W = exc.eigenvalues, exc.eigenvectors
        info.warnings.append(
            f"shift {sigma}: only {len(mu)}/{k} eigenvalues converged "
            f"after {MAX_RESTARTS} restarts"
        )
    except ArpackError as exc:
        info.warnings.append(f"shift {sigma}: {exc}")
        return []
    return [(sigma_used + 1.0 / mu[i], W[:, i]) for i in range(len(mu))]


def _inverse_iteration(block: Block, lam: complex) -> np.ndarray:
    """Eigenvector of the eigenvalue lam of the decomposed block by one step
    of inverse iteration: the solution of (B - lam I) x = v0, with B - lam I
    formed densely from the stored matrix.  An exactly singular B - lam I
    is retried once with lam moved by eps 2**e, 2**e within a factor 2 of
    ||B||_1."""
    shifted = block.matrix.toarray()
    diagonal = shifted.reshape(-1)[::block.n + 1]
    diagonal -= lam
    try:
        return np.linalg.solve(shifted, _start_vector(block.n))
    except np.linalg.LinAlgError:
        diagonal -= math.ldexp(np.finfo(float).eps, math.frexp(block.norm1)[1])
        return np.linalg.solve(shifted, _start_vector(block.n))


def _verify(block: Block, lam: complex, x: np.ndarray):
    """(lam, v, ||Bv - lam v||) for v = x / ||x||, by sparse application."""
    v = x / np.linalg.norm(x)
    return lam, v, float(np.linalg.norm(spmv(block.matrix, v) - lam * v))


def _accepted(block: Block, checked, sigma: complex, harmonic, cfg: ShiftInvertConfig,
              info: SolveInfo) -> list:
    """EigenPairs, in input units, of the verified (lam, v, residual)
    candidates whose backward error ||Bv - lam v|| / ((||B||_1 + |lam|) ||v||)
    is within cfg.tol, nearest sigma first; each drop goes to info.warnings."""
    pairs = []
    for lam, v, res in checked:
        scale = block.norm1 + abs(lam)
        lam, given = _times(lam, block.unit), res * block.unit  # in input units
        if res <= cfg.tol * scale:
            pairs.append(EigenPair(lam, v, harmonic, given, sigma))
        else:  # a NaN residual is dropped too
            info.warnings.append(f"dropped pair near {lam:.6g}: re-verified residual "
                                 f"{given:.3e}, backward error {res / scale:.3e} > {cfg.tol:.1e}")
    pairs.sort(key=lambda p: (abs(p.value - sigma), p.value.real, p.value.imag))
    return pairs


def shift_invert_eigs(A, sigma: complex, k: int, cfg: ShiftInvertConfig,
                      harmonic: int | None = None):
    """Up to k eigenpairs of A nearest sigma, ordered by |lambda - sigma|.

    A is a sparse matrix, solved as A / cfg.scale at shift sigma in those
    units, or a :class:`Block`, which holds its own scale; one Block passed
    for every shift lets one dense eigenvalue computation answer them all,
    with one solve and one check per distinct chosen eigenvalue.  This is
    the one place a block's route is chosen: the dense route is taken when
    the eigenvalues are already known, the block is zero, _dense_route(n,
    k) holds, or Arnoldi spends its budget.  On the Arnoldi route
    B - sigma I is factored by the block's LU kind (_factor).  Both routes
    end in the same acceptance test (_accepted).

    Returns (pairs, info).  A singular (B - sigma I) is retried once with
    sigma moved by 1e-8 (1 + |sigma| / unit) unit, flagged in info;
    non-convergence returns the converged subset with a warning.  Every
    pair is re-verified by direct sparse application and dropped (with a
    warning) when its backward error exceeds cfg.tol.
    """
    block = A if isinstance(A, Block) else Block(A, cfg.scale)
    if k < 1:
        raise ValueError("k must be >= 1")
    sigma = complex(sigma)
    info = SolveInfo()

    if block.values is None and (_dense_route(block.n, k) or not block.norm1):
        block.decompose()
    if block.values is None:
        checked = [_verify(block, lam, v) for lam, v in _arnoldi(block, sigma, k, cfg.tol, info)]
    if block.values is not None:  # the k eigenvalues nearest sigma, each solved once
        w = block.values
        order = np.argsort(np.abs(w - sigma / block.unit), kind="stable")[:k].tolist()
        for j in order:
            if j not in block.checked:
                block.checked[j] = _verify(block, w[j], _inverse_iteration(block, w[j]))
        checked = [block.checked[j] for j in order]
    return _accepted(block, checked, sigma, harmonic, cfg, info), info


def dense_eigs(A, vectors: bool = True):
    """All eigenvalues of A, as (values, right vectors), or the values alone
    without vectors: np.linalg.eig or eigvals, as complex128.  The package's
    one dense eigendecomposition, for the oracle and the dense route.

    Accepts an array or a sparse matrix, and refuses a dimension above
    DENSE_EIG_BUDGET before forming the array.  An A with no nonzero
    imaginary entry goes to real LAPACK (dgeev, not zgeev): its real
    eigenvalues have imaginary part exactly 0, the others exact conjugates.
    """
    A = A if sp.issparse(A) else np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    n = A.shape[0]
    if n > DENSE_EIG_BUDGET:
        raise BudgetExceededError(f"dense eigendecomposition refuses dimension {n} > budget "
                                  f"{DENSE_EIG_BUDGET}", required=n)
    A = A.toarray() if sp.issparse(A) else A
    A = A.real if np.iscomplexobj(A) and not A.imag.any() else A
    if vectors:
        return tuple(x.astype(np.complex128, copy=False) for x in np.linalg.eig(A))
    return np.linalg.eigvals(A).astype(np.complex128, copy=False)


def deduplicate_pairs(pairs, unit: float = 1.0):
    """Merge duplicates (same harmonic, eigenvalues within DEDUP_BASE_TOL *
    max(unit, |lambda|) of each other), keeping the smaller residual.  unit,
    in the units of the eigenvalues, is the magnitude below which closeness
    is absolute.  The kept pairs come in the CSV's order: by harmonic (None
    first), then lambda.imag, then lambda.real.  Idempotent: a second pass
    changes nothing."""
    kept: list = []
    ordered = sorted(pairs, key=lambda p: (p.residual, p.value.real, p.value.imag))
    for cand in ordered:
        if not any(prev.harmonic == cand.harmonic and abs(prev.value - cand.value)
                   <= DEDUP_BASE_TOL * max(unit, abs(prev.value)) for prev in kept):
            kept.append(cand)
    kept.sort(key=lambda p: (-1 if p.harmonic is None else p.harmonic, p.value.imag, p.value.real))
    return kept


def _solve_block(block: Block, cfg: ShiftInvertConfig, report: SpectrumReport, key) -> list:
    """Solve one block at every configured shift by shift_invert_eigs,
    which picks its route, fold the bookkeeping into report (keyed by
    harmonic, or "full"), and return its deduplicated pairs."""
    harmonic = None if key == "full" else key
    prefix = "" if harmonic is None else f"harmonic {harmonic}: "
    collected = []
    storage = 0
    for sigma in cfg.shifts:
        pairs, info = shift_invert_eigs(block, sigma, cfg.eigs_per_shift, cfg, harmonic=harmonic)
        collected.extend(pairs)
        storage = max(storage, info.factor_nnz)
        report.warnings.extend(prefix + w for w in info.warnings)
        if info.perturbed_shift is not None:
            report.perturbed_shifts.append((key, sigma, info.perturbed_shift))
    dense = block.values is not None
    report.storage[key] = max(storage, block.n ** 2 if dense else 0)
    # a mirrored block's route, conj(c), is already set by its caller
    report.routes.setdefault(key, "dense" if dense else "arnoldi")
    report.raw_count += len(collected)
    return deduplicate_pairs(collected, unit=DEDUP_FLOOR * block.norm1 * block.unit)


def _solve_share(J: SectorJacobian, share, cfg: ShiftInvertConfig, lu_kind: bool) -> list:
    """The partial reports of share's source groups (c, members), in order:
    harmonic c, then the members mirrored from it.  Each block built here
    takes lu_kind, the LU kind of the sector's pattern, as its own; a
    mirrored member conjugates its solved source block in place and starts
    it with no checked vectors."""
    parts = []
    for c, members in share:
        report = SpectrumReport(pairs=[], M=J.M, N=J.N)
        source = None
        for m in members:
            t0 = time.perf_counter()
            try:
                if source is not None and source.values is not None:
                    # B_m = conj(B_c) entry for entry, and so are its eigenvalues
                    block = source
                    for part in (block.matrix.data, block.values):
                        np.conjugate(part, out=part)
                    block.checked = {}
                    report.routes[m] = f"conj({c})"
                else:
                    block = Block(reduced_block(J, m), cfg.scale)
                    block.dense_lu = lu_kind
                report.pairs.extend(_solve_block(block, cfg, report, m))
                source = block
            except ValueError as exc:
                report.warnings.append(f"harmonic {m} failed: {exc}")
            report.wall_times[m] = time.perf_counter() - t0
        parts.append(report)
    return parts


def _merge(report: SpectrumReport, part: SpectrumReport) -> None:
    """Append a later group's partial report to report."""
    report.pairs.extend(part.pairs)
    report.warnings.extend(part.warnings)
    report.perturbed_shifts.extend(part.perturbed_shifts)
    report.storage.update(part.storage)
    report.routes.update(part.routes)
    report.wall_times.update(part.wall_times)
    report.raw_count += part.raw_count


def _worker_count(J: SectorJacobian, groups: int) -> int:
    """How many processes solve groups source blocks of J: the least of the
    CPUs this process may run on, the groups, and the estimated work, groups
    N**3, over FORK_WORK.  1 where os.fork is missing or unsafe: in a process
    with a second thread, as under a threaded BLAS, which already uses the
    cores, a child may deadlock."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) != 1:
            return 1
    except OSError:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), groups, groups * J.N ** 3 // FORK_WORK))


def _pin(cpus) -> None:
    """Confine this process to cpus, where the system allows it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _solve_groups(J: SectorJacobian, groups, cfg: ShiftInvertConfig, lu_kind: bool):
    """The partial reports of groups, in order, from _worker_count
    processes, each confined to its own CPU for the call; every block takes
    lu_kind as its LU kind.  Worker w solves groups w, w + workers, ...,
    worker 0 in this process (all of them with one worker), the others in
    children forked here, which send their pickled reports through a pipe,
    or nothing.  After its own share, this process solves any share that
    comes back empty or truncated, a refused fork's too: raising its error,
    or with one warning naming its harmonics.  No child outlives the call,
    and this process gets its CPU mask back."""
    workers = _worker_count(J, len(groups))
    shares = [groups[w::workers] for w in range(workers)]
    mask = os.sched_getaffinity(0) if workers > 1 else set()
    cpus = sorted(mask)
    pids, fds = [], []
    try:
        for cpu, share in zip(cpus[1:], shares[1:]):
            read_fd, write_fd = os.pipe()
            fds.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:  # the child: send its reports, or nothing
                    try:
                        _pin({cpu})
                        with open(write_fd, "wb") as fh:
                            pickle.dump(_solve_share(J, share, cfg, lu_kind), fh,
                                        pickle.HIGHEST_PROTOCOL)
                    finally:
                        os._exit(0)
                pids.append(pid)
            except OSError:  # a refused fork, whose pipe comes back empty
                pass
            finally:
                os.close(write_fd)
        if mask:
            _pin({cpus[0]})
        done = [_solve_share(J, shares[0], cfg, lu_kind)]
        for fd, share in zip(fds, shares[1:]):
            try:
                with open(fd, "rb", closefd=False) as fh:
                    done.append(pickle.load(fh))
            except (EOFError, pickle.UnpicklingError):
                done.append(_solve_share(J, share, cfg, lu_kind))
                done[-1][0].warnings.insert(0, f"harmonics {[m for _, ms in share for m in ms]}: "
                                               "no result from a forked worker, solved here")
    finally:
        if mask:
            _pin(mask)
        for fd in fds:
            os.close(fd)
        for pid in pids:  # not yet reaped, so the pid is still this child's
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [done[i % workers][i // workers] for i in range(len(groups))]


def solve_annulus_spectrum(J: SectorJacobian, harmonics=None,
                           cfg: ShiftInvertConfig | None = None) -> SpectrumReport:
    """Per-harmonic (single-sector) spectrum of the full annulus operator.

    Each distinct harmonic m is solved on its own block, divided by
    cfg.scale, near every configured shift; duplicates across shifts are
    merged per harmonic.  When the sector blocks are real, harmonics c and
    M - c form one source group, solved one after the other, and once B_c's
    eigenvalues are computed densely, B_{M-c} is conj(B_c) and its
    eigenvalues are their conjugates (route "conj(c)"); its vectors are
    solved on B_{M-c}.  The groups are shared out among workers
    (_solve_groups), whose partial reports are merged in group order, so
    the report does not depend on their count.  Every block has the pattern
    of the sector's three blocks, so when the blocks take the Arnoldi route
    that pattern decides the LU kind of them all, once (_fills_densely).
    A harmonic outside [0, M) raises ValueError before any solve; failures
    in one harmonic are recorded as warnings without aborting the others.
    Pairs come out in the CSV's order: by harmonic, and within one in
    deduplicate_pairs's order.
    """
    cfg = cfg or ShiftInvertConfig()
    harmonics = sorted(set(range(J.M) if harmonics is None else harmonics))
    for m in harmonics:
        check_harmonic(m, J.M)
    report = SpectrumReport(pairs=[], M=J.M, N=J.N)
    mirror = J.is_real
    by_source: dict = {}
    for m in harmonics:
        by_source.setdefault(min(m, J.M - m) if mirror else m, []).append(m)
    lu_kind = not _dense_route(J.N, cfg.eigs_per_shift) and _fills_densely(*J.blocks)
    for part in _solve_groups(J, list(by_source.items()), cfg, lu_kind):
        _merge(report, part)
    report.pairs.sort(key=lambda p: p.harmonic)
    return report


def solve_full_annulus(J: SectorJacobian, cfg: ShiftInvertConfig | None = None) -> SpectrumReport:
    """Whole-annulus spectrum: assemble A sparsely and solve it as one block.

    No harmonic labels are available on this route; pairs carry
    harmonic = None.
    """
    cfg = cfg or ShiftInvertConfig()
    A = materialize_full(J)
    report = SpectrumReport(pairs=[], M=J.M, N=J.N)
    t0 = time.perf_counter()
    block = Block(A, cfg.scale)
    report.pairs = _solve_block(block, cfg, report, "full")
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
    dist = np.abs(a[:, None] - b[None, :])
    order = np.argsort(dist, axis=None, kind="stable")
    used_a = np.zeros(n, dtype=bool)
    used_b = np.zeros(n, dtype=bool)
    out = []
    for flat in order:
        i, j = divmod(int(flat), n)
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = used_b[j] = True
        out.append(dist[i, j])
        if len(out) == n:
            break
    return np.array(out)
