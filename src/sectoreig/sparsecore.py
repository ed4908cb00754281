"""Complex sparse-matrix primitives: canonical CSR storage, LU and Matrix Market I/O.

Every matrix is stored in canonical complex128 CSR form: sorted,
duplicate-free column indices, finite entries only, and no stored value
whose magnitude falls below the cancellation tolerance.  Every matrix the
package assembles or reads is made so by one function, with numpy alone:
:func:`canonical_arrays`, into plain arrays (:class:`CsrArrays`).
:func:`canonical_csr` applies it to a scipy matrix or an array, and
:func:`csr_from_arrays` makes the scipy matrix from the arrays when one
is needed, so that reading a model imports no scipy module.  Higher-level
modules never touch scipy internals directly.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

# Entries smaller than this are treated as exact cancellations and removed
# from the stored pattern.  Deliberately at the underflow edge: correctness
# of the reduction must not depend on a magnitude heuristic.
CANCELLATION_TOL = 1e-300

# Pivots below this fraction of max|A| flag the factorization as singular.
PIVOT_TOL = 1e-14


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ValueError):
    """Factorization hit a structural or numerical singularity.

    When raised during a shift-invert solve, the shift is an exact
    eigenvalue candidate.
    """


class BudgetExceededError(ValueError):
    """A dense-oracle or full-assembly request exceeded its size budget."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class CsrArrays(NamedTuple):
    """A canonical complex CSR matrix as numpy arrays, under scipy's names:
    code that reads ``indptr``, ``indices``, ``data``, ``shape`` and ``nnz``
    takes this and a canonical scipy CSR matrix alike."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return self.data.size


def canonical_arrays(row, col, data, shape) -> CsrArrays:
    """Canonical CSR arrays of the complex entries ``data[i]`` at in-range
    ``(row[i], col[i])``: the one canonicalisation rule of the package.  A
    stable sort into row-major order adds duplicate entries one at a time
    in the order given; sums below the cancellation tolerance are dropped,
    indices are int32 where they fit, and a non-finite entry raises
    ValueError."""
    nrows, ncols = shape
    data = np.asarray(data, dtype=np.complex128)
    key = np.asarray(row, dtype=np.int64) * ncols + col  # int64: row * ncols overflows int32
    if np.any(key[1:] <= key[:-1]):  # not already in row-major order without duplicates
        order = np.argsort(key, kind="stable")
        key, data = key[order], data[order]
        first = np.r_[True, key[1:] != key[:-1]]
        if not first.all():
            key, data, later = key[first], data[first], data[~first]
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum fails below
                np.add.at(data, np.cumsum(first)[~first] - 1, later)
    keep = ~(np.abs(data) < CANCELLATION_TOL)  # NaN is kept, to fail the next check
    key, data = key[keep], data[keep]
    if not np.isfinite(data).all():
        raise ValueError("matrix contains non-finite entries")
    index = np.int32 if max(nrows, ncols, data.size) <= np.iinfo(np.int32).max else np.int64
    row, col = np.divmod(key, ncols)
    indptr = np.zeros(nrows + 1, dtype=index)
    indptr[1:] = np.cumsum(np.bincount(row, minlength=nrows))
    return CsrArrays(indptr, col.astype(index), data, (nrows, ncols))


def canonical_csr(A) -> sp.csr_matrix:
    """Coerce ``A`` to a canonical complex CSR matrix: the scipy matrix of
    :func:`canonical_arrays` on its entries, in their storage order."""
    import scipy.sparse as sp
    coo = sp.coo_matrix(A, dtype=np.complex128)
    return csr_from_arrays(canonical_arrays(coo.row, coo.col, coo.data, coo.shape))


def csr_from_arrays(a: CsrArrays) -> sp.csr_matrix:
    """The scipy CSR matrix of canonical arrays, sharing their memory."""
    import scipy.sparse as sp
    mat = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    mat.has_canonical_format = True
    return mat


def spmv(A: sp.csr_matrix, x) -> np.ndarray:
    """Sparse matrix-vector product A @ x."""
    x = np.asarray(x, dtype=np.complex128)
    if A.shape[1] != x.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply {A.shape[0]}x{A.shape[1]} matrix by length-{x.shape[0]} vector"
        )
    return A @ x


def splu(A, **kwargs):
    """scipy.sparse.linalg.splu, imported on the first factorization."""
    from scipy.sparse.linalg import splu as superlu
    return superlu(A, **kwargs)


class SparseLU:
    """LU factorization handle for a square complex sparse matrix.

    SuperLU orders the columns by minimum degree on A^T + A, which fills
    less than its default COLAMD on the harmonic blocks.  With dense=True
    the matrix is instead factored in place as one n x n array by LAPACK
    getrf, for a matrix whose sparse factor would be nearly dense anyway;
    a solve is then two BLAS trsv and one permutation, 0.6 ms at n = 800
    against 1.2 ms for LAPACK getrs, which solves one column by two trsm.

    Read-only after construction and safe to share across threads.
    Raises :class:`SingularMatrixError` when the factorization detects a
    structural singularity or a pivot below PIVOT_TOL * max|A|.
    """

    def __init__(self, A, dense: bool = False):
        A = canonical_csr(A)
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got {A.shape}")
        max_mag = float(np.abs(A.data).max()) if A.nnz else 0.0
        if max_mag == 0.0:
            raise SingularMatrixError("matrix is identically zero")
        self.shape = A.shape
        self.dense = dense
        if dense:
            from scipy.linalg.blas import ztrsv
            from scipy.linalg.lapack import zgetrf
            # getrf factors A^T = P L U, the C-ordered array read in Fortran
            # order, in place; so A = U^T L^T P^T and x = P L^-T U^-T y
            self._lu, piv, info = zgetrf(A.toarray().T, overwrite_a=True)
            self._trsv = ztrsv
            if info:
                raise SingularMatrixError(f"LU factorization failed: U({info},{info}) is zero")
            # P as an index: the row swaps of piv applied in reverse order to 0..n-1
            perm = list(range(self.shape[0]))
            for i, j in reversed(list(enumerate(piv.tolist()))):
                perm[i], perm[j] = perm[j], perm[i]
            self._perm = np.array(perm)
            pivots = np.abs(self._lu.diagonal())
        else:
            try:
                self._lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise SingularMatrixError(f"LU factorization failed: {exc}") from exc
            pivots = np.abs(self._lu.U.diagonal())
        if pivots.size and float(pivots.min()) < PIVOT_TOL * max_mag:
            raise SingularMatrixError(
                f"numerically singular: pivot {pivots.min():.3e} below "
                f"{PIVOT_TOL:.0e} * max|A| = {PIVOT_TOL * max_mag:.3e}"
            )

    @property
    def factor_nnz(self) -> int:
        """Stored entries of the factors: L and U combined, or n**2 when dense."""
        if self.dense:
            return self._lu.size
        return int(self._lu.L.nnz + self._lu.U.nnz)

    def solve(self, y) -> np.ndarray:
        """Solve A x = y."""
        y = np.asarray(y, dtype=np.complex128)
        if y.shape[0] != self.shape[0]:
            raise DimensionMismatchError(
                f"right-hand side length {y.shape[0]} != {self.shape[0]}"
            )
        if self.dense:  # the first trsv copies y, which it must not overwrite
            z = self._trsv(self._lu, y, trans=1)
            z = self._trsv(self._lu, z, lower=1, trans=1, diag=1, overwrite_x=1)
            return z[self._perm]
        return self._lu.solve(y)


# Entries formatted per write: bounds the Python lists and strings a large block needs.
_MM_WRITE_CHUNK = 1 << 16


def write_matrix_market(path, A) -> None:
    """Write ``A`` as 'coordinate complex general' Matrix Market, 1-based.

    Values are written with shortest round-trip formatting so a
    write/read cycle reproduces them bit-exactly.  ``A`` is made canonical
    first unless it is already a :class:`CsrArrays`.
    """
    if not isinstance(A, CsrArrays):
        A = canonical_csr(A)
    nrows, ncols = A.shape
    rows = np.repeat(np.arange(1, nrows + 1), np.diff(A.indptr))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate complex general\n")
        fh.write(f"{nrows} {ncols} {A.nnz}\n")
        # tolist() gives Python floats, whose repr is the shortest round trip
        for lo in range(0, A.nnz, _MM_WRITE_CHUNK):
            part = slice(lo, lo + _MM_WRITE_CHUNK)
            fh.write("".join(
                f"{i} {j} {re!r} {im!r}\n" for i, j, re, im in zip(
                    rows[part].tolist(), (A.indices[part] + 1).tolist(),
                    A.data[part].real.tolist(), A.data[part].imag.tolist())))


# One entry line as write_matrix_market writes it: 1-based row and column, real, imaginary.
_MM_ENTRY = np.dtype([("ij", np.int64, 2), ("v", np.float64, 2)])
_MM_HEADER = ["%%matrixmarket", "matrix", "coordinate", "complex", "general"]


def parse_matrix_market(path) -> CsrArrays:
    """Read a 'coordinate complex general' Matrix Market file into canonical
    CSR arrays, with numpy alone: :func:`canonical_arrays` of its entries in
    file order, so duplicate entries are added in file order and the arrays
    are canonical_csr's bytes for the same entries.  Any other header, a
    wrong entry count, an index out of range or a non-finite entry raises
    ValueError naming the file."""
    try:
        with open(path, encoding="ascii") as fh:
            if fh.readline().lower().split() != _MM_HEADER:
                raise ValueError("not a 'matrix coordinate complex general' Matrix Market file")
            line = fh.readline()
            while line.startswith("%") or line.isspace():
                line = fh.readline()
            nrows, ncols, nnz = (int(tok) for tok in line.split())
            if min(nrows, ncols, nnz) < 0:
                raise ValueError(f"negative size line {nrows} {ncols} {nnz}")
            with warnings.catch_warnings():  # loadtxt warns on no data and on comment lines
                warnings.simplefilter("ignore", UserWarning)
                e = np.loadtxt(fh, dtype=_MM_ENTRY, comments="%", ndmin=1, max_rows=nnz + 1)
        if e.size != nnz:
            found = "more" if e.size > nnz else e.size
            raise ValueError(f"size line gives {nnz} entries, the file holds {found}")
        row, col = (e["ij"] - 1).T
        if nnz and not (row.min() >= 0 and col.min() >= 0
                        and row.max() < nrows and col.max() < ncols):
            raise ValueError(f"an entry index lies outside the {nrows}x{ncols} matrix")
        return canonical_arrays(row, col, e["v"].view(np.complex128)[:, 0], (nrows, ncols))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

