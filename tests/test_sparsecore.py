import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp

from sectoreig.sparsecore import (
    CsrArrays,
    DimensionMismatchError,
    SingularMatrixError,
    SparseLU,
    canonical_csr,
    csr_from_arrays,
    parse_matrix_market,
    spmv,
    write_matrix_market,
)
from sectoreig.sector import root_of_unity, unity_power


def random_csr(rng, n, density=0.5, complex_values=True):
    mask = rng.random((n, n)) < density
    vals = rng.uniform(-1, 1, (n, n))
    if complex_values:
        vals = vals + 1j * rng.uniform(-1, 1, (n, n))
    return canonical_csr(np.where(mask, vals, 0.0))


MODEL_FILES = sorted((Path(__file__).parent / "data" / "models").glob("*/*.mtx"))


class TestRootOfUnity:
    def test_trivial_values(self):
        assert root_of_unity(0, 22) == 1 + 0j
        assert root_of_unity(11, 22) == -1 + 0j
        assert root_of_unity(1, 4) == 1j

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            root_of_unity(5, 5)
        with pytest.raises(ValueError):
            root_of_unity(-1, 5)
        with pytest.raises(ValueError):
            root_of_unity(0, 0)

    def test_unit_magnitude(self):
        for M in (1, 2, 7, 22, 64):
            for m in range(M):
                assert abs(abs(root_of_unity(m, M)) - 1.0) <= 1e-15

    def test_mth_power_is_one(self):
        for M in range(1, 65):
            for m in range(M):
                assert abs(root_of_unity(m, M) ** M - 1.0) <= 1e-13

    def test_conjugate_symmetry_exact(self):
        for M in (3, 8, 22, 63):
            for m in range(1, M):
                assert root_of_unity(M - m, M) == root_of_unity(m, M).conjugate()

    def test_unity_power_reduces_exponent(self):
        assert unity_power(3, 21, 22) == root_of_unity((3 * 21) % 22, 22)


class TestSpmv:
    def test_identity(self):
        x = np.array([1.0, 1j, -1.0])
        eye = canonical_csr(np.eye(3))
        assert np.array_equal(spmv(eye, x), x)

    def test_zero_matrix(self):
        assert np.array_equal(spmv(sp.csr_matrix((2, 2), dtype=complex), [5.0, 7.0]), np.zeros(2))

    def test_against_dense(self):
        rng = np.random.default_rng(7)
        A = random_csr(rng, 4, density=0.8)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        expected = A.toarray() @ x
        assert np.linalg.norm(spmv(A, x) - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            spmv(sp.csr_matrix((2, 2), dtype=complex), [1.0, 2.0, 3.0])


class TestSparseLU:
    def test_identity(self):
        lu = SparseLU(canonical_csr(np.eye(2)))
        assert np.allclose(lu.solve([1.0, 2j]), [1.0, 2j])

    def test_diagonal(self):
        lu = SparseLU(canonical_csr(np.diag([2.0, 1j])))
        assert np.allclose(lu.solve([2.0, 1j]), [1.0, 1.0])

    def test_random_residual(self):
        rng = np.random.default_rng(3)
        A = random_csr(rng, 20, density=0.4)
        A = canonical_csr(A + canonical_csr(5 * np.eye(20)))  # keep well-conditioned
        lu = SparseLU(A)
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        x = lu.solve(y)
        assert np.linalg.norm(A @ x - y) / np.linalg.norm(y) <= 1e-12

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularMatrixError):
            SparseLU(sp.csr_matrix((3, 3), dtype=complex))

    def test_structural_singularity(self):
        with pytest.raises(SingularMatrixError):
            SparseLU(canonical_csr(np.array([[1.0, 0.0], [0.0, 0.0]])))

    def test_near_singular_pivot(self):
        with pytest.raises(SingularMatrixError):
            SparseLU(canonical_csr(np.diag([1.0, 1e-16])))

    def test_factor_nnz_positive(self):
        lu = SparseLU(canonical_csr(np.eye(4)))
        assert lu.factor_nnz >= 4


class TestDenseLU:
    """SparseLU(A, dense=True): LAPACK getrf, then two BLAS trsv and a
    permutation per solve, behind the same checks."""

    @pytest.mark.parametrize("A", [
        sp.csr_matrix((3, 3), dtype=complex),
        canonical_csr(np.array([[1.0, 0.0], [0.0, 0.0]])),
        canonical_csr(np.array([[1.0, 2.0], [2.0, 4.0]])),  # exactly singular, no zero row
        canonical_csr(np.diag([1.0, 1e-16])),
    ], ids=["zero", "zero-row", "rank-one", "tiny-pivot"])
    def test_singular_like_superlu(self, A):
        for dense in (False, True):
            with pytest.raises(SingularMatrixError):
                SparseLU(A, dense=dense)

    def test_solves_agree_with_superlu(self):
        rng = np.random.default_rng(4)
        n = 150
        A = canonical_csr(random_csr(rng, n, density=0.1) + canonical_csr(2 * np.eye(n)))
        Y = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        sparse, dense = SparseLU(A), SparseLU(A, dense=True)
        for y in Y.T:
            x = sparse.solve(y)
            assert np.linalg.norm(dense.solve(y) - x) <= 1e-12 * np.linalg.norm(x)

    def test_storage_is_n_squared(self):
        rng = np.random.default_rng(5)
        A = canonical_csr(random_csr(rng, 40, density=0.05) + canonical_csr(np.eye(40)))
        assert SparseLU(A, dense=True).factor_nnz == 40 ** 2

    def test_dimension_mismatch(self):
        lu = SparseLU(canonical_csr(np.eye(3)), dense=True)
        with pytest.raises(DimensionMismatchError):
            lu.solve(np.ones(4))
        for dense in (False, True):
            with pytest.raises(DimensionMismatchError, match=r"must be square, got \(2, 3\)"):
                SparseLU(canonical_csr(np.ones((2, 3))), dense=dense)

    def test_solve_through_many_row_swaps(self):
        # a tiny diagonal under a large shuffled entry in each row: getrf's
        # partial pivoting swaps most rows, and the matrix stays well conditioned
        rng = np.random.default_rng(21)
        n = 200
        target = rng.permutation(n)
        A = 0.01 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        A[np.diag_indices(n)] = 1e-9
        A[np.arange(n), target] = 4.0 + 2.0j
        assert (scipy.linalg.lu_factor(A.T)[1] != np.arange(n)).mean() > 0.9
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = np.linalg.solve(A, y)
        got = SparseLU(canonical_csr(A), dense=True).solve(y)
        assert np.linalg.norm(got - x) <= 1e-13 * np.linalg.norm(x)

    def test_permutation_matrix_permutes_exactly(self):
        rng = np.random.default_rng(22)
        n = 50
        target = rng.permutation(n)
        A = np.zeros((n, n))
        A[np.arange(n), target] = 1.0  # row i of A x = y reads x[target[i]] = y[i]
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = np.empty(n, dtype=complex)
        x[target] = y
        assert np.array_equal(SparseLU(canonical_csr(A), dense=True).solve(y), x)

    def test_solve_leaves_input_alone(self):
        rng = np.random.default_rng(23)
        A = canonical_csr(random_csr(rng, 30, density=0.3) + canonical_csr(3 * np.eye(30)))
        lu = SparseLU(A, dense=True)
        y = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        before = y.copy()
        x = lu.solve(y)
        assert np.array_equal(y, before)
        assert x.dtype == np.complex128 and x.shape == (30,)
        assert not np.shares_memory(x, y)

    def test_non_contiguous_right_hand_side(self):
        rng = np.random.default_rng(24)
        A = canonical_csr(random_csr(rng, 30, density=0.3) + canonical_csr(3 * np.eye(30)))
        lu = SparseLU(A, dense=True)
        Y = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
        assert not Y[:, 1].flags.contiguous
        assert np.array_equal(lu.solve(Y[:, 1]), lu.solve(Y[:, 1].copy()))
        assert np.allclose(A @ lu.solve(Y[:, 1]), Y[:, 1], rtol=0, atol=1e-12)


class TestMatrixMarket:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        A = random_csr(rng, 9, density=0.3)
        path = tmp_path / "block.mtx"
        write_matrix_market(path, A)
        B = parse_matrix_market(path)
        assert A.shape == B.shape
        assert np.array_equal(A.indptr, B.indptr)
        assert np.array_equal(A.indices, B.indices)
        assert np.array_equal(A.data, B.data)

    def test_header_format(self, tmp_path):
        path = tmp_path / "m.mtx"
        write_matrix_market(path, canonical_csr(np.eye(2)))
        first = path.read_text().splitlines()[0]
        assert first == "%%MatrixMarket matrix coordinate complex general"

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "z.mtx"
        write_matrix_market(path, sp.csr_matrix((3, 3), dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A = parse_matrix_market(path)
        assert A.shape == (3, 3) and A.nnz == 0

    @pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_model_files_match_scipy_reader(self, path):
        A = parse_matrix_market(path)
        B = canonical_csr(scipy.io.mmread(path))
        assert A.shape == B.shape
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(A, attr), getattr(B, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_signed_zeros_kept(self, tmp_path):
        path = tmp_path / "z.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                        "2 2 2\n1 1 -0.0 1.5\n2 2 2.5 -0.0\n")
        data = parse_matrix_market(path).data
        assert np.signbit(data.real).tolist() == [True, False]
        assert np.signbit(data.imag).tolist() == [False, True]

    def test_comments_between_header_and_size_line(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                        "% written by hand\n%\n\n2 3 2\n1 3 1.5 -2.0\n2 1 0.25 0.0\n")
        A = csr_from_arrays(parse_matrix_market(path))
        assert A.shape == (2, 3)
        assert np.array_equal(A.toarray(), [[0, 0, 1.5 - 2j], [0.25, 0, 0]])

    def test_parse_returns_canonical_arrays(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                        "2 2 3\n2 2 1.0 0.0\n1 1 1e-310 0.0\n2 2 1.0 0.0\n")
        arrays = parse_matrix_market(path)
        assert isinstance(arrays, CsrArrays) and arrays.shape == (2, 2) and arrays.nnz == 1
        assert arrays.indptr.tolist() == [0, 0, 1] and arrays.indices.tolist() == [1]
        assert arrays.data.tolist() == [2.0]
        assert np.array_equal(csr_from_arrays(arrays).toarray(), [[0, 0], [0, 2]])

    @pytest.mark.parametrize("shape, entries", [
        ((3, 4), [(2, 3, 1.5 - 2j), (0, 1, 0.25), (2, 0, -1j), (0, 0, 3.0), (1, 2, 7.0)]),
        ((3, 3), [(1, 1, 1.0), (0, 2, 2j), (1, 1, 2.5 - 1j), (1, 1, 1e-3), (0, 2, -1.0)]),
        ((3, 3), [(0, 0, 1.0), (1, 1, 1e-301 + 1e-302j), (2, 2, -1e-310), (2, 1, 1e-300)]),
        ((2, 2), [(0, 1, 0.0), (1, 0, -0.0 + 0j), (1, 1, 4.0)]),
        ((2, 2), [(0, 0, 1.0), (0, 0, -1.0), (1, 1, 1e-300), (1, 1, -1e-300)]),
        ((0, 0), []),
        ((4, 3), []),
        ((1, 40), [(0, j % 20, complex(j, -j)) for j in range(40)][::-1]),
        ((2, 3), [(1, 2, 1e16), (0, 1, 5.0), (1, 2, 1.0), (1, 2, -1e16), (1, 2, 3.0 - 0.0j)]),
    ], ids=["unsorted", "duplicates", "below-1e-300", "explicit-zero", "cancelling-duplicates",
            "0x0", "empty", "long-row-duplicates", "duplicates-summed-in-order"])
    def test_parse_matches_canonical_csr(self, tmp_path, shape, entries):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                        f"{shape[0]} {shape[1]} {len(entries)}\n"
                        + "".join(f"{i + 1} {j + 1} {complex(v).real!r} {complex(v).imag!r}\n"
                                  for i, j, v in entries))
        i, j, v = (np.array(x) for x in zip(*entries)) if entries else ([], [], [])
        want = canonical_csr(sp.coo_matrix((v, (i, j)), shape=shape, dtype=np.complex128))
        got = parse_matrix_market(path)
        assert got.shape == want.shape and got.nnz == want.nnz
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_duplicates_summed_in_file_order_on_long_rows(self, tmp_path, seed):
        # 40 distinct entries and four copies of the entry in column 8 in one
        # shuffled row, the copies in this order: added one at a time in
        # file order they give exactly 3.0, in most other orders (or added
        # in pairs) 0.0, 4.0 or 5.0.  Past 16 entries an unstable sort may
        # swap the copies, so canonical_csr must sort as the parser does.
        rng = np.random.default_rng(seed)
        others = iter([(0, int(j), complex(j + 1)) for j in rng.permutation(np.r_[0:7, 8:60])[:40]])
        copies = iter([(0, 7, 1e16), (0, 7, 1.0), (0, 7, -1e16), (0, 7, 3.0)])
        slots = set(rng.choice(44, 4, replace=False).tolist())
        entries = [next(copies if s in slots else others) for s in range(44)]
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 60 44\n"
                        + "".join(f"{i + 1} {j + 1} {complex(v).real!r} {complex(v).imag!r}\n"
                                  for i, j, v in entries))
        got = parse_matrix_market(path)
        assert got.nnz == 41 and np.all(np.diff(got.indices) > 0)
        assert got.data[np.searchsorted(got.indices, 7)] == 3.0
        i, j, v = (np.array(x) for x in zip(*entries))
        want = canonical_csr(sp.coo_matrix((v, (i, j)), shape=(1, 60), dtype=np.complex128))
        for attr in ("indptr", "indices", "data"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n1 1 1.0 0.0\n",
        "%%MatrixMarket matrix array complex general\n2 2\n1.0 0.0\n",
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n",
        "2 2 1\n1 1 1.0 0.0\n",
        "",
    ], ids=["real", "symmetric", "array", "pattern", "no-header", "empty-file"])
    def test_other_formats_rejected(self, tmp_path, text):
        path = tmp_path / "other.mtx"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            parse_matrix_market(path)

    @pytest.mark.parametrize("body", [
        "2 2 2\n1 1 1.0 0.0\n",
        "2 2 1\n1 1 1.0 0.0\n2 2 1.0 0.0\n",
        "2 2 0\n1 1 1.0 0.0\n",
        "2 2 1\n",
        "2 2 1\n3 1 1.0 0.0\n",
        "2 2 1\n1 3 1.0 0.0\n",
        "2 2 1\n0 1 1.0 0.0\n",
        "2 2 1\n1 0 1.0 0.0\n",
        "2 2 1\n1.5 1 1.0 0.0\n",
        "2 2 1\n1 1 1.0\n",
        "2 2\n1 1 1.0 0.0\n",
        "-2 2 0\n",
        "",
        "2 2 1\n1 1 nan 0.0\n",
        "2 2 1\n1 1 1.0 -inf\n",
        "2 2 2\n1 1 1e308 0.0\n1 1 1e308 0.0\n",
    ], ids=["too-few", "too-many", "extra-after-empty", "missing-entry", "row-out-of-range",
            "col-out-of-range", "index-zero", "col-index-zero", "fractional-index",
            "no-imaginary-part", "short-size-line", "negative-size", "no-size-line", "nan",
            "inf", "overflowing-sum"])
    def test_malformed_body_rejected(self, tmp_path, body):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n" + body)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            parse_matrix_market(path)


def test_non_finite_entries_rejected():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        canonical_csr(bad)


def test_canonical_key_does_not_overflow():
    # int32 COO indices: row * ncols + col exceeds 2**31 from row 30 678 on
    n, h = 70_000, 35_000
    A = canonical_csr(sp.coo_matrix(([3.0, 4.0, 1.0, 2.0], ([n - 1, h, 0, n - 1],
                                                            [n - 1, 1, n - 1, 0])), shape=(n, n)))
    assert A.indptr[[0, 1, h, h + 1, n - 1, n]].tolist() == [0, 1, 1, 2, 2, 4]
    assert A.indices.tolist() == [n - 1, 1, 0, n - 1] and A.data.tolist() == [1, 4, 2, 3]


def test_canonical_prunes_underflow():
    A = canonical_csr(np.array([[1e-301, 1.0], [0.0, 2.0]]))
    assert A.nnz == 2
