import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from sectoreig.eig import greedy_match
from sectoreig.sector import (
    DofLayout,
    SectorJacobian,
    circulant_eigenvalues,
    lift_block_eigenvector,
    materialize,
    reduced_block,
    root_of_unity,
)
from sectoreig.sparsecore import BudgetExceededError, canonical_csr, csr_from_arrays


def empty_csr(n):
    """Structurally empty complex n x n CSR matrix."""
    return sp.csr_matrix((n, n), dtype=complex)


def scalar_jacobian(M, d_self, d_next, d_prev):
    """Sector Jacobian with one non-rotating variable per point."""
    N = d_self.shape[0]
    return SectorJacobian(d_self, d_next, d_prev, M, DofLayout(N, 1))


def random_jacobian(rng, M, N, real=False):
    """Scalar-layout sector Jacobian with random dense d_self, d_next, d_prev."""
    blocks = []
    for _ in range(3):
        vals = rng.uniform(-1, 1, (N, N))
        if not real:
            vals = vals + 1j * rng.uniform(-1, 1, (N, N))
        blocks.append(canonical_csr(vals))
    return scalar_jacobian(M, *blocks)


class TestScalarCirculant:
    def test_known_spectrum(self):
        values = circulant_eigenvalues([2, 1, 0, 1])
        assert np.allclose(values, [4, 2, 0, 2], atol=1e-14)

    def test_diagonal_circulant(self):
        c = 1.5 - 0.25j
        for value in circulant_eigenvalues([c, 0, 0, 0, 0]):
            assert value == c

    def test_shift_matrix_spectrum(self):
        M = 8
        values = circulant_eigenvalues([1.0 if k == 1 else 0.0 for k in range(M)])
        for m in range(M):
            assert abs(values[m] - root_of_unity(m, M)) <= 1e-15

    def test_eigenpair_satisfies_definition(self):
        rng = np.random.default_rng(5)
        row = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        B = scipy.linalg.circulant(row).T
        values = circulant_eigenvalues(row)
        for m in range(7):
            vec = lift_block_eigenvector([1.0], m, 7)
            assert np.linalg.norm(B @ vec - values[m] * vec) <= 1e-12 * np.linalg.norm(B)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        row = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        dense_vals = np.linalg.eigvals(scipy.linalg.circulant(row).T)
        ana = circulant_eigenvalues(row)
        radius = np.max(np.abs(dense_vals))
        assert greedy_match(ana, dense_vals).max() <= 1e-10 * radius

    def test_dft_vector_orthogonality(self):
        for M in (2, 5, 16):
            vecs = [lift_block_eigenvector([1.0], m, M) for m in range(M)]
            for m1 in range(M):
                for m2 in range(m1 + 1, M):
                    assert abs(np.vdot(vecs[m1], vecs[m2])) <= 1e-12 * M

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            circulant_eigenvalues([])
        with pytest.raises(ValueError):
            circulant_eigenvalues(np.ones((2, 2)))


class TestReducedBlock:
    def test_harmonic_zero_is_plain_sum(self):
        rng = np.random.default_rng(8)
        J = random_jacobian(rng, 4, 3)
        expected = sum(csr_from_arrays(b).toarray() for b in J.blocks)
        assert np.max(np.abs(csr_from_arrays(reduced_block(J, 0)).toarray() - expected)) <= 1e-14

    def test_single_block_operator(self):
        rng = np.random.default_rng(9)
        b0 = csr_from_arrays(random_jacobian(rng, 3, 3).blocks[0])
        J = scalar_jacobian(5, b0, empty_csr(3), empty_csr(3))
        for m in range(5):
            assert np.array_equal(csr_from_arrays(reduced_block(J, m)).toarray(), b0.toarray())

    def test_spectrum_completeness_vs_dense(self):
        rng = np.random.default_rng(10)
        J = random_jacobian(rng, 4, 3)
        union = np.concatenate(
            [np.linalg.eigvals(csr_from_arrays(reduced_block(J, m)).toarray()) for m in range(4)]
        )
        dense_vals = np.linalg.eigvals(materialize(J).toarray())
        radius = np.max(np.abs(dense_vals))
        assert greedy_match(union, dense_vals).max() <= 1e-9 * radius

    def test_conjugate_harmonic_symmetry_exact(self):
        rng = np.random.default_rng(12)
        J = random_jacobian(rng, 6, 4, real=True)
        for m in range(1, 6):
            a = csr_from_arrays(reduced_block(J, m))
            b = csr_from_arrays(reduced_block(J, 6 - m))
            assert np.array_equal(b.toarray(), a.toarray().conjugate())

    def test_cancellation_empties_pattern(self):
        # rho_2 = -1 at M = 4, so 2I - I - I cancels exactly.
        eye = canonical_csr(np.eye(3))
        J = scalar_jacobian(4, 2 * eye, eye, eye)
        assert reduced_block(J, 2).nnz == 0


class TestLift:
    def test_harmonic_zero_repeats(self):
        v = np.array([1.0, 2j])
        out = lift_block_eigenvector(v, 0, 3)
        assert np.array_equal(out, np.tile(v, 3))

    def test_half_turn(self):
        assert np.array_equal(lift_block_eigenvector([1.0], 1, 2), [1.0, -1.0])

    def test_lift_is_eigenvector_of_full_operator(self):
        rng = np.random.default_rng(14)
        J = random_jacobian(rng, 4, 2)
        B = materialize(J)
        for m in range(4):
            w, V = np.linalg.eig(csr_from_arrays(reduced_block(J, m)).toarray())
            for i in range(len(w)):
                lifted = lift_block_eigenvector(V[:, i], m, 4)
                res = np.linalg.norm(B @ lifted - w[i] * lifted) / np.linalg.norm(lifted)
                assert res <= 1e-9


class TestMaterialize:
    def test_degenerate_single_sector(self):
        rng = np.random.default_rng(15)
        b0 = csr_from_arrays(random_jacobian(rng, 3, 4).blocks[0])
        J = scalar_jacobian(1, b0, empty_csr(4), empty_csr(4))
        assert np.array_equal(materialize(J).toarray(), b0.toarray())

    def test_identity_blocks(self):
        eye = canonical_csr(np.eye(2))
        J = scalar_jacobian(3, eye, empty_csr(2), empty_csr(2))
        assert np.array_equal(materialize(J).toarray(), np.eye(6))

    def test_block_placement(self):
        rng = np.random.default_rng(16)
        J = random_jacobian(rng, 3, 2)
        blocks = [csr_from_arrays(b) for b in J.blocks]
        full = materialize(J).toarray()
        for i in range(3):
            for j in range(3):
                seg = full[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                assert np.array_equal(seg, blocks[(j - i) % 3].toarray())

    def test_budget_refusal_reports_requirement(self):
        eye = canonical_csr(np.eye(10))
        J = scalar_jacobian(4, eye, eye, eye)
        with pytest.raises(BudgetExceededError) as err:
            materialize(J, budget=30)
        assert err.value.required == 40


def test_block_shape_validation():
    eye2 = canonical_csr(np.eye(2))
    with pytest.raises(ValueError):
        scalar_jacobian(3, eye2, canonical_csr(np.eye(3)), eye2)
    with pytest.raises(ValueError):
        SectorJacobian(sp.csr_matrix((2, 3), dtype=complex), empty_csr(2), empty_csr(2),
                       3, DofLayout(2, 1))
    with pytest.raises(ValueError):
        scalar_jacobian(0, eye2, empty_csr(2), empty_csr(2))
