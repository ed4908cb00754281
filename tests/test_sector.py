import numpy as np
import pytest

from sectoreig.circulant import lift_block_eigenvector
from sectoreig.eig import greedy_match
from sectoreig.models import (
    make_random_sector_jacobian,
    make_ring_advection_diffusion,
    make_rotating_vector_model,
)
from sectoreig.sector import (
    DofLayout,
    RotationSpec,
    SectorJacobian,
    lift_to_annulus,
    load_sector_jacobian,
    materialize,
    materialize_full,
    nodal_diameter,
    reduced_block,
    rotation_matrix,
    save_sector_jacobian,
    without_rotation,
)
from sectoreig.sparsecore import canonical_csr, zeros_csr


def vector_spec(M, points=2):
    layout = DofLayout(points_per_sector=points, vars_per_point=2,
                       rotating_pairs=((0, 1),))
    return RotationSpec(M, layout)


def scalar_spec(M, points=3):
    return RotationSpec(M, DofLayout(points_per_sector=points, vars_per_point=1))


class TestRotationMatrix:
    def test_power_zero_is_identity(self):
        spec = vector_spec(6)
        assert np.array_equal(rotation_matrix(spec, 0).toarray(), np.eye(4))

    def test_scalar_layout_always_identity(self):
        spec = scalar_spec(6)
        for p in (-3, 0, 1, 7):
            assert np.array_equal(rotation_matrix(spec, p).toarray(), np.eye(3))

    def test_full_turn_is_identity(self):
        spec = vector_spec(7)
        T_M = rotation_matrix(spec, 7).toarray()
        assert np.max(np.abs(T_M - np.eye(4))) <= 1e-12

    def test_orthogonality(self):
        spec = vector_spec(9)
        for p in range(-9, 10):
            prod = (rotation_matrix(spec, p) @ rotation_matrix(spec, -p)).toarray()
            assert np.max(np.abs(prod - np.eye(4))) <= 1e-13

    def test_group_property(self):
        spec = vector_spec(5)
        for p in (-2, 1, 3):
            for q in (-1, 2, 4):
                lhs = rotation_matrix(spec, p + q).toarray()
                rhs = (rotation_matrix(spec, p) @ rotation_matrix(spec, q)).toarray()
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_real_entries(self):
        spec = vector_spec(6)
        assert np.max(np.abs(rotation_matrix(spec, 2).toarray().imag)) == 0.0


class TestRotationSpec:
    def test_theta_times_m_is_full_turn(self):
        for M in (3, 22, 61):
            spec = scalar_spec(M)
            assert abs(spec.theta * M - 2 * np.pi) <= 1e-12

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            DofLayout(2, 2, ((0, 0),))
        with pytest.raises(ValueError):
            DofLayout(2, 2, ((0, 3),))
        with pytest.raises(ValueError):
            DofLayout(2, 3, ((0, 1), (1, 2)))


class TestSectorJacobian:
    def test_block_layout_of_circulant(self):
        J = make_rotating_vector_model(5, 2, 0.4)
        B = materialize(J).toarray()
        N = J.N
        offsets = {0: J.d_self, 1: J.d_next, 4: J.d_prev}
        for i in range(5):
            for j in range(5):
                seg = B[N * i:N * (i + 1), N * j:N * (j + 1)]
                blk = offsets.get((j - i) % 5)
                expected = np.zeros((N, N)) if blk is None else blk.toarray()
                assert np.array_equal(seg, expected)

    def test_neighbor_coupling_needs_three_sectors(self):
        spec = scalar_spec(2, points=1)
        eye = canonical_csr(np.eye(1))
        with pytest.raises(ValueError):
            SectorJacobian(eye, eye, eye, spec)
        # zero neighbors are fine for degenerate M
        J = SectorJacobian(eye, zeros_csr(1), zeros_csr(1), spec)
        assert J.M == 2

    def test_from_unrotated_applies_change_of_variables(self):
        spec = vector_spec(6, points=1)
        rng = np.random.default_rng(21)
        d_self = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        c_next = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        c_prev = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        J = SectorJacobian.from_unrotated(d_self, c_next, c_prev, spec)
        t_fwd = rotation_matrix(spec, 1).toarray()
        t_bwd = rotation_matrix(spec, -1).toarray()
        assert np.max(np.abs(J.d_next.toarray() - c_next.toarray() @ t_fwd)) <= 1e-15
        assert np.max(np.abs(J.d_prev.toarray() - c_prev.toarray() @ t_bwd)) <= 1e-15

    def test_without_rotation_recovers_unrotated_blocks(self):
        spec = vector_spec(6, points=1)
        rng = np.random.default_rng(22)
        c_next = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        c_prev = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        d_self = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        J = SectorJacobian.from_unrotated(d_self, c_next, c_prev, spec)
        stripped = without_rotation(J)
        assert not stripped.rotation.layout.rotating_pairs
        assert np.max(np.abs(stripped.d_next.toarray() - c_next.toarray())) <= 1e-14
        assert np.max(np.abs(stripped.d_prev.toarray() - c_prev.toarray())) <= 1e-14


class TestMaterializeFull:
    def test_identity_rotation_zero_neighbors_is_blockdiag(self):
        spec = scalar_spec(4, points=2)
        rng = np.random.default_rng(23)
        d_self = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        J = SectorJacobian(d_self, zeros_csr(2), zeros_csr(2), spec)
        full = materialize_full(J).toarray()
        expected = np.kron(np.eye(4), d_self.toarray())
        assert np.array_equal(full, expected)

    def test_block_formula(self):
        J = make_rotating_vector_model(3, 1, 0.5)
        A = materialize_full(J).toarray()
        N = J.N
        for m1 in range(3):
            t1 = rotation_matrix(J.rotation, m1).toarray()
            for m2 in range(3):
                t2inv = rotation_matrix(J.rotation, -m2).toarray()
                blk = (J.d_self, J.d_next, J.d_prev)[(m2 - m1) % 3].toarray()
                expected = t1 @ blk @ t2inv
                seg = A[N * m1:N * (m1 + 1), N * m2:N * (m2 + 1)]
                assert np.max(np.abs(seg - expected)) <= 1e-12

    def test_similarity_preserves_spectrum(self):
        J = make_rotating_vector_model(3, 1, 0.7)
        a_vals = np.linalg.eigvals(materialize_full(J).toarray())
        b_vals = np.linalg.eigvals(materialize(J).toarray())
        radius = np.max(np.abs(a_vals))
        assert greedy_match(a_vals, b_vals).max() <= 1e-9 * radius

    def test_equivariance_under_pitch_shift(self):
        J = make_rotating_vector_model(5, 2, 0.6)
        A = materialize_full(J).toarray()
        T = rotation_matrix(J.rotation, 1).toarray()
        Tinv = rotation_matrix(J.rotation, -1).toarray()
        N, M = J.N, J.M
        for m1 in range(M):
            for m2 in range(M):
                src = A[N * m1:N * (m1 + 1), N * m2:N * (m2 + 1)]
                i, j = (m1 + 1) % M, (m2 + 1) % M
                dst = A[N * i:N * (i + 1), N * j:N * (j + 1)]
                assert np.max(np.abs(dst - T @ src @ Tinv)) <= 1e-12


class TestLiftToAnnulus:
    def test_identity_rotation_reduces_to_block_lift(self):
        spec = scalar_spec(5, points=2)
        rng = np.random.default_rng(25)
        d_self = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        J = SectorJacobian(d_self, zeros_csr(2), zeros_csr(2), spec)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for m in range(5):
            assert np.array_equal(lift_to_annulus(v, m, J),
                                  lift_block_eigenvector(v, m, 5))

    def test_harmonic_zero_scalar_copies(self):
        spec = scalar_spec(4, points=2)
        J = SectorJacobian(canonical_csr(np.eye(2)), zeros_csr(2), zeros_csr(2), spec)
        v = np.array([1.0, -2.0])
        assert np.array_equal(lift_to_annulus(v, 0, J), np.tile(v, 4))

    def test_lift_of_columns_equals_lift_of_each(self):
        J = make_rotating_vector_model(5, 2, 0.6)
        V = np.random.default_rng(26).standard_normal((J.N, 3)) + 0.5j
        for m in range(5):
            lifted = lift_to_annulus(V, m, J)
            assert lifted.shape == (J.M * J.N, 3)
            for i in range(3):
                assert np.array_equal(lifted[:, i], lift_to_annulus(V[:, i], m, J))

    def test_lifted_vectors_are_full_eigenvectors(self):
        J = make_rotating_vector_model(6, 2, 0.3)
        A = materialize_full(J)
        for m in range(6):
            w, V = np.linalg.eig(reduced_block(J, m).toarray())
            for i in range(len(w)):
                lifted = lift_to_annulus(V[:, i], m, J)
                res = np.linalg.norm(A @ lifted - w[i] * lifted)
                assert res / np.linalg.norm(lifted) <= 1e-8

    def test_conjugate_nodal_diameter_pairing(self):
        J = make_rotating_vector_model(7, 2, 0.4)
        for m in range(1, 7):
            vals_m = np.linalg.eigvals(reduced_block(J, m).toarray())
            vals_conj = np.linalg.eigvals(reduced_block(J, 7 - m).toarray())
            assert greedy_match(vals_m.conjugate(), vals_conj).max() <= 1e-9


class TestConjugateHarmonic:
    """Real sector blocks give B_{M-m} = conj(B_m) bit for bit, which lets
    the solver answer harmonic M - m from harmonic m's block."""

    @pytest.mark.parametrize("M", [7, 8])
    @pytest.mark.parametrize("model", ["ring", "rotvec", "random"])
    def test_mirror_block_is_bitwise_conjugate(self, model, M):
        J = {"ring": lambda: make_ring_advection_diffusion(M, 5, 0.7),
             "rotvec": lambda: make_rotating_vector_model(M, 4, 0.35),
             "random": lambda: make_random_sector_jacobian(M, 9, 0.4, seed=M)}[model]()
        assert J.is_real
        for m in range(1, M):
            a, b = reduced_block(J, m), reduced_block(J, M - m)
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(b.data, a.data.conj())

    def test_one_complex_block_is_not_real(self):
        J = make_rotating_vector_model(5, 3, 0.3)
        d_next = J.d_next.copy()
        d_next.data[0] += 1e-3j
        assert not SectorJacobian(J.d_self, d_next, J.d_prev, J.rotation).is_real


class TestNodalDiameter:
    def test_examples(self):
        assert nodal_diameter(0, 22) == 0
        assert nodal_diameter(11, 22) == 11
        assert nodal_diameter(21, 22) == 1

    def test_sign_changes_of_lifted_ring_mode(self):
        # Harmonic M-1 advances phase by -2*pi/M per sector: one full wave.
        M = 22
        lifted = lift_block_eigenvector(np.array([1.0]), 21, M)
        signs = np.sign(lifted.real)
        changes = int(np.sum(signs != np.roll(signs, 1)))
        assert changes // 2 == nodal_diameter(21, M) == 1


class TestDiskFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        J = make_rotating_vector_model(6, 3, 0.35)
        save_sector_jacobian(J, tmp_path / "model")
        K = load_sector_jacobian(tmp_path / "model")
        assert K.M == J.M
        assert K.rotation.layout == J.rotation.layout
        for name in ("d_self", "d_next", "d_prev"):
            a, b = getattr(J, name), getattr(K, name)
            assert np.array_equal(a.toarray(), b.toarray())

    def test_layout_file_contents(self, tmp_path):
        J = make_rotating_vector_model(6, 3, 0.35)
        save_sector_jacobian(J, tmp_path / "model")
        text = (tmp_path / "model" / "layout.txt").read_text()
        assert "M = 6" in text
        assert "rotating_pairs = 0:1" in text
