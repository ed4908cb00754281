import os
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import sectoreig.sector as sector_module
import sectoreig.sparsecore as sparsecore

from sectoreig.eig import Block, greedy_match
from sectoreig.models import (
    make_random_sector_jacobian,
    make_ring_advection_diffusion,
    make_rotating_vector_model,
)
from sectoreig.sector import (
    DofLayout,
    SectorJacobian,
    lift_block_eigenvector,
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
from sectoreig.sparsecore import canonical_csr, csr_from_arrays


def empty_csr(n):
    """Structurally empty complex n x n CSR matrix."""
    return sp.csr_matrix((n, n), dtype=complex)


def vector_layout(points=2):
    return DofLayout(points_per_sector=points, vars_per_point=2, rotating_pairs=((0, 1),))


def scalar_layout(points=3):
    return DofLayout(points_per_sector=points, vars_per_point=1)


class TestRotationMatrix:
    def test_power_zero_is_identity(self):
        assert np.array_equal(rotation_matrix(vector_layout(), 6, 0).toarray(), np.eye(4))

    def test_scalar_layout_always_identity(self):
        for p in (-3, 0, 1, 7):
            assert np.array_equal(rotation_matrix(scalar_layout(), 6, p).toarray(), np.eye(3))

    def test_full_turn_is_identity(self):
        for M in (3, 7, 22, 61):
            T_M = rotation_matrix(vector_layout(), M, M).toarray()
            assert np.max(np.abs(T_M - np.eye(4))) <= 1e-12

    def test_orthogonality(self):
        lay = vector_layout()
        for p in range(-9, 10):
            prod = (rotation_matrix(lay, 9, p) @ rotation_matrix(lay, 9, -p)).toarray()
            assert np.max(np.abs(prod - np.eye(4))) <= 1e-13

    def test_group_property(self):
        lay = vector_layout()
        for p in (-2, 1, 3):
            for q in (-1, 2, 4):
                lhs = rotation_matrix(lay, 5, p + q).toarray()
                rhs = (rotation_matrix(lay, 5, p) @ rotation_matrix(lay, 5, q)).toarray()
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_real_entries(self):
        assert np.max(np.abs(rotation_matrix(vector_layout(), 6, 2).toarray().imag)) == 0.0


class TestDofLayout:
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
        offsets = dict(zip((0, 1, 4), map(csr_from_arrays, J.blocks)))
        for i in range(5):
            for j in range(5):
                seg = B[N * i:N * (i + 1), N * j:N * (j + 1)]
                blk = offsets.get((j - i) % 5)
                expected = np.zeros((N, N)) if blk is None else blk.toarray()
                assert np.array_equal(seg, expected)

    def test_neighbor_coupling_needs_three_sectors(self):
        lay = scalar_layout(points=1)
        eye = canonical_csr(np.eye(1))
        with pytest.raises(ValueError):
            SectorJacobian(eye, eye, eye, 2, lay)
        # zero neighbors are fine for degenerate M
        J = SectorJacobian(eye, empty_csr(1), empty_csr(1), 2, lay)
        assert J.M == 2

    @pytest.mark.parametrize("M", [0, -1])
    def test_sector_count_must_be_positive(self, M):
        eye = canonical_csr(np.eye(1))
        with pytest.raises(ValueError, match=f"sector count must be >= 1, got {M}"):
            SectorJacobian(eye, empty_csr(1), empty_csr(1), M, scalar_layout(points=1))

    def test_from_unrotated_applies_change_of_variables(self):
        lay = vector_layout(points=1)
        rng = np.random.default_rng(21)
        d_self = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        c_next = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        c_prev = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        J = SectorJacobian.from_unrotated(d_self, c_next, c_prev, 6, lay)
        t_fwd = rotation_matrix(lay, 6, 1).toarray()
        t_bwd = rotation_matrix(lay, 6, -1).toarray()
        _, d_next, d_prev = (csr_from_arrays(b).toarray() for b in J.blocks)
        assert np.max(np.abs(d_next - c_next.toarray() @ t_fwd)) <= 1e-15
        assert np.max(np.abs(d_prev - c_prev.toarray() @ t_bwd)) <= 1e-15

    def test_without_rotation_recovers_unrotated_blocks(self):
        rng = np.random.default_rng(22)
        c_next = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        c_prev = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        d_self = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        J = SectorJacobian.from_unrotated(d_self, c_next, c_prev, 6, vector_layout(points=1))
        stripped = without_rotation(J)
        assert not stripped.layout.rotating_pairs
        _, d_next, d_prev = (csr_from_arrays(b).toarray() for b in stripped.blocks)
        assert np.max(np.abs(d_next - c_next.toarray())) <= 1e-14
        assert np.max(np.abs(d_prev - c_prev.toarray())) <= 1e-14
        # nothing left to strip
        assert without_rotation(stripped) is stripped


class TestMaterializeFull:
    def test_identity_rotation_zero_neighbors_is_blockdiag(self):
        rng = np.random.default_rng(23)
        d_self = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        J = SectorJacobian(d_self, empty_csr(2), empty_csr(2), 4, scalar_layout(points=2))
        full = materialize_full(J).toarray()
        expected = np.kron(np.eye(4), d_self.toarray())
        assert np.array_equal(full, expected)

    def test_block_formula(self):
        J = make_rotating_vector_model(3, 1, 0.5)
        A = materialize_full(J).toarray()
        N = J.N
        for m1 in range(3):
            t1 = rotation_matrix(J.layout, J.M, m1).toarray()
            for m2 in range(3):
                t2inv = rotation_matrix(J.layout, J.M, -m2).toarray()
                blk = csr_from_arrays(J.blocks[(m2 - m1) % 3]).toarray()
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
        T = rotation_matrix(J.layout, J.M, 1).toarray()
        Tinv = rotation_matrix(J.layout, J.M, -1).toarray()
        N, M = J.N, J.M
        for m1 in range(M):
            for m2 in range(M):
                src = A[N * m1:N * (m1 + 1), N * m2:N * (m2 + 1)]
                i, j = (m1 + 1) % M, (m2 + 1) % M
                dst = A[N * i:N * (i + 1), N * j:N * (j + 1)]
                assert np.max(np.abs(dst - T @ src @ Tinv)) <= 1e-12


class TestLiftToAnnulus:
    def test_identity_rotation_reduces_to_block_lift(self):
        rng = np.random.default_rng(25)
        d_self = canonical_csr(rng.uniform(-1, 1, (2, 2)))
        J = SectorJacobian(d_self, empty_csr(2), empty_csr(2), 5, scalar_layout(points=2))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for m in range(5):
            assert np.array_equal(lift_to_annulus(v, m, J),
                                  lift_block_eigenvector(v, m, 5))

    def test_harmonic_zero_scalar_copies(self):
        J = SectorJacobian(canonical_csr(np.eye(2)), empty_csr(2), empty_csr(2), 4,
                           scalar_layout(points=2))
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
        with pytest.raises(ValueError, match=f"vector length {J.N + 1} != block dimension {J.N}"):
            lift_to_annulus(np.ones(J.N + 1), 1, J)

    def test_lifted_vectors_are_full_eigenvectors(self):
        J = make_rotating_vector_model(6, 2, 0.3)
        A = materialize_full(J)
        for m in range(6):
            w, V = np.linalg.eig(csr_from_arrays(reduced_block(J, m)).toarray())
            for i in range(len(w)):
                lifted = lift_to_annulus(V[:, i], m, J)
                res = np.linalg.norm(A @ lifted - w[i] * lifted)
                assert res / np.linalg.norm(lifted) <= 1e-8

    def test_conjugate_nodal_diameter_pairing(self):
        J = make_rotating_vector_model(7, 2, 0.4)
        for m in range(1, 7):
            vals_m = np.linalg.eigvals(csr_from_arrays(reduced_block(J, m)).toarray())
            vals_conj = np.linalg.eigvals(csr_from_arrays(reduced_block(J, 7 - m)).toarray())
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
        d_self, d_next, d_prev = J.blocks
        d_next = csr_from_arrays(d_next).copy()
        d_next.data[0] += 1e-3j
        assert not SectorJacobian(d_self, d_next, d_prev, J.M, J.layout).is_real


def model_at(model, M):
    """A ring, rotvec (rotating layout) or random model with M sectors.

    Ring and rotvec need M >= 3; below that, the M = 3 model's d_self is
    kept, with its layout, and the neighbor blocks are empty.
    """
    make = {"ring": lambda M: make_ring_advection_diffusion(M, 6, 0.7),
            "rotvec": lambda M: make_rotating_vector_model(M, 5, 0.35),
            "random": lambda M: make_random_sector_jacobian(M, 12, 0.3, seed=M)}[model]
    if M >= 3 or model == "random":
        return make(M)
    J = make(3)
    return SectorJacobian(J.blocks[0], empty_csr(J.N), empty_csr(J.N), M, J.layout)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDenseBlock:
    """The dense route's array, which Block.decompose and the inverse
    iteration form from a block's stored matrix, is reduced_block(J, m)'s
    scipy matrix / unit, bit for bit."""

    @pytest.mark.parametrize("M", [1, 2, 3, 7])
    @pytest.mark.parametrize("model", ["ring", "rotvec", "random"])
    def test_equals_reduced_block_bitwise(self, model, M):
        J = model_at(model, M)
        dense = []
        for m in range(M):
            arrays = reduced_block(J, m)
            given = arrays.data.copy()
            block = Block(arrays)
            block.decompose()
            assert same_bits(arrays.data, given)  # scaled by a copy
            a = block.matrix.toarray()
            assert a.dtype == np.complex128
            assert same_bits(a, csr_from_arrays(reduced_block(J, m)).toarray() / block.unit)
            dense.append(a)
        if J.is_real:
            for m in range(M):
                # equal as values; the sign of a zero imaginary part may differ
                assert np.array_equal(dense[(M - m) % M], dense[m].conj())

    def test_row_index_kept_once_per_jacobian(self):
        J = model_at("rotvec", 7)
        for b, rows in zip(J.blocks, J.rows):
            assert np.array_equal(rows, csr_from_arrays(b).tocoo().row)
        kept = [rows.copy() for rows in J.rows]
        for m in range(J.M):
            reduced_block(J, m)
        assert all(same_bits(a, b) for a, b in zip(J.rows, kept))

    def test_cancelled_sums_are_zero(self):
        # rho_2 = -1 at M = 4: 2I - I - I cancels exactly, and 3e-300 -
        # 2.5e-300 falls below the cancellation tolerance
        eye = np.eye(3)
        tiny = np.zeros((3, 3))
        tiny[0, 1] = 1e-300
        for d_self, d_next in ((2 * eye, eye), (3 * tiny + eye, 2.5 * tiny)):
            J = SectorJacobian(canonical_csr(d_self), canonical_csr(d_next),
                               canonical_csr(eye), 4, DofLayout(3, 1))
            # the diagonal cancels too: no entry is stored
            assert reduced_block(J, 2).nnz == 0

    def test_harmonic_out_of_range(self):
        J = model_at("ring", 3)
        with pytest.raises(ValueError):
            reduced_block(J, 3)


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
        assert K.layout == J.layout
        for a, b in zip(J.blocks, K.blocks):
            assert np.array_equal(csr_from_arrays(a).toarray(), csr_from_arrays(b).toarray())

    def test_layout_file_contents(self, tmp_path):
        J = make_rotating_vector_model(6, 3, 0.35)
        save_sector_jacobian(J, tmp_path / "model")
        text = (tmp_path / "model" / "layout.txt").read_text()
        assert "M = 6" in text
        assert "rotating_pairs = 0:1" in text
        # comment lines and blank lines are skipped on load
        (tmp_path / "model" / "layout.txt").write_text("# M = 4\n\n" + text.replace("\n", "\n\n"))
        K = load_sector_jacobian(tmp_path / "model")
        assert K.M == 6 and K.layout == J.layout

    @pytest.mark.parametrize("text, chunk", [("0:1,2", "2"), ("0;1", "0;1"), ("a:b", "a:b"),
                                             ("0:1:2", "0:1:2")])
    def test_malformed_rotating_pairs_named_on_load(self, tmp_path, text, chunk):
        save_sector_jacobian(make_rotating_vector_model(6, 3, 0.35), tmp_path / "model")
        path = tmp_path / "model" / "layout.txt"
        path.write_text(path.read_text().replace("rotating_pairs = 0:1", f"rotating_pairs = {text}"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: rotating_pairs: ")
                           + ".*" + re.escape(repr(chunk))):
            load_sector_jacobian(tmp_path / "model")

    def test_load_canonicalizes_each_block_once(self, tmp_path, monkeypatch):
        J = make_rotating_vector_model(6, 3, 0.35)
        save_sector_jacobian(J, tmp_path / "model")
        parsed = []

        def counting(path):
            parsed.append(os.path.basename(path))
            return sparsecore.parse_matrix_market(path)

        def refuse(A):
            raise AssertionError("a loaded block was canonicalized again")

        # the parser makes each block canonical; the constructor keeps its arrays
        monkeypatch.setattr(sector_module, "parse_matrix_market", counting)
        monkeypatch.setattr(sector_module, "canonical_csr", refuse)
        monkeypatch.setattr(sparsecore, "canonical_csr", refuse)
        K = load_sector_jacobian(tmp_path / "model")
        assert parsed == ["d_self.mtx", "d_next.mtx", "d_prev.mtx"]
        for b, c in zip(J.blocks, K.blocks):
            assert all(np.array_equal(x, y) for x, y in zip(b, c))

    def test_bad_sector_count_named_on_load(self, tmp_path):
        save_sector_jacobian(make_rotating_vector_model(6, 3, 0.35), tmp_path / "model")
        path = tmp_path / "model" / "layout.txt"
        path.write_text(path.read_text().replace("M = 6", "M = 0"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: sector count must be >= 1")):
            load_sector_jacobian(tmp_path / "model")

    def test_bad_block_file_named_on_load(self, tmp_path):
        save_sector_jacobian(make_rotating_vector_model(6, 3, 0.35), tmp_path / "model")
        path = tmp_path / "model" / "d_next.mtx"
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(" ", 1)[0] + " nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*non-finite"):
            load_sector_jacobian(tmp_path / "model")

    def test_empty_neighbor_blocks_load_without_warnings(self, tmp_path):
        J = make_random_sector_jacobian(1, 5, 0.5, 0)
        assert J.blocks[1].nnz == 0 and J.blocks[2].nnz == 0
        save_sector_jacobian(J, tmp_path / "model")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = load_sector_jacobian(tmp_path / "model")
        assert K.M == 1 and K.blocks[1].nnz == 0 and K.blocks[2].nnz == 0
        assert np.array_equal(csr_from_arrays(K.blocks[0]).toarray(),
                              csr_from_arrays(J.blocks[0]).toarray())
