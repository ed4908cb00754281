import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import sectoreig.eig as eig_module
import sectoreig.sparsecore as sparsecore
from sectoreig.circulant import circulant_eigenvalues
from sectoreig.eig import (
    Block,
    EigenPair,
    ShiftInvertConfig,
    deduplicate_pairs,
    dense_eigs,
    greedy_match,
    shift_invert_eigs,
    solve_annulus_spectrum,
    solve_full_annulus,
)
from sectoreig.models import (
    make_random_sector_jacobian,
    make_ring_advection_diffusion,
    make_rotating_vector_model,
    ring_first_row,
)
from sectoreig.sector import (
    SectorJacobian,
    lift_to_annulus,
    materialize_full,
    reduced_block,
)
from sectoreig.sparsecore import BudgetExceededError, SparseLU, canonical_csr, zeros_csr


def random_shifted_sparse(rng, n, density=0.2):
    mask = rng.random((n, n)) < density
    vals = np.where(mask, rng.uniform(-1, 1, (n, n)), 0.0)
    vals[np.diag_indices(n)] -= 2.0
    return canonical_csr(vals)


class TestShiftInvert:
    def test_diagonal_nearest(self):
        A = canonical_csr(np.diag([1.0, 2.0, 3.0]))
        pairs, _ = shift_invert_eigs(A, 2.1, 1, ShiftInvertConfig())
        assert len(pairs) == 1
        assert abs(pairs[0].value - 2.0) <= 1e-12

    def test_cyclic_shift_matrix(self):
        A = canonical_csr(scipy.linalg.circulant([1.0 if k == 1 else 0.0 for k in range(8)]).T)
        pairs, _ = shift_invert_eigs(A, 1.1, 1, ShiftInvertConfig())
        assert abs(pairs[0].value - 1.0) <= 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        A = random_shifted_sparse(rng, 50, density=0.5)
        pairs, _ = shift_invert_eigs(A, 1j, 5, ShiftInvertConfig())
        dense_vals, _ = dense_eigs(A.toarray())
        nearest = dense_vals[np.argsort(np.abs(dense_vals - 1j))[:5]]
        ours = np.array([p.value for p in pairs])
        assert greedy_match(ours, nearest).max() <= 1e-9

    def test_residuals_reverified(self):
        rng = np.random.default_rng(32)
        A = random_shifted_sparse(rng, 40, density=0.4)
        pairs, _ = shift_invert_eigs(A, -1.0 + 0.5j, 3, ShiftInvertConfig())
        for p in pairs:
            direct = np.linalg.norm(A @ p.vector - p.value * p.vector)
            assert abs(direct - p.residual) <= 1e-12
            assert p.residual <= 1e-10
            assert abs(np.linalg.norm(p.vector) - 1.0) <= 1e-12

    def test_singular_shift_is_perturbed_and_flagged(self):
        A = canonical_csr(np.eye(5))
        pairs, info = shift_invert_eigs(A, 1.0, 1, ShiftInvertConfig())
        assert info.perturbed_shift is not None
        assert abs(pairs[0].value - 1.0) <= 1e-10

    def test_ordering_by_distance_to_shift(self):
        A = canonical_csr(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        pairs, _ = shift_invert_eigs(A, 3.4, 3, ShiftInvertConfig())
        dists = [abs(p.value - 3.4) for p in pairs]
        assert dists == sorted(dists)

    def test_tiny_matrix_dense_fallback(self):
        A = canonical_csr(np.diag([1.0, 5.0]))
        pairs, _ = shift_invert_eigs(A, 0.9, 2, ShiftInvertConfig())
        assert sorted(round(p.value.real) for p in pairs) == [1, 5]

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(33)
        A = random_shifted_sparse(rng, 60, density=0.3)
        first, _ = shift_invert_eigs(A, 0.5j, 4, ShiftInvertConfig())
        second, _ = shift_invert_eigs(A, 0.5j, 4, ShiftInvertConfig())
        assert [p.value for p in first] == [p.value for p in second]


class TestDenseRoute:
    def test_every_shift_answered_by_dense_nearest(self):
        J = make_rotating_vector_model(8, 50, 0.3)
        block = Block(reduced_block(J, 1))
        w = np.linalg.eigvals(block.matrix.toarray())
        cfg = ShiftInvertConfig()
        for i, sigma in enumerate(cfg.shifts):
            pairs, info = shift_invert_eigs(block, sigma, 2, cfg, harmonic=1)
            # the first shift spends the n + 1 budget; the rest use no LU
            assert info.matvecs == (block.n + 1 if i == 0 else 0)
            assert (info.factor_nnz > 0) == (i == 0)
            want = w[np.argsort(np.abs(w - sigma), kind="stable")[:2]]
            got = np.array([p.value for p in pairs])
            assert greedy_match(got, want).max() <= 1e-12 * block.norm1

    def test_one_decomposition_and_one_lu_per_harmonic(self, monkeypatch):
        calls = {"eig": 0, "lu": 0}
        real_eig = np.linalg.eig

        def counting_eig(a):
            calls["eig"] += 1
            return real_eig(a)

        class CountingLU(SparseLU):
            def __init__(self, *args, **kwargs):
                calls["lu"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        monkeypatch.setattr(eig_module, "SparseLU", CountingLU)
        report = solve_annulus_spectrum(make_rotating_vector_model(8, 50, 0.3))
        assert report.dense_blocks == list(range(8))
        assert calls == {"eig": 8, "lu": 8}
        assert report.warnings == []

    def test_whole_annulus_block_recorded_as_full(self):
        J = make_rotating_vector_model(4, 5, 0.3)
        report = solve_full_annulus(J, cfg=ShiftInvertConfig(shifts=(1j,)))
        assert report.dense_blocks == ["full"]
        A = materialize_full(J)
        dense_vals, _ = dense_eigs(A)
        nearest = dense_vals[np.argsort(np.abs(dense_vals - 1j), kind="stable")[:2]]
        assert report.pairs
        for p in report.pairs:
            assert np.min(np.abs(nearest - p.value)) <= 1e-10 * max(1.0, abs(p.value))
            direct = np.linalg.norm(A @ p.vector - p.value * p.vector)
            assert abs(direct - p.residual) <= 1e-14

    def test_dense_pairs_are_checked(self):
        A = canonical_csr(np.array([[1.0, 40.0, 0.0],
                                    [0.3, 2.0, 50.0],
                                    [0.0, 0.7, 3.0]]))
        loose, _ = shift_invert_eigs(A, 0.0, 3, ShiftInvertConfig(tol=1.0))
        assert len(loose) == 3
        assert min(p.residual for p in loose) > 0
        pairs, info = shift_invert_eigs(A, 0.0, 3, ShiftInvertConfig(tol=1e-300))
        assert pairs == []
        assert len(info.warnings) == 3
        assert all(w.startswith("dropped pair near ") for w in info.warnings)


@pytest.fixture
def splu_specs(monkeypatch):
    """The permc_spec of every splu call made through sectoreig.sparsecore."""
    specs = []
    real_splu = sparsecore.splu

    def recording_splu(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return real_splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(sparsecore, "splu", recording_splu)
    return specs


class TestMinimumDegreeOrder:
    """Every LU factorization orders by minimum degree on A^T + A, which
    fills less than SuperLU's default COLAMD on the harmonic blocks."""

    def test_every_factorization_uses_minimum_degree(self, splu_specs):
        report = solve_annulus_spectrum(make_random_sector_jacobian(4, 60, 0.08, 3))
        assert report.pairs and report.warnings == []
        assert len(splu_specs) > 1 and set(splu_specs) == {"MMD_AT_PLUS_A"}
        splu_specs.clear()
        solve_full_annulus(make_ring_advection_diffusion(4, 6, 1.0),
                           cfg=ShiftInvertConfig(shifts=(1j,)))
        assert splu_specs == ["MMD_AT_PLUS_A"]

    def test_pairs_are_eigenpairs_of_the_block_and_lift(self):
        J = make_random_sector_jacobian(4, 60, 0.08, 3)
        report = solve_annulus_spectrum(J)
        A = materialize_full(J)
        norm_a = abs(A).sum(axis=0).max()
        assert report.pairs
        for p in report.pairs:
            B = reduced_block(J, p.harmonic)
            residual = np.linalg.norm(B @ p.vector - p.value * p.vector)
            assert abs(residual - p.residual) <= 1e-12 * abs(B).sum(axis=0).max()
            x = lift_to_annulus(p.vector, p.harmonic, J)
            lifted = np.linalg.norm(A @ x - p.value * x) / np.linalg.norm(x)
            assert lifted < 1e-10 * norm_a

    def test_fill_below_colamd(self):
        J = make_random_sector_jacobian(4, 200, 0.02, 0)
        cfg = ShiftInvertConfig()
        report = solve_annulus_spectrum(J, cfg=cfg)
        eye = sp.identity(J.N, dtype=np.complex128, format="csc")
        assert report.peak_factor_nnz > 0
        for m, nnz in report.factor_nnz.items():
            B = reduced_block(J, m)
            for sigma in cfg.shifts:
                lu = splu((B - sigma * eye).tocsc(), permc_spec="COLAMD")
                assert nnz < lu.L.nnz + lu.U.nnz


class TestScaleInvariantAcceptance:
    def test_fine_ring_returns_analytic_nearest(self):
        # ||B_m||_1 is about 1.7e7 here, so correct pairs have absolute
        # residuals near 1e-9; their backward error is near 1e-16.
        M, n = 64, 200
        J = make_ring_advection_diffusion(M, n, 1.0)
        exact = circulant_eigenvalues(ring_first_row(M, n, 1.0))
        tol = 1e-12 * np.max(np.abs(exact))
        cfg = ShiftInvertConfig()
        report = solve_annulus_spectrum(J, cfg=cfg)
        assert report.warnings == [] and report.dense_blocks == []
        for m in range(M):
            got = np.array([p.value for p in report.pairs if p.harmonic == m])
            ref = exact[m::M]
            nearest = np.concatenate(
                [ref[np.argsort(np.abs(ref - s), kind="stable")[:2]] for s in cfg.shifts])
            assert np.abs(got[:, None] - ref[None, :]).min(axis=1).max() <= tol
            assert np.abs(nearest[:, None] - got[None, :]).min(axis=1).max() <= tol


class TestDenseEigs:
    def test_identity_multiplicity(self):
        w, _ = dense_eigs(np.eye(4))
        assert np.allclose(w, 1.0)

    def test_rotation_generator(self):
        w, _ = dense_eigs(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert greedy_match(w, np.array([1j, -1j])).max() <= 1e-14

    def test_trace_identity(self):
        rng = np.random.default_rng(34)
        A = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        w, _ = dense_eigs(A)
        assert abs(w.sum() - np.trace(A)) <= 1e-10 * abs(np.trace(A))

    def test_right_eigenvector_residuals(self):
        rng = np.random.default_rng(35)
        A = rng.standard_normal((20, 20))
        w, V = dense_eigs(A)
        for i in range(20):
            res = np.linalg.norm(A @ V[:, i] - w[i] * V[:, i])
            assert res / np.linalg.norm(A, 2) <= 1e-9

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            dense_eigs(np.eye(5), budget=4)
        with pytest.raises(BudgetExceededError):
            dense_eigs(sp.identity(5, format="csr"), budget=4)


class TestDeduplication:
    def _pair(self, value, harmonic=0, residual=1e-12):
        return EigenPair(value, np.ones(1), harmonic, residual, 1j)

    def test_merges_duplicates_keeping_smaller_residual(self):
        a = self._pair(1.0 + 1.0j, residual=1e-11)
        b = self._pair(1.0 + 1.0j + 1e-9, residual=1e-13)
        kept = deduplicate_pairs([a, b])
        assert len(kept) == 1
        assert kept[0].residual == 1e-13

    def test_different_harmonics_not_merged(self):
        a = self._pair(1.0, harmonic=0)
        b = self._pair(1.0, harmonic=1)
        assert len(deduplicate_pairs([a, b])) == 2

    def test_idempotent(self):
        pairs = [self._pair(1.0), self._pair(1.0 + 1e-9), self._pair(2.0)]
        once = deduplicate_pairs(pairs)
        twice = deduplicate_pairs(once)
        assert [(p.value, p.residual) for p in once] == [(p.value, p.residual) for p in twice]


class TestAnnulusSolvers:
    def test_decoupled_sectors_same_spectrum_every_harmonic(self):
        J = make_random_sector_jacobian(1, 8, 0.6, seed=41)
        # re-wrap as a 5-sector operator with no coupling
        from sectoreig.sector import DofLayout, RotationSpec
        spec = RotationSpec(5, DofLayout(8, 1))
        J = SectorJacobian(J.d_self, zeros_csr(8), zeros_csr(8), spec)
        cfg = ShiftInvertConfig(shifts=(-2.0 + 0j,), eigs_per_shift=2)
        report = solve_annulus_spectrum(J, cfg=cfg)
        by_harmonic = {}
        for p in report.pairs:
            by_harmonic.setdefault(p.harmonic, []).append(p.value)
        ref = np.array(sorted(by_harmonic[0], key=lambda z: (z.real, z.imag)))
        for m in range(1, 5):
            got = np.array(sorted(by_harmonic[m], key=lambda z: (z.real, z.imag)))
            assert greedy_match(got, ref).max() <= 1e-9

    def test_ring_union_matches_analytic(self):
        M, n = 22, 6
        J = make_ring_advection_diffusion(M, n, peclet=1.0)
        ana = circulant_eigenvalues(ring_first_row(M, n, 1.0))
        cfg = ShiftInvertConfig(eigs_per_shift=2, tol=1e-8)
        report = solve_annulus_spectrum(J, cfg=cfg)
        assert report.pairs
        for p in report.pairs:
            assert np.min(np.abs(ana - p.value)) <= 1e-9 * max(1.0, np.max(np.abs(ana)))

    def test_cross_method_agreement(self):
        M, n = 6, 8
        J = make_ring_advection_diffusion(M, n, peclet=1.0)
        cfg = ShiftInvertConfig(shifts=(1j,), eigs_per_shift=4, tol=1e-8)
        reduced = solve_annulus_spectrum(J, cfg=cfg)
        full = solve_full_annulus(J, cfg=cfg)
        for p in full.pairs:
            assert np.min(np.abs(reduced.values() - p.value)) <= 1e-8

    def test_full_solver_has_no_harmonic_labels(self):
        J = make_ring_advection_diffusion(4, 4, peclet=0.5)
        report = solve_full_annulus(J, cfg=ShiftInvertConfig(shifts=(1j,)))
        assert all(p.harmonic is None for p in report.pairs)

    def test_scaling_contract(self):
        M, n, s = 6, 4, 1680.0
        J = make_ring_advection_diffusion(M, n, peclet=1.0)
        scaled = solve_annulus_spectrum(
            J, cfg=ShiftInvertConfig(shifts=(1j,), eigs_per_shift=2, scale=s))
        plain = solve_annulus_spectrum(
            J, cfg=ShiftInvertConfig(shifts=(s * 1j,), eigs_per_shift=2, scale=1.0))
        for p in scaled.pairs:
            ref = plain.values() / s
            i = int(np.argmin(np.abs(ref - p.value)))
            assert abs(ref[i] - p.value) <= 1e-10 * max(1.0, abs(p.value))
            assert abs(plain.pairs[i].residual - p.residual) <= 1e-9

    def test_harmonic_conjugacy_for_real_blocks(self):
        M, n = 8, 4
        J = make_ring_advection_diffusion(M, n, peclet=0.7)
        cfg = ShiftInvertConfig(shifts=(-5.0 + 5.0j, -5.0 - 5.0j), eigs_per_shift=2)
        report = solve_annulus_spectrum(J, cfg=cfg)
        by_harmonic = {}
        for p in report.pairs:
            by_harmonic.setdefault(p.harmonic, []).append(p.value)
        for m in range(1, M):
            if m in by_harmonic and (M - m) in by_harmonic:
                a = np.array(by_harmonic[m])
                b = np.conjugate(by_harmonic[M - m])
                for val in a:
                    assert np.min(np.abs(b - val)) <= 1e-8

    def test_per_harmonic_failures_do_not_abort(self):
        # Harmonic 0 of the pure-diffusion ring is singular at shift 0:
        # the solver must perturb or warn, and other harmonics still solve.
        J = make_ring_advection_diffusion(4, 2, peclet=0.0)
        cfg = ShiftInvertConfig(shifts=(0j,), eigs_per_shift=1)
        report = solve_annulus_spectrum(J, cfg=cfg)
        harmonics_seen = {p.harmonic for p in report.pairs}
        assert {1, 2, 3} <= harmonics_seen

    def test_report_metadata(self):
        J = make_ring_advection_diffusion(4, 4, peclet=0.5)
        cfg = ShiftInvertConfig(shifts=(1j, 2j), eigs_per_shift=2)
        report = solve_annulus_spectrum(J, cfg=cfg)
        assert report.M == 4 and report.N == 4
        assert report.raw_count >= len(report.pairs)
        assert set(report.wall_times) == {0, 1, 2, 3}
        assert report.peak_factor_nnz > 0


class TestConfigValidation:
    def test_positive_tol_and_scale(self):
        with pytest.raises(ValueError):
            ShiftInvertConfig(tol=0.0)
        with pytest.raises(ValueError):
            ShiftInvertConfig(scale=-1.0)


def test_greedy_match_validates_sizes():
    with pytest.raises(ValueError):
        greedy_match(np.array([1.0]), np.array([1.0, 2.0]))
