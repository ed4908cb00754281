import contextlib
import errno
import functools
import hashlib
import math
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, splu

import sectoreig.eig as eig_module
import sectoreig.sector as sector_module
import sectoreig.sparsecore as sparsecore
from sectoreig.cli import main as cli_main
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
    DofLayout,
    SectorJacobian,
    circulant_eigenvalues,
    lift_to_annulus,
    load_sector_jacobian,
    materialize_full,
    reduced_block,
    save_sector_jacobian,
)
from sectoreig.sparsecore import BudgetExceededError, SparseLU, canonical_csr, csr_from_arrays


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextlib.contextmanager
def one_cpu():
    """This process pinned to one CPU, so that every harmonic is solved in
    it; the affinity is restored afterwards."""
    if CPUS < 2:
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


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

    @pytest.mark.parametrize("route", ["arnoldi", "dense"])
    def test_ordered_by_distance_then_real_then_imag(self, route):
        if route == "arnoldi":
            # n = 150 > DENSE_ROUTE_MAX_DIM; ARPACK returns these six out of order
            rng = np.random.default_rng(0)
            A = sp.diags(rng.uniform(-5, 5, 150) + 1j * rng.uniform(-5, 5, 150), format="csr")
            sigma, k = 1j, 6
        else:
            # eigenvalues j +- 0.5i: each conjugate pair lies exactly as far
            # from the real shift, and LAPACK returns its upper half first
            A = sp.block_diag([[[j, 0.5], [-0.5, j]] for j in range(1, 21)], format="csr")
            sigma, k = 3.2, 4
        block = Block(A)
        if route == "dense":
            block.decompose()
        pairs, _ = shift_invert_eigs(block, sigma, k, ShiftInvertConfig())
        assert (block.values is None) == (route == "arnoldi")
        keys = [(abs(p.value - sigma), p.value.real, p.value.imag) for p in pairs]
        assert len(keys) == k and keys == sorted(keys)

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
        # n = 120 > DENSE_ROUTE_MAX_DIM: the clustered block starts on Arnoldi
        J = make_rotating_vector_model(8, 60, 0.3)
        block = Block(reduced_block(J, 1))
        w = np.linalg.eigvals(block.matrix.toarray())
        cfg = ShiftInvertConfig()
        for i, sigma in enumerate(cfg.shifts):
            (pairs, info), _, solves = counted(
                lambda: shift_invert_eigs(block, sigma, 2, cfg, harmonic=1))
            # the first shift spends the n + 1 budget; the rest use no LU
            assert solves == (block.n + 1 if i == 0 else 0)
            assert (info.factor_nnz > 0) == (i == 0)
            want = w[np.argsort(np.abs(w - sigma), kind="stable")[:2]]
            got = np.array([p.value for p in pairs])
            assert greedy_match(got, want).max() <= 1e-12 * block.norm1

    @pytest.mark.parametrize("n, route", [
        (eig_module.MIN_SUBSPACE_DIM, "arnoldi"), (eig_module.MIN_SUBSPACE_DIM + 1, "dense"),
        (eig_module.DENSE_ROUTE_MAX_DIM, "dense"),
    ])
    def test_undecomposed_block_takes_its_route_at_the_first_shift(self, n, route):
        rng = np.random.default_rng(n)
        block = Block(random_shifted_sparse(rng, n))
        (pairs, info), kinds, solves = counted(
            lambda: shift_invert_eigs(block, 1j, 2, ShiftInvertConfig()))
        assert len(pairs) == 2 and info.warnings == []
        # the dense route factors nothing; n = MIN_SUBSPACE_DIM stays on Arnoldi
        assert (block.values is not None) == (route == "dense")
        assert (kinds == []) == (solves == 0) == (info.factor_nnz == 0) == (route == "dense")

    def test_one_decomposition_and_one_lu_per_harmonic(self, monkeypatch):
        J = make_rotating_vector_model(8, 50, 0.3)
        cfg = ShiftInvertConfig()
        chosen = 0
        for m in range(8):
            w = np.linalg.eigvals(csr_from_arrays(reduced_block(J, m)).toarray())
            chosen += len({i for s in cfg.shifts
                           for i in np.argsort(np.abs(w - s), kind="stable")[:2]})
        calls = {"eigvals": 0, "solve": 0, "lu": 0}
        real_eigvals, real_solve = np.linalg.eigvals, np.linalg.solve

        def counting_eigvals(a):
            calls["eigvals"] += 1
            return real_eigvals(a)

        def counting_solve(a, b):
            calls["solve"] += 1
            return real_solve(a, b)

        class CountingLU(SparseLU):
            def __init__(self, *args, **kwargs):
                calls["lu"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(eig_module, "SparseLU", CountingLU)
        # counted in this process; TestForkedHarmonics counts across workers
        with one_cpu():
            report = solve_annulus_spectrum(J, cfg=cfg)
        # n = 100 takes the dense route before any LU, and harmonics 5, 6
        # and 7 are mirrored from 3, 2 and 1: one eigenvalue computation per
        # pair, and one dense solve per distinct chosen eigenvalue
        assert report.routes == {0: "dense", 1: "dense", 2: "dense", 3: "dense",
                                 4: "dense", 5: "conj(3)", 6: "conj(2)", 7: "conj(1)"}
        assert calls["eigvals"] == 5 and calls["lu"] == 0
        assert 0 < calls["solve"] <= chosen
        assert report.storage == {m: 100 ** 2 for m in range(8)}
        assert report.warnings == []

    def test_dense_route_builds_no_sparse_block(self, monkeypatch):
        # n = 60, M = 7: harmonics 4, 5 and 6 are mirrored from 3, 2 and 1
        J = make_rotating_vector_model(7, 30, 0.3)
        cfg = ShiftInvertConfig()
        chosen = 0
        for m in range(7):
            w = np.linalg.eigvals(csr_from_arrays(reduced_block(J, min(m, 7 - m))).toarray())
            w = w if m <= 3 else w.conj()
            chosen += len({i for s in cfg.shifts
                           for i in np.argsort(np.abs(w - s), kind="stable")[:2]})

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called on the dense route")
            return call

        for module, name in ((eig_module, "canonical_csr"), (sector_module, "canonical_csr"),
                             (sparsecore, "canonical_csr"), (eig_module, "SparseLU")):
            monkeypatch.setattr(module, name, refuse(name))
        calls = {"eigvals": 0, "solve": 0, "spmv": 0}

        def counting(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        monkeypatch.setattr(eig_module, "spmv", counting("spmv", eig_module.spmv))
        report = solve_annulus_spectrum(J, cfg=cfg)
        assert report.routes == {0: "dense", 1: "dense", 2: "dense", 3: "dense",
                                 4: "conj(3)", 5: "conj(2)", 6: "conj(1)"}
        assert report.warnings == [] and report.raw_count == 7 * 3 * 2
        # one eigenvalue computation per source harmonic; one solve and one
        # residual check per distinct chosen eigenvalue, however many shifts
        # choose it (no solve here is exactly singular)
        assert calls == {"eigvals": 4, "solve": chosen, "spmv": chosen}
        assert chosen < report.raw_count

    def test_loaded_model_on_dense_route_canonicalises_each_source_once(self, tmp_path,
                                                                         monkeypatch):
        save_sector_jacobian(make_rotating_vector_model(7, 30, 0.3), tmp_path / "model")
        J = load_sector_jacobian(tmp_path / "model")
        building, calls = [None], []
        real_canonical = sparsecore.canonical_arrays

        def reducing(J, m):
            building[0] = m
            try:
                return reduced_block(J, m)
            finally:
                building[0] = None

        def canonicalising(*args):
            calls.append(building[0])
            return real_canonical(*args)

        monkeypatch.setattr(eig_module, "reduced_block", reducing)
        for module in (sector_module, sparsecore):
            monkeypatch.setattr(module, "canonical_arrays", canonicalising)
        with one_cpu():
            report = solve_annulus_spectrum(J, cfg=ShiftInvertConfig())
        assert set(report.routes.values()) == {"dense", "conj(3)", "conj(2)", "conj(1)"}
        assert report.warnings == [] and report.raw_count == 7 * 3 * 2
        # harmonics 0-3 are made canonical once each, inside reduced_block,
        # and Block does not repeat it; the mirrored 4-6 are never built
        assert calls == [0, 1, 2, 3]

    @pytest.mark.parametrize("J, k, picked", [
        # n = 160: Arnoldi spends its budget at the first shift
        (make_rotating_vector_model(4, 80, 0.3), 2, 3),
        # n = 6 and k > n - 2: decomposed at the first shift
        (make_random_sector_jacobian(4, 6, 0.5, 0), 5, 5),
    ], ids=["rotvec-4x80", "random-4x6-k5"])
    def test_block_turned_dense_solves_each_pick_once(self, monkeypatch, J, k, picked):
        cfg = ShiftInvertConfig(eigs_per_shift=k)
        block = Block(reduced_block(J, 1), cfg.scale)
        block.decompose()
        chosen = {j for s in cfg.shifts
                  for j in np.argsort(np.abs(block.values - s / block.unit), kind="stable")[:k]}
        solves = []
        real_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or real_solve(a, b))
        report = solve_annulus_spectrum(J, harmonics=[1], cfg=cfg)
        assert report.routes == {1: "dense"} and report.warnings == []
        # one solve per distinct eigenvalue any shift picks, however many do
        assert len(solves) == len(chosen) == picked < report.raw_count

    def test_converging_block_above_dense_route_never_decomposes(self, monkeypatch):
        calls = []
        real_eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(a.shape) or real_eigvals(a))
        J = make_ring_advection_diffusion(4, eig_module.DENSE_ROUTE_MAX_DIM + 1, 1.0)
        report = solve_annulus_spectrum(J)
        assert calls == []
        assert report.routes == {m: "arnoldi" for m in range(4)}
        assert report.pairs and report.warnings == []

    @pytest.mark.parametrize("n, route", [
        (eig_module.MIN_SUBSPACE_DIM, "arnoldi"), (eig_module.MIN_SUBSPACE_DIM + 1, "dense"),
        (eig_module.DENSE_ROUTE_MAX_DIM, "dense"), (eig_module.DENSE_ROUTE_MAX_DIM + 1, "arnoldi"),
    ])
    def test_route_window_edges(self, n, route):
        # one window routes a harmonic block of dimension n and a whole
        # annulus of dimension M * N = n alike
        report = solve_annulus_spectrum(make_ring_advection_diffusion(3, n, 1.0))
        assert report.routes == {0: route, 1: route, 2: "conj(1)" if route == "dense" else route}
        M = next(M for M in range(3, n + 1) if n % M == 0)
        report = solve_full_annulus(make_ring_advection_diffusion(M, n // M, 1.0))
        assert report.routes == {"full": route}

    def test_solve_path_never_computes_every_vector(self, monkeypatch):
        def refuse(a):
            raise AssertionError("np.linalg.eig called on the solve path")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        # dense route with mirrors, the Arnoldi budget fallback, k > n - 2,
        # and the whole annulus falling back to dense
        report = solve_annulus_spectrum(make_rotating_vector_model(8, 30, 0.3))
        assert "conj(3)" in report.routes.values() and report.pairs
        report = solve_annulus_spectrum(make_rotating_vector_model(4, 80, 0.3),
                                        harmonics=[1])
        assert report.routes == {1: "dense"} and report.pairs
        pairs, _ = shift_invert_eigs(canonical_csr(np.diag([1.0, 5.0])), 0.9, 2,
                                     ShiftInvertConfig())
        assert len(pairs) == 2
        report = solve_full_annulus(make_rotating_vector_model(4, 5, 0.3))
        assert report.routes == {"full": "dense"} and report.pairs
        assert report.warnings == []

    def test_whole_annulus_block_recorded_as_full(self):
        J = make_rotating_vector_model(4, 5, 0.3)
        report = solve_full_annulus(J, cfg=ShiftInvertConfig(shifts=(1j,)))
        assert report.routes == {"full": "dense"}
        assert report.storage == {"full": 40 ** 2}
        assert list(report.wall_times) == ["full"] and report.wall_times["full"] > 0
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


class TestInverseIterationVectors:
    """Each chosen eigenvalue's vector comes from one dense solve with
    B - lambda I; it must be as good as a full decomposition's."""

    def test_exactly_singular_solve_is_retried(self, monkeypatch):
        # with empty neighbour blocks every B_m is diagonal, so
        # B - lambda I has an exactly zero pivot for each computed lambda
        d = np.arange(1.0, 31.0) * -0.5
        zero = sp.csr_matrix((30, 30), dtype=complex)
        J = SectorJacobian(canonical_csr(np.diag(d)), zero, zero, 4, DofLayout(30, 1))
        outcomes = []
        real_solve = np.linalg.solve

        def recording_solve(a, b):
            try:
                x = real_solve(a, b)
            except np.linalg.LinAlgError:
                outcomes.append("singular")
                raise
            outcomes.append("solved")
            return x

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        report = solve_annulus_spectrum(J)
        # -0.5 and -1.0 are nearest every shift, so each harmonic has two
        # distinct chosen eigenvalues: one retried solve each, on harmonics
        # 0, 1, 2 and 3 (mirrored from 1), not one per shift
        assert report.routes == {0: "dense", 1: "dense", 2: "dense", 3: "conj(1)"}
        assert outcomes == ["singular", "solved"] * 8
        assert report.warnings == [] and report.raw_count == 24
        assert len(report.pairs) == 8
        for p in report.pairs:
            assert p.value in (-0.5, -1.0)
            assert p.residual / (15.0 + abs(p.value)) <= 1e-12

    @pytest.mark.parametrize("exponent", [0, -500])
    def test_unit_vectors_at_any_scale(self, exponent):
        # B = 2**exponent * A is an exact scaling.  At 2**-500 (about 3e-151),
        # an unscaled solve would give ||x|| near 1e166, whose norm
        # overflows: the pair would be accepted with a zero vector.
        A = np.random.default_rng(36).standard_normal((30, 30))
        B = canonical_csr(np.ldexp(A, exponent))
        pairs, info = shift_invert_eigs(B, 0.0, 29, ShiftInvertConfig())
        assert len(pairs) == 29 and info.warnings == []
        norm1 = abs(A).sum(axis=0).max()
        for p in pairs:
            lam = complex(np.ldexp(p.value.real, -exponent), np.ldexp(p.value.imag, -exponent))
            assert abs(np.linalg.norm(p.vector) - 1.0) <= 1e-14
            residual = np.linalg.norm(A @ p.vector - lam * p.vector)
            assert residual / (norm1 + abs(lam)) <= 1e-12

    def test_acceptance_at_extreme_scales(self):
        # At 2**600 (about 4e180) the squares in ||Bv - lambda v|| would
        # overflow, and at 2**-520 (about 3e-157) underflow.  The block is
        # stored at unit scale, so every pair is accepted at each scale, with
        # a backward error near eps, neither inf nor 0.
        # (LAPACK rescales such matrices by factors that are not powers of
        # two, so the last bits of lambda differ between scales.)
        A = np.random.default_rng(36).standard_normal((30, 30))
        norm1 = abs(A).sum(axis=0).max()
        values = {}
        for exponent in (0, 600, -520):
            pairs, info = shift_invert_eigs(canonical_csr(np.ldexp(A, exponent)), 0.0, 29,
                                            ShiftInvertConfig())
            assert len(pairs) == 29 and info.warnings == []
            lam = np.array([p.value for p in pairs]) * 2.0 ** -exponent
            errors = [np.ldexp(p.residual, -exponent) / (norm1 + abs(z))
                      for p, z in zip(pairs, lam)]
            assert 0 < min(errors) and max(errors) <= 1e-14
            values[exponent] = lam
        for exponent in (600, -520):
            assert greedy_match(values[exponent], values[0]).max() <= 1e-12 * norm1

    def test_no_nan_pair_accepted_near_underflow(self):
        # at 2**-980 (about 1e-295) the pivots of B - lambda I would be
        # subnormal and some solves NaN; the block is stored at unit scale,
        # so every pair is accepted with finite vectors and no warning
        A = np.random.default_rng(36).standard_normal((30, 30))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pairs, info = shift_invert_eigs(canonical_csr(np.ldexp(A, -980)), 0.0, 29,
                                            ShiftInvertConfig())
        assert len(pairs) == 29 and info.warnings == []
        assert all(np.isfinite(p.residual) and np.isfinite(p.vector).all() for p in pairs)

    @pytest.mark.parametrize("J", [
        make_rotating_vector_model(8, 50, 0.3),
        make_rotating_vector_model(8, 50, 1e-3),
        make_ring_advection_diffusion(22, 40, 1.0),
        make_random_sector_jacobian(4, 60, 0.08, 3),
    ], ids=["rotvec-0.3", "rotvec-1e-3", "ring", "random"])
    def test_backward_error_near_machine_precision(self, J):
        report = solve_annulus_spectrum(J)
        assert report.warnings == [] and report.pairs
        assert all(r == "dense" or r.startswith("conj(") for r in report.routes.values())
        for p in report.pairs:
            B = csr_from_arrays(reduced_block(J, p.harmonic))
            norm1 = abs(B).sum(axis=0).max()
            residual = np.linalg.norm(B @ p.vector - p.value * p.vector)
            assert residual / (norm1 + abs(p.value)) <= 1e-12

    def test_start_vector_built_once_per_dimension(self):
        v = eig_module._start_vector(37)
        assert eig_module._start_vector(37) is v
        assert not v.flags.writeable
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15


class TestOneBuilder:
    """On either route, each source block is built by one reduced_block call
    and reaches Block canonical, with no second canonical_csr pass."""

    @pytest.mark.parametrize("J, built", [
        (make_rotating_vector_model(8, 50, 0.3), [0, 1, 2, 3, 4]),  # dense; 5-7 mirrored
        (make_random_sector_jacobian(4, 160, 0.03, 1), [0, 1, 2, 3]),  # Arnoldi, dense LU
        (make_ring_advection_diffusion(6, 10, 1.0), [0, 1, 2, 3, 4, 5]),  # Arnoldi, n = 10
    ], ids=["rotvec-8x50", "random-4x160", "ring-6x10"])
    def test_each_block_built_once(self, monkeypatch, J, built):
        calls = []

        def refuse(A):
            raise AssertionError("a reduced block was canonicalized again")

        monkeypatch.setattr(eig_module, "reduced_block",
                            lambda J, m: calls.append(m) or reduced_block(J, m))
        monkeypatch.setattr(eig_module, "canonical_csr", refuse)
        with one_cpu():
            report = solve_annulus_spectrum(J)
        assert sorted(calls) == built  # once each
        assert report.pairs and report.warnings == []


class TestConjugateMirror:
    """On real sector blocks harmonic M - m takes the conjugates of harmonic
    m's dense eigenvalues, and every pair is re-verified on B_{M-m}."""

    @pytest.mark.parametrize("J", [
        make_rotating_vector_model(7, 30, 0.3),  # n = 60
        make_ring_advection_diffusion(8, 40, 1.0),  # n = 40
        make_random_sector_jacobian(6, 90, 0.05, 1),  # n = 90
    ], ids=["rotvec-odd-M", "ring-even-M", "random-even-M"])
    def test_mirrored_pairs_match_direct_dense_solve(self, J):
        cfg = ShiftInvertConfig()
        report = solve_annulus_spectrum(J, cfg=cfg)
        mirrored = [m for m in range(J.M) if 2 * m > J.M]
        assert mirrored and report.warnings == []
        for m in mirrored:
            assert report.routes[m] == f"conj({J.M - m})"
            B = csr_from_arrays(reduced_block(J, m))
            norm1 = abs(B).sum(axis=0).max()
            w = np.linalg.eigvals(B.toarray())
            pairs = [p for p in report.pairs if p.harmonic == m]
            want = np.unique(np.concatenate(
                [w[np.argsort(np.abs(w - s), kind="stable")[:2]] for s in cfg.shifts]))
            got = np.array([p.value for p in pairs])
            assert len(got) == len(want)
            assert greedy_match(got, want).max() <= 1e-12 * norm1
            # the values are the source's, conjugated bit for bit; the
            # vectors are solved on B_m itself
            source = np.linalg.eigvals(csr_from_arrays(reduced_block(J, J.M - m)).toarray()).conj()
            for p in pairs:
                assert p.value in set(source)
                direct = np.linalg.norm(B @ p.vector - p.value * p.vector)
                assert abs(direct - p.residual) <= 1e-14 * norm1
                assert direct / (norm1 + abs(p.value)) <= 1e-12

    def test_arnoldi_blocks_solve_their_own_matrix(self, monkeypatch):
        # n = 160: each harmonic, mirrored or not, factors its own B_m - sigma I
        J = make_random_sector_jacobian(4, 160, 0.03, 1)
        built = []
        monkeypatch.setattr(eig_module, "reduced_block",
                            lambda J, m: built.append(m) or reduced_block(J, m))
        cfg = ShiftInvertConfig()
        report = solve_annulus_spectrum(J, harmonics=[1, 3], cfg=cfg)
        assert built == [1, 3]
        assert report.routes == {1: "arnoldi", 3: "arnoldi"}
        # these blocks fill to 0.61, so harmonic 1's first factor made the
        # rest of the call's factors dense: n**2 stored for each block
        assert report.storage == {1: J.N ** 2, 3: J.N ** 2}
        # one block whose LU kind is dense, solved at each shift
        block = Block(reduced_block(J, 3), cfg.scale)
        block.dense_lu = True
        direct = deduplicate_pairs([p for sigma in cfg.shifts
                                    for p in shift_invert_eigs(block, sigma, 2, cfg, harmonic=3)[0]])
        got = [p for p in report.pairs if p.harmonic == 3]
        assert [(p.value, p.residual, p.shift) for p in got] == [
            (p.value, p.residual, p.shift) for p in direct]

    def test_lone_mirror_harmonic_builds_only_its_own_block(self, monkeypatch):
        # n = 60: on the dense route too, each block is built by reduced_block
        J = make_rotating_vector_model(8, 30, 0.3)
        built = []
        monkeypatch.setattr(eig_module, "reduced_block",
                            lambda J, m: built.append(m) or reduced_block(J, m))
        report = solve_annulus_spectrum(J, harmonics=[5])
        assert built == [5]
        assert report.routes == {5: "dense"} and report.pairs

    def test_non_convergence_names_the_requested_shift(self, monkeypatch):
        real_eigs = eig_module.eigs

        def partial_eigs(*args, **kwargs):
            mu, W = real_eigs(*args, **kwargs)
            raise ArpackNoConvergence("forced", mu[:1], W[:, :1])

        monkeypatch.setattr(eig_module, "eigs", partial_eigs)
        J = make_random_sector_jacobian(4, 160, 0.03, 1)
        report = solve_annulus_spectrum(J, harmonics=[1, 3],
                                        cfg=ShiftInvertConfig(shifts=(1j,)))
        assert report.warnings == [
            f"harmonic {m}: shift 1j: only 1/2 eigenvalues converged after "
            f"{eig_module.MAX_RESTARTS} restarts" for m in (1, 3)]
        assert {p.shift for p in report.pairs} == {1j}

    def test_mirrored_pairs_verified_on_their_own_block(self, monkeypatch):
        J = make_rotating_vector_model(7, 30, 0.3)
        cfg = ShiftInvertConfig()
        w = np.linalg.eigvals(csr_from_arrays(reduced_block(J, 2)).toarray())
        chosen = {m: len({i for s in cfg.shifts
                          for i in np.argsort(np.abs(v - s), kind="stable")[:2]})
                  for m, v in ((2, w), (5, w.conj()))}
        applied = []
        real_spmv = eig_module.spmv
        monkeypatch.setattr(eig_module, "spmv",
                            lambda A, x: applied.append(A.toarray()) or real_spmv(A, x))
        report = solve_annulus_spectrum(J, harmonics=[2, 5], cfg=cfg)
        assert report.routes == {2: "dense", 5: "conj(2)"}
        # 3 shifts, k = 2: 12 candidates; each distinct chosen eigenvalue of
        # B_2, then of B_5, is applied to its own block once
        assert report.raw_count == 12
        assert len(applied) == chosen[2] + chosen[5]
        for m, group in ((2, applied[:chosen[2]]), (5, applied[chosen[2]:])):
            B = csr_from_arrays(reduced_block(J, m)).toarray()
            assert all(np.array_equal(A, B) for A in group)

    def test_complex_blocks_take_no_mirror(self, tmp_path):
        J = make_rotating_vector_model(6, 30, 0.3)
        d_self, d_next, d_prev = J.blocks
        d_next = csr_from_arrays(d_next).copy()
        d_next.data[:3] += 0.05j
        save_sector_jacobian(SectorJacobian(d_self, d_next, d_prev, J.M, J.layout),
                             tmp_path / "complex")
        J = load_sector_jacobian(tmp_path / "complex")
        assert not J.is_real
        cfg = ShiftInvertConfig()
        report = solve_annulus_spectrum(J, cfg=cfg)
        assert report.routes == {m: "dense" for m in range(6)}
        assert report.warnings == []
        for m in range(6):
            B = csr_from_arrays(reduced_block(J, m))
            w = np.linalg.eigvals(B.toarray())
            want = np.unique(np.concatenate(
                [w[np.argsort(np.abs(w - s), kind="stable")[:2]] for s in cfg.shifts]))
            got = np.array([p.value for p in report.pairs if p.harmonic == m])
            assert greedy_match(got, want).max() <= 1e-12 * abs(B).sum(axis=0).max()


@pytest.fixture
def splu_calls(monkeypatch):
    """(permc_spec, matrix, factor) of every splu call made through sectoreig.sparsecore."""
    calls = []
    real_splu = sparsecore.splu

    def recording_splu(A, permc_spec=None, **kwargs):
        lu = real_splu(A, permc_spec=permc_spec, **kwargs)
        calls.append((permc_spec, A, lu))
        return lu

    monkeypatch.setattr(sparsecore, "splu", recording_splu)
    return calls


class TestMinimumDegreeOrder:
    """Every SuperLU factorization orders by minimum degree on A^T + A, which
    fills less than SuperLU's default COLAMD on the harmonic blocks."""

    def test_every_factorization_uses_minimum_degree(self, splu_calls):
        # n = 200 is above DENSE_ROUTE_MAX_DIM, so every block is factored;
        # ring blocks fill little, so after the probe of the sector's pattern
        # all 4 x 3 factorizations are SuperLU.
        # One CPU keeps every factorization in this process, where it is recorded.
        with one_cpu():
            report = solve_annulus_spectrum(make_ring_advection_diffusion(4, 200, 1.0))
            assert report.pairs and report.warnings == []
            assert report.peak_storage < eig_module.DENSE_LU_MIN_FILL * 200 ** 2
            specs = [spec for spec, _, _ in splu_calls]
            assert len(specs) == 1 + 12 and set(specs) == {"MMD_AT_PLUS_A"}
            # random blocks fill to 0.56: only the probe is SuperLU, every factorization dense
            splu_calls.clear()
            report = solve_annulus_spectrum(make_random_sector_jacobian(4, 200, 0.02, 0))
            assert report.pairs and report.warnings == []
            assert report.storage == {m: 200 ** 2 for m in range(4)}
            assert [spec for spec, _, _ in splu_calls] == ["MMD_AT_PLUS_A"]
            # the whole annulus: its own probe, then one SuperLU factorization
            splu_calls.clear()
            solve_full_annulus(make_ring_advection_diffusion(4, 40, 1.0),
                               cfg=ShiftInvertConfig(shifts=(1j,)))
            assert [spec for spec, _, _ in splu_calls] == ["MMD_AT_PLUS_A"] * 2

    def test_pairs_are_eigenpairs_of_the_block_and_lift(self):
        J = make_random_sector_jacobian(4, 60, 0.08, 3)
        report = solve_annulus_spectrum(J)
        A = materialize_full(J)
        norm_a = abs(A).sum(axis=0).max()
        assert report.pairs
        for p in report.pairs:
            B = csr_from_arrays(reduced_block(J, p.harmonic))
            residual = np.linalg.norm(B @ p.vector - p.value * p.vector)
            assert abs(residual - p.residual) <= 1e-12 * abs(B).sum(axis=0).max()
            x = lift_to_annulus(p.vector, p.harmonic, J)
            lifted = np.linalg.norm(A @ x - p.value * x) / np.linalg.norm(x)
            assert lifted < 1e-10 * norm_a

    def test_fill_below_colamd(self, splu_calls):
        # blocks that fill to 0.12 stay on SuperLU: every reported factor size
        J = make_random_sector_jacobian(4, 200, 0.005, 0)
        cfg = ShiftInvertConfig()
        report = solve_annulus_spectrum(J, cfg=cfg)
        eye = sp.identity(J.N, dtype=np.complex128, format="csc")
        assert set(report.routes.values()) == {"arnoldi"}
        assert 0 < report.peak_storage < eig_module.DENSE_LU_MIN_FILL * J.N ** 2
        for m, nnz in report.storage.items():
            B = csr_from_arrays(reduced_block(J, m))
            for sigma in cfg.shifts:
                lu = splu((B - sigma * eye).tocsc(), permc_spec="COLAMD")
                assert nnz < lu.L.nnz + lu.U.nnz
        # blocks that fill to 0.56: the one SuperLU factor is the pattern's probe
        splu_calls.clear()
        report = solve_annulus_spectrum(make_random_sector_jacobian(4, 200, 0.02, 0), cfg=cfg)
        assert set(report.routes.values()) == {"arnoldi"}
        assert report.storage == {m: 200 ** 2 for m in range(4)}
        [(_, A, lu)] = splu_calls
        colamd = splu(A, permc_spec="COLAMD")
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def counted(fn, arpack_tol_zero=False):
    """(fn(), the dense flag of each LU factorization it made, its LU solve
    count).  With arpack_tol_zero, ARPACK runs at tol = 0 as it once did."""
    kinds, solves = [], [0]
    real_lu, real_solve, real_eigs = SparseLU, SparseLU.solve, eig_module.eigs

    def counting_solve(self, y):
        solves[0] += 1
        return real_solve(self, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eig_module, "SparseLU",
                   lambda A, dense=False: kinds.append(dense) or real_lu(A, dense=dense))
        mp.setattr(SparseLU, "solve", counting_solve)
        if arpack_tol_zero:
            mp.setattr(eig_module, "eigs", lambda *a, **kw: real_eigs(*a, **{**kw, "tol": 0}))
        result = fn()
    return result, kinds, solves[0]


@pytest.fixture(scope="module")
def random_fill():
    """The random-fill benchmark model (4 x 800, density 0.005, seed 0) and
    counted() runs of its default solve at ARPACK's tolerance and at tol = 0,
    on one CPU, so that all the work is counted in this process."""
    J = make_random_sector_jacobian(4, 800, 0.005, 0)
    with one_cpu():
        return J, {zero: counted(lambda: solve_annulus_spectrum(J), zero) for zero in (False, True)}


def probes(splu_calls) -> list:
    """The dimensions of the pattern probes among splu_calls: the real
    matrices, where every factorization of a block is complex."""
    return [A.shape[0] for _, A, _ in splu_calls if not np.iscomplexobj(A.data)]


class TestDenseFactorDecision:
    """A call whose sector pattern fills DENSE_LU_MIN_FILL of n**2 or more
    under SuperLU factors every shifted block by dense LAPACK LU."""

    def test_random_fill_factors_densely(self, random_fill):
        J, runs = random_fill
        report, kinds, _ = runs[False]
        assert kinds == [True] * 12
        assert report.warnings == []
        assert report.storage == {m: J.N ** 2 for m in range(J.M)}
        assert len(report.pairs) == 8
        cfg = ShiftInvertConfig()
        for p in report.pairs:
            B = csr_from_arrays(reduced_block(J, p.harmonic))
            norm1 = abs(B).sum(axis=0).max()
            direct = np.linalg.norm(B @ p.vector - p.value * p.vector)
            assert direct / (norm1 + abs(p.value)) <= cfg.tol

    def test_ring_block_stays_on_superlu(self):
        J = make_ring_advection_diffusion(22, 800, 1.0)
        with one_cpu():
            report, kinds, _ = counted(lambda: solve_annulus_spectrum(J, harmonics=[1, 2]))
        assert kinds == [False] * 6
        assert report.pairs and report.warnings == []

    def test_blocks_above_the_dense_budget_stay_on_superlu(self, monkeypatch):
        monkeypatch.setattr(eig_module, "DENSE_EIG_BUDGET", 199)
        J = make_random_sector_jacobian(4, 200, 0.02, 0)
        report, kinds, _ = counted(lambda: solve_annulus_spectrum(J, harmonics=[1]))
        assert kinds == [False] * 3

    def test_singular_dense_shift_is_perturbed_and_recorded(self):
        # the block's pattern fills past the threshold, so both factors are
        # dense; column 7 of B - 3 I is zero, so the one at shift 3 is
        # exactly singular
        n = 120
        rng = np.random.default_rng(7)
        d_self = np.where(rng.random((n, n)) < 0.3, rng.uniform(-1, 1, (n, n)), 0.0)
        d_self[:, 7] = 0.0
        d_self[7, 7] = 3.0
        zero = sp.csr_matrix((n, n), dtype=complex)
        J = SectorJacobian(d_self, zero, zero, 1, DofLayout(n, 1))
        cfg = ShiftInvertConfig(shifts=(1j, 3.0))
        report, kinds, _ = counted(lambda: solve_annulus_spectrum(J, cfg=cfg))
        assert kinds == [True, True, True]
        [(key, sigma, used)] = report.perturbed_shifts
        # moved by 1e-8 (1 + |sigma| / unit) unit, relative to the block's scale
        unit = Block(d_self).unit
        assert (key, sigma) == (0, 3.0) and used == (3.0 / unit + 1e-8 * (1 + 3.0 / unit)) * unit
        assert min(abs(p.value - 3.0) for p in report.pairs) <= 1e-10

    def test_one_pattern_probe_per_call(self, splu_calls, monkeypatch):
        # one CPU keeps every factorization in this process, where it is recorded
        with one_cpu():
            for _ in range(2):  # one per annulus call, made before any block
                report = solve_annulus_spectrum(make_random_sector_jacobian(4, 200, 0.005, 0))
                assert probes(splu_calls) == [200] and len(splu_calls) == 1 + 12
                # its fill is each block's SuperLU fill: the kind it decides is theirs
                [(_, _, lu)] = splu_calls[:1]
                assert report.storage == {m: lu.L.nnz + lu.U.nnz for m in range(4)}
                splu_calls.clear()
            # blocks on the dense route are never factored, so nothing is probed
            for J in (make_ring_advection_diffusion(128, 50, 1.0),
                      make_rotating_vector_model(8, 50, 0.3)):
                assert set(solve_annulus_spectrum(J).routes.values()) <= {
                    "dense", *(f"conj({c})" for c in range(J.M))}
                assert splu_calls == []
            for _ in range(2):  # one per whole-annulus call, n = 640
                report = solve_full_annulus(make_random_sector_jacobian(4, 160, 0.03, 1))
                assert probes(splu_calls) == [640] and report.storage == {"full": 640 ** 2}
                splu_calls.clear()
            # a block that holds its kind is not probed again
            block = Block(reduced_block(make_random_sector_jacobian(4, 200, 0.02, 0), 1))
            for sigma in (1j, 2j, 3j):
                shift_invert_eigs(block, sigma, 2, ShiftInvertConfig())
            assert probes(splu_calls) == [200] and block.dense_lu
            splu_calls.clear()
            # above the dense budget the kind is SuperLU, with no probe
            monkeypatch.setattr(eig_module, "DENSE_EIG_BUDGET", 199)
            report = solve_annulus_spectrum(make_random_sector_jacobian(4, 200, 0.02, 0))
            assert probes(splu_calls) == [] and len(splu_calls) == 12
            assert report.peak_storage < 200 ** 2
            splu_calls.clear()
            shift_invert_eigs(csr_from_arrays(block.matrix), 1j, 2, ShiftInvertConfig())
            assert probes(splu_calls) == [] and len(splu_calls) == 1


class TestArpackTolerance:
    """ARPACK stops at the accuracy acceptance needs, not at tol = 0."""

    def test_random_fill_needs_fewer_solves_for_the_same_pairs(self, random_fill):
        _, runs = random_fill
        (report, _, solves), (exact, _, exact_solves) = runs[False], runs[True]
        assert exact_solves == 672 and solves <= 500
        assert len(report.pairs) == len(exact.pairs)
        for p in report.pairs:
            q = min((q for q in exact.pairs if q.harmonic == p.harmonic),
                    key=lambda q: abs(q.value - p.value))
            assert abs(p.value - q.value) <= 1e-12 * abs(q.value)

    def test_ring_full_solve_count_unchanged(self):
        J = make_ring_advection_diffusion(512, 10, 1.0)
        for zero in (False, True):
            report, kinds, solves = counted(lambda: solve_full_annulus(J), zero)
            assert kinds == [False] * 3 and solves == 63


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
        assert report.warnings == []
        assert report.routes == {m: "arnoldi" for m in range(M)}
        for m in range(M):
            got = np.array([p.value for p in report.pairs if p.harmonic == m])
            ref = exact[m::M]
            nearest = np.concatenate(
                [ref[np.argsort(np.abs(ref - s), kind="stable")[:2]] for s in cfg.shifts])
            assert np.abs(got[:, None] - ref[None, :]).min(axis=1).max() <= tol
            assert np.abs(nearest[:, None] - got[None, :]).min(axis=1).max() <= tol

    @pytest.mark.parametrize("scale", [2.0 ** 20, 2.0 ** -20, 1e305])
    def test_dense_route_same_pairs_at_any_scale(self, scale):
        # At 2**20 the eigenvalues are about 2e-6 and lie 1e-8 apart, which an
        # absolute dedup floor of 1 merged; at 1e305, ||B||_1 is near 3e-305,
        # where inverse iteration with its right-hand side scaled by 2**e
        # underflowed.
        J = make_rotating_vector_model(4, 15, 0.3)
        plain = solve_annulus_spectrum(J)
        assert len(plain.pairs) == 9
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cfg = ShiftInvertConfig(shifts=[s / scale for s in (1j, 2j, 3j)], scale=scale)
            scaled = solve_annulus_spectrum(J, cfg=cfg)
        assert scaled.warnings == [] and scaled.routes == plain.routes
        assert [p.harmonic for p in scaled.pairs] == [p.harmonic for p in plain.pairs]
        got, ref = scaled.values() * scale, plain.values()
        assert (greedy_match(got, ref) <= 1e-12 * np.abs(ref).min()).all()


class TestScaleFree:
    """Every block is stored as A / (scale 4**j) with ||.||_1 in [1, 4), so the
    pairs found do not depend on the magnitude of the model or on --scale."""

    # (solver, model, pairs at scale 1): the dense route, and three models
    # whose Arnoldi route once lost every pair at extreme scales
    CASES = {
        "rotvec-4x15-method-2": (solve_annulus_spectrum, make_rotating_vector_model(4, 15, 0.3), 9),
        "rotvec-4x15-method-1": (solve_full_annulus, make_rotating_vector_model(4, 15, 0.3), 3),
        "rotvec-4x5-method-2": (solve_annulus_spectrum, make_rotating_vector_model(4, 5, 0.3), 8),
        "random-4x800-harmonic-0": (functools.partial(solve_annulus_spectrum, harmonics=[0]),
                                    make_random_sector_jacobian(4, 800, 0.005, 0), 2),
    }

    def test_times_is_exact_and_keeps_signed_zeros(self):
        # complex * float, before Python 3.14, multiplies by f + 0i and loses the -0.0
        for z, f, want in ((complex(2.0, -0.0), 4.0, (8.0, -0.0)),
                           (complex(-0.0, 3.0), 0.25, (-0.0, 0.75))):
            got = eig_module._times(z, f)
            assert (got.real, got.imag) == want
            assert [math.copysign(1.0, x) for x in (got.real, got.imag)] == \
                [math.copysign(1.0, x) for x in want]

    @staticmethod
    def solve(name, scale):
        solve, J, _ = TestScaleFree.CASES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cfg = ShiftInvertConfig(shifts=[s / scale for s in (1j, 2j, 3j)], scale=scale)
            report = solve(J, cfg=cfg)
        assert report.warnings == [] and report.perturbed_shifts == []
        return report

    @pytest.fixture(scope="class")
    def plain(self):
        return {name: self.solve(name, 1.0) for name in self.CASES}

    @pytest.mark.parametrize("scale", [2.0 ** 20, 2.0 ** -20, 1e305, 1e-300, 2.0 ** -300])
    @pytest.mark.parametrize("name", list(CASES))
    def test_same_pairs_at_any_scale(self, plain, name, scale):
        ref = plain[name]
        assert len(ref.pairs) == self.CASES[name][2]
        scaled = self.solve(name, scale)
        assert [p.harmonic for p in scaled.pairs] == [p.harmonic for p in ref.pairs]
        for m in {p.harmonic for p in ref.pairs}:
            want = np.array([p.value for p in ref.pairs if p.harmonic == m])
            got = np.array([p.value for p in scaled.pairs if p.harmonic == m]) * scale
            assert greedy_match(got, want).max() <= 1e-12 * np.abs(want).min()

    @pytest.mark.parametrize("j", [10, -10, -150])
    @pytest.mark.parametrize("name", list(CASES))
    def test_powers_of_four_are_exact(self, plain, name, j):
        scaled = self.solve(name, 4.0 ** j)
        assert [(p.harmonic, p.value * 4.0 ** j, p.residual * 4.0 ** j)
                for p in scaled.pairs] == [(p.harmonic, p.value, p.residual)
                                           for p in plain[name].pairs]

    @pytest.mark.parametrize("scale", [1680.0, 1e305, 1e-300])
    def test_shift_invert_eigs_divides_by_cfg_scale(self, scale):
        A = random_shifted_sparse(np.random.default_rng(37), 60, density=0.3)
        ref, _ = shift_invert_eigs(A, 0.5j, 4, ShiftInvertConfig())
        pairs, info = shift_invert_eigs(A, 0.5j / scale, 4, ShiftInvertConfig(scale=scale))
        assert info.warnings == [] and len(pairs) == len(ref) == 4
        for p, q in zip(pairs, ref):
            assert abs(p.value - q.value / scale) <= 1e-12 * abs(q.value / scale)

    def test_zero_block_answers_zero(self):
        # B_2 = I + rho_2 I = 0: its eigenvalue 0 (8-fold) is found exactly
        eye = sp.identity(8, dtype=complex, format="csr")
        J = SectorJacobian(eye, eye, sp.csr_matrix((8, 8), dtype=complex), 4, DofLayout(8, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = solve_annulus_spectrum(J, harmonics=[2])
        assert report.warnings == [] and report.routes == {2: "dense"}
        assert [(p.harmonic, p.value, p.residual) for p in report.pairs] == [(2, 0j, 0.0)]

    @pytest.mark.parametrize("scale", [0.5, 2.0, 1e300])
    def test_block_is_stored_at_unit_norm(self, scale):
        A = random_shifted_sparse(np.random.default_rng(38), 40)
        block = Block(A, scale)
        norm1 = abs(A).sum(axis=0).max()
        assert 1.0 <= block.norm1 < 4.0
        mantissa, exponent = math.frexp(block.unit)  # unit = 0.5 * 2**exponent = 4**j
        assert mantissa == 0.5 and (exponent - 1) % 2 == 0
        assert abs(block.norm1 * block.unit * scale - norm1) <= 1e-15 * norm1


class TestDenseEigs:
    def test_identity_multiplicity(self):
        w, _ = dense_eigs(np.eye(4))
        assert np.allclose(w, 1.0)

    def test_rotation_generator(self):
        for A in (np.array([[0.0, 1.0], [-1.0, 0.0]]), [[0.0, 1.0], [-1.0, 0.0]]):
            w, _ = dense_eigs(A)
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

    def test_budget_refusal(self, monkeypatch):
        A = sp.identity(eig_module.DENSE_EIG_BUDGET + 1, format="csr")

        def densify(*_):
            raise AssertionError("densified before the budget check")

        monkeypatch.setattr(sp.csr_matrix, "toarray", densify)
        with pytest.raises(BudgetExceededError) as err:
            dense_eigs(A)
        assert err.value.required == eig_module.DENSE_EIG_BUDGET + 1
        monkeypatch.setattr(eig_module, "DENSE_EIG_BUDGET", 4)
        for vectors in (True, False):
            with pytest.raises(BudgetExceededError):
                dense_eigs(np.eye(5), vectors=vectors)
        assert np.array_equal(dense_eigs(np.eye(4), vectors=False), np.ones(4))


class TestRealArithmetic:
    """A dense block with no nonzero imaginary entry is decomposed by real
    LAPACK (dgeev); any other block by complex LAPACK (zgeev)."""

    @staticmethod
    def lapack_inputs(monkeypatch):
        dtypes = []
        for name in ("eig", "eigvals"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda B, real=real: dtypes.append(B.dtype) or real(B))
        return dtypes

    @pytest.mark.parametrize("B", [
        # symmetric: every eigenvalue real, so numpy's dgeev returns float64
        csr_from_arrays(reduced_block(make_ring_advection_diffusion(6, 30, 0.0), 0)).toarray(),
        np.diag(np.arange(1.0, 31.0)) + np.diag(np.ones(29), 1) + np.diag(np.ones(29), -1),
    ], ids=["ring-peclet-0-harmonic-0", "symmetric-tridiagonal"])
    def test_all_real_eigenvalues_come_back_complex(self, B, monkeypatch):
        dtypes = self.lapack_inputs(monkeypatch)
        block = Block(np.asarray(B, dtype=np.complex128))
        block.decompose()
        w, V = dense_eigs(B)
        assert block.values.dtype == w.dtype == V.dtype == np.complex128
        assert dtypes == [np.float64, np.float64]
        assert np.all(block.values.imag == 0.0) and np.all(w.imag == 0.0)
        # eigvals' values are bitwise among eig's, as the golden tests assume,
        # and scaling the block by a power of four scales them exactly
        assert set(block.values * block.unit) <= set(w)

    @pytest.mark.parametrize("J,m", [
        (make_rotating_vector_model(8, 50, 0.3), 0),
        (make_rotating_vector_model(8, 50, 0.3), 4),
        (make_ring_advection_diffusion(22, 40, 1.0), 11),
        (make_random_sector_jacobian(6, 60, 0.1, 3), 3),
    ], ids=["rotvec-0", "rotvec-half", "ring-half", "random-half"])
    def test_real_block_gives_exact_conjugate_pairs(self, J, m, monkeypatch):
        dtypes = self.lapack_inputs(monkeypatch)
        B = csr_from_arrays(reduced_block(J, m)).toarray()
        block = Block(B)
        block.decompose()
        w = block.values * block.unit
        assert dtypes == [np.float64] and w.dtype == np.complex128
        nonreal = w[w.imag != 0]
        assert len(nonreal) > 0
        assert np.array_equal(np.sort_complex(nonreal), np.sort_complex(nonreal.conj()))
        assert set(w) <= set(dense_eigs(B)[0])
        assert greedy_match(w, np.linalg.eigvals(B)).max() <= 1e-12 * block.norm1 * block.unit

    def test_any_imaginary_entry_takes_complex_lapack(self, monkeypatch):
        rng = np.random.default_rng(36)
        B = rng.standard_normal((40, 40)).astype(np.complex128)
        B[7, 3] += 1e-300j
        want = np.linalg.eigvals(B)
        dtypes = self.lapack_inputs(monkeypatch)
        block = Block(B)
        block.decompose()
        assert dtypes == [np.complex128]
        assert np.array_equal(block.values * block.unit, want)

    def test_mirrored_harmonics_keep_complex_lapack_bytes(self):
        # harmonics 0 and M/2 are real; 1..3 are complex and 5..7 mirror them
        J = make_rotating_vector_model(8, 50, 0.3)
        report = solve_annulus_spectrum(J)
        for m in range(J.M):
            B = csr_from_arrays(reduced_block(J, min(m, J.M - m))).toarray()
            if m in (0, 4):
                assert report.routes[m] == "dense" and not B.imag.any()
                w = np.linalg.eigvals(B.real)
            else:
                w = np.linalg.eigvals(B)
            if m > 4:
                assert report.routes[m] == f"conj({J.M - m})"
                w = w.conj()
            got = [p.value for p in report.pairs if p.harmonic == m]
            assert got and set(got) <= set(w)


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

    def test_residual_tie_broken_by_value_not_input_order(self):
        a, b = self._pair(1.0), self._pair(1.0 + 1e-9)
        for given in ([a, b], [b, a]):
            kept = deduplicate_pairs(given)
            assert len(kept) == 1 and kept[0] is a

    def test_floor_keeps_close_eigenvalues_near_zero_apart(self):
        # two eigenvalues 1e-8 apart near 1e-3, on blocks of ||B||_1 = 1:
        # closeness below 1e-3 is measured against DEDUP_FLOOR ||B||_1, not
        # ||B||_1, so they stay two pairs in every harmonic
        d = np.linspace(-1.0, -0.1, 30)
        d[0], d[1] = 1e-3, 1e-3 + 1e-8
        zero = sp.csr_matrix((30, 30))
        J = SectorJacobian(canonical_csr(sp.diags(d)), zero, zero, 3, DofLayout(30, 1))
        report = solve_annulus_spectrum(J, cfg=ShiftInvertConfig(shifts=(0j,)))
        assert report.warnings == [] and report.dedup_removed == 0
        for m in range(3):
            near = sorted(p.value.real for p in report.pairs if p.harmonic == m)
            assert near == pytest.approx([1e-3, 1e-3 + 1e-8], rel=0, abs=1e-15)

    def test_idempotent(self):
        pairs = [self._pair(1.0), self._pair(1.0 + 1e-9), self._pair(2.0)]
        once = deduplicate_pairs(pairs)
        twice = deduplicate_pairs(once)
        assert [(p.value, p.residual) for p in once] == [(p.value, p.residual) for p in twice]


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made while the test runs, one entry each."""
    calls, real_fork = [], os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


FALLBACK = "no result from a forked worker, solved here"


def assert_solved_here(report, one):
    """report is one, the one-process report of rotvec 8 x 50, plus one
    warning naming the harmonics of each forked worker's share."""
    workers, groups = min(CPUS, 5), [[0], [1, 7], [2, 6], [3, 5], [4]]
    expected = [f"harmonics {sum(groups[w::workers], [])}: {FALLBACK}" for w in range(1, workers)]
    assert sorted(w for w in report.warnings if FALLBACK in w) == sorted(expected)
    assert [w for w in report.warnings if FALLBACK not in w] == one.warnings
    assert list(report.routes.items()) == list(one.routes.items())
    assert [(p.harmonic, p.value, p.residual) for p in report.pairs] == [
        (p.harmonic, p.value, p.residual) for p in one.pairs]


@pytest.mark.parametrize("guard", ["no fork", "second thread", "unreadable task list"])
def test_worker_count_guards(guard):
    # each guard keeps _worker_count at one process; lifted, it counts CPUs
    J = make_rotating_vector_model(8, 50, 0.3)
    with contextlib.ExitStack() as stack:
        mp = stack.enter_context(pytest.MonkeyPatch.context())
        if guard == "no fork":
            mp.delattr(os, "fork")
        elif guard == "second thread":
            event = threading.Event()
            thread = threading.Thread(target=event.wait)
            thread.start()
            stack.callback(thread.join)
            stack.callback(event.set)
        else:
            def unreadable(path):
                raise OSError(errno.EACCES, "refused", path)
            mp.setattr(os, "listdir", unreadable)
        assert eig_module._worker_count(J, 5) == 1
    if CPUS < 2:
        pytest.skip("a count above 1 needs 2 or more CPUs")
    # a joined thread may stay listed in /proc/self/task for a moment
    deadline = time.monotonic() + 5
    while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert eig_module._worker_count(J, 5) == min(CPUS, 5)


@pytest.mark.skipif(CPUS < 2, reason="harmonics are solved in forked workers only "
                                     "when this process may run on 2 or more CPUs")
class TestForkedHarmonics:
    """Source groups shared out among forked workers, one per CPU, give the
    report one process gives, and leave no process behind."""

    @pytest.mark.parametrize("gen", [
        ["rotvec", "--sectors", "8", "--points", "50", "--coupling", "0.3"],
        ["ring", "--sectors", "128", "--points", "50", "--peclet", "1"],
        # the Arnoldi route, every factorization dense LU
        ["random", "--sectors", "4", "--points", "160", "--density", "0.03", "--seed", "1"]])
    def test_output_bytes_do_not_depend_on_cpu_count(self, tmp_path, gen, forks):
        model = tmp_path / "model"
        assert cli_main(["gen", *gen, "--out", str(model)]) == 0
        outputs = []
        for pinned in (True, False):
            out = tmp_path / f"spectrum{pinned}.csv"
            with one_cpu() if pinned else contextlib.nullcontext():
                assert cli_main(["eig", str(model), "--method", "2", "--out", str(out)]) == 0
            summary = out.with_name(out.name + ".summary.txt").read_text().splitlines()
            outputs.append((out.read_bytes(), [x for x in summary if "wall_time" not in x]))
        assert len(forks) >= 1
        assert outputs[0] == outputs[1]

    def test_dropped_pair_records_do_not_depend_on_cpu_count(self):
        J = make_rotating_vector_model(8, 50, 0.3)
        cfg = ShiftInvertConfig(tol=1e-300)
        with one_cpu():
            one = solve_annulus_spectrum(J, cfg=cfg)
        every = solve_annulus_spectrum(J, cfg=cfg)
        # every harmonic drops every pair
        assert one.pairs == [] and one.raw_count == 0
        assert {w.split(":")[0] for w in one.warnings} == {f"harmonic {m}" for m in range(8)}
        assert every.warnings == one.warnings
        assert every.perturbed_shifts == one.perturbed_shifts
        assert list(every.routes.items()) == list(one.routes.items())

    def test_each_source_block_decomposed_once(self, tmp_path, monkeypatch):
        log = tmp_path / "decompositions.txt"
        real = eig_module.dense_eigs

        def logging_dense_eigs(A, vectors=True):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {hashlib.sha256(A.tobytes()).hexdigest()}\n")
            return real(A, vectors)

        monkeypatch.setattr(eig_module, "dense_eigs", logging_dense_eigs)
        report = solve_annulus_spectrum(make_rotating_vector_model(8, 50, 0.3))
        assert set(report.routes.values()) == {"dense", "conj(1)", "conj(2)", "conj(3)"}
        lines = [line.split() for line in log.read_text().splitlines()]
        # harmonics 0 to 4, each decomposed by one process
        assert len(lines) == len({digest for _, digest in lines}) == 5
        assert len({pid for pid, _ in lines}) >= 2

    def test_call_below_the_work_floor_forks_nothing(self, forks):
        # the README ring: 12 source blocks of n = 40
        solve_annulus_spectrum(make_ring_advection_diffusion(22, 40, 1.0))
        assert forks == []
        solve_annulus_spectrum(make_rotating_vector_model(8, 50, 0.3))
        assert len(forks) >= 1

    def test_random_fill_factors_each_block_once(self, tmp_path, monkeypatch, forks):
        log = tmp_path / "factorizations.txt"
        real = eig_module.SparseLU

        def logging_lu(A, dense=False):
            with open(log, "a") as fh:
                digest = hashlib.sha256(A.data.tobytes() + A.indices.tobytes()).hexdigest()
                fh.write(f"{os.getpid()} {int(dense)} {digest}\n")
            return real(A, dense=dense)

        monkeypatch.setattr(eig_module, "SparseLU", logging_lu)
        report = solve_annulus_spectrum(make_random_sector_jacobian(4, 800, 0.005, 0))
        assert len(report.pairs) == 8 and report.storage == {m: 800 ** 2 for m in range(4)}
        workers = min(CPUS, 3)  # 3 source groups: 0, 1 with 3, and 2
        assert set(report.routes.values()) == {"arnoldi"} and len(forks) == workers - 1
        lines = [line.split() for line in log.read_text().splitlines()]
        # 4 harmonics x 3 shifts, each factored by one process, all of them
        # densely: the kind the sector's pattern gave before the fork
        assert len(lines) == len({digest for _, _, digest in lines}) == 12
        assert [dense for _, dense, _ in lines] == ["1"] * 12
        assert len({pid for pid, _, _ in lines}) == workers

    @pytest.mark.parametrize("where, error", [
        (None, None), ("child", RuntimeError), ("parent", KeyboardInterrupt)])
    def test_each_worker_runs_on_its_own_cpu(self, tmp_path, monkeypatch, forks, where, error):
        J = make_rotating_vector_model(8, 50, 0.3)
        with one_cpu():
            one = solve_annulus_spectrum(J)
        log = tmp_path / "cpus.txt"
        mask, parent, real = os.sched_getaffinity(0), os.getpid(), eig_module._solve_share

        def solve_share(*args):
            with open(log, "a") as fh:
                fh.write(" ".join(map(str, [os.getpid(), *os.sched_getaffinity(0)])) + "\n")
            if where == ("parent" if os.getpid() == parent else "child"):
                raise error("group failed")
            return real(*args)

        monkeypatch.setattr(eig_module, "_solve_share", solve_share)
        with pytest.raises(error, match="group failed") if where == "parent" else (
                contextlib.nullcontext()):
            report = solve_annulus_spectrum(J)
        assert os.sched_getaffinity(0) == mask
        assert_no_child()
        workers = min(CPUS, 5)  # 5 source groups
        lines = [line.split() for line in log.read_text().splitlines()]
        assert all(len(cpus) == 1 for _, *cpus in lines)
        assert {int(cpu) for _, cpu in lines} <= mask
        if where == "child":  # each child's share is solved once more here
            assert_solved_here(report, one)
            assert len(lines) == 2 * workers - 1
            first = {}
            for pid, *cpus in lines:
                first.setdefault(pid, cpus)
            # one CPU per worker, which this process keeps for its re-solves
            assert all(cpus == first[pid] for pid, *cpus in lines)
            assert len({cpu for cpu, in first.values()}) == len(first) == workers
        else:  # each line from its own process, on its own CPU
            assert len({pid for pid, *_ in lines}) == len({cpu for _, cpu in lines}) == len(lines)
        if where is None:  # not for a failing parent, which may kill a child before it writes
            assert len(lines) == workers
            assert not any(FALLBACK in w for w in report.warnings)
        assert len(forks) == workers - 1

    def test_pinning_is_best_effort(self, monkeypatch, forks):
        J = make_rotating_vector_model(8, 50, 0.3)
        with one_cpu():
            one = solve_annulus_spectrum(J)
        mask, refused = os.sched_getaffinity(0), []

        def refuse(pid, cpus):
            refused.append(cpus)
            raise OSError(errno.EINVAL, "affinity refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        every = solve_annulus_spectrum(J)
        # here: the pin of this process and the restore of its mask
        assert len(refused) == 2 and len(forks) >= 1
        assert os.sched_getaffinity(0) == mask
        assert_no_child()
        assert [(p.harmonic, p.value, p.residual) for p in every.pairs] == [
            (p.harmonic, p.value, p.residual) for p in one.pairs]

    @pytest.mark.parametrize("where, error", [
        (None, None), ("child", RuntimeError), ("parent", RuntimeError),
        ("parent", KeyboardInterrupt)])
    def test_no_worker_outlives_the_call(self, monkeypatch, forks, where, error):
        assert_no_child()
        J = make_rotating_vector_model(8, 50, 0.3)
        with one_cpu():
            one = solve_annulus_spectrum(J)
        parent, real = os.getpid(), eig_module._solve_share

        def solve_share(*args):
            if where == ("parent" if os.getpid() == parent else "child"):
                raise error("group failed")
            return real(*args)

        monkeypatch.setattr(eig_module, "_solve_share", solve_share)
        with pytest.raises(error, match="group failed") if where == "parent" else (
                contextlib.nullcontext()):
            report = solve_annulus_spectrum(J)
        if where == "child":
            assert_solved_here(report, one)
        assert len(forks) >= 1
        assert_no_child()

    def test_refused_fork_is_solved_here(self, monkeypatch):
        J = make_rotating_vector_model(8, 50, 0.3)
        with one_cpu():
            one = solve_annulus_spectrum(J)
        mask, fds, refused = os.sched_getaffinity(0), os.listdir("/proc/self/fd"), []

        def refuse():
            refused.append(os.getpid())
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(os, "fork", refuse)
        assert_solved_here(solve_annulus_spectrum(J), one)
        assert len(refused) == min(CPUS, 5) - 1
        assert os.sched_getaffinity(0) == mask
        assert os.listdir("/proc/self/fd") == fds  # every pipe closed
        assert_no_child()

    def test_killed_worker_is_solved_here(self, monkeypatch, forks):
        J = make_rotating_vector_model(8, 50, 0.3)
        with one_cpu():
            one = solve_annulus_spectrum(J)
        mask, parent, real = os.sched_getaffinity(0), os.getpid(), eig_module._solve_share

        def solve_share(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(eig_module, "_solve_share", solve_share)
        assert_solved_here(solve_annulus_spectrum(J), one)
        assert len(forks) >= 1
        assert os.sched_getaffinity(0) == mask
        assert_no_child()

    @pytest.mark.parametrize("error", [
        # cannot be pickled, so the worker could not send it
        RuntimeError("harmonic 1 bug", lambda: None),
        ZeroDivisionError("harmonic 1 bug")], ids=["unpicklable", "picklable"])
    def test_error_of_a_harmonic_is_raised_with_its_own_message(self, monkeypatch, forks, error):
        # harmonic 1 is in the share of the first forked worker
        mask, real = os.sched_getaffinity(0), eig_module.reduced_block

        def reduced_block(J, m):
            if m == 1:
                raise error
            return real(J, m)

        monkeypatch.setattr(eig_module, "reduced_block", reduced_block)
        with pytest.raises(type(error), match="harmonic 1 bug"):
            solve_annulus_spectrum(make_rotating_vector_model(8, 50, 0.3))
        assert len(forks) >= 1
        assert os.sched_getaffinity(0) == mask
        assert_no_child()

    def test_failed_harmonic_in_a_worker_stays_a_warning(self, monkeypatch, forks):
        J, real = make_rotating_vector_model(8, 50, 0.3), eig_module.reduced_block

        def reduced_block(J, m):
            if m == 1:
                raise ValueError("bad block")
            return real(J, m)

        monkeypatch.setattr(eig_module, "reduced_block", reduced_block)
        with one_cpu():
            one = solve_annulus_spectrum(J)
        every = solve_annulus_spectrum(J)
        assert len(forks) >= 1
        assert "harmonic 1 failed: bad block" in one.warnings
        assert every.warnings == one.warnings
        assert [(p.harmonic, p.value, p.residual) for p in every.pairs] == [
            (p.harmonic, p.value, p.residual) for p in one.pairs]


class TestAnnulusSolvers:
    def test_decoupled_sectors_same_spectrum_every_harmonic(self):
        J = make_random_sector_jacobian(1, 8, 0.6, seed=41)
        # re-wrap as a 5-sector operator with no coupling
        zero = sp.csr_matrix((8, 8), dtype=complex)
        J = SectorJacobian(J.blocks[0], zero, zero, 5, DofLayout(8, 1))
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
        assert report.peak_storage > 0

    def test_wall_time_includes_the_first_factorization(self, monkeypatch):
        # one CPU: the first factorization is harmonic 0's, at the first shift
        real_factor, slowed = eig_module._factor, []

        def slow_first_factor(block, sigma):
            if not slowed:
                slowed.append(block.n)
                time.sleep(0.05)
            return real_factor(block, sigma)

        monkeypatch.setattr(eig_module, "_factor", slow_first_factor)
        with one_cpu():
            report = solve_annulus_spectrum(make_ring_advection_diffusion(6, 10, 1.0))
        assert slowed == [10] and report.routes[0] == "arnoldi"
        assert report.wall_times[0] >= 0.05

    @pytest.mark.parametrize("J, solve", [
        (make_rotating_vector_model(8, 50, 0.3), solve_annulus_spectrum),  # dense, mirrored
        (make_random_sector_jacobian(4, 160, 0.03, 1), solve_annulus_spectrum),  # Arnoldi
        (make_rotating_vector_model(8, 50, 0.3), solve_full_annulus),
    ], ids=["rotvec-8x50", "random-4x160", "rotvec-8x50-full"])
    def test_pairs_come_in_csv_order(self, J, solve):
        pairs = solve(J).pairs
        keys = [(-1 if p.harmonic is None else p.harmonic, p.value.imag, p.value.real)
                for p in pairs]
        assert len(pairs) >= 6 and keys == sorted(keys)

    @pytest.mark.parametrize("harmonics, bad", [([6], 6), ([7, 1], 7), ([2, -1], -1)])
    def test_harmonic_out_of_range_raises_before_any_solve(self, monkeypatch, harmonics, bad):
        def refuse(*args):
            raise AssertionError("a harmonic was solved")

        monkeypatch.setattr(eig_module, "_solve_groups", refuse)
        with pytest.raises(ValueError, match=rf"harmonic index {bad} out of range \[0, 6\)"):
            solve_annulus_spectrum(make_rotating_vector_model(6, 4, 0.3), harmonics=harmonics)


class TestConfigValidation:
    def test_positive_tol_and_scale(self):
        with pytest.raises(ValueError):
            ShiftInvertConfig(tol=0.0)
        with pytest.raises(ValueError):
            ShiftInvertConfig(scale=-1.0)
        with pytest.raises(ValueError, match="eigs_per_shift must be >= 1"):
            ShiftInvertConfig(eigs_per_shift=0)
        with pytest.raises(ValueError, match="shifts must not be empty"):
            ShiftInvertConfig(shifts=())
        for bad in (dict(tol=np.nan), dict(tol=np.inf), dict(scale=np.nan),
                    dict(scale=np.inf), dict(shifts=(1j, complex(np.nan, 0.0))),
                    dict(shifts=(complex(0.0, np.inf),))):
            with pytest.raises(ValueError, match="finite"):
                ShiftInvertConfig(**bad)

    def test_shifts_become_a_tuple_of_complex(self):
        cfg = ShiftInvertConfig(shifts=[1, 2j])
        assert type(cfg.shifts) is tuple and cfg.shifts == (1 + 0j, 2j)
        assert [type(s) for s in cfg.shifts] == [complex, complex]
        assert hash(cfg) == hash(ShiftInvertConfig(shifts=(1 + 0j, 2j)))

    def test_matrix_inputs_refused(self):
        with pytest.raises(ValueError, match=r"must be square, got \(2, 3\)"):
            Block(canonical_csr(np.ones((2, 3))))
        with pytest.raises(ValueError, match="leaves the normal range"):
            Block(canonical_csr(np.eye(3)), 1e-320)
        # each entry is finite, their column sum ||A||_1 is not
        with pytest.raises(ValueError, match="leaves the normal range"):
            Block(canonical_csr(np.array([[1e308, 0.0], [1e308, 1.0]])))
        with pytest.raises(ValueError, match="k must be >= 1"):
            shift_invert_eigs(canonical_csr(np.eye(3)), 1j, 0, ShiftInvertConfig())
        for shape in ((2, 3), (3,)):
            with pytest.raises(ValueError, match=r"must be square, got \(" + str(shape[0])):
                dense_eigs(np.ones(shape))


def test_greedy_match_validates_sizes():
    with pytest.raises(ValueError):
        greedy_match(np.array([1.0]), np.array([1.0, 2.0]))
    empty = greedy_match([], [])
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_greedy_match_pairs_each_value_once():
    # each value pairs once: a's two zeros cannot both take b's one zero
    assert greedy_match([0.0, 0.0], [0.0, 1.0]).tolist() == [0.0, 1.0]
