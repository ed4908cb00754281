import hashlib
import tracemalloc

import numpy as np
import pytest

from sectoreig.eig import greedy_match
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
    load_sector_jacobian,
    materialize_full,
    reduced_block,
    save_sector_jacobian,
    without_rotation,
)
from sectoreig.sparsecore import csr_from_arrays


def reduced_union(J):
    return np.concatenate(
        [np.linalg.eigvals(csr_from_arrays(reduced_block(J, m)).toarray()) for m in range(J.M)]
    )


class TestRingModel:
    def test_pure_diffusion_spectrum_shape(self):
        # One point per sector, four sectors: the classic [-2, 1, 0, 1]
        # stencil pattern scaled by diffusion/h^2.
        M, n = 4, 1
        h = 2 * np.pi / (M * n)
        J = make_ring_advection_diffusion(M, n, peclet=0.0)
        vals = np.linalg.eigvals(materialize_full(J).toarray())
        expected = np.array([-2 + 2 * np.cos(2 * np.pi * q / 4) for q in range(4)])
        expected = expected / h**2
        assert greedy_match(vals, expected).max() <= 1e-10 * np.max(np.abs(expected))

    def test_analytic_circulant_oracle(self):
        for M, n, pe in ((4, 1, 0.0), (5, 3, 1.7), (22, 4, 10.0)):
            J = make_ring_advection_diffusion(M, n, pe)
            ana = circulant_eigenvalues(ring_first_row(M, n, pe))
            dense = np.linalg.eigvals(materialize_full(J).toarray())
            radius = np.max(np.abs(dense))
            assert greedy_match(ana, dense).max() <= 1e-10 * radius

    def test_reduced_union_matches_analytic(self):
        M, n, pe = 5, 3, 1.7
        J = make_ring_advection_diffusion(M, n, pe)
        ana = circulant_eigenvalues(ring_first_row(M, n, pe))
        radius = np.max(np.abs(ana))
        assert greedy_match(reduced_union(J), ana).max() <= 1e-10 * radius

    def test_every_harmonic_matches_fft_oracle_at_large_M(self):
        # Ring wavenumber j belongs to harmonic j mod M.
        M, n = 1024, 2
        J = make_ring_advection_diffusion(M, n, 1.0)
        exact = circulant_eigenvalues(ring_first_row(M, n, 1.0))
        tol = 1e-9 * np.max(np.abs(exact))
        for m in range(M):
            vals = np.linalg.eigvals(csr_from_arrays(reduced_block(J, m)).toarray())
            assert greedy_match(vals, exact[m::M]).max() <= tol

    def test_pure_advection_central_is_skew(self):
        J = make_ring_advection_diffusion(6, 2, peclet=2.0, diffusion=0.0,
                                          scheme="central")
        vals = np.linalg.eigvals(materialize_full(J).toarray())
        assert np.max(np.abs(vals.real)) <= 1e-12 * np.max(np.abs(vals))

    def test_zero_eigenvalue_always_present(self):
        # Stencil rows sum to zero, so the constant mode is neutral.
        J = make_ring_advection_diffusion(4, 2, peclet=3.0)
        vals = np.linalg.eigvals(materialize_full(J).toarray())
        assert np.min(np.abs(vals)) <= 1e-10 * np.max(np.abs(vals))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_ring_advection_diffusion(2, 1, 0.0)
        with pytest.raises(ValueError):
            make_ring_advection_diffusion(4, 0, 0.0)
        with pytest.raises(ValueError):
            make_ring_advection_diffusion(4, 1, -1.0)


class TestRotatingVectorModel:
    def test_zero_coupling_is_block_diagonal(self):
        J = make_rotating_vector_model(5, 3, 0.0)
        assert J.blocks[1].nnz == 0 and J.blocks[2].nnz == 0
        vals = np.linalg.eigvals(materialize_full(J).toarray())
        local = np.linalg.eigvals(np.array([[-2.0, -1.0], [1.0, -2.0]]))
        expected = np.tile(local, 15)
        assert greedy_match(vals, expected).max() <= 1e-12

    def test_reduced_union_matches_dense(self):
        J = make_rotating_vector_model(6, 2, 0.3)
        dense = np.linalg.eigvals(materialize_full(J).toarray())
        assert greedy_match(reduced_union(J), dense).max() <= 1e-9

    def test_negative_control_rotation_disabled(self):
        J = make_rotating_vector_model(6, 2, 0.3)
        dense = np.linalg.eigvals(materialize_full(J).toarray())
        broken = reduced_union(without_rotation(J))
        assert greedy_match(broken, dense).max() > 1e-3

    def test_spectrum_invariant_under_origin_shift(self):
        # Rotating which sector is "sector 0" by a pitch must not move the
        # spectrum: the blocks are unchanged by symmetry.
        J = make_rotating_vector_model(5, 2, 0.45)
        vals = np.linalg.eigvals(materialize_full(J).toarray())
        vals_again = np.linalg.eigvals(materialize_full(J).toarray())
        assert greedy_match(vals, vals_again).max() <= 1e-9


class TestRandomModel:
    def test_same_seed_bit_identical(self):
        a = make_random_sector_jacobian(4, 6, 0.4, seed=7)
        b = make_random_sector_jacobian(4, 6, 0.4, seed=7)
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(csr_from_arrays(x).toarray(), csr_from_arrays(y).toarray())

    def test_different_seed_differs(self):
        a = make_random_sector_jacobian(4, 6, 0.4, seed=7)
        b = make_random_sector_jacobian(4, 6, 0.4, seed=8)
        assert not np.array_equal(csr_from_arrays(a.blocks[0]).toarray(),
                                  csr_from_arrays(b.blocks[0]).toarray())

    def test_full_density(self):
        J = make_random_sector_jacobian(3, 2, 1.0, seed=1)
        assert [b.nnz for b in J.blocks] == [4, 4, 4]

    def test_similarity_invariance(self):
        for seed in (1, 2, 3):
            J = make_random_sector_jacobian(4, 5, 0.5, seed=seed)
            dense = np.linalg.eigvals(materialize_full(J).toarray())
            radius = np.max(np.abs(dense))
            assert greedy_match(reduced_union(J), dense).max() <= 1e-8 * radius

    def test_degenerate_sector_counts(self):
        J1 = make_random_sector_jacobian(1, 4, 0.5, seed=0)
        assert J1.blocks[1].nnz == 0 and J1.blocks[2].nnz == 0
        with pytest.raises(ValueError):
            make_random_sector_jacobian(3, 4, 0.0, seed=0)


@pytest.mark.parametrize("maker", [
    lambda: make_ring_advection_diffusion(5, 2, 1.1),
    lambda: make_rotating_vector_model(4, 2, 0.25),
    lambda: make_random_sector_jacobian(4, 5, 0.5, seed=9),
])
def test_generators_round_trip_on_disk(tmp_path, maker):
    J = maker()
    save_sector_jacobian(J, tmp_path / "m")
    K = load_sector_jacobian(tmp_path / "m")
    for a, b in zip(J.blocks, K.blocks):
        assert np.array_equal(csr_from_arrays(a).toarray(), csr_from_arrays(b).toarray())
    assert (K.M, K.layout) == (J.M, J.layout)


# SHA-256 of d_self.mtx, d_next.mtx, d_prev.mtx and layout.txt as saved, recorded
# while the generators still built dense arrays.  The first four are the perfbench
# workload models (perfbench/run.py WORKLOADS), whose oracle cache is keyed on these bytes.
MODEL_DIGESTS = [
    pytest.param(lambda: make_ring_advection_diffusion(128, 50, 1.0),
                 "01a61615deae6af24383a53a608fd6c3d42175a2f7b75b7615738c43d012fbe3",
                 id="ring-wide"),
    pytest.param(lambda: make_rotating_vector_model(8, 50, 0.3),
                 "b2888bb5910ce0c69d783c371b450d5fe166f430fbb1c5c9762c2b08b37e9a0a",
                 id="rotvec-clustered"),
    pytest.param(lambda: make_random_sector_jacobian(4, 800, 0.005, 0),
                 "6630dd35cca984dc59c74965494819051101357369544305b71cf60e5d74ea52",
                 id="random-fill"),
    pytest.param(lambda: make_ring_advection_diffusion(512, 10, 1.0),
                 "c616f19ea7c7b963e2fc33337e77971a1a29ce4231563cd47fc621980a19d54f",
                 id="ring-full"),
    pytest.param(lambda: SectorJacobian(*make_random_sector_jacobian(5, 12, 0.3, 7).blocks, 5,
                                        DofLayout(6, 2, ((0, 1),))),
                 "53760e36e7765ad299052e49f808e18359f53198dcd1c79fc80b4672ed08eaed",
                 id="random-pair"),
]


@pytest.mark.parametrize("maker, digest", MODEL_DIGESTS)
def test_saved_model_bytes_are_pinned(tmp_path, maker, digest):
    save_sector_jacobian(maker(), tmp_path)
    h = hashlib.sha256()
    for name in ("d_self.mtx", "d_next.mtx", "d_prev.mtx", "layout.txt"):
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("maker, bound_mib", [
    # a dense N x N array here would be 1458 MiB and 122 MiB
    (lambda: make_rotating_vector_model(22, 4500, 0.3), 16),
    (lambda: make_random_sector_jacobian(4, 4000, 0.005, 0), 32),
])
def test_generators_store_only_their_entries(maker, bound_mib):
    tracemalloc.start()
    try:
        maker()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20
