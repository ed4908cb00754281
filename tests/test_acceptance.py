"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (run with ``pytest -s`` to see them).  Expensive surrogate
instances are built once in module-scoped fixtures and shared between the
criteria that reuse them.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from sectoreig.cli import main as cli_main
from sectoreig.eig import (
    ShiftInvertConfig,
    dense_eigs,
    greedy_match,
    shift_invert_eigs,
    solve_annulus_spectrum,
    solve_full_annulus,
)
from sectoreig.models import (
    make_ring_advection_diffusion,
    make_rotating_vector_model,
)
from sectoreig.sector import (
    DofLayout,
    SectorJacobian,
    circulant_eigenvalues,
    lift_to_annulus,
    materialize,
    materialize_full,
    reduced_block,
    without_rotation,
)
from sectoreig.sparsecore import canonical_csr, csr_from_arrays, spmv


def report_criterion(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def union_of_reduced(J: SectorJacobian) -> np.ndarray:
    return np.concatenate(
        [np.linalg.eigvals(csr_from_arrays(reduced_block(J, m)).toarray()) for m in range(J.M)]
    )


def nearest_distance(values, reference) -> float:
    """max over values of the distance to the closest reference eigenvalue."""
    reference = np.asarray(reference)
    return max(float(np.min(np.abs(reference - v))) for v in values)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def random_sector_instances():
    """100 seeded random sector Jacobians with dense blocks (3 <= M <= 6, N <= 8).

    At M = 3 every block offset is present, so these include arbitrary
    block circulants.  Even seeds get real blocks (reused by the
    conjugate-pairing criterion), odd seeds complex ones.
    """
    out = []
    for i in range(100):
        rng = np.random.default_rng(2000 + i)
        M = 3 + i % 4
        N = 1 + (i * 3) % 8
        real = i % 2 == 0
        blocks = []
        for _ in range(3):
            b = rng.uniform(-1, 1, (N, N))
            if not real:
                b = b + 1j * rng.uniform(-1, 1, (N, N))
            blocks.append(b)
        layout = DofLayout(points_per_sector=N, vars_per_point=1)
        out.append((SectorJacobian(*blocks, M, layout), real))
    return out


@pytest.fixture(scope="module")
def rotating_vector_instances():
    """50 seeded rotating-vector models with their full-annulus operators
    and per-harmonic reduced eigendecompositions."""
    sizes = (1, 2, 3, 4, 5, 8, 12, 20)
    out = []
    for i in range(50):
        M = 3 + i % 6
        n = sizes[i % len(sizes)]
        rng = np.random.default_rng(1234 + i)
        coupling = rng.uniform(0.85, 0.95) if n >= 8 else rng.uniform(0.5, 0.9)
        J = make_rotating_vector_model(M, n, coupling)
        A = materialize_full(J)
        dense_vals, _ = dense_eigs(A)
        harmonic_eigs = [np.linalg.eig(csr_from_arrays(reduced_block(J, m)).toarray())
                         for m in range(M)]
        out.append({"J": J, "A": A, "dense": dense_vals,
                    "harmonic_eigs": harmonic_eigs})
    return out


@pytest.fixture(scope="module")
def ring22():
    """The M = 22 ring surrogate shared by criteria 5-7, with both solve
    routes and the dense oracle."""
    started = time.perf_counter()
    M, n = 22, 40
    J = make_ring_advection_diffusion(M, n, peclet=1.0)
    A = materialize_full(J)
    dense_vals, _ = dense_eigs(A)
    shifts = (1j, 2j, 3j)
    full = solve_full_annulus(
        J, cfg=ShiftInvertConfig(shifts=shifts, eigs_per_shift=30, tol=1e-9))
    reduced = solve_annulus_spectrum(
        J, cfg=ShiftInvertConfig(shifts=shifts, eigs_per_shift=2, tol=1e-9))
    harmonic_vals = [np.linalg.eigvals(csr_from_arrays(reduced_block(J, m)).toarray())
                     for m in range(M)]
    return {"J": J, "dense": dense_vals, "shifts": shifts, "full": full,
            "reduced": reduced, "harmonic_vals": harmonic_vals,
            "elapsed": time.perf_counter() - started}


# ---------------------------------------------------------------- criteria

def test_criterion_1_scalar_circulant_formula():
    started = time.perf_counter()
    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        M = 1 + (i * 5) % 32
        row = rng.uniform(-1, 1, M) + 1j * rng.uniform(-1, 1, M)
        analytic = circulant_eigenvalues(row)
        oracle, _ = dense_eigs(scipy.linalg.circulant(row).T)
        radius = max(np.max(np.abs(oracle)), 1e-30)
        worst = max(worst, greedy_match(analytic, oracle).max() / radius)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    report_criterion(1, ok,
                     f"200 random first rows, max relative mismatch "
                     f"{worst:.3e} (tol 1e-10), {elapsed:.1f}s (< 10 s)")


def test_criterion_2_block_circulant_completeness(random_sector_instances):
    started = time.perf_counter()
    worst = 0.0
    for J, _ in random_sector_instances:
        oracle, _ = dense_eigs(materialize(J))
        radius = max(np.max(np.abs(oracle)), 1e-30)
        worst = max(worst, greedy_match(union_of_reduced(J), oracle).max() / radius)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 60.0
    report_criterion(2, ok,
                     f"100 random sector Jacobians, max relative "
                     f"mismatch {worst:.3e} (tol 1e-8), {elapsed:.1f}s (< 60 s)")


def test_criterion_3_similarity_theorem(rotating_vector_instances):
    worst_pos = 0.0
    control_hits = 0
    for inst in rotating_vector_instances:
        union = np.concatenate([w for w, _ in inst["harmonic_eigs"]])
        worst_pos = max(worst_pos, greedy_match(union, inst["dense"]).max())
        broken = union_of_reduced(without_rotation(inst["J"]))
        if greedy_match(broken, inst["dense"]).max() > 1e-3:
            control_hits += 1
    n = len(rotating_vector_instances)
    ok = worst_pos <= 1e-8 and control_hits >= 0.9 * n
    report_criterion(3, ok,
                     f"{n} rotating-vector models, max spectrum mismatch "
                     f"{worst_pos:.3e} (tol 1e-8); rotation-disabled control "
                     f"exceeds 1e-3 on {control_hits}/{n} (need >= 90%)")


def test_criterion_4_eigenvector_lift(rotating_vector_instances):
    worst = 0.0
    checked = 0
    for inst in rotating_vector_instances:
        J, A = inst["J"], inst["A"]
        for m, (w, V) in enumerate(inst["harmonic_eigs"]):
            for i in range(len(w)):
                lifted = lift_to_annulus(V[:, i], m, J)
                res = np.linalg.norm(spmv(A, lifted) - w[i] * lifted)
                worst = max(worst, float(res / np.linalg.norm(lifted)))
                checked += 1
    ok = worst <= 1e-8
    report_criterion(4, ok,
                     f"{checked} lifted eigenvectors, max relative residual "
                     f"against the full operator {worst:.3e} (tol 1e-8)")


def test_criterion_5_dual_route_counts(ring22):
    full, reduced = ring22["full"], ring22["reduced"]
    dense_vals = ring22["dense"]
    counts_ok = full.raw_count == 90 and reduced.raw_count == 132
    full_dist = nearest_distance(full.values(), dense_vals)
    red_dist = nearest_distance(reduced.values(), dense_vals)

    # Every deduplicated reduced-route value inside a shift's coverage
    # radius (the largest |lambda - sigma| the full route reached) must
    # have a full-route counterpart.
    full_vals = full.values()
    cross_worst = 0.0
    for sigma in ring22["shifts"]:
        radius = max(abs(p.value - sigma) for p in full.pairs if p.shift == sigma)
        for v in reduced.values():
            if abs(v - sigma) <= radius - 1e-6:
                cross_worst = max(cross_worst,
                                  float(np.min(np.abs(full_vals - v))))
    ok = (counts_ok and full_dist <= 1e-8 and red_dist <= 1e-8
          and cross_worst <= 1e-7 and ring22["elapsed"] < 300.0)
    report_criterion(5, ok,
                     f"M=22 ring: 3-shift whole-annulus route gave "
                     f"{full.raw_count}/90 values (max oracle distance "
                     f"{full_dist:.3e}), per-harmonic route gave "
                     f"{reduced.raw_count}/132 before dedup (max oracle "
                     f"distance {red_dist:.3e}); cross-route mismatch near "
                     f"the shifts {cross_worst:.3e} (tol 1e-7); "
                     f"{ring22['elapsed']:.1f}s (< 300 s)")


def test_criterion_6_dimension_reduction(ring22, tmp_path):
    J = ring22["J"]
    ratio_ok = J.M * J.N == 22 * J.N and J.M == 22
    # Working storage is LU factor nonzeros on the Arnoldi route and n**2 on
    # the dense route; every harmonic block must report it.
    full_storage = ring22["full"].peak_storage
    reduced_storage = ring22["reduced"].storage
    reduced_ok = (sorted(reduced_storage) == list(range(J.M))
                  and all(v < full_storage for v in reduced_storage.values()))

    # The eig summaries of both methods on one model report the same two facts.
    model_dir = tmp_path / "ring22"
    assert cli_main(["gen", "ring", "--sectors", "22", "--points", "8",
                     "--peclet", "1", "--out", str(model_dir)]) == 0
    summaries = {}
    for method in ("1", "2"):
        csv = tmp_path / f"method{method}.csv"
        assert cli_main(["eig", str(model_dir), "--method", method, "--k", "2",
                         "--out", str(csv)]) == 0
        lines = Path(str(csv) + ".summary.txt").read_text().splitlines()
        summaries[method] = dict(line.split(" = ", 1) for line in lines if " = " in line)
    # full dimension 176 = 22 sectors x block dimension 8, on both routes
    cli_ratio_ok = all((s["sectors"], s["block_dimension"]) == ("22", "8")
                       for s in summaries.values())
    cli_storage_ok = 0 < int(summaries["2"]["peak_storage"]) < int(summaries["1"]["peak_storage"])

    ok = ratio_ok and reduced_ok and cli_ratio_ok and cli_storage_ok
    report_criterion(6, ok,
                     f"reduced dimension {J.N} = full {J.M * J.N} / 22; "
                     f"per-harmonic working storage (peak "
                     f"{ring22['reduced'].peak_storage}, "
                     f"{len(reduced_storage)} blocks) all below the "
                     f"full solve's {full_storage}; eig summaries of both methods agree")


def test_criterion_7_conjugate_pairing(random_sector_instances,
                                       rotating_vector_instances, ring22):
    worst = 0.0
    checked = 0
    spectra_sets = []
    for J, real in random_sector_instances:
        if real:
            spectra_sets.append([np.linalg.eigvals(csr_from_arrays(reduced_block(J, m)).toarray())
                                 for m in range(J.M)])
    for inst in rotating_vector_instances:
        spectra_sets.append([w for w, _ in inst["harmonic_eigs"]])
    spectra_sets.append(ring22["harmonic_vals"])
    for spectra in spectra_sets:
        M = len(spectra)
        for m in range(1, M):
            worst = max(worst, greedy_match(np.conjugate(spectra[m]),
                                            spectra[M - m]).max())
            checked += 1
    ok = worst <= 1e-8
    report_criterion(7, ok,
                     f"{checked} harmonic pairs across real-block instances, "
                     f"max conjugate mismatch {worst:.3e} (tol 1e-8)")


def test_criterion_8_scaling_contract():
    s = 1680.0
    J = make_rotating_vector_model(22, 4, 0.6)
    shifts = (1j, 2j)
    scaled = solve_annulus_spectrum(
        J, cfg=ShiftInvertConfig(shifts=shifts, eigs_per_shift=2, scale=s))
    plain = solve_annulus_spectrum(
        J, cfg=ShiftInvertConfig(shifts=tuple(s * z for z in shifts),
                                 eigs_per_shift=2, scale=1.0))
    ref = plain.values() / s
    worst_val = 0.0
    worst_res = 0.0
    for p in scaled.pairs:
        i = int(np.argmin(np.abs(ref - p.value)))
        worst_val = max(worst_val, abs(ref[i] - p.value) / abs(p.value))
        worst_res = max(worst_res, abs(plain.pairs[i].residual - p.residual))
    ok = (len(scaled.pairs) == len(plain.pairs)
          and worst_val <= 1e-10 and worst_res <= 1e-9)
    report_criterion(8, ok,
                     f"scale 1680 vs unscaled/1680 over {len(scaled.pairs)} "
                     f"eigenvalues: max relative difference {worst_val:.3e} "
                     f"(tol 1e-10), max residual difference {worst_res:.3e} "
                     f"(tol 1e-9)")


def test_criterion_9_shift_invert_correctness():
    worst_dist = 0.0
    worst_res = 0.0
    worst_backward = 0.0
    cfg = ShiftInvertConfig()
    for i in range(50):
        rng = np.random.default_rng(5000 + i)
        n = 30 + (i * 7) % 171
        density = 0.1 + 0.4 * rng.random()
        mask = rng.random((n, n)) < density
        vals = np.where(mask, rng.uniform(-1, 1, (n, n)), 0.0)
        vals[np.diag_indices(n)] -= 2.0
        A = canonical_csr(vals)
        sigma = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        pairs, _ = shift_invert_eigs(A, sigma, 5, cfg)
        assert len(pairs) == 5
        oracle, _ = dense_eigs(A.toarray())
        nearest = oracle[np.argsort(np.abs(oracle - sigma))[:5]]
        ours = np.array([p.value for p in pairs])
        worst_dist = max(worst_dist, greedy_match(ours, nearest).max())
        worst_res = max(worst_res, max(p.residual for p in pairs))
        # the quantity eig accepts a pair on: ||Bv - lambda v|| / (||B||_1 + |lambda|)
        norm1 = abs(A).sum(axis=0).max()
        worst_backward = max(worst_backward,
                             max(p.residual / (norm1 + abs(p.value)) for p in pairs))
    ok = worst_dist <= 1e-9 and worst_res <= 1e-10 and worst_backward <= cfg.tol
    report_criterion(9, ok,
                     f"50 random sparse matrices (N <= 200): max distance to "
                     f"the oracle's 5 nearest {worst_dist:.3e} (tol 1e-9), "
                     f"max re-verified residual {worst_res:.3e} (tol 1e-10), "
                     f"max backward error {worst_backward:.3e} (tol {cfg.tol:.0e})")
