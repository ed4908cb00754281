"""Tests of the benchmark itself: oracle, checker, tracer and metric table."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io

import oracle
import run
import tracer
from sectoreig.cli import main as cli_main

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SHIFTS = (1j, 2j, 3j)


def gen(tmp_path, *args):
    out = tmp_path / args[0]
    assert cli_main(["gen", *args, "--out", str(out)]) == 0
    return out


def eig_rows(model, tmp_path, method=2):
    csv_path = tmp_path / f"spectrum{method}.csv"
    assert cli_main(["eig", str(model), "--method", str(method), "--k", "2",
                     "--shifts", "0+1i", "0+2i", "0+3i", "--out", str(csv_path)]) == 0
    return oracle.read_csv_rows(csv_path)


@pytest.fixture(scope="module")
def rotvec(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("rotvec")
    model = gen(tmp_path, "rotvec", "--sectors", "6", "--points", "4")
    return model, oracle.harmonic_spectra(model), eig_rows(model, tmp_path)


class TestChecker:
    def test_cli_output_passes(self, rotvec):
        _, spectra, rows = rotvec
        result = oracle.check_rows(rows, spectra, SHIFTS, 2, per_harmonic=True)
        assert result.wrong == []
        assert result.rows == len(rows) > 0
        assert result.missing == 0 and result.targets > 0

    def test_moved_eigenvalue_fails(self, rotvec):
        _, spectra, rows = rotvec
        h, nd, lam = rows[0]
        rows = [(h, nd, lam + 1e-6 * max(1.0, spectra.norms[h]))] + rows[1:]
        result = oracle.check_rows(rows, spectra, SHIFTS, 2, per_harmonic=True)
        assert len(result.wrong) == 1 and result.wrong[0].startswith("row 0:")

    def test_relabelled_harmonic_fails(self, rotvec):
        _, spectra, rows = rotvec
        h, _, lam = rows[0]
        other = (h + 1) % spectra.M
        rows = [(other, min(other, spectra.M - other), lam)] + rows[1:]
        result = oracle.check_rows(rows, spectra, SHIFTS, 2, per_harmonic=True)
        assert len(result.wrong) == 1

    def test_wrong_nodal_diameter_fails(self, rotvec):
        _, spectra, rows = rotvec
        h, nd, lam = rows[1]
        rows = [rows[0], (h, nd + 1, lam)] + rows[2:]
        assert len(oracle.check_rows(rows, spectra, SHIFTS, 2, True).wrong) == 1

    def test_deleted_row_counts_missing(self, rotvec):
        _, spectra, rows = rotvec
        full = oracle.check_rows(rows, spectra, SHIFTS, 2, per_harmonic=True)
        cut = oracle.check_rows(rows[1:], spectra, SHIFTS, 2, per_harmonic=True)
        assert cut.wrong == []
        assert cut.missing == full.missing + 1
        assert cut.missing_frac == pytest.approx(cut.missing / cut.targets)

    def test_whole_annulus_rows(self, rotvec, tmp_path):
        model, spectra, _ = rotvec
        rows = eig_rows(model, tmp_path, method=1)
        result = oracle.check_rows(rows, spectra, SHIFTS, 2, per_harmonic=False)
        assert result.wrong == [] and result.targets > 0
        assert all(h is None for h, _, _ in rows)
        h, nd, lam = rows[0]
        moved = [(h, nd, lam + 1e-6 * max(1.0, spectra.norms.max()))] + rows[1:]
        assert len(oracle.check_rows(moved, spectra, SHIFTS, 2, False).wrong) == 1


def test_oracle_matches_ring_fft(tmp_path):
    """Per-harmonic dense spectra equal K*ifft of the ring's circulant first row,
    wavenumber j belonging to harmonic j mod M."""
    M, n = 8, 5
    model = gen(tmp_path, "ring", "--sectors", str(M), "--points", str(n), "--peclet", "1")
    d_self = scipy.io.mmread(model / "d_self.mtx").toarray()
    K = M * n
    row = np.zeros(K, dtype=np.complex128)
    row[0], row[1], row[K - 1] = d_self[0, 0], d_self[0, 1], d_self[1, 0]
    exact = K * np.fft.ifft(row)
    spectra = oracle.harmonic_spectra(model)
    for m in range(M):
        assert len(spectra.values[m]) == n
        for lam in exact[m::M]:
            assert np.abs(spectra.values[m] - lam).min() < 1e-9 * spectra.norms[m]


def test_cached_oracle_equals_computed(rotvec, tmp_path):
    model, spectra, _ = rotvec
    first, hit1 = oracle.cached_spectra(model, tmp_path / "cache")
    second, hit2 = oracle.cached_spectra(model, tmp_path / "cache")
    assert (hit1, hit2) == (False, True)
    assert second.M == spectra.M
    np.testing.assert_array_equal(second.norms, spectra.norms)
    for got, want in zip(second.values, spectra.values):
        np.testing.assert_array_equal(got, want)


def test_tracer_counts_and_restores(rotvec, tmp_path):
    import sectoreig.eig
    import sectoreig.sparsecore
    model, _, _ = rotvec
    original = sectoreig.eig.reduced_block
    with tracer.Tracer() as t:
        eig_rows(model, tmp_path)
    assert sectoreig.eig.reduced_block is original
    assert "factor_nnz" in vars(sectoreig.sparsecore.SparseLU)
    assert t.absent == []
    layers = tracer.layer_metrics(t)
    assert layers["eig.solve_calls"] == 6 * 3
    assert layers["circulant.reduced_block_calls"] == 6
    assert layers["sparsecore.lu_factor_calls"] == 6 * 3
    assert layers["sparsecore.factor_nnz_peak"] > 0
    assert layers["sparsecore.lu_solve_calls"] > 0
    assert 0 < layers["eig.pairs_accepted_ratio"] <= 1
    assert layers["sector.materialize_full_s"] == 0
    root = t.spans[0]
    assert root[0] == "cli.cmd_eig" and root[3] == -1
    assert all(s[3] >= 0 for s in t.spans[1:])


def test_absent_hook_is_reported():
    hooks = (("x.missing", "sectoreig.eig", "no_such_function", None),
             ("x.module", "sectoreig.no_such_module", "f", None))
    with tracer.Tracer(span_hooks=hooks, value_hooks=()) as t:
        pass
    assert t.absent == ["sectoreig.eig.no_such_function", "sectoreig.no_such_module.f"]
    assert tracer.layer_metrics(t)["eig.solve_calls"] == 0


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, -1, None, None],
             ["b", 1.0, 4.0, 0, None, None],
             ["c", 2.0, 3.0, 1, None, None],
             ["b", 5.0, 6.0, 0, None, None]]
    table = tracer.self_times(spans)
    assert table["a"] == (1, 10.0, 6.0)
    assert table["b"] == (2, 4.0, 3.0)
    assert table["c"] == (1, 1.0, 1.0)


def test_times_scale_to_reference_host_speed(tmp_path):
    runner = run.Runner(tmp_path)
    runner.probes = [1.4 * run.HOST_PROBE_REF_S, 1.5 * run.HOST_PROBE_REF_S, 9.0]
    assert runner.reference_speed() == pytest.approx(1 / 1.5)
    assert run.host_probe() > 0


@pytest.mark.parametrize("n, pct", [(384, 90.0), (100, 90.0), (24, 50.0), (3, 50.0)])
def test_tail_percentile_leaves_ten_samples(n, pct):
    assert tracer.tail(list(range(n)))[0] == pct


def test_metric_table_matches_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    produced = set(tracer.layer_metrics(tracer.Tracer(span_hooks=(), value_hooks=())))
    added_by_run = {"setup.import_s", "pairs_missing_frac", "trace_overhead_frac"}
    assert set(run.PER_LAYER) <= produced | added_by_run


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ring-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
