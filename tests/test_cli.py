import functools
import os
import re
from pathlib import Path

import numpy as np
import pytest

import sectoreig.cli as cli
import sectoreig.eig as eig_module
import sectoreig.sector as sector_module
from sectoreig.cli import main, parse_shift
from sectoreig.circulant import circulant_eigenvalues
from sectoreig.eig import ShiftInvertConfig, dense_eigs, greedy_match
from sectoreig.models import ring_first_row

DATA = Path(__file__).parent / "data"


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def csv_values(path):
    _, rows = read_csv(path)
    return [complex(float(r["lambda_re"]), float(r["lambda_im"])) for r in rows]


def summary_without_timings(csv_path):
    lines = open(str(csv_path) + ".summary.txt").read().splitlines()
    return [line for line in lines
            if not line.startswith(("total_wall_time_s", "wall_time["))]


def dir_fingerprint(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestParseShift:
    def test_formats(self):
        assert parse_shift("0+1i") == 1j
        assert parse_shift("2.5-0.5i") == 2.5 - 0.5j
        assert parse_shift("3") == 3 + 0j

    def test_invalid(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_shift("nope")


class TestGen:
    def test_ring_directory_structure(self, tmp_path):
        out = tmp_path / "ring"
        rc = main(["gen", "ring", "--sectors", "22", "--points", "8",
                   "--peclet", "10", "--out", str(out)])
        assert rc == 0
        for name in ("d_self.mtx", "d_next.mtx", "d_prev.mtx", "layout.txt",
                     "manifest.txt"):
            assert (out / name).exists()
        manifest = (out / "manifest.txt").read_text()
        assert "peclet = 10.0" in manifest
        assert "sectors = 22" in manifest
        assert "version = " in manifest

    def test_random_gen_deterministic(self, tmp_path):
        args = ["gen", "random", "--sectors", "4", "--points", "6",
                "--seed", "7", "--density", "0.5"]
        rc1 = main(args + ["--out", str(tmp_path / "a")])
        rc2 = main(args + ["--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        assert dir_fingerprint(tmp_path / "a") == dir_fingerprint(tmp_path / "b")

    def test_rotvec_layout_declares_pair(self, tmp_path):
        out = tmp_path / "rv"
        rc = main(["gen", "rotvec", "--sectors", "6", "--points", "2",
                   "--out", str(out)])
        assert rc == 0
        assert "rotating_pairs = 0:1" in (out / "layout.txt").read_text()

    @pytest.mark.parametrize("model, args", [
        ("ring", ["--sectors", "5", "--points", "4", "--peclet", "1.5"]),
        ("rotvec", ["--sectors", "4", "--points", "3", "--coupling", "0.3"]),
        ("random", ["--sectors", "3", "--points", "6", "--density", "0.5", "--seed", "7"]),
    ])
    def test_output_matches_pinned_files(self, tmp_path, model, args):
        out = tmp_path / model
        assert main(["gen", model, *args, "--out", str(out)]) == 0
        assert dir_fingerprint(out) == dir_fingerprint(DATA / "models" / model)

    def test_invalid_params_nonzero_exit(self, tmp_path):
        rc = main(["gen", "ring", "--sectors", "2", "--points", "2",
                   "--out", str(tmp_path / "bad")])
        assert rc != 0


class TestEig:
    @pytest.fixture()
    def ring_dir(self, tmp_path):
        out = tmp_path / "ring22"
        assert main(["gen", "ring", "--sectors", "22", "--points", "8",
                     "--peclet", "1", "--out", str(out)]) == 0
        return out

    def test_method2_row_count_and_columns(self, ring_dir, tmp_path):
        out = tmp_path / "spectrum.csv"
        rc = main(["eig", str(ring_dir), "--method", "2", "--k", "2",
                   "--shifts", "0+1i", "0+2i", "0+3i", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["harmonic", "nodal_diameter", "lambda_re", "lambda_im",
                          "residual", "shift_re", "shift_im"]
        assert len(rows) <= 132
        summary = (str(out) + ".summary.txt")
        text = open(summary).read()
        assert "eigenvalues_before_dedup = 132" in text

    def test_method1_has_empty_harmonic_column(self, ring_dir, tmp_path):
        out = tmp_path / "full.csv"
        rc = main(["eig", str(ring_dir), "--method", "1", "--k", "4",
                   "--shifts", "0+1i", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert rows
        assert all(r["harmonic"] == "" and r["nodal_diameter"] == "" for r in rows)

    def test_scale_divides_lambda_columns(self, ring_dir, tmp_path):
        a = tmp_path / "s1.csv"
        b = tmp_path / "s1680.csv"
        shifts = ["--shifts", "0+1680i"]
        assert main(["eig", str(ring_dir), "--method", "2", "--k", "1",
                     "--scale", "1"] + shifts + ["--out", str(a)]) == 0
        assert main(["eig", str(ring_dir), "--method", "2", "--k", "1",
                     "--scale", "1680", "--shifts", "0+1i", "--out", str(b)]) == 0
        _, rows_a = read_csv(a)
        _, rows_b = read_csv(b)
        assert len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a, rows_b):
            assert ra["harmonic"] == rb["harmonic"]
            za = complex(float(ra["lambda_re"]), float(ra["lambda_im"]))
            zb = complex(float(rb["lambda_re"]), float(rb["lambda_im"]))
            assert abs(za / 1680.0 - zb) <= 1e-9 * max(1.0, abs(zb))

    def test_deterministic_output(self, ring_dir, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["eig", str(ring_dir), "--method", "2", "--k", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_readme_ring_spectrum_unchanged(self, tmp_path):
        # The README example's blocks (n = 40) take the dense route, and
        # harmonics 12..21 are mirrored from 10..1, so the CSV matches the
        # recording exactly.  Another route or mirror moves the last digits
        # of lambda and the residual, and with them which shift's duplicate
        # survives deduplication.  Every lambda is bitwise one that the full
        # dense eigendecomposition of its source block gives (conjugated on
        # a mirrored harmonic), as when the dense route also computed every
        # vector, and is checked against the analytic circulant spectrum.
        model = tmp_path / "ring22"
        assert main(["gen", "ring", "--sectors", "22", "--points", "40",
                     "--peclet", "1", "--out", str(model)]) == 0
        out = tmp_path / "spectrum.csv"
        assert main(["eig", str(model), "--method", "2", "--k", "2", "--shifts",
                     "0+1i", "0+2i", "0+3i", "--out", str(out)]) == 0
        golden = DATA / "readme_ring_spectrum.csv"
        assert out.read_bytes() == golden.read_bytes()
        J = sector_module.load_sector_jacobian(model)
        exact = circulant_eigenvalues(ring_first_row(22, 40, 1.0))
        _, rows = read_csv(golden)
        assert len(rows) == 44
        full = {c: dense_eigs(sector_module.reduced_block(J, c))[0] for c in range(12)}
        for r in rows:
            m = int(r["harmonic"])
            lam = complex(float(r["lambda_re"]), float(r["lambda_im"]))
            assert lam in set(full[m] if m <= 11 else full[22 - m].conj())
            norm1 = abs(sector_module.reduced_block(J, m)).sum(axis=0).max()
            assert np.abs(exact[m::22] - lam).min() <= 1e-14 * norm1
        lines = open(str(out) + ".summary.txt").read().splitlines()
        routes = {m: "dense" if m <= 11 else f"conj({22 - m})" for m in range(22)}
        assert [line for line in lines if line.startswith("route[")] == [
            f"route[{m}] = {routes[m]}" for m in sorted(routes, key=str)]

    def test_summary_lists_dense_blocks(self, tmp_path):
        model = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "8", "--points", "50",
                     "--coupling", "0.3", "--out", str(model)]) == 0
        out = tmp_path / "rv.csv"
        assert main(["eig", str(model), "--out", str(out)]) == 0
        lines = open(str(out) + ".summary.txt").read().splitlines()
        assert [line for line in lines if line.startswith("route[")] == [
            "route[0] = dense", "route[1] = dense", "route[2] = dense",
            "route[3] = dense", "route[4] = dense", "route[5] = conj(3)",
            "route[6] = conj(2)", "route[7] = conj(1)"]
        assert "peak_storage = 10000" in lines

    def test_block_that_spent_its_budget_reads_dense(self, tmp_path):
        # above DENSE_ROUTE_MAX_DIM, the clustered rotating-vector blocks
        # start on Arnoldi and spend its n + 1 budget
        model = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "4", "--points", "80",
                     "--coupling", "0.3", "--out", str(model)]) == 0
        out = tmp_path / "rv.csv"
        assert main(["eig", str(model), "--harmonics", "1", "--out", str(out)]) == 0
        lines = open(str(out) + ".summary.txt").read().splitlines()
        assert "route[1] = dense" in lines
        assert "storage[1] = 25600" in lines

    def test_mirrored_harmonic_alone_matches_its_pair(self, tmp_path):
        model = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "8", "--points", "30",
                     "--coupling", "0.3", "--out", str(model)]) == 0
        alone, paired = tmp_path / "alone.csv", tmp_path / "paired.csv"
        assert main(["eig", str(model), "--harmonics", "5", "--out", str(alone)]) == 0
        assert main(["eig", str(model), "--harmonics", "3,5", "--out", str(paired)]) == 0
        _, rows_alone = read_csv(alone)
        _, rows_paired = read_csv(paired)
        assert rows_alone and {r["harmonic"] for r in rows_paired} == {"3", "5"}
        assert rows_alone == [r for r in rows_paired if r["harmonic"] == "5"]
        # alone, harmonic 5 computes its own eigenvalues; paired, they are
        # mirrored from 3
        assert "route[5] = dense" in summary_without_timings(alone)
        assert "route[5] = conj(3)" in summary_without_timings(paired)

    def test_dense_and_mirrored_output_is_byte_identical(self, tmp_path):
        model = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "7", "--points", "30",
                     "--coupling", "0.3", "--out", str(model)]) == 0
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["eig", str(model), "--out", str(a)]) == 0
        assert main(["eig", str(model), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert summary_without_timings(a) == summary_without_timings(b)
        assert "route[4] = conj(3)" in summary_without_timings(a)

    def test_summary_reports_perturbed_shift(self, tmp_path):
        # 0 is an exact eigenvalue of harmonic 0 of the pure-diffusion ring,
        # so the factorization at shift 0 is singular and the shift is moved.
        model = tmp_path / "diffusion"
        assert main(["gen", "ring", "--sectors", "3", "--points", "10",
                     "--peclet", "0", "--out", str(model)]) == 0
        out = tmp_path / "h0.csv"
        assert main(["eig", str(model), "--harmonics", "0", "--shifts", "0+0i",
                     "--out", str(out)]) == 0
        lines = open(str(out) + ".summary.txt").read().splitlines()
        assert [line for line in lines if line.startswith("perturbed_shift")] == [
            "perturbed_shift[0] = 0j -> (1e-08+0j)"]
        _, rows = read_csv(out)
        assert min(abs(complex(float(r["lambda_re"]), float(r["lambda_im"])))
                   for r in rows) <= 1e-10

    def test_one_summary_line_per_dropped_pair(self, ring_dir, tmp_path, monkeypatch):
        # A tolerance no residual meets drops every pair: k = 2 at 3 shifts
        # on 2 harmonics is 12 drops, each reported on its own line.
        monkeypatch.setattr(cli, "ShiftInvertConfig",
                            functools.partial(ShiftInvertConfig, tol=1e-300))
        out = tmp_path / "dropped.csv"
        assert main(["eig", str(ring_dir), "--harmonics", "1,2", "--out", str(out)]) == 0
        lines = open(str(out) + ".summary.txt").read().splitlines()
        warnings = [line for line in lines if line.startswith("warning:")]
        one_drop = re.compile(r"warning: harmonic [12]: dropped pair near \S+: "
                              r"re-verified residual \S+, backward error \S+ > 1\.0e-300")
        assert len(warnings) == 12
        assert all(one_drop.fullmatch(line) for line in warnings)

    def test_repeated_harmonic_solved_once(self, tmp_path, monkeypatch):
        model = tmp_path / "ring6"
        assert main(["gen", "ring", "--sectors", "6", "--points", "10",
                     "--peclet", "1", "--out", str(model)]) == 0
        calls = []
        reduced_block = eig_module.reduced_block

        def counting_reduced_block(J, m):
            calls.append(m)
            return reduced_block(J, m)

        monkeypatch.setattr(eig_module, "reduced_block", counting_reduced_block)
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        assert main(["eig", str(model), "--harmonics", "1", "--out", str(once)]) == 0
        assert main(["eig", str(model), "--harmonics", "1,1", "--out", str(twice)]) == 0
        assert calls == [1, 1]
        assert summary_without_timings(twice) == summary_without_timings(once)
        assert twice.read_bytes() == once.read_bytes()

    def test_degenerate_single_sector(self, tmp_path):
        model = tmp_path / "one"
        assert main(["gen", "random", "--sectors", "1", "--points", "8",
                     "--seed", "3", "--out", str(model)]) == 0
        full, reduced = tmp_path / "full.csv", tmp_path / "reduced.csv"
        assert main(["eig", str(model), "--method", "1", "--out", str(full)]) == 0
        assert main(["eig", str(model), "--method", "2", "--out", str(reduced)]) == 0
        a, b = csv_values(full), csv_values(reduced)
        assert a
        assert greedy_match(a, b).max() <= 1e-12 * max(1.0, max(map(abs, a)))

    def test_missing_directory_fails(self, tmp_path):
        rc = main(["eig", str(tmp_path / "nope"), "--out", str(tmp_path / "x.csv")])
        assert rc != 0

    @pytest.mark.parametrize("command", ["eig", "verify"])
    def test_layout_missing_key_exits_2(self, tmp_path, capsys, command):
        model = tmp_path / "ring"
        assert main(["gen", "ring", "--sectors", "4", "--points", "3",
                     "--out", str(model)]) == 0
        layout = model / "layout.txt"
        kept = [line for line in layout.read_text().splitlines()
                if not line.startswith("points_per_sector")]
        layout.write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        argv = [command, str(model)]
        if command == "eig":
            argv += ["--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "points_per_sector" in errors[0]
        assert "PASS" not in captured.out


class TestVerify:
    def test_ring_passes_tight_tolerance(self, tmp_path, capsys):
        out = tmp_path / "ring"
        assert main(["gen", "ring", "--sectors", "4", "--points", "1",
                     "--out", str(out)]) == 0
        rc = main(["verify", str(out), "--tol", "1e-10"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_rotvec_passes(self, tmp_path, capsys):
        out = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "6", "--points", "2",
                     "--coupling", "0.3", "--out", str(out)]) == 0
        rc = main(["verify", str(out), "--tol", "1e-8"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_negative_control_fails(self, tmp_path, capsys):
        out = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "6", "--points", "2",
                     "--coupling", "0.3", "--out", str(out)]) == 0
        rc = main(["verify", str(out), "--tol", "1e-8", "--no-rotation"])
        assert rc != 0
        printed = capsys.readouterr().out
        assert "FAIL" in printed
        assert "max lift residual:    skipped\n" in printed

    def test_budget_refusal_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ring"
        assert main(["gen", "ring", "--sectors", "4", "--points", "4",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out), "--budget", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("FAIL: ")
        assert captured.err.endswith("; use a smaller instance\n")
        assert "PASS" not in captured.out

    def test_rotation_stack_built_once(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "8", "--points", "2",
                     "--out", str(out)]) == 0
        calls = []
        rotation_matrix = sector_module.rotation_matrix

        def counting_rotation_matrix(spec, power):
            calls.append(power)
            return rotation_matrix(spec, power)

        monkeypatch.setattr(sector_module, "rotation_matrix", counting_rotation_matrix)
        assert main(["verify", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert sorted(calls) == list(range(8))
