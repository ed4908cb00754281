import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError

import sectoreig.cli as cli
import sectoreig.eig as eig_module
import sectoreig.sector as sector_module
from sectoreig.cli import CSV_HEADER, main, parse_harmonics, parse_shift
from sectoreig.eig import ShiftInvertConfig, dense_eigs, greedy_match
from sectoreig.models import ring_first_row
from sectoreig.sector import circulant_eigenvalues
from sectoreig.sparsecore import csr_from_arrays

DATA = Path(__file__).parent / "data"
SRC = Path(cli.__file__).resolve().parents[1]


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def csv_values(path):
    _, rows = read_csv(path)
    return [complex(float(r["lambda_re"]), float(r["lambda_im"])) for r in rows]


def summary_without_timings(csv_path):
    lines = Path(str(csv_path) + ".summary.txt").read_text().splitlines()
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

    def test_infinite_parts(self):
        inf = float("inf")
        assert parse_shift("inf+0i") == complex(inf, 0)
        assert parse_shift("0+infi") == complex(0, inf)
        assert parse_shift("-inf-1i") == complex(-inf, -1)

    def test_invalid(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_shift("nope")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "0.1.0\n"


class TestGen:
    def test_prints_what_it_wrote(self, tmp_path, capsys):
        out = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "6", "--points", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote rotvec model (M=6, N=8) to {out}\n"

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
        assert "rotation_rate" not in manifest

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

    @pytest.mark.parametrize("model, other", [
        ("ring", ["--coupling", "9"]), ("rotvec", ["--density", "0.5"]),
        ("random", ["--peclet", "1"]),
    ])
    def test_other_models_options_refused(self, tmp_path, capsys, model, other):
        out = tmp_path / model
        with pytest.raises(SystemExit) as exc:
            main(["gen", model, "--sectors", "6", "--points", "5", *other, "--out", str(out)])
        assert exc.value.code == 2
        assert other[0] in capsys.readouterr().err
        assert not out.exists()

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
        text = Path(summary).read_text()
        assert "eigenvalues_before_dedup = 132" in text

    @pytest.mark.parametrize("options, keys", [
        (["--harmonics", "3,1"], ["1", "3"]),
        ([], sorted(map(str, range(22)))),
        (["--method", "1"], ["full"])])
    def test_summary_wall_time_per_solved_block(self, ring_dir, tmp_path, options, keys):
        out = tmp_path / "spectrum.csv"
        assert main(["eig", str(ring_dir), *options, "--out", str(out)]) == 0
        lines = Path(str(out) + ".summary.txt").read_text().splitlines()
        times = [re.fullmatch(r"wall_time\[(\w+)\] = (\d+\.\d{4})", line)
                 for line in lines if line.startswith("wall_time[")]
        assert [t[1] for t in times] == keys
        assert all(float(t[2]) >= 0 for t in times)

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
        # Harmonics 0 and 11 are real blocks, decomposed by real LAPACK on
        # both sides: harmonic 0's zero eigenvalue has imaginary part exactly
        # 0, and harmonic 11's pair are exact conjugates.
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
        full = {c: dense_eigs(csr_from_arrays(sector_module.reduced_block(J, c)))[0]
                for c in range(12)}
        for r in rows:
            m = int(r["harmonic"])
            lam = complex(float(r["lambda_re"]), float(r["lambda_im"]))
            assert lam in set(full[m] if m <= 11 else full[22 - m].conj())
            norm1 = abs(csr_from_arrays(sector_module.reduced_block(J, m))).sum(axis=0).max()
            assert np.abs(exact[m::22] - lam).min() <= 1e-14 * norm1
        lines = Path(str(out) + ".summary.txt").read_text().splitlines()
        routes = {m: "dense" if m <= 11 else f"conj({22 - m})" for m in range(22)}
        assert [line for line in lines if line.startswith("route[")] == [
            f"route[{m}] = {routes[m]}" for m in sorted(routes, key=str)]

    def test_rotvec_spectrum_unchanged(self, tmp_path):
        # A rotating layout: d_next and d_prev carry the frame rotation, so
        # this recording pins the rotated neighbor terms of every harmonic
        # block (n = 100, dense route, harmonics 5..7 mirrored from 3..1;
        # harmonics 0 and 4 are real blocks, decomposed by real LAPACK).
        model = tmp_path / "rv8"
        assert main(["gen", "rotvec", "--sectors", "8", "--points", "50",
                     "--coupling", "0.3", "--out", str(model)]) == 0
        out = tmp_path / "spectrum.csv"
        assert main(["eig", str(model), "--method", "2", "--k", "2", "--shifts",
                     "0+1i", "0+2i", "0+3i", "--out", str(out)]) == 0
        golden = DATA / "rotvec_spectrum.csv"
        assert out.read_bytes() == golden.read_bytes()
        J = sector_module.load_sector_jacobian(model)
        assert J.layout.rotating_pairs
        _, rows = read_csv(golden)
        assert {int(r["harmonic"]) for r in rows} == set(range(8))
        full = {c: dense_eigs(csr_from_arrays(sector_module.reduced_block(J, c)))[0]
                for c in range(5)}
        for r in rows:
            m = int(r["harmonic"])
            lam = complex(float(r["lambda_re"]), float(r["lambda_im"]))
            assert lam in set(full[m] if m <= 4 else full[8 - m].conj())

    def test_rotvec_full_spectrum_unchanged(self, tmp_path):
        # The whole annulus (method 1, n = 4 * 10 = 40) takes the dense route,
        # so this recording pins the array Block forms from materialize_full's
        # canonical CSR; every lambda is bitwise one that the full dense
        # eigendecomposition of the operator gives.
        model = tmp_path / "rv4"
        assert main(["gen", "rotvec", "--sectors", "4", "--points", "5",
                     "--out", str(model)]) == 0
        out = tmp_path / "spectrum.csv"
        assert main(["eig", str(model), "--method", "1", "--k", "2", "--shifts",
                     "0+1i", "0+2i", "0+3i", "--out", str(out)]) == 0
        golden = DATA / "rotvec_full_spectrum.csv"
        assert out.read_bytes() == golden.read_bytes()
        assert "route[full] = dense" in summary_without_timings(out)
        J = sector_module.load_sector_jacobian(model)
        assert J.layout.rotating_pairs
        full = set(dense_eigs(sector_module.materialize_full(J))[0])
        assert set(csv_values(golden)) <= full

    def test_summary_lists_dense_blocks(self, tmp_path):
        model = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "8", "--points", "50",
                     "--coupling", "0.3", "--out", str(model)]) == 0
        out = tmp_path / "rv.csv"
        assert main(["eig", str(model), "--out", str(out)]) == 0
        lines = Path(str(out) + ".summary.txt").read_text().splitlines()
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
        lines = Path(str(out) + ".summary.txt").read_text().splitlines()
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
        # so the factorization at shift 0 is singular and the shift is moved
        # by 1e-8 (1 + |sigma| / unit) unit, with unit = 4**3 near ||B_0||_1 = 91.2.
        model = tmp_path / "diffusion"
        assert main(["gen", "ring", "--sectors", "3", "--points", "10",
                     "--peclet", "0", "--out", str(model)]) == 0
        out = tmp_path / "h0.csv"
        assert main(["eig", str(model), "--harmonics", "0", "--shifts", "0+0i",
                     "--out", str(out)]) == 0
        lines = Path(str(out) + ".summary.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("perturbed_shift")] == [
            "perturbed_shift[0] = 0j -> (6.4e-07+0j)"]
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
        lines = Path(str(out) + ".summary.txt").read_text().splitlines()
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

    def test_harmonic_out_of_range_exits_2(self, tmp_path, capsys):
        model = tmp_path / "ring"
        assert main(["gen", "ring", "--sectors", "4", "--points", "3",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        out = tmp_path / "x.csv"
        assert main(["eig", str(model), "--harmonics", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: harmonic index 4 out of range [0, 4)\n"
        assert not out.exists()

    def test_negative_real_part_shifts(self, tmp_path):
        model = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "6", "--points", "4", "--out", str(model)]) == 0
        out = tmp_path / "x.csv"
        for given, want in ([["-1-1i", "-0.5+2i", "0+3i"], {-1 - 1j, -0.5 + 2j, 3j}],
                            [["-i", "2i"], {-1j, 2j}]):
            assert main(["eig", str(model), "--shifts", *given, "--k", "1",
                         "--out", str(out)]) == 0
            _, rows = read_csv(out)
            assert {complex(float(r["shift_re"]), float(r["shift_im"])) for r in rows} == want

    def test_parse_harmonics(self):
        assert parse_harmonics(" ALL ") is None
        assert parse_harmonics("3, 1,3") == [3, 1, 3]

    @pytest.mark.parametrize("harmonics", ["1,x", "1,,2", ""])
    def test_malformed_harmonics_name_the_option(self, tmp_path, capsys, harmonics):
        model = tmp_path / "ring"
        assert main(["gen", "ring", "--sectors", "4", "--points", "3",
                     "--out", str(model)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["eig", str(model), "--harmonics", harmonics, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "argument --harmonics" in capsys.readouterr().err

    def test_harmonics_refused_with_method_1(self, tmp_path, capsys):
        model = tmp_path / "ring"
        assert main(["gen", "ring", "--sectors", "4", "--points", "6",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        out = tmp_path / "x.csv"
        assert main(["eig", str(model), "--method", "1", "--harmonics", "3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: --harmonics selects harmonics of "
                                           "--method 2 only; --method 1 solves the whole annulus\n")
        assert not out.exists()
        assert main(["eig", str(model), "--method", "1", "--harmonics", "All",
                     "--out", str(out)]) == 0

    def test_arpack_error_is_a_warning(self, tmp_path, capsys, monkeypatch):
        def failing_eigs(*args, **kwargs):
            raise ArpackError(-9, {-9: "Starting vector is zero."})

        monkeypatch.setattr(eig_module, "eigs", failing_eigs)
        model = tmp_path / "ring"
        assert main(["gen", "ring", "--sectors", "4", "--points", "200", "--peclet", "1",
                     "--out", str(model)]) == 0
        out = tmp_path / "x.csv"
        assert main(["eig", str(model), "--harmonics", "1,2", "--out", str(out)]) == 0
        warnings = [line for line in (tmp_path / "x.csv.summary.txt").read_text().splitlines()
                    if line.startswith("warning: ")]
        assert warnings == [f"warning: harmonic {m}: shift {shift}: "
                            "ARPACK error -9: Starting vector is zero."
                            for m in (1, 2) for shift in ("1j", "2j", "3j")]
        assert out.read_text() == CSV_HEADER + "\n"
        assert "(6 warnings)" in capsys.readouterr().out

    def test_model_near_overflow(self, tmp_path):
        # B_0 = 2e308 I overflows; B_1 and B_3 = 1e308 (1 +- i) I are stored
        # at unit scale, so neither their LU nor ARPACK underflows, and
        # B_2 = 0 is answered exactly
        model = tmp_path / "huge"
        big = 1e308 * sp.identity(8, format="csr")
        J = sector_module.SectorJacobian(big, big, sp.csr_matrix((8, 8)), 4,
                                         sector_module.DofLayout(8, 1))
        sector_module.save_sector_jacobian(J, model)
        out = tmp_path / "x.csv"
        assert main(["eig", str(model), "--out", str(out)]) == 0
        warnings = [line for line in (tmp_path / "x.csv.summary.txt").read_text().splitlines()
                    if line.startswith("warning: ")]
        assert warnings == ["warning: harmonic 0 failed: matrix contains non-finite entries"]
        _, rows = read_csv(out)
        assert [r["harmonic"] for r in rows] == ["1", "2", "3"]
        got = [complex(float(r["lambda_re"]), float(r["lambda_im"])) for r in rows]
        assert abs(got[0] - 1e308 * (1 + 1j)) <= 1e-15 * abs(got[0])
        assert got[1] == 0 and float(rows[1]["residual"]) == 0.0
        assert got[2] == got[0].conjugate()

    def test_missing_directory_fails(self, tmp_path):
        rc = main(["eig", str(tmp_path / "nope"), "--out", str(tmp_path / "x.csv")])
        assert rc != 0

    def test_out_directory_exits_2_and_leaves_no_temp_file(self, tmp_path, capsys):
        model = tmp_path / "ring"
        assert main(["gen", "ring", "--sectors", "4", "--points", "3",
                     "--out", str(model)]) == 0
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert main(["eig", str(model), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "ring"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("option", [["--shifts", "nan+0i"], ["--shifts", "1i", "nan-2i"],
                                        ["--shifts", "inf+0i"], ["--shifts", "0+infi"],
                                        ["--shifts=-inf-1i"],
                                        ["--scale", "nan"], ["--scale", "inf"]])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, option):
        model = tmp_path / "ring"
        assert main(["gen", "ring", "--sectors", "8", "--points", "30", "--peclet", "1",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        out = tmp_path / "x.csv"
        assert main(["eig", str(model), *option, "--out", str(out)]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:") and "finite" in errors[0]
        assert not out.exists()

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

    @pytest.mark.parametrize("line", ["M = six", "M = 0", "vars_per_point = 0",
                                      "rotating_pairs = 0:1,2"])
    def test_layout_error_names_the_file(self, tmp_path, capsys, line):
        model = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "4", "--points", "3",
                     "--out", str(model)]) == 0
        layout = model / "layout.txt"
        key = line.split("=")[0].strip()
        kept = [row for row in layout.read_text().splitlines() if not row.startswith(key)]
        layout.write_text("\n".join(kept + [line]) + "\n")
        capsys.readouterr()
        assert main(["eig", str(model), "--out", str(tmp_path / "x.csv")]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"error: {layout}: ")


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

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        # at --tol inf the negative control would PASS
        out = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "6", "--points", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(out), "--no-rotation", "--tol", tol])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "tol must be finite and positive" in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out

    def test_lift_residual_is_relative_to_the_lifted_vector(self, tmp_path, capsys,
                                                            monkeypatch):
        out = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "6", "--points", "4", "--out", str(out)]) == 0
        J = sector_module.load_sector_jacobian(out)
        A = sector_module.materialize_full(J).toarray()
        relative = 0.0
        for m in range(J.M):
            w, V = np.linalg.eig(csr_from_arrays(sector_module.reduced_block(J, m)).toarray())
            lifted = sector_module.lift_to_annulus(V, m, J)  # columns of norm sqrt(6)
            res = np.linalg.norm(A @ lifted - lifted * w, axis=0) / np.linalg.norm(lifted, axis=0)
            relative = max(relative, res.max())
        printed = []
        lift = cli.lift_to_annulus
        for scale in (1.0, 2.0 ** 20):  # exact, so the relative residual keeps its bits
            monkeypatch.setattr(cli, "lift_to_annulus", lambda v, m, J: scale * lift(v, m, J))
            capsys.readouterr()
            assert main(["verify", str(out)]) == 0
            printed.append(re.search(r"max lift residual: +(\S+)", capsys.readouterr().out)[1])
        assert printed[0] == printed[1]
        # rounding differs between the two products, but by far less than sqrt(6)
        assert 1 / 1.5 < float(printed[0]) / relative < 1.5

    def test_prints_the_largest_column_sum(self, tmp_path, capsys):
        out = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "6", "--points", "4", "--out", str(out)]) == 0
        A = abs(sector_module.materialize_full(sector_module.load_sector_jacobian(out)))
        # ||A||_1 is the largest column sum; the largest row sum differs here
        assert f"{A.sum(axis=0).max():.3e}" == "3.486e+00"
        assert f"{A.sum(axis=1).max():.3e}" == "3.454e+00"
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        assert "(||A||_1 = 3.486e+00)\n" in capsys.readouterr().out

    def test_wrong_lift_fails(self, tmp_path, capsys, monkeypatch):
        # eigenvalues lifted at the next harmonic still match the dense
        # spectrum; only the lift residual sees that the vectors are wrong
        out = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "6", "--points", "4", "--out", str(out)]) == 0
        lift = cli.lift_to_annulus
        monkeypatch.setattr(cli, "lift_to_annulus", lambda v, m, J: lift(v, (m + 1) % J.M, J))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        printed = capsys.readouterr().out
        distance = float(re.search(r"max matched distance: (\S+)", printed).group(1))
        assert distance < 1e-12 and "FAIL" in printed

    @pytest.mark.parametrize("exponent", [40, -40])
    @pytest.mark.parametrize("flags, rc, verdict", [([], 0, "PASS"),
                                                    (["--no-rotation"], 1, "FAIL")])
    def test_verdict_does_not_depend_on_scale(self, tmp_path, capsys, exponent, flags, rc,
                                              verdict):
        out = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "6", "--points", "2", "--out", str(out)]) == 0
        J = sector_module.load_sector_jacobian(out)
        scale = 2.0 ** exponent  # exact: the spectrum scales with it
        blocks = (scale * csr_from_arrays(b) for b in J.blocks)
        J = sector_module.SectorJacobian(*blocks, J.M, J.layout)
        sector_module.save_sector_jacobian(J, out)
        capsys.readouterr()
        assert main(["verify", str(out), "--tol", "1e-8", *flags]) == rc
        assert f"{verdict} (tol 1.0e-08 * ||A||_1)" in capsys.readouterr().out

    def test_budget_refusal_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ring"  # M * N = 4100 > DENSE_EIG_BUDGET
        assert main(["gen", "ring", "--sectors", "41", "--points", "100",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("FAIL: ")
        assert captured.err.endswith("; use a smaller instance\n")
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("flags, rc, verdict", [([], 0, "PASS"),
                                                    (["--no-rotation"], 1, "FAIL")])
    def test_eigenvectors_only_of_sector_blocks(self, tmp_path, capsys, monkeypatch,
                                                flags, rc, verdict):
        out = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "6", "--points", "4",
                     "--out", str(out)]) == 0
        eig = np.linalg.eig
        sizes = []

        def sector_sized_eig(a):
            sizes.append(a.shape[0])
            assert a.shape[0] <= 8, "np.linalg.eig called on the whole operator"
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", sector_sized_eig)
        assert main(["verify", str(out), *flags]) == rc
        assert verdict in capsys.readouterr().out
        assert sizes == ([] if flags else [8] * 6)

    def test_rotation_stack_built_once(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "rv"
        assert main(["gen", "rotvec", "--sectors", "8", "--points", "2",
                     "--out", str(out)]) == 0
        calls = []
        rotation_matrix = sector_module.rotation_matrix

        def counting_rotation_matrix(layout, M, power):
            calls.append(power)
            return rotation_matrix(layout, M, power)

        monkeypatch.setattr(sector_module, "rotation_matrix", counting_rotation_matrix)
        assert main(["verify", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert sorted(calls) == list(range(8))


class TestBlasThreads:
    """The CLI runs BLAS on one thread unless the caller sets a thread count."""

    @staticmethod
    def run(args, cwd=None, **env):
        """Run python args with no BLAS thread count in the environment but env's."""
        base = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
        return subprocess.run([sys.executable, *args], cwd=cwd, check=True, text=True,
                              env=dict(base, PYTHONPATH=str(SRC), **env), capture_output=True)

    def test_default_environment_writes_one_thread_bytes(self, tmp_path):
        self.run(["-m", "sectoreig.cli", "gen", "rotvec", "--sectors", "8", "--points", "50",
                  "--coupling", "0.3", "--out", "rv8"], tmp_path)
        self.run(["-m", "sectoreig.cli", "eig", "rv8", "--out", "default.csv"], tmp_path)
        self.run(["-m", "sectoreig.cli", "eig", "rv8", "--out", "one.csv"], tmp_path,
                 **dict.fromkeys(cli.BLAS_THREAD_VARS, "1"))
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert (summary_without_timings(tmp_path / "default.csv")
                == summary_without_timings(tmp_path / "one.csv"))

    @pytest.mark.parametrize("env, expected", [({}, "1 1 1 1 1 1"),
                                               ({"OMP_NUM_THREADS": "4"}, "4 - - - - -")])
    def test_a_count_the_caller_sets_is_kept(self, env, expected):
        code = ("import os, sectoreig.cli as c\n"
                "print(*(os.environ.get(v, '-') for v in c.BLAS_THREAD_VARS))")
        assert self.run(["-c", code], **env).stdout.split() == expected.split()
