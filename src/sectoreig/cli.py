"""Command-line front end: gen, eig, verify.

``gen`` writes a SectorJacobian directory for one of the surrogate models,
``eig`` runs the reduced (method 2) or whole-annulus (method 1) spectral
analysis and writes a plot-ready CSV, and ``verify`` checks the reduction
against the dense oracle.  Output files are written atomically (temp +
rename).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile
import time

# BLAS runs one thread unless the caller sets a count: a threaded BLAS sums in
# an order that depends on the thread count, and its threads keep eig from
# forking.  All six or none, since OpenBLAS reads its own variable before
# OMP_NUM_THREADS.  Set before numpy loads BLAS.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np

from . import __version__
from .eig import (
    DENSE_EIG_BUDGET,
    ShiftInvertConfig,
    dense_eigs,
    greedy_match,
    solve_annulus_spectrum,
    solve_full_annulus,
)
from .models import (
    make_random_sector_jacobian,
    make_ring_advection_diffusion,
    make_rotating_vector_model,
)
from .sector import (
    lift_to_annulus,
    load_sector_jacobian,
    materialize_full,
    nodal_diameter,
    reduced_block,
    save_sector_jacobian,
    without_rotation,
)
from .sparsecore import BudgetExceededError, csr_from_arrays, spmv

CSV_HEADER = "harmonic,nodal_diameter,lambda_re,lambda_im,residual,shift_re,shift_im"
# gen's models; each one's own options are keyword arguments of its generator
GEN_MODELS = {"ring": make_ring_advection_diffusion, "rotvec": make_rotating_vector_model,
              "random": make_random_sector_jacobian}


def parse_shift(text: str) -> complex:
    """Parse 'a+bi' complex literals, e.g. '0+1i' or '2.5-0.5i'."""
    cleaned = text.strip().replace(" ", "")
    if cleaned.endswith("i"):  # only the imaginary unit: 'inf' keeps its i
        cleaned = cleaned[:-1] + "j"
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse shift {text!r}") from exc


def parse_tol(text: str) -> float:
    """Parse a finite, positive tolerance."""
    tol = float(text)  # argparse reports a ValueError as an invalid value
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"tol must be finite and positive, got {text!r}")
    return tol


def parse_harmonics(text: str):
    """None for 'all', else a comma list of ints; solve_annulus_spectrum checks the range."""
    if text.strip().lower() == "all":
        return None
    try:
        return [int(chunk) for chunk in text.split(",")]
    except ValueError as exc:  # int() names the chunk
        raise argparse.ArgumentTypeError(str(exc)) from None


def _atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_gen(args) -> int:
    # the model's own options: its subcommand parses no other model's
    options = {key: value for key, value in vars(args).items()
               if key not in ("command", "func", "model", "sectors", "points", "out")}
    J = GEN_MODELS[args.model](args.sectors, args.points, **options)
    save_sector_jacobian(J, args.out)
    params = dict(options, model=args.model, sectors=args.sectors, points=args.points)
    lines = [f"{key} = {value}" for key, value in sorted(params.items())]
    lines.append(f"version = {__version__}")
    _atomic_write(os.path.join(args.out, "manifest.txt"),
                  "\n".join(lines) + "\n")
    print(f"wrote {args.model} model (M={J.M}, N={J.N}) to {args.out}")
    return 0


def _csv_line(p, M: int) -> str:
    h = d = ""
    if p.harmonic is not None:
        h, d = str(p.harmonic), str(nodal_diameter(p.harmonic, M))
    return (f"{h},{d},{_fmt(p.value.real)},{_fmt(p.value.imag)},{_fmt(p.residual)},"
            f"{_fmt(p.shift.real)},{_fmt(p.shift.imag)}")


def cmd_eig(args) -> int:
    if args.method == 1 and args.harmonics is not None:
        raise ValueError("--harmonics selects harmonics of --method 2 only; "
                         "--method 1 solves the whole annulus")
    J = load_sector_jacobian(args.in_dir)
    cfg = ShiftInvertConfig(shifts=tuple(args.shifts), eigs_per_shift=args.k,
                            scale=args.scale)
    t0 = time.perf_counter()
    if args.method == 2:
        report = solve_annulus_spectrum(J, harmonics=args.harmonics, cfg=cfg)
    else:
        report = solve_full_annulus(J, cfg=cfg)
    elapsed = time.perf_counter() - t0

    # the report's pairs are already in the CSV's order
    csv = "\n".join([CSV_HEADER] + [_csv_line(p, J.M) for p in report.pairs]) + "\n"
    _atomic_write(args.out, csv)

    summary = [
        f"method = {args.method}",
        f"sectors = {J.M}",
        f"block_dimension = {J.N}",
        f"scale = {_fmt(cfg.scale)}",
        f"eigenvalues_before_dedup = {report.raw_count}",
        f"eigenvalues_after_dedup = {len(report.pairs)}",
        f"dedup_removed = {report.dedup_removed}",
        f"peak_storage = {report.peak_storage}",
        f"total_wall_time_s = {elapsed:.3f}",
    ]
    for key in sorted(report.wall_times, key=str):
        summary.append(f"wall_time[{key}] = {report.wall_times[key]:.4f}")
    for key in sorted(report.storage, key=str):
        summary.append(f"storage[{key}] = {report.storage[key]}")
    for key in sorted(report.routes, key=str):
        summary.append(f"route[{key}] = {report.routes[key]}")
    for key, sigma, used in report.perturbed_shifts:
        summary.append(f"perturbed_shift[{key}] = {sigma} -> {used}")
    for warning in report.warnings:
        summary.append(f"warning: {warning}")
    _atomic_write(args.out + ".summary.txt", "\n".join(summary) + "\n")

    print(f"wrote {len(report.pairs)} eigenvalues to {args.out}"
          + (f" ({len(report.warnings)} warnings)" if report.warnings else ""))
    return 0


def cmd_verify(args) -> int:
    J = load_sector_jacobian(args.in_dir)
    try:
        A = materialize_full(J, budget=DENSE_EIG_BUDGET)
    except BudgetExceededError as exc:
        print(f"FAIL: {exc}; use a smaller instance", file=sys.stderr)
        return 2
    reduced_source = without_rotation(J) if args.no_rotation else J

    # eigenvalues only where no vector is used
    dense_vals = dense_eigs(A, vectors=False)
    reduced_vals = []
    max_lift_residual = 0.0
    for m in range(J.M):
        B = csr_from_arrays(reduced_block(reduced_source, m))
        if args.no_rotation:
            reduced_vals.extend(dense_eigs(B, vectors=False))
            continue
        w, V = dense_eigs(B)
        reduced_vals.extend(w)
        lifted = lift_to_annulus(V, m, J)
        res = np.linalg.norm(spmv(A, lifted) - lifted * w, axis=0)
        res /= np.linalg.norm(lifted, axis=0)
        max_lift_residual = max(max_lift_residual, float(res.max()))

    distances = greedy_match(np.asarray(reduced_vals), dense_vals)
    max_distance = float(distances.max()) if len(distances) else 0.0
    # both relative to ||A||_1, so the verdict does not change with the scale of A
    norm1 = float(abs(A).sum(axis=0).max())
    ok = max_distance <= args.tol * norm1 and max_lift_residual <= args.tol * norm1
    print(f"max matched distance: {max_distance:.3e} (||A||_1 = {norm1:.3e})")
    lift = "skipped" if args.no_rotation else f"{max_lift_residual:.3e}"
    print(f"max lift residual:    {lift}")
    print(f"{'PASS' if ok else 'FAIL'} (tol {args.tol:.1e} * ||A||_1)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectoreig",
        description="Spectra of cyclic-symmetric sparse operators via sector reduction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a surrogate sector Jacobian")
    gen.set_defaults(func=cmd_gen)
    # each model takes the shared options and its own, and refuses the others'
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--sectors", type=int, required=True)
    shared.add_argument("--points", type=int, required=True,
                        help="grid points per sector (block dimension for 'random')")
    shared.add_argument("--out", required=True)
    models = gen.add_subparsers(dest="model", required=True)
    ring, rotvec, random = (models.add_parser(name, parents=[shared]) for name in GEN_MODELS)
    ring.add_argument("--peclet", type=float, default=0.0)
    ring.add_argument("--diffusion", type=float, default=1.0)
    ring.add_argument("--scheme", choices=("upwind", "central"), default="upwind")
    rotvec.add_argument("--coupling", type=float, default=0.3)
    random.add_argument("--density", type=float, default=0.2)
    random.add_argument("--seed", type=int, default=0)

    eig = sub.add_parser("eig", help="compute interior eigenvalues near shifts")
    eig.add_argument("in_dir")
    eig.add_argument("--method", type=int, choices=(1, 2), default=2)
    eig.add_argument("--harmonics", type=parse_harmonics, default="all",
                     help="comma list of harmonic indices, or 'all' (method 2)")
    eig.add_argument("--shifts", type=parse_shift, nargs="+",
                     default=[1j, 2j, 3j], metavar="A+Bi")
    # a value such as -1-1i or -.5+2i is a shift, not an option
    eig._negative_number_matcher = re.compile(r"^-\.?\d")
    eig.add_argument("--k", type=int, default=2, help="eigenvalues per shift")
    eig.add_argument("--scale", type=float, default=1.0)
    eig.add_argument("--out", required=True)
    eig.set_defaults(func=cmd_eig)

    verify = sub.add_parser("verify", help="check the reduction against the dense oracle")
    verify.add_argument("in_dir")
    verify.add_argument("--tol", type=parse_tol, default=1e-8, help="relative to ||A||_1")
    verify.add_argument("--no-rotation", action="store_true",
                        help="test-only: skip the frame rotation on the reduced side")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
