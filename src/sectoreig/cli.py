"""Command-line front end: gen, eig, verify.

``gen`` writes a SectorJacobian directory for one of the surrogate models,
``eig`` runs the reduced (method 2) or whole-annulus (method 1) spectral
analysis and writes a plot-ready CSV, and ``verify`` checks the reduction
against the dense oracle.  Output files are written atomically (temp +
rename).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

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
from .sparsecore import BudgetExceededError, spmv

CSV_HEADER = "harmonic,nodal_diameter,lambda_re,lambda_im,residual,shift_re,shift_im"


def parse_shift(text: str) -> complex:
    """Parse 'a+bi' complex literals, e.g. '0+1i' or '2.5-0.5i'."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse shift {text!r}") from exc


def parse_harmonics(text: str, M: int):
    if text.strip().lower() == "all":
        return list(range(M))
    out = []
    for chunk in text.split(","):
        m = int(chunk)
        if not 0 <= m < M:
            raise ValueError(f"harmonic {m} out of range [0, {M})")
        out.append(m)
    return out


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
    params = {"model": args.model, "sectors": args.sectors, "points": args.points}
    if args.model == "ring":
        J = make_ring_advection_diffusion(
            args.sectors, args.points, args.peclet,
            rotation_rate=args.rotation_rate, diffusion=args.diffusion,
            scheme=args.scheme,
        )
        params.update(peclet=args.peclet, rotation_rate=args.rotation_rate,
                      diffusion=args.diffusion, scheme=args.scheme)
    elif args.model == "rotvec":
        J = make_rotating_vector_model(args.sectors, args.points, args.coupling)
        params.update(coupling=args.coupling)
    elif args.model == "random":
        J = make_random_sector_jacobian(args.sectors, args.points, args.density,
                                        args.seed)
        params.update(density=args.density, seed=args.seed)
    else:
        print(f"unknown model {args.model!r}", file=sys.stderr)
        return 2
    save_sector_jacobian(J, args.out)
    lines = [f"{key} = {value}" for key, value in sorted(params.items())]
    lines.append(f"version = {__version__}")
    _atomic_write(os.path.join(args.out, "manifest.txt"),
                  "\n".join(lines) + "\n")
    print(f"wrote {args.model} model (M={J.M}, N={J.N}) to {args.out}")
    return 0


def _csv_line(harmonic, nd, lam, residual, shift) -> str:
    h = "" if harmonic is None else str(harmonic)
    d = "" if nd is None else str(nd)
    return (f"{h},{d},{_fmt(lam.real)},{_fmt(lam.imag)},{_fmt(residual)},"
            f"{_fmt(shift.real)},{_fmt(shift.imag)}")


def cmd_eig(args) -> int:
    J = load_sector_jacobian(args.in_dir)
    cfg = ShiftInvertConfig(shifts=tuple(args.shifts), eigs_per_shift=args.k,
                            scale=args.scale)
    t0 = time.perf_counter()
    if args.method == 2:
        harmonics = parse_harmonics(args.harmonics, J.M)
        report = solve_annulus_spectrum(J, harmonics=harmonics, cfg=cfg)
    else:
        report = solve_full_annulus(J, cfg=cfg)
    elapsed = time.perf_counter() - t0

    rows = []
    for p in report.pairs:
        nd = None if p.harmonic is None else nodal_diameter(p.harmonic, J.M)
        rows.append((p.harmonic, nd, p.value, p.residual, p.shift))
    rows.sort(key=lambda r: (-1 if r[0] is None else r[0], r[2].imag, r[2].real))
    csv = "\n".join([CSV_HEADER] + [_csv_line(*r) for r in rows]) + "\n"
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

    print(f"wrote {len(rows)} eigenvalues to {args.out}"
          + (f" ({len(report.warnings)} warnings)" if report.warnings else ""))
    return 0


def cmd_verify(args) -> int:
    J = load_sector_jacobian(args.in_dir)
    try:
        A = materialize_full(J, budget=args.budget)
    except BudgetExceededError as exc:
        print(f"FAIL: {exc}; use a smaller instance", file=sys.stderr)
        return 2
    reduced_source = without_rotation(J) if args.no_rotation else J

    dense_vals, _ = dense_eigs(A, budget=max(args.budget, DENSE_EIG_BUDGET))
    reduced_vals = []
    max_lift_residual = 0.0
    for m in range(J.M):
        w, V = dense_eigs(reduced_block(reduced_source, m).toarray())
        reduced_vals.extend(w)
        if not args.no_rotation:
            lifted = lift_to_annulus(V, m, J)
            res = np.linalg.norm(spmv(A, lifted) - lifted * w, axis=0)
            res /= np.linalg.norm(lifted, axis=0)
            max_lift_residual = max(max_lift_residual, float(res.max()))

    distances = greedy_match(np.asarray(reduced_vals), dense_vals)
    max_distance = float(distances.max()) if len(distances) else 0.0
    ok = max_distance <= args.tol
    print(f"max matched distance: {max_distance:.3e}")
    lift = "skipped" if args.no_rotation else f"{max_lift_residual:.3e}"
    print(f"max lift residual:    {lift}")
    print(f"{'PASS' if ok else 'FAIL'} (tol {args.tol:.1e})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectoreig",
        description="Spectra of cyclic-symmetric sparse operators via sector reduction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a surrogate sector Jacobian")
    gen.add_argument("model", choices=("ring", "rotvec", "random"))
    gen.add_argument("--sectors", type=int, required=True)
    gen.add_argument("--points", type=int, required=True,
                     help="grid points per sector (block dimension for 'random')")
    gen.add_argument("--peclet", type=float, default=0.0)
    gen.add_argument("--rotation-rate", type=float, default=0.0)
    gen.add_argument("--diffusion", type=float, default=1.0)
    gen.add_argument("--scheme", choices=("upwind", "central"), default="upwind")
    gen.add_argument("--coupling", type=float, default=0.3)
    gen.add_argument("--density", type=float, default=0.2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    eig = sub.add_parser("eig", help="compute interior eigenvalues near shifts")
    eig.add_argument("in_dir")
    eig.add_argument("--method", type=int, choices=(1, 2), default=2)
    eig.add_argument("--harmonics", default="all",
                     help="comma list of harmonic indices, or 'all' (method 2)")
    eig.add_argument("--shifts", type=parse_shift, nargs="+",
                     default=[1j, 2j, 3j], metavar="A+Bi")
    eig.add_argument("--k", type=int, default=2, help="eigenvalues per shift")
    eig.add_argument("--scale", type=float, default=1.0)
    eig.add_argument("--out", required=True)
    eig.set_defaults(func=cmd_eig)

    verify = sub.add_parser("verify", help="check the reduction against the dense oracle")
    verify.add_argument("in_dir")
    verify.add_argument("--tol", type=float, default=1e-8)
    verify.add_argument("--budget", type=int, default=DENSE_EIG_BUDGET)
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
