#!/usr/bin/env python3
"""The sectoreig benchmark: time to spectrum, missed eigenpairs, per-layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One closed loop with a single client: every step runs in a fresh
interpreter (``perfbench/worker.py``), one after the other, with BLAS
pinned to BLAS_THREADS threads.  A run

1. generates the workload's model with ``sectoreig gen`` and offsets the
   shift set by a small amount drawn from the seed;
2. computes the independent dense oracle (``oracle.py``), untimed, or loads
   it from ``.perfbench_cache/`` when these exact model files were seen before;
3. times SETUP_PROBES fresh ``import sectoreig`` + ``load_sector_jacobian``
   processes after one warm-up;
4. repeats ``sectoreig eig`` until ``--seconds`` have passed, checking every
   CSV it writes against the oracle.  With ``--trace 1`` untraced and traced
   calls alternate and the traced ones report per-layer self times.

``host_probe`` runs after every worker; spectrum_s and setup_s are scaled by
the run's median probe time to the reference host's speed.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (eig calls), ``failed`` (eig calls that did not finish) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  A CSV row that matches no oracle eigenvalue makes the
run incorrect and the exit code 1; a setup error exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BASE_SHIFTS = (1j, 2j, 3j)
# Each seed moves the shift set by [0, SHIFT_OFFSET) along the real axis (so
# no shift text starts with '-', which argparse would take for an option) and
# by [-SHIFT_OFFSET, SHIFT_OFFSET) along the imaginary axis.
SHIFT_OFFSET = 0.01
K = 2
SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0
# Seconds host_probe() takes on the reference host (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4, one BLAS thread), about its median there.  A time t
# measured while host_probe() takes p seconds is t * HOST_PROBE_REF_S / p at
# the reference host's speed.
HOST_PROBE_REF_S = 0.24

# name -> (gen arguments, eig --method).  Each eig call takes about 1-3 s, so
# a 20 s run takes the median of 5-10 calls: on a shared host single calls
# vary by +-20 %.  The random model is not drawn from the run seed: its cost
# varies severalfold between model seeds, which no bound on spectrum_s could
# absorb.  Slow Arnoldi convergence is what rotvec-clustered measures.
WORKLOADS = {
    "ring-wide": (["ring", "--sectors", "128", "--points", "50", "--peclet", "1"], 2),
    "rotvec-clustered": (["rotvec", "--sectors", "8", "--points", "50",
                          "--coupling", "0.3"], 2),
    "random-fill": (["random", "--sectors", "4", "--points", "800",
                     "--density", "0.005", "--seed", "0"], 2),
    "ring-full": (["ring", "--sectors", "512", "--points", "10", "--peclet", "1"], 1),
}

END_TO_END = {"spectrum_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s",
    "sector.load_s": "s",
    "sector.materialize_full_s": "s",
    "circulant.reduced_block_s": "s",
    "circulant.reduced_block_calls": "count",
    "sparsecore.lu_factor_s": "s",
    "sparsecore.lu_factor_calls": "count",
    "sparsecore.factor_nnz_peak": "count",
    "sparsecore.lu_solve_s": "s",
    "sparsecore.lu_solve_calls": "count",
    "eig.arnoldi_self_s": "s",
    "eig.matvecs_per_solve": "count",
    "eig.arnoldi_nonconverged": "count",
    "eig.pairs_accepted_ratio": "fraction",
    "eig.residual_check_s": "s",
    "eig.dedup_s": "s",
    "eig.dedup_removed": "count",
    "eig.shift_invert_self_s": "s",
    "eig.solve_loop_self_s": "s",
    "eig.solve_calls": "count",
    "eig.solve_p50_ms": "ms",
    "eig.solve_tail_ms": "ms",
    "cli.output_s": "s",
    "pairs_missing_frac": "fraction",
    "trace_overhead_frac": "fraction",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def seeded_shifts(seed: int):
    import numpy as np
    rng = np.random.default_rng(seed)
    offset = complex(rng.uniform(0.0, SHIFT_OFFSET), rng.uniform(-SHIFT_OFFSET, SHIFT_OFFSET))
    texts = [f"{(s + offset).real!r}{(s + offset).imag:+}i" for s in BASE_SHIFTS]
    return texts, [complex(t.replace("i", "j")) for t in texts]


def host_probe() -> float:
    """Seconds this host takes right now for a fixed mix of interpreter,
    LAPACK and SuperLU work, none of it sectoreig code.

    A shared host runs everything 20-30 % slower for minutes at a time.  The
    probe runs in this process, between workers, so it adds nothing to their
    times or peak memory.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as sla
    dense = np.arange(80 * 80, dtype=float).reshape(80, 80) % 17.0
    sparse = (sp.random(600, 600, density=0.01, random_state=1)
              + 10 * sp.identity(600)).tocsc().astype(complex)
    rhs = np.ones(600, dtype=complex)
    t0 = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    for _ in range(40):
        np.linalg.eigvals(dense)
    lu = sla.splu(sparse)
    for _ in range(100):
        lu.solve(rhs)
    return time.perf_counter() - t0


class Runner:
    """Starts workers one at a time under a shared deadline, with a host
    probe after each."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.count = 0
        self.probes = []

    def reference_speed(self) -> float:
        """Factor that scales this run's times to the reference host's speed."""
        return HOST_PROBE_REF_S / statistics.median(self.probes)

    def __call__(self, request: dict) -> dict | None:
        """Worker result, or None when the worker process failed."""
        out = self._start(request)
        self.probes.append(host_probe())
        return out

    def _start(self, request: dict) -> dict | None:
        self.count += 1
        req = self.workdir / f"request{self.count}.json"
        res = self.workdir / f"result{self.count}.json"
        req.write_text(json.dumps(dict(request, src=str(ROOT / "src"))))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S:.0f} s")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(req), str(res)],
                cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S:.0f} s") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            return None
        out = json.loads(res.read_text())
        if not Path(out["module"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"imported sectoreig from {out['module']}, not {ROOT / 'src'}")
        return out

    def require(self, request: dict) -> dict:
        out = self(request)
        if out is None:
            raise BenchError(f"worker failed in mode {request['mode']}")
        return out


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if (index / "type").read_text().strip() in ("Unified", "Data"):
            caches[f"l{level}"] = (index / "size").read_text().strip()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """(result object, lines to print before it)."""
    import oracle

    gen_args, method = WORKLOADS[name]
    run = Runner(workdir)
    model = workdir / "model"
    gen_argv = ["gen", *gen_args, "--out", str(model)]
    t0 = time.perf_counter()
    run.require({"mode": "gen", "argv": gen_argv})
    gen_s = time.perf_counter() - t0

    shift_texts, shifts = seeded_shifts(seed)
    t0 = time.perf_counter()
    spectra, oracle_cached = oracle.cached_spectra(model, ROOT / ".perfbench_cache")
    oracle_s = time.perf_counter() - t0

    run.require({"mode": "setup", "model": str(model)})  # warm-up
    probes = [run.require({"mode": "setup", "model": str(model)}) for _ in range(SETUP_PROBES)]

    csv_path = workdir / "spectrum.csv"
    eig_argv = ["eig", str(model), "--method", str(method), "--k", str(K),
                "--shifts", *shift_texts, "--out", str(csv_path)]
    calls = []
    t_start = time.perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            out = run({"mode": "eig", "argv": eig_argv, "trace": traced})
            if out is None or out["rc"] != 0:
                calls.append({"traced": traced, "ok": False})
                continue
            check = oracle.check_rows(oracle.read_csv_rows(csv_path), spectra,
                                      shifts, K, per_harmonic=method == 2)
            csv_path.unlink()
            calls.append(dict(out, traced=traced, ok=True, check=check))
        if time.perf_counter() - t_start >= seconds:
            break
    measured_s = time.perf_counter() - t_start

    done = [c for c in calls if c["ok"]]
    plain = [c for c in done if not c["traced"]]
    traced = [c for c in done if c["traced"]]
    if not plain or (trace and not traced):
        raise BenchError("every eig call failed")
    wrong = [w for c in done for w in c["check"].wrong]
    checks = [c["check"] for c in done]
    missing_frac = statistics.median(c.missing_frac for c in checks)
    wall_s = statistics.median(c["wall_s"] for c in plain)
    spectrum_s = wall_s * run.reference_speed()

    if trace:
        metrics = {key: statistics.median(c["layers"][key] for c in traced)
                   for key in PER_LAYER if key in traced[0]["layers"]}
        metrics["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["pairs_missing_frac"] = missing_frac
        metrics["trace_overhead_frac"] = (
            statistics.median(c["wall_s"] for c in traced) / wall_s - 1.0)
        units = PER_LAYER
    else:
        metrics = {
            "spectrum_s": spectrum_s,
            "setup_s": statistics.median(p["setup_s"] for p in probes) * run.reference_speed(),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
        }
        units = END_TO_END

    env = environment(seed)
    env.update(workload=name, gen=gen_argv[:-2], eig=eig_argv[2:-2], gen_s=gen_s,
               model_bytes=sum(p.stat().st_size for p in model.iterdir()),
               oracle_s=oracle_s, oracle_cached=oracle_cached, measured_s=measured_s)
    lines = [f"env {json.dumps(env)}",
             f"{name} seed={seed}: {len(calls)} eig calls, {len(calls) - len(done)} failed, "
             f"{len(wrong)} wrong rows; {checks[0].targets} targets, "
             f"{checks[0].missing} missing, {checks[0].rows} rows",
             "  eig call seconds: " + " ".join(
                 f"{c['wall_s']:.4f}{'T' if c['traced'] else ''}" for c in done),
             "  host probe seconds: " + " ".join(f"{p:.4f}" for p in run.probes),
             "  eig call peak MB: " + " ".join(f"{c['peak_rss_mb']:.3f}" for c in done),
             f"  {'wall medians':32s} eig {wall_s:.6g} s, "
             f"setup {statistics.median(p['setup_s'] for p in probes):.6g} s, "
             f"host probe {statistics.median(run.probes):.6g} s"]
    lines += [f"  {key:32s} {value:.6g} {units[key]}" for key, value in metrics.items()]
    if not trace:
        lines.append(f"  {'pairs_missing_frac':32s} {missing_frac:.6g} fraction")
    else:
        first = traced[0]
        lines.append(f"  solve tail percentile: p{first['layers'].get('eig.solve_tail_pct', 0):g}")
        if first["absent"]:
            lines.append(f"  absent hooks: {', '.join(first['absent'])}")
        lines.append(f"  self time of one traced eig call ({first['wall_s']:.4f} s):")
        for span, (n, incl, own) in sorted(first["self_times"].items(),
                                           key=lambda kv: -kv[1][2]):
            lines.append(f"    {span:30s} calls={n:<7d} self={own:10.4f} s "
                         f"({100 * own / first['wall_s']:5.1f} %)  incl={incl:.4f} s")
    lines += [f"  WRONG {w}" for w in wrong[:20]]
    result = {
        "correct": not wrong,
        "attempted": len(calls),
        "failed": len(calls) - len(done),
        "metrics": {key: {"value": float(value), "unit": units[key]}
                    for key, value in metrics.items()},
    }
    return result, lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sectoreig" / "__init__.py").is_file():
        print(f"error: no sectoreig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONHASHSEED"] = "0"  # same str hashing, so same set order, in every worker
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
            try:
                result, lines = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace), workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
