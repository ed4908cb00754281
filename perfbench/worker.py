"""One measured step of the benchmark, run in a fresh interpreter.

Usage: ``python3 perfbench/worker.py REQUEST.json RESULT.json``

The request names the ``src`` directory to import ``sectoreig`` from and a
mode:

* ``gen``: call ``sectoreig.cli.main`` with ``argv`` (a ``gen`` command);
* ``setup``: time ``import sectoreig`` plus ``load_sector_jacobian(model)``;
* ``eig``: call ``sectoreig.cli.main`` with ``argv`` (an ``eig`` command),
  timing the call and, when ``trace`` is set, recording per-layer spans.

Timings, the exit code and the peak resident set size go to RESULT.json.
"""

import contextlib
import json
import sys
import time


def peak_rss_mb() -> float:
    """High-water resident set size of this process image.

    VmHWM belongs to the address space created by exec, unlike ru_maxrss,
    which Linux carries over from the parent that forked this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        request = json.load(fh)
    sys.path.insert(0, request["src"])
    out = {}
    if request["mode"] == "setup":
        t0 = time.perf_counter()
        import sectoreig
        t1 = time.perf_counter()
        sectoreig.load_sector_jacobian(request["model"])
        t2 = time.perf_counter()
        out.update(import_s=t1 - t0, setup_s=t2 - t0)
    else:
        from sectoreig.cli import main as cli_main
        from tracer import Tracer, layer_metrics, self_times
        with Tracer() if request.get("trace") else contextlib.nullcontext() as tracer:
            t0 = time.perf_counter()
            rc = cli_main(request["argv"])
            t1 = time.perf_counter()
        out.update(rc=rc, wall_s=t1 - t0)
        if tracer is not None:
            out.update(layers=layer_metrics(tracer), absent=tracer.absent,
                       self_times=self_times(tracer.spans))
    out["peak_rss_mb"] = peak_rss_mb()
    out["module"] = sys.modules["sectoreig"].__file__
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
