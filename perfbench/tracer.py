"""Span tracing of ``sectoreig`` from outside the package.

The tracer replaces the module attributes that the package's own callers
look up (``sectoreig.eig.reduced_block``, ``sectoreig.eig.eigs``,
``sectoreig.sparsecore.SparseLU.solve`` ...) with wrappers that record a
span per call: name, start, end, parent span and an optional observed
value.  Spans stay in memory; :func:`layer_metrics` turns them into self
times and counts afterwards.  A hook whose target no longer exists is
reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

# Percentiles tried for the tail, highest first; the tail is the highest one
# that leaves at least TAIL_MIN_BEYOND samples beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def _count(_args, outcome):
    """Pairs returned by (pairs, info) or Ritz values by (mu, W) / ArpackNoConvergence."""
    if isinstance(outcome, BaseException):
        return len(getattr(outcome, "eigenvalues", ()))
    return len(outcome[0])


def _removed(args, outcome):
    if isinstance(outcome, BaseException):
        return 0
    return len(args[0]) - len(outcome)


# (span name, module, attribute path, observer or None)
SPAN_HOOKS = (
    ("cli.cmd_eig", "sectoreig.cli", "cmd_eig", None),
    ("sector.load", "sectoreig.cli", "load_sector_jacobian", None),
    ("eig.solve_annulus_spectrum", "sectoreig.cli", "solve_annulus_spectrum", None),
    ("eig.solve_full_annulus", "sectoreig.cli", "solve_full_annulus", None),
    ("sector.materialize_full", "sectoreig.eig", "materialize_full", None),
    ("circulant.reduced_block", "sectoreig.eig", "reduced_block", None),
    ("eig.shift_invert_eigs", "sectoreig.eig", "shift_invert_eigs", _count),
    ("sparsecore.lu_factor", "sectoreig.sparsecore", "SparseLU.__init__", None),
    ("sparsecore.lu_solve", "sectoreig.sparsecore", "SparseLU.solve", None),
    ("eig.arnoldi", "sectoreig.eig", "eigs", _count),
    ("eig.residual_check", "sectoreig.eig", "spmv", None),
    ("eig.dedup", "sectoreig.eig", "deduplicate_pairs", _removed),
)
# Property whose returned values are recorded (peak factor size).
VALUE_HOOKS = (
    ("sparsecore.factor_nnz", "sectoreig.sparsecore", "SparseLU.factor_nnz"),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Context manager that installs the hooks and collects spans.

    A span is ``[name, start, end, parent_index, value, error]``.
    """

    def __init__(self, span_hooks=SPAN_HOOKS, value_hooks=VALUE_HOOKS):
        self.span_hooks = span_hooks
        self.value_hooks = value_hooks
        self.spans: list = []
        self.values: dict = {}
        self.absent: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                stack.pop()
                rec[5] = type(exc).__name__
                if observe is not None:
                    rec[4] = observe(args, exc)
                raise
            rec[2] = clock()
            stack.pop()
            if observe is not None:
                rec[4] = observe(args, result)
            return result

        return wrapper

    def _watch(self, name, prop):
        seen = self.values.setdefault(name, [])

        def getter(obj):
            value = prop.fget(obj)
            seen.append(value)
            return value

        return property(getter, prop.fset, prop.fdel, prop.__doc__)

    def __enter__(self):
        for name, module, path, observe in self.span_hooks:
            found = _resolve(module, path)
            if found is None or not callable(found[2]):
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))
        for name, module, path in self.value_hooks:
            found = _resolve(module, path)
            if found is None or not isinstance(found[2], property):
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._watch(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def self_times(spans) -> dict:
    """name -> (calls, inclusive seconds, self seconds)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        calls, incl, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, incl + end - start, own + end - start - child[i])
    return out


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(round(p * n / 100, 9)))


def tail(samples):
    """(percentile, value): the highest ladder percentile with enough samples
    beyond it (nearest-rank), else the median."""
    if not samples:
        return 50.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    pct = next((p for p in TAIL_LADDER if n - _rank(p, n) >= TAIL_MIN_BEYOND), 50.0)
    return pct, ordered[_rank(pct, n) - 1]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics (name -> value) from one traced ``eig`` call."""
    spans = tracer.spans
    table = self_times(spans)

    def own(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def observed(name):
        return sum(s[4] or 0 for s in spans if s[0] == name)

    solve_ms = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == "eig.shift_invert_eigs"]
    ritz = observed("eig.arnoldi")
    arnoldi_calls = calls("eig.arnoldi")
    tail_pct, tail_ms = tail(solve_ms)
    return {
        "sector.load_s": own("sector.load"),
        "sector.materialize_full_s": own("sector.materialize_full"),
        "circulant.reduced_block_s": own("circulant.reduced_block"),
        "circulant.reduced_block_calls": calls("circulant.reduced_block"),
        "sparsecore.lu_factor_s": own("sparsecore.lu_factor"),
        "sparsecore.lu_factor_calls": calls("sparsecore.lu_factor"),
        "sparsecore.factor_nnz_peak": max(tracer.values.get("sparsecore.factor_nnz") or [0]),
        "sparsecore.lu_solve_s": own("sparsecore.lu_solve"),
        "sparsecore.lu_solve_calls": calls("sparsecore.lu_solve"),
        "eig.arnoldi_self_s": own("eig.arnoldi"),
        "eig.matvecs_per_solve": (calls("sparsecore.lu_solve") / arnoldi_calls
                                  if arnoldi_calls else 0.0),
        "eig.arnoldi_nonconverged": sum(1 for s in spans if s[0] == "eig.arnoldi"
                                        and s[5] == "ArpackNoConvergence"),
        "eig.pairs_accepted_ratio": (observed("eig.shift_invert_eigs") / ritz
                                     if ritz else 0.0),
        "eig.residual_check_s": own("eig.residual_check"),
        "eig.dedup_s": own("eig.dedup"),
        "eig.dedup_removed": observed("eig.dedup"),
        "eig.shift_invert_self_s": own("eig.shift_invert_eigs"),
        "eig.solve_loop_self_s": own("eig.solve_annulus_spectrum") + own("eig.solve_full_annulus"),
        "eig.solve_calls": len(solve_ms),
        "eig.solve_p50_ms": sorted(solve_ms)[_rank(50, len(solve_ms)) - 1] if solve_ms else 0.0,
        "eig.solve_tail_ms": tail_ms,
        "eig.solve_tail_pct": tail_pct,
        "cli.output_s": own("cli.cmd_eig"),
    }
