"""Independent spectrum oracle and CSV checker for the benchmark.

Uses only numpy and scipy, never the ``sectoreig`` package: the three
Matrix Market blocks of a model directory are read with ``scipy.io.mmread``,
each harmonic block ``B_m = d_self + rho d_next + conj(rho) d_prev`` with
``rho = exp(2 pi i m / M)`` is formed densely, and its full spectrum is taken
with ``numpy.linalg.eigvals``.

A CSV written by ``sectoreig eig`` is then judged against that spectrum:

* a row is *wrong* when its eigenvalue lies farther than
  ``REL_TOL * max(1, ||B_m||_1)`` from every oracle eigenvalue of its
  harmonic (or, for unlabelled whole-annulus rows, of any harmonic), or
  when its harmonic or nodal diameter is invalid;
* the *targets* are, per harmonic (or for the whole operator when rows are
  unlabelled), the union over shifts of the ``k`` oracle eigenvalues
  nearest each shift; a target is *found* when a row of the same harmonic
  lies within the tolerance of it.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.io

BLOCK_FILES = ("d_self.mtx", "d_next.mtx", "d_prev.mtx")
REL_TOL = 1e-8


@dataclass
class Spectra:
    """Every eigenvalue of every harmonic block, with the block 1-norms."""

    M: int
    values: list  # values[m]: all eigenvalues of B_m
    norms: np.ndarray  # norms[m] = ||B_m||_1

    def tol(self, m: int | None) -> float:
        scale = self.norms.max() if m is None else self.norms[m]
        return REL_TOL * max(1.0, float(scale))


@dataclass
class CheckResult:
    targets: int
    found: int
    rows: int
    wrong: list = field(default_factory=list)  # human-readable reasons

    @property
    def missing(self) -> int:
        return self.targets - self.found

    @property
    def missing_frac(self) -> float:
        return self.missing / self.targets if self.targets else 0.0


def read_sector_count(model_dir) -> int:
    with open(os.path.join(model_dir, "layout.txt"), encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            if key.strip() == "M":
                return int(value)
    raise ValueError(f"no sector count in {model_dir}/layout.txt")


def harmonic_spectra(model_dir) -> Spectra:
    """Dense eigenvalues of every harmonic block of the model."""
    M = read_sector_count(model_dir)
    d_self, d_next, d_prev = (
        np.asarray(scipy.io.mmread(os.path.join(model_dir, name)).toarray(),
                   dtype=np.complex128)
        for name in BLOCK_FILES
    )
    real_blocks = not (d_self.imag.any() or d_next.imag.any() or d_prev.imag.any())
    values: list = [None] * M
    norms = np.empty(M)
    for m in range(M):
        rho = np.exp(2j * np.pi * m / M)
        B = d_self + rho * d_next + np.conj(rho) * d_prev
        norms[m] = np.abs(B).sum(axis=0).max()
        mirror = M - m
        if real_blocks and 0 < mirror < m:
            # Real blocks make B_{M-m} the conjugate of B_m.
            values[m] = np.conj(values[mirror])
            continue
        if not B.imag.any():
            B = B.real
        values[m] = np.linalg.eigvals(B).astype(np.complex128)
    return Spectra(M, values, norms)


def cached_spectra(model_dir, cache_dir) -> tuple:
    """(Spectra, whether it came from the cache) for the model's exact bytes."""
    digest = hashlib.sha256()
    for name in ("layout.txt", *BLOCK_FILES):
        with open(os.path.join(model_dir, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    path = os.path.join(cache_dir, f"oracle-{digest.hexdigest()[:24]}.npz")
    if os.path.exists(path):
        with np.load(path) as data:
            return Spectra(int(data["M"]), list(data["values"]), data["norms"]), True
    spectra = harmonic_spectra(model_dir)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp.npz"
    np.savez(tmp, M=spectra.M, values=np.array(spectra.values), norms=spectra.norms)
    os.replace(tmp, path)
    return spectra, False


def read_csv_rows(path):
    """(harmonic or None, nodal diameter or None, eigenvalue) per CSV row."""
    rows = []
    with open(path, newline="", encoding="ascii") as fh:
        for rec in csv.DictReader(fh):
            h = rec["harmonic"].strip()
            nd = rec["nodal_diameter"].strip()
            rows.append((int(h) if h else None, int(nd) if nd else None,
                         complex(float(rec["lambda_re"]), float(rec["lambda_im"]))))
    return rows


def _nearest(values: np.ndarray, shifts, k: int) -> set:
    idx = set()
    for sigma in shifts:
        idx.update(int(i) for i in np.argsort(np.abs(values - sigma), kind="stable")[:k])
    return idx


def check_rows(rows, spectra: Spectra, shifts, k: int, per_harmonic: bool) -> CheckResult:
    """Judge CSV rows against the oracle; see the module docstring."""
    M = spectra.M
    pooled = np.concatenate(spectra.values)
    wrong = []
    for i, (h, nd, lam) in enumerate(rows):
        if h is None:
            if per_harmonic:
                wrong.append(f"row {i}: no harmonic label")
                continue
            dist, tol = np.abs(pooled - lam).min(), spectra.tol(None)
        else:
            if not 0 <= h < M:
                wrong.append(f"row {i}: harmonic {h} out of range [0, {M})")
                continue
            if nd != min(h, M - h):
                wrong.append(f"row {i}: nodal diameter {nd} != {min(h, M - h)}")
                continue
            dist, tol = np.abs(spectra.values[h] - lam).min(), spectra.tol(h)
        if dist > tol:
            wrong.append(f"row {i}: lambda {lam} is {dist:.3e} from harmonic "
                         f"{'any' if h is None else h} spectrum (tol {tol:.3e})")

    targets = found = 0
    if per_harmonic:
        for m in range(M):
            got = np.array([lam for h, _, lam in rows if h == m], dtype=np.complex128)
            for t in _nearest(spectra.values[m], shifts, k):
                targets += 1
                found += bool(got.size and np.abs(got - spectra.values[m][t]).min()
                              <= spectra.tol(m))
    else:
        got = np.array([lam for _, _, lam in rows], dtype=np.complex128)
        for t in _nearest(pooled, shifts, k):
            targets += 1
            found += bool(got.size and np.abs(got - pooled[t]).min() <= spectra.tol(None))
    return CheckResult(targets=targets, found=found, rows=len(rows), wrong=wrong)
