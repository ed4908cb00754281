"""The import boundary of the package: what loading a model pulls in, and
the public names of ``sectoreig``, which import their submodule on first use."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse

import sectoreig
from sectoreig.sparsecore import canonical_csr, csr_from_arrays

SRC = Path(sectoreig.__file__).resolve().parents[1]
ROTVEC = Path(__file__).parent / "data" / "models" / "rotvec"

PUBLIC_NAMES = [
    "BudgetExceededError", "DimensionMismatchError", "DofLayout", "EigenPair",
    "SectorJacobian", "ShiftInvertConfig", "SingularMatrixError", "SparseLU", "SpectrumReport",
    "circulant_eigenvalues", "deduplicate_pairs", "dense_eigs", "eig",
    "greedy_match", "lift_block_eigenvector", "lift_to_annulus", "load_sector_jacobian",
    "make_random_sector_jacobian", "make_ring_advection_diffusion", "make_rotating_vector_model",
    "materialize", "materialize_full", "models", "nodal_diameter",
    "reduced_block", "ring_first_row", "root_of_unity", "rotation_matrix",
    "save_sector_jacobian", "sector", "shift_invert_eigs", "solve_annulus_spectrum",
    "solve_full_annulus", "sparsecore", "spmv", "unity_power", "without_rotation",
    "write_matrix_market",
]


def run_fresh(code):
    """Run ``code`` in a fresh interpreter and return what it printed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def loaded_modules(code, names):
    """Run ``code`` in a fresh interpreter; return which of ``names`` it left in sys.modules."""
    probe = f"{code}\nimport sys\nprint(','.join(n for n in {names!r} if n in sys.modules))"
    return [n for n in run_fresh(probe).split(",") if n]


def test_loading_a_model_imports_no_scipy():
    code = ("import sectoreig\n"
            f"J = sectoreig.load_sector_jacobian({str(ROTVEC)!r})\n"
            "sectoreig.reduced_block(J, 1)\n"
            "assert J.is_real\n"
            "import sys\n"
            "print(','.join(n for n in sys.modules if n.split('.')[0] == 'scipy'))")
    assert run_fresh(code) == ""


def test_loaded_blocks_are_canonical_scipy_csr():
    J = sectoreig.load_sector_jacobian(ROTVEC)
    for i, name in enumerate(("d_self", "d_next", "d_prev")):
        assert not hasattr(J, name)  # each block is stored once, as arrays
        block = csr_from_arrays(J.blocks[i])
        want = canonical_csr(scipy.io.mmread(ROTVEC / f"{name}.mtx"))
        assert type(block) is scipy.sparse.csr_matrix and block.has_canonical_format
        assert np.shares_memory(block.data, J.blocks[i].data)  # not copied
        assert block.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(block, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_cli_import_leaves_out_scipy_io():
    assert loaded_modules("import sectoreig.cli", ["scipy.io", "sectoreig.eig"]) == ["sectoreig.eig"]


def test_public_names_unchanged_and_resolve():
    assert sorted(sectoreig.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(sectoreig, name) is not None
    assert set(PUBLIC_NAMES) <= set(dir(sectoreig))
    assert sectoreig.load_sector_jacobian is sectoreig.sector.load_sector_jacobian
    for name in ("circulant_eigenvalues", "lift_block_eigenvector", "root_of_unity",
                 "unity_power"):
        assert getattr(sectoreig, name) is getattr(sectoreig.sector, name)


def test_star_import():
    namespace = {}
    exec("from sectoreig import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["SparseLU"] is sectoreig.sparsecore.SparseLU


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        sectoreig.no_such_name
    assert not hasattr(sectoreig, "canonical_csr")
    assert not hasattr(sectoreig, "circulant")
