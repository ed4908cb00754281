"""Eigenvalues of cyclic-symmetric sparse operators, one sector at a time.

A rotationally periodic Jacobian is similar to a block circulant matrix,
so its MN x MN eigenproblem splits into M independent N x N problems, one
per harmonic (nodal diameter).  This package provides the reduction, the
shift-invert eigensolves on both the reduced and whole-annulus routes,
surrogate model problems with checkable spectra, and a dense oracle to
verify the whole chain.
"""

import importlib

__version__ = "0.1.0"

# The public names of each submodule.  A name imports its submodule on first
# use (PEP 562), so loading a model imports numpy and no scipy module.
_EXPORTS = {
    "eig": "EigenPair ShiftInvertConfig SpectrumReport dense_eigs deduplicate_pairs greedy_match"
    " shift_invert_eigs solve_annulus_spectrum solve_full_annulus",
    "models": "make_random_sector_jacobian make_ring_advection_diffusion"
    " make_rotating_vector_model ring_first_row",
    "sector": "DofLayout SectorJacobian circulant_eigenvalues lift_block_eigenvector"
    " lift_to_annulus load_sector_jacobian materialize materialize_full nodal_diameter"
    " reduced_block root_of_unity rotation_matrix save_sector_jacobian unity_power"
    " without_rotation",
    "sparsecore": "BudgetExceededError DimensionMismatchError SingularMatrixError SparseLU"
    " spmv write_matrix_market",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_EXPORTS, *_SUBMODULE])


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE.get(name, name)}", __name__)
    globals()[name] = value = getattr(module, name) if name in _SUBMODULE else module
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
