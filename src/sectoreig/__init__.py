"""Eigenvalues of cyclic-symmetric sparse operators, one sector at a time.

A rotationally periodic Jacobian is similar to a block circulant matrix,
so its MN x MN eigenproblem splits into M independent N x N problems, one
per harmonic (nodal diameter).  This package provides the reduction, the
shift-invert eigensolves on both the reduced and whole-annulus routes,
surrogate model problems with checkable spectra, and a dense oracle to
verify the whole chain.
"""

__version__ = "0.1.0"

from .circulant import circulant_eigenvalues, lift_block_eigenvector
from .eig import (
    EigenPair,
    ShiftInvertConfig,
    SpectrumReport,
    dense_eigs,
    deduplicate_pairs,
    greedy_match,
    shift_invert_eigs,
    solve_annulus_spectrum,
    solve_full_annulus,
)
from .models import (
    make_random_sector_jacobian,
    make_ring_advection_diffusion,
    make_rotating_vector_model,
    ring_first_row,
)
from .sector import (
    DofLayout,
    RotationSpec,
    SectorJacobian,
    lift_to_annulus,
    load_sector_jacobian,
    materialize,
    materialize_full,
    nodal_diameter,
    reduced_block,
    rotation_matrix,
    save_sector_jacobian,
    without_rotation,
)
from .sparsecore import (
    BudgetExceededError,
    DimensionMismatchError,
    SingularMatrixError,
    SparseLU,
    read_matrix_market,
    root_of_unity,
    spmv,
    unity_power,
    write_matrix_market,
)

__all__ = [name for name in dir() if not name.startswith("_")]
