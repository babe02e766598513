"""Tight-binding Hamiltonians on periodic square lattices with momentum-labelled eigenbases."""

from .analytic import (
    MomentumIndex,
    analytic_eigenvalue,
    analytic_eigenvector,
    degeneracy_census,
)
from .bands import (
    BandData,
    SpectrumData,
    analytic_dispersion,
    compare_to_analytic,
    compute_basis,
    compute_dispersion,
    compute_spectrum,
)
from .eigen import (
    EigenDecomposition,
    cluster_eigenvalues,
    eig_hermitian,
)
from .model import (
    CommutingFamily,
    LatticeSpec,
    build_family,
)
from .simdiag import (
    CandidateDeficitError,
    MomentumLabelError,
    RefinementError,
    SimultaneousDiagonalizationError,
    SymBasis,
    VerificationReport,
    simultaneous_basis_combination,
    simultaneous_basis_refine,
    verify_basis,
)

__version__ = "0.1.0"

__all__ = [
    "BandData",
    "CandidateDeficitError",
    "CommutingFamily",
    "EigenDecomposition",
    "LatticeSpec",
    "MomentumIndex",
    "MomentumLabelError",
    "RefinementError",
    "SimultaneousDiagonalizationError",
    "SpectrumData",
    "SymBasis",
    "VerificationReport",
    "analytic_dispersion",
    "analytic_eigenvalue",
    "analytic_eigenvector",
    "build_family",
    "cluster_eigenvalues",
    "compare_to_analytic",
    "compute_basis",
    "compute_dispersion",
    "compute_spectrum",
    "degeneracy_census",
    "eig_hermitian",
    "simultaneous_basis_combination",
    "simultaneous_basis_refine",
    "verify_basis",
]
