"""Tight-binding Hamiltonians on periodic square lattices with momentum-labelled eigenbases.

The package exports the four names of the library path; everything else is
imported from its own module (``tbbands.model``, ``tbbands.analytic``,
``tbbands.eigen``, ``tbbands.simdiag``, ``tbbands.bands``, ``tbbands.cli``).
"""

from .model import LatticeSpec, build_family
from .simdiag import simultaneous_basis_refine, verify_basis

__version__ = "0.1.0"

__all__ = ["LatticeSpec", "build_family", "simultaneous_basis_refine", "verify_basis"]
