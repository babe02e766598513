"""Closed-form energies one label at a time, and their degeneracy census.

A reference for the tests only: each energy is evaluated alone from the
dispersion formula, so comparing the package's ``analytic_energies`` grid
and its solvers' energies with it is not circular.
"""

import math

import numpy as np

from tbbands.analytic import analytic_energies, label_codes
from tbbands.eigen import cluster_eigenvalues


def analytic_eigenvalue(spec, idx) -> float:
    """Energy at index (r, s): alpha - 2t*(cos(2*pi*r/n) + cos(2*pi*s/n)).

    The two cosines are added before scaling so swapping r and s gives the
    bit-identical float. An index that is not integral or out of range raises
    ValueError, as ``label_codes`` does.
    """
    label_codes(spec, [idx])
    r, s = idx
    cr = math.cos(2.0 * math.pi * r / spec.n)
    cs = math.cos(2.0 * math.pi * s / spec.n)
    return spec.alpha - 2.0 * spec.t * (cr + cs)


def default_census_tol(spec) -> float:
    """Gap threshold separating genuine levels from ulp-level index-symmetry ties."""
    return 1e-9 * max(1.0, abs(spec.alpha) + 4.0 * abs(spec.t))


def degeneracy_census(spec, tol: float | None = None) -> list[tuple[float, int]]:
    """Distinct closed-form energies with multiplicities, ascending.

    Energies whose pairwise gaps stay within ``tol`` are merged into one level
    (exact analytic ties land within an ulp of each other but are not
    bit-identical, since symmetry-related indices feed different float angles
    to the cosine). Counts sum to n^2.
    """
    if tol is None:
        tol = default_census_tol(spec)
    if tol <= 0:
        raise ValueError(f"tol must be > 0 (got {tol})")
    energies = np.sort(analytic_energies(spec), axis=None)
    return [
        (math.fsum(energies[c.start : c.stop]) / len(c), len(c))
        for c in cluster_eigenvalues(energies, tol).clusters
    ]
