"""Closed-form eigensystem of the periodic square-lattice Hamiltonian.

Everything here comes from explicit formulas (roots of unity and cosines),
never from a matrix decomposition, so this module doubles as the independent
oracle for the numerical pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eigen import cluster_eigenvalues
from .model import LatticeSpec


class MomentumIndex(NamedTuple):
    """Integer pair labelling one eigenpair; each component lives in [0, n)."""

    r: int
    s: int


class Momentum(NamedTuple):
    """Angular momentum components kx = 2*pi*r/n, ky = 2*pi*s/n."""

    kx: float
    ky: float


@dataclass(frozen=True, eq=False)
class AnalyticEigenpair:
    index: MomentumIndex
    energy: float
    vector: np.ndarray


def _check_index(spec: LatticeSpec, idx: MomentumIndex) -> None:
    r, s = idx
    if not (0 <= r < spec.n and 0 <= s < spec.n):
        raise ValueError(f"momentum index {tuple(idx)} out of range for n={spec.n}")


def analytic_eigenvalue(spec: LatticeSpec, idx: MomentumIndex) -> float:
    """Energy at index (r, s): alpha - 2t*(cos(2*pi*r/n) + cos(2*pi*s/n)).

    The two cosines are added before scaling so swapping r and s gives the
    bit-identical float.
    """
    _check_index(spec, idx)
    r, s = idx
    cr = math.cos(2.0 * math.pi * r / spec.n)
    cs = math.cos(2.0 * math.pi * s / spec.n)
    return spec.alpha - 2.0 * spec.t * (cr + cs)


def analytic_eigenvector(spec: LatticeSpec, idx: MomentumIndex) -> np.ndarray:
    """Unit eigenvector with entry exp(2*pi*i*(r*p + s*q)/n) / n at position p*n + q.

    Each root of unity is evaluated as exp of the full angle per entry rather
    than by repeated multiplication, so no O(n) rounding accumulates in the
    high powers. The first entry is exactly 1/n, real and positive.
    """
    _check_index(spec, idx)
    n = spec.n
    r, s = idx
    steps = np.arange(n)
    block_phase = np.exp(2j * math.pi * r * steps / n)
    site_phase = np.exp(2j * math.pi * s * steps / n)
    return np.outer(block_phase, site_phase).ravel() / n


def analytic_eigenpair(spec: LatticeSpec, idx: MomentumIndex) -> AnalyticEigenpair:
    idx = MomentumIndex(*idx)
    return AnalyticEigenpair(
        index=idx,
        energy=analytic_eigenvalue(spec, idx),
        vector=analytic_eigenvector(spec, idx),
    )


def dispersion_point(spec: LatticeSpec, idx: MomentumIndex) -> tuple[Momentum, float]:
    """Momentum components and energy for one index pair."""
    _check_index(spec, idx)
    r, s = idx
    momentum = Momentum(2.0 * math.pi * r / spec.n, 2.0 * math.pi * s / spec.n)
    return momentum, analytic_eigenvalue(spec, idx)


def default_census_tol(spec: LatticeSpec) -> float:
    """Gap threshold separating genuine levels from ulp-level index-symmetry ties."""
    return 1e-9 * max(1.0, abs(spec.alpha) + 4.0 * abs(spec.t))


def degeneracy_census(
    spec: LatticeSpec, tol: float | None = None
) -> list[tuple[float, int]]:
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
    energies = sorted(
        analytic_eigenvalue(spec, MomentumIndex(r, s))
        for r in range(spec.n)
        for s in range(spec.n)
    )
    return [
        (math.fsum(energies[c.start : c.stop]) / len(c), len(c))
        for c in cluster_eigenvalues(np.array(energies), tol).clusters
    ]
