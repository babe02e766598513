"""Closed-form eigensystem of the periodic square-lattice Hamiltonian.

Everything here comes from explicit formulas (roots of unity and cosines),
never from a matrix decomposition, so this module doubles as the independent
oracle for the numerical pipeline.
"""

from __future__ import annotations

import math

import numpy as np

from .eigen import cluster_eigenvalues
from .model import LatticeSpec


def _check_index(spec: LatticeSpec, idx) -> None:
    r, s = idx
    if not (float(r).is_integer() and float(s).is_integer()):
        raise ValueError(f"momentum index {tuple(idx)} is not integral")
    if not (0 <= r < spec.n and 0 <= s < spec.n):
        raise ValueError(f"momentum index {tuple(idx)} out of range for n={spec.n}")


def analytic_eigenvalue(spec: LatticeSpec, idx) -> float:
    """Energy at index (r, s): alpha - 2t*(cos(2*pi*r/n) + cos(2*pi*s/n)).

    The two cosines are added before scaling so swapping r and s gives the
    bit-identical float.
    """
    _check_index(spec, idx)
    r, s = idx
    cr = math.cos(2.0 * math.pi * r / spec.n)
    cs = math.cos(2.0 * math.pi * s / spec.n)
    return spec.alpha - 2.0 * spec.t * (cr + cs)


def analytic_energies(spec: LatticeSpec) -> np.ndarray:
    """The (n, n) grid of energies, entry [r, s] bit-identical to :func:`analytic_eigenvalue`.

    The n cosines are the same ``math.cos`` calls on the same angles, and each
    entry is formed by the same float operations in the same order, so the
    grid is symmetric bit for bit.
    """
    n = spec.n
    cosines = np.array([math.cos(2.0 * math.pi * k / n) for k in range(n)])
    return spec.alpha - 2.0 * spec.t * (cosines[:, None] + cosines)


def analytic_eigenvectors(spec: LatticeSpec, labels) -> np.ndarray:
    """The (dim, k) block of unit eigenvectors at k labels, one column per (r, s).

    Column j has entry exp(2*pi*i*(r_j*p + s_j*q)/n) / n at position p*n + q.
    ``labels`` is a sequence of index pairs or a (k, 2) integer array. Each
    root of unity is evaluated as exp of the full angle per entry rather than
    by repeated multiplication, so no O(n) rounding accumulates in the high
    powers; the first entry of every column is exactly 1/n, real and positive.
    """
    r, s = np.divmod(label_codes(spec, labels), spec.n)
    ring = _ring_modes(spec.n, np.arange(spec.n)[:, None])
    return _plane_waves(ring[r], ring[s]).reshape(-1, spec.dim).T


def label_codes(spec: LatticeSpec, labels) -> np.ndarray:
    """Flat indices r*n + s of a sequence of index pairs or a (k, 2) array.

    They index the raveled :func:`analytic_energies` grid and the rows of the
    2-D DFT of a basis on the site grid. Raises ValueError naming the first
    label that is not integral (NaN and inf included) or out of range.
    """
    idx = np.asarray(labels, dtype=float).reshape(-1, 2)
    bad = np.flatnonzero(~((idx == np.round(idx)) & (idx >= 0) & (idx < spec.n)).all(axis=1))
    if bad.size:
        _check_index(spec, [int(x) if x.is_integer() else x for x in idx[bad[0]].tolist()])
    return (idx[:, 0] * spec.n + idx[:, 1]).astype(int)


def analytic_eigenvector(spec: LatticeSpec, idx) -> np.ndarray:
    """The unit eigenvector at index (r, s): :func:`analytic_eigenvectors` of one label."""
    _check_index(spec, idx)
    r, s = idx
    return _plane_waves(_ring_modes(spec.n, r), _ring_modes(spec.n, s)).ravel()


def _ring_modes(n: int, k) -> np.ndarray:
    """exp(2*pi*i*k*j/n) for j in [0, n): (n,) for an integer k, (m, n) for an (m, 1) array."""
    return np.exp(2j * math.pi * k * np.arange(n) / n)


def _plane_waves(block_phase: np.ndarray, site_phase: np.ndarray) -> np.ndarray:
    """The plane waves on the (n, n) site grid of (..., n) ring modes in p and in q.

    The one formula behind both oracle functions, so a column is bit-identical
    whether it is formed alone or in a block. The product is scaled by 1/n in
    place, on its real and imaginary parts: numpy divides a complex by n as a
    product with 1/n, so this gives the bits of ``/ n`` for every entry
    without a -0.0 part, which no plane wave has.
    """
    waves = block_phase[..., :, None] * site_phase[..., None, :]
    parts = waves.view(float)
    parts *= 1.0 / block_phase.shape[-1]
    return waves


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
    energies = np.sort(analytic_energies(spec), axis=None)
    return [
        (math.fsum(energies[c.start : c.stop]) / len(c), len(c))
        for c in cluster_eigenvalues(energies, tol).clusters
    ]
