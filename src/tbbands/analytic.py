"""Closed-form eigensystem of the periodic square-lattice Hamiltonian.

Everything here comes from explicit formulas (roots of unity and cosines),
never from a matrix decomposition, so this module doubles as the independent
oracle for the numerical pipeline.
"""

from __future__ import annotations

import math

import numpy as np

from .model import LatticeSpec


def analytic_energies(spec: LatticeSpec) -> np.ndarray:
    """The (n, n) grid of energies, entry [r, s] alpha - 2t*(cos(2*pi*r/n) + cos(2*pi*s/n)).

    The n cosines are ``math.cos`` calls, and the two cosines are added before
    scaling, so the grid is symmetric bit for bit.
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
    return _plane_waves(ring[r].T, ring[s].T).reshape(spec.dim, -1)


def label_codes(spec: LatticeSpec, labels) -> np.ndarray:
    """Flat indices r*n + s of one index pair, a sequence of them or a (k, 2) array.

    They index the raveled :func:`analytic_energies` grid and the rows of the
    2-D DFT of a basis on the site grid. Raises ValueError naming the shape
    of any other input, and naming the first label that is not integral (NaN
    and inf included) or out of range.
    """
    idx = np.asarray(labels, dtype=float)
    if idx.shape == (2,):
        idx = idx[None]
    if idx.ndim != 2 or idx.shape[1] != 2:
        raise ValueError(f"labels must be one (r, s) pair or a (k, 2) array, not of shape {idx.shape}")
    integral = (np.isfinite(idx) & (idx == np.round(idx))).all(axis=1)
    bad = np.flatnonzero(~(integral & ((idx >= 0) & (idx < spec.n)).all(axis=1)))
    if bad.size:
        j = bad[0]
        label = tuple(int(x) if x.is_integer() else x for x in idx[j].tolist())
        problem = f"out of range for n={spec.n}" if integral[j] else "is not integral"
        raise ValueError(f"momentum index {label} {problem}")
    return (idx[:, 0] * spec.n + idx[:, 1]).astype(int)


def analytic_eigenvector(spec: LatticeSpec, idx) -> np.ndarray:
    """The unit eigenvector at index (r, s): :func:`analytic_eigenvectors` of one label."""
    return analytic_eigenvectors(spec, [idx])[:, 0]


def _ring_modes(n: int, k) -> np.ndarray:
    """exp(2*pi*i*k*j/n) for j in [0, n): (n,) for an integer k, (m, n) for an (m, 1) array."""
    return np.exp(2j * math.pi * k * np.arange(n) / n)


def _plane_waves(block_phase: np.ndarray, site_phase: np.ndarray) -> np.ndarray:
    """The plane waves on the (n, n) site grid of (n, ...) ring modes in p and in q.

    The one formula behind both oracle functions, so a column is bit-identical
    whether it is formed alone or in a block; a block comes out on the
    (n, n, k) grid, C-contiguous. The product is scaled by 1/n in place, on
    its real and imaginary parts: numpy divides a complex by n as a product
    with 1/n, so this gives the bits of ``/ n`` for every entry without a
    -0.0 part, which no plane wave has.
    """
    waves = np.multiply(block_phase[:, None], site_phase[None, :], order="C")
    parts = waves.view(float)
    parts *= 1.0 / block_phase.shape[0]
    return waves
