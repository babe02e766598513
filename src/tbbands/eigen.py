"""Dense Hermitian eigendecomposition and eigenvalue clustering.

The decomposition delegates to LAPACK through ``numpy.linalg.eigh``; at the
dimensions this package accepts (up to ``model.MAX_DENSE_DIM`` = 8192) the
solver returns residuals and orthogonality defects of order
``c * eps * ||A||_F`` with c well below 100, which is the constant documented
on :class:`EigenDecomposition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative Hermiticity defect accepted before the input is rejected.
HERMITICITY_RTOL = 1e-12

# Documented bound constant: residual, orthogonality and reconstruction errors
# stay below RESIDUAL_C * eps * (dim factors) * ||A||_F; see tests.
RESIDUAL_C = 100.0


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues ascending; column j of ``vectors`` pairs with ``values[j]``.

    For a stacked input the leading axes index the matrices: ``values`` is
    (..., dim) and ``vectors`` is (..., dim, dim).

    Guarantees (c = RESIDUAL_C, eps = machine epsilon, A the symmetrized
    input): ``||A v_j - w_j v_j||_2 <= c*eps*||A||_F`` and
    ``max|V* V - I| <= c*eps*dim``.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class EigenvalueClusters:
    """Partition of [0, dim) into index ranges of gap-connected eigenvalues."""

    clusters: list[range]


def default_gap_tol(a: np.ndarray) -> float:
    """1e-9 * ||A||_F / sqrt(dim): far above solver noise, far below genuine gaps."""
    scale = np.linalg.norm(a) / math.sqrt(a.shape[0])
    return 1e-9 * scale if scale > 0.0 else np.finfo(float).eps


def eig_hermitian(a: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix or a (..., k, k) stack of them.

    Each matrix must be Hermitian to within ``HERMITICITY_RTOL * ||a||_F`` of
    its own norm; unless the whole input is exactly Hermitian, it is then
    symmetrized as (A + A*)/2 before the LAPACK call, so every decomposed
    matrix is exactly Hermitian (for an exactly Hermitian matrix (A + A*)/2
    is A, so skipping it changes no bit). A stack is decomposed in one call,
    with the same result as decomposing its matrices one by one.
    Deterministic for identical input.

    Raises
    ------
    ValueError
        Non-square, non-finite, or insufficiently Hermitian input.
    numpy.linalg.LinAlgError
        The LAPACK iteration failed to converge; no partial result is returned.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"square matrix or stack of them required (got shape {a.shape})")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    adjoint = a.conj().swapaxes(-1, -2)
    gap = a - adjoint
    if gap.any():
        defect = np.linalg.norm(gap, axis=(-2, -1))
        bad = np.flatnonzero(defect > HERMITICITY_RTOL * np.linalg.norm(a, axis=(-2, -1)))
        if bad.size:
            where = "" if a.ndim == 2 else f" {bad[0]} of the stack (flat index)"
            raise ValueError(
                f"matrix{where} is not Hermitian: defect {defect.flat[bad[0]]:.3e} "
                f"exceeds {HERMITICITY_RTOL:.0e} * ||A||_F"
            )
        a = (a + adjoint) / 2.0
    values, vectors = np.linalg.eigh(a)
    return EigenDecomposition(values=values, vectors=vectors)


def cluster_eigenvalues(values: np.ndarray, gap_tol: float) -> EigenvalueClusters:
    """Greedy gap partition of an ascending value vector.

    The first value opens a cluster, and each value more than ``gap_tol``
    above its predecessor opens another; within a cluster every adjacent gap
    is <= ``gap_tol``, so an infinite tolerance gives one cluster. Raises
    ValueError for a tolerance that is not > 0 (NaN included) and for values
    that are not finite or not ascending.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be a 1-d vector")
    if not gap_tol > 0:
        raise ValueError(f"gap_tol must be > 0 (got {gap_tol})")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    gaps = np.diff(values)
    if np.any(gaps < 0):
        raise ValueError("values must be sorted ascending")
    bounds = [0, *(np.flatnonzero(gaps > gap_tol) + 1).tolist(), values.size]
    clusters = [range(a, b) for a, b in zip(bounds, bounds[1:])] if values.size else []
    return EigenvalueClusters(clusters=clusters)
