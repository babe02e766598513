"""Simultaneous eigenbasis of the Hamiltonian and its translation operators.

A generic dense eigensolver applied to H alone returns an arbitrary
orthonormal basis inside every degenerate eigenspace, and such vectors carry
no momentum label. The routines here resolve the ambiguity in two ways:

* :func:`simultaneous_basis_refine` (default): diagonalize H, then within each
  degenerate cluster successively diagonalize the projections of the Hermitian
  and anti-Hermitian parts of S_x, then of S_y. Only Hermitian
  eigendecompositions are ever needed, and the cosine/sine pair pins each
  translation eigenvalue uniquely on the unit circle.

* :func:`simultaneous_basis_combination`: diagonalize the two product matrices
  H(S_x - S_y) and S_x(H - S_y) (both normal, handled through their commuting
  Hermitian/anti-Hermitian parts) and keep only those eigenvectors that are
  simultaneous eigenvectors of H, S_x and S_y. Works whenever the combination
  spectra are simple enough; fails explicitly otherwise.

Each accepted column gets a deterministic phase (designated anchor entry real
positive) and a momentum label recovered from its translation eigenvalues.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .analytic import MomentumIndex, analytic_eigenvalue, analytic_eigenvector
from .eigen import cluster_eigenvalues, default_gap_tol, eig_hermitian
from .model import (
    X_AXIS,
    Y_AXIS,
    CommutingFamily,
    LatticeSpec,
    build_symmetries,
    translate,
)

logger = logging.getLogger(__name__)

# Below ANCHOR_FLOOR/sqrt(dim) the first entry is too small to define a phase;
# fall back to the largest-modulus entry.
ANCHOR_FLOOR = 1e-6

# Residual acceptance threshold factor for filter_simultaneous: 1e-8 * ||H||_F.
FILTER_RTOL = 1e-8

# Momentum angles must sit within ANGLE_RTOL of the 2*pi/n grid (relative to
# the grid spacing).
ANGLE_RTOL = 1e-4

# Translation eigenvalues must sit this close to the unit circle.
UNIT_CIRCLE_TOL = 1e-8

# Gap tolerance of the translation stages: default_gap_tol of each stage
# operator (S +- S*)/2, whose Frobenius scale ||M||_F / sqrt(dim) is sqrt(1/2)
# for every n >= 3 (two entries of modulus 1/2 per row).
STAGE_GAP_TOL = 1e-9 * math.sqrt(0.5)


class SimultaneousDiagonalizationError(Exception):
    """Base class for failures of the simultaneous-basis construction."""


class RefinementError(SimultaneousDiagonalizationError):
    """Degeneracy survived every refinement stage."""


class CandidateDeficitError(SimultaneousDiagonalizationError):
    """The combination-matrix method recovered fewer than n^2 labelled vectors."""


class MomentumLabelError(SimultaneousDiagonalizationError):
    """A column's translation eigenvalues do not identify a lattice momentum."""


@dataclass(frozen=True, eq=False)
class SymBasis:
    """Unitary basis of simultaneous eigenvectors, ordered by (r, s) label.

    ``vectors[:, j]`` is a simultaneous eigenvector; ``energies[j]`` its
    Rayleigh quotient under H; ``labels[j]`` its momentum index;
    ``sym_eigs[j]`` the pair of unit-modulus translation eigenvalues
    (x-translation, y-translation).
    """

    vectors: np.ndarray
    energies: np.ndarray
    labels: list[MomentumIndex]
    sym_eigs: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class VerificationReport:
    """Per-column maxima of the basis-quality metrics (all >= 0)."""

    max_residual_h: float
    max_residual_sx: float
    max_residual_sy: float
    max_orthogonality_defect: float
    max_eigenvalue_error: float
    max_entrywise_vector_error: float

    def as_dict(self) -> dict[str, float]:
        return {
            "max_residual_h": self.max_residual_h,
            "max_residual_sx": self.max_residual_sx,
            "max_residual_sy": self.max_residual_sy,
            "max_orthogonality_defect": self.max_orthogonality_defect,
            "max_eigenvalue_error": self.max_eigenvalue_error,
            "max_entrywise_vector_error": self.max_entrywise_vector_error,
        }


def combination_matrices(
    family: CommutingFamily,
) -> tuple[np.ndarray, np.ndarray]:
    """The two dense complex products H(S_x - S_y) and S_x(H - S_y).

    Both are members of the commuting algebra generated by the family, hence
    normal and simultaneously diagonalizable with it.
    """
    h = family.h
    sx, sy = build_symmetries(family.spec)
    return h @ (sx - sy), sx @ (h - sy)


def phase_anchor(v: np.ndarray) -> int:
    """Index of the entry whose phase gets rotated away by :func:`fix_phase`."""
    if abs(v[0]) >= ANCHOR_FLOOR / math.sqrt(v.shape[0]):
        return 0
    return int(np.argmax(np.abs(v)))


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a unit vector's global phase so its anchor entry is real positive.

    The anchor is the first entry unless that is numerically zero (see
    :func:`phase_anchor`), in which case the largest-modulus entry is used
    instead. An already-real-positive anchor leaves the vector unchanged.
    """
    v = np.asarray(v, dtype=complex)
    if not np.any(v):
        raise ValueError("zero vector has no phase to fix")
    anchor = phase_anchor(v)
    if anchor != 0:
        logger.debug("phase anchor fell back to entry %d", anchor)
    a = v[anchor]
    return v * (np.conj(a) / abs(a))


def _phase_index(
    lam: complex, n: int, angle_tol: float, axis: str, column: int
) -> int:
    """Map a unit-circle translation eigenvalue to its integer grid index."""
    if abs(abs(lam) - 1.0) > UNIT_CIRCLE_TOL:
        raise MomentumLabelError(
            f"column {column}: {axis} eigenvalue has modulus {abs(lam):.6f}, "
            "off the unit circle (basis is not simultaneous)"
        )
    # The translation advances the site index, so a momentum-k mode picks up
    # exp(-2*pi*i*k/n); negate the phase to recover k.
    grid_pos = -n * np.angle(lam) / (2.0 * math.pi)
    k = round(grid_pos)
    if abs(grid_pos - k) * (2.0 * math.pi / n) > angle_tol:
        raise MomentumLabelError(
            f"column {column}: {axis} eigenvalue angle is "
            f"{abs(grid_pos - k):.3e} grid units off the 2*pi/{n} lattice"
        )
    return int(k % n)


def _rayleigh_quotients(v: np.ndarray, applied: np.ndarray) -> np.ndarray:
    """Per-column v_j* (M v)_j for ``applied`` = M v.

    Each column's products are summed pairwise along a contiguous axis, with
    rounding error O(log(dim) eps); a running sum (einsum) errs by
    O(dim eps), which at n = 30 uses most of the eigenvalue-error bound.
    """
    return np.ascontiguousarray((v.conj() * applied).T).sum(axis=1)


def momentum_labels(
    basis_vectors: np.ndarray,
    family: CommutingFamily,
    angle_tol: float | None = None,
) -> list[MomentumIndex]:
    """Recover the (r, s) label of every column from its translation eigenvalues.

    The x-translation (in-block shift) resolves s and the y-translation (block
    shift) resolves r, each through the negative of the eigenvalue phase. This
    sign and axis assignment is pinned by the analytic-vector regression test
    at n=4; see tests/test_simdiag.py.
    """
    v = np.asarray(basis_vectors)
    n = family.n
    if angle_tol is None:
        angle_tol = (2.0 * math.pi / n) * ANGLE_RTOL
    lam_x = _rayleigh_quotients(v, family.apply_sx(v))
    lam_y = _rayleigh_quotients(v, family.apply_sy(v))
    labels = []
    for j in range(v.shape[1]):
        s = _phase_index(lam_x[j], n, angle_tol, "x-translation", j)
        r = _phase_index(lam_y[j], n, angle_tol, "y-translation", j)
        labels.append(MomentumIndex(r, s))
    return labels


def _refine_within_blocks(
    vectors: np.ndarray,
    blocks: list[range],
    apply_operator,
    gap_tol: float,
) -> list[range]:
    """Diagonalize the projection of one Hermitian operator inside each block.

    ``apply_operator`` maps a (dim, k) block of columns to the operator times
    it; it is applied once to all columns, and each block projects its own
    columns of the result. Rotates the columns of ``vectors`` in place; blocks
    of size one are left untouched. Returns the refined block partition.
    """
    applied = apply_operator(vectors)
    refined: list[range] = []
    for block in blocks:
        a, b = block.start, block.stop
        if b - a == 1:
            refined.append(block)
            continue
        cols = vectors[:, a:b]
        projected = cols.conj().T @ applied[:, a:b]
        projected = (projected + projected.conj().T) / 2.0
        sub = eig_hermitian(projected)
        vectors[:, a:b] = cols @ sub.vectors
        for piece in cluster_eigenvalues(sub.values, gap_tol).clusters:
            refined.append(range(a + piece.start, a + piece.stop))
    return refined


def _symmetry_stages(family: CommutingFamily) -> list:
    """Hermitian (S + S*)/2 and anti-Hermitian (S - S*)/2i parts of S_x then
    S_y, in refinement order, each applied as two translations (S* = S^-1)."""
    n = family.n
    stages = []
    for axis in (X_AXIS, Y_AXIS):

        def hermitian_part(v, axis=axis):
            return (translate(v, n, axis, 1) + translate(v, n, axis, -1)) * 0.5

        def anti_hermitian_part(v, axis=axis):
            return (translate(v, n, axis, 1) - translate(v, n, axis, -1)) * -0.5j

        stages += [hermitian_part, anti_hermitian_part]
    return stages


def _assemble(vectors: np.ndarray, family: CommutingFamily) -> SymBasis:
    """Phase-fix, label, and sort a complete set of simultaneous eigenvectors."""
    dim = family.dim
    for j in range(dim):
        vectors[:, j] = fix_phase(vectors[:, j])
    labels = momentum_labels(vectors, family)
    if len(set(labels)) != dim:
        raise MomentumLabelError(
            f"momentum labels are not bijective: {dim - len(set(labels))} collisions"
        )
    order = sorted(range(dim), key=lambda j: labels[j])
    vectors = np.ascontiguousarray(vectors[:, order])
    labels = [labels[j] for j in order]
    energies = _rayleigh_quotients(vectors, family.apply_h(vectors)).real
    sym_eigs = np.stack(
        [
            _rayleigh_quotients(vectors, family.apply_sx(vectors)),
            _rayleigh_quotients(vectors, family.apply_sy(vectors)),
        ],
        axis=1,
    )
    return SymBasis(vectors=vectors, energies=energies, labels=labels, sym_eigs=sym_eigs)


def simultaneous_basis_refine(
    family: CommutingFamily, gap_tol: float | None = None
) -> SymBasis:
    """Simultaneous eigenbasis by sequential subspace refinement.

    Stages: (1) diagonalize H and cluster its eigenvalues; (2) inside every
    degenerate cluster diagonalize the projected Hermitian part of S_x;
    (3) inside remaining sub-clusters the projected anti-Hermitian part of
    S_x; (4) repeat with S_y. Every stage uses only Hermitian
    eigendecompositions of projected blocks.

    Parameters
    ----------
    family : CommutingFamily
    gap_tol : float, optional
        Eigenvalue gap below which values count as degenerate. When omitted,
        each stage uses 1e-9 * ||M||_F / sqrt(dim) of its stage operator M
        (``STAGE_GAP_TOL`` for the translation parts).

    Raises
    ------
    RefinementError
        A block stayed degenerate through all stages, which signals either a
        too-coarse gap_tol or an extra symmetry this procedure does not know.
    """
    if gap_tol is not None and gap_tol <= 0:
        raise ValueError(f"gap_tol must be > 0 (got {gap_tol})")
    base = eig_hermitian(family.h)
    vectors = np.array(base.vectors, dtype=complex)
    tol_h = gap_tol if gap_tol is not None else default_gap_tol(family.h)
    blocks = cluster_eigenvalues(base.values, tol_h).clusters
    tol = gap_tol if gap_tol is not None else STAGE_GAP_TOL
    for apply_operator in _symmetry_stages(family):
        blocks = _refine_within_blocks(vectors, blocks, apply_operator, tol)
    stuck = [(b.start, b.stop) for b in blocks if len(b) > 1]
    if stuck:
        raise RefinementError(
            f"degeneracy unresolved after all refinement stages in column "
            f"blocks {stuck}; gap_tol may be too coarse or the family has an "
            "unexpected extra symmetry"
        )
    return _assemble(vectors, family)


def _normal_eigenbasis(k: np.ndarray, gap_tol: float | None) -> np.ndarray:
    """Orthonormal eigenbasis of a normal matrix.

    Diagonalizes the Hermitian part, then refines degenerate clusters with the
    anti-Hermitian part. The two parts commute for a normal member of a
    commuting algebra, so the result diagonalizes k itself. Clusters that both
    parts leave degenerate are genuine eigenvalue degeneracies of k; their
    columns are returned as an arbitrary orthonormal basis.
    """
    herm = (k + k.conj().T) / 2.0
    anti = (k - k.conj().T) * -0.5j
    base = eig_hermitian(herm)
    vectors = np.array(base.vectors, dtype=complex)
    tol = gap_tol if gap_tol is not None else default_gap_tol(herm)
    blocks = cluster_eigenvalues(base.values, tol).clusters
    tol = gap_tol if gap_tol is not None else default_gap_tol(anti)
    _refine_within_blocks(vectors, blocks, lambda v: anti @ v, tol)
    return vectors


def default_filter_tol(family: CommutingFamily) -> float:
    """Residual acceptance threshold: orders above solver noise, far below O(t) mixing."""
    return FILTER_RTOL * np.linalg.norm(family.h)


def filter_simultaneous(
    candidates,
    family: CommutingFamily,
    filter_tol: float | None = None,
) -> list[tuple[np.ndarray, float, complex, complex]]:
    """Keep the unit-norm candidates that are simultaneous eigenvectors.

    A candidate v is accepted iff ``||M v - (v* M v) v||_2 <= filter_tol`` for
    every M among H, S_x, S_y. Returns ``(vector, h_eig, sx_eig, sy_eig)``
    with the Rayleigh quotients as eigenvalues; an empty list is valid output.
    """
    if filter_tol is None:
        filter_tol = default_filter_tol(family)
    accepted = []
    for v in candidates:
        v = np.asarray(v)
        quotients = []
        for apply_operator in (family.apply_h, family.apply_sx, family.apply_sy):
            mv = apply_operator(v)
            mu = np.vdot(v, mv)
            if np.linalg.norm(mv - mu * v) > filter_tol:
                break
            quotients.append(mu)
        else:
            accepted.append((v, float(quotients[0].real), quotients[1], quotients[2]))
    return accepted


def simultaneous_basis_combination(
    family: CommutingFamily,
    gap_tol: float | None = None,
    filter_tol: float | None = None,
) -> SymBasis:
    """Simultaneous eigenbasis through the combination matrices.

    Candidate vectors are the eigenbases of H(S_x - S_y) and S_x(H - S_y);
    whenever one of those matrices has a simple eigenvalue at some momentum,
    the corresponding eigenvector is automatically a simultaneous eigenvector
    of the whole family. Candidates are screened with
    :func:`filter_simultaneous` and one survivor is kept per momentum label.

    Raises
    ------
    CandidateDeficitError
        Fewer than n^2 labels were recovered: both combination spectra are
        degenerate at the missing momenta for these (alpha, t, n). The
        refinement method remains the reliable path.
    """
    k1, k2 = combination_matrices(family)
    candidates = np.hstack(
        [_normal_eigenbasis(k1, gap_tol), _normal_eigenbasis(k2, gap_tol)]
    )
    accepted = filter_simultaneous(candidates.T, family, filter_tol)
    n = family.n
    angle_tol = (2.0 * math.pi / n) * ANGLE_RTOL
    chosen: dict[MomentumIndex, np.ndarray] = {}
    for column, (v, _h_eig, sx_eig, sy_eig) in enumerate(accepted):
        s = _phase_index(sx_eig, n, angle_tol, "x-translation", column)
        r = _phase_index(sy_eig, n, angle_tol, "y-translation", column)
        chosen.setdefault(MomentumIndex(r, s), v)
    dim = family.dim
    if len(chosen) < dim:
        raise CandidateDeficitError(
            f"combination method recovered {len(chosen)} of {dim} momentum "
            f"labels (deficit {dim - len(chosen)}): degenerate combination "
            "spectrum for these parameters; use the refinement method"
        )
    vectors = np.stack([chosen[label] for label in sorted(chosen)], axis=1)
    return _assemble(vectors, family)


def verify_basis(
    basis: SymBasis, family: CommutingFamily, spec: LatticeSpec
) -> VerificationReport:
    """Quality metrics of a computed basis against the closed-form solution.

    Residuals use the basis's own Rayleigh-quotient eigenvalues; the
    eigenvalue and entrywise errors compare against the closed-form values at
    each column's momentum label, with the analytic vector phase-aligned to
    the computed column before the entrywise comparison.
    """
    dim = family.dim
    if basis.dim != dim:
        raise ValueError(f"basis has {basis.dim} columns, expected {dim}")
    # One memory layout whatever the caller's: the column norms below round
    # differently over C- and F-ordered input.
    v = np.ascontiguousarray(basis.vectors)
    residuals = {}
    for key, apply_operator, eigs in (
        ("h", family.apply_h, basis.energies),
        ("sx", family.apply_sx, basis.sym_eigs[:, 0]),
        ("sy", family.apply_sy, basis.sym_eigs[:, 1]),
    ):
        residuals[key] = float(np.linalg.norm(apply_operator(v) - v * eigs, axis=0).max())
    orth = float(np.abs(v.conj().T @ v - np.eye(dim)).max())
    eig_err = 0.0
    entry_err = 0.0
    for j, label in enumerate(basis.labels):
        eig_err = max(eig_err, abs(basis.energies[j] - analytic_eigenvalue(spec, label)))
        exact = analytic_eigenvector(spec, label)
        overlap = np.vdot(exact, v[:, j])
        if abs(overlap) > 0.0:
            exact = exact * (overlap / abs(overlap))
        diff = exact - v[:, j]
        entry_err = max(entry_err, np.abs(diff.real).max(), np.abs(diff.imag).max())
    return VerificationReport(
        max_residual_h=residuals["h"],
        max_residual_sx=residuals["sx"],
        max_residual_sy=residuals["sy"],
        max_orthogonality_defect=orth,
        max_eigenvalue_error=float(eig_err),
        max_entrywise_vector_error=float(entry_err),
    )
