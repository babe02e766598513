"""Simultaneous eigenbasis of the Hamiltonian and its translation operators.

A generic dense eigensolver applied to H alone returns an arbitrary
orthonormal basis inside every degenerate eigenspace, and such vectors carry
no momentum label. The routines here resolve the ambiguity in two ways:

* :func:`simultaneous_basis_refine` (default): diagonalize H, then within each
  degenerate cluster diagonalize the projection of one phase-rotated
  Hermitian part of S_x, then of S_y. Only Hermitian eigendecompositions are
  ever needed: the rotated part (e^{i phi} S + e^{-i phi} S*)/2 with
  phi = pi/(2n) has n distinct eigenvalues, so one stage per axis pins each
  translation eigenvalue uniquely on the unit circle. All blocks of one size
  are decomposed together in one stacked call.

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
# operator (e^{i phi} S + e^{-i phi} S*)/2, whose Frobenius scale
# ||M||_F / sqrt(dim) is sqrt(1/2) for every n >= 3 (two entries of modulus
# 1/2 per row).
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


def phase_anchor(v: np.ndarray) -> int | np.ndarray:
    """Index of the entry whose phase gets rotated away by :func:`fix_phase`.

    The first entry, unless it is below ANCHOR_FLOOR/sqrt(dim); then the
    largest-modulus entry. For a (dim, k) block, one index per column.
    """
    v = np.asarray(v)
    modulus = np.abs(v)
    anchor = np.where(
        modulus[0] >= ANCHOR_FLOOR / math.sqrt(v.shape[0]), 0, np.argmax(modulus, axis=0)
    )
    return int(anchor) if v.ndim == 1 else anchor


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase of a unit vector, or of each column of a (dim, k)
    block, so that its anchor entry is real positive.

    The anchor is the first entry unless that is numerically zero (see
    :func:`phase_anchor`), in which case the largest-modulus entry is used
    instead. An already-real-positive anchor leaves the column unchanged.
    """
    v = np.asarray(v, dtype=complex)
    block = v.reshape(v.shape[0], -1)
    anchors = phase_anchor(block)
    a = block[anchors, np.arange(block.shape[1])]
    zero = np.flatnonzero(a == 0)
    if zero.size:
        raise ValueError(f"column {zero[0]} is a zero vector and has no phase to fix")
    fallbacks = np.count_nonzero(anchors)
    if fallbacks:
        logger.debug("phase anchor fell back to the largest entry in %d columns", fallbacks)
    return (block * (a.conj() / np.abs(a))).reshape(v.shape)


def _momentum_indices(
    sym_eigs: np.ndarray, n: int, angle_tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Integer labels (r, s) of the rows of a (k, 2) array of (x, y) translation eigenvalues.

    The x-translation resolves s and the y-translation r. Raises
    :class:`MomentumLabelError` naming the first column whose eigenvalue is
    off the unit circle or off the 2*pi/n grid.
    """
    if angle_tol is None:
        angle_tol = (2.0 * math.pi / n) * ANGLE_RTOL
    indices = []
    for lam, axis in ((sym_eigs[:, 0], "x-translation"), (sym_eigs[:, 1], "y-translation")):
        modulus = np.abs(lam)
        off_circle = np.flatnonzero(~(np.abs(modulus - 1.0) <= UNIT_CIRCLE_TOL))
        if off_circle.size:
            j = off_circle[0]
            raise MomentumLabelError(
                f"column {j}: {axis} eigenvalue has modulus {modulus[j]:.6f}, "
                "off the unit circle (basis is not simultaneous)"
            )
        # The translation advances the site index, so a momentum-k mode picks
        # up exp(-2*pi*i*k/n); negate the phase to recover k.
        grid_pos = -n * np.angle(lam) / (2.0 * math.pi)
        k = np.round(grid_pos)
        off_grid = np.flatnonzero(np.abs(grid_pos - k) * (2.0 * math.pi / n) > angle_tol)
        if off_grid.size:
            j = off_grid[0]
            raise MomentumLabelError(
                f"column {j}: {axis} eigenvalue angle is "
                f"{abs(grid_pos[j] - k[j]):.3e} grid units off the 2*pi/{n} lattice"
            )
        indices.append(k.astype(int) % n)
    s, r = indices
    return r, s


def _rayleigh_quotients(v: np.ndarray, applied: np.ndarray) -> np.ndarray:
    """Per-column v_j* (M v)_j for ``applied`` = M v.

    Each column's products are summed pairwise along a contiguous axis, with
    rounding error O(log(dim) eps); a running sum (einsum) errs by
    O(dim eps), which at n = 30 uses most of the eigenvalue-error bound.
    """
    return np.ascontiguousarray((v.conj() * applied).T).sum(axis=1)


def _translation_eigs(v: np.ndarray, family: CommutingFamily) -> np.ndarray:
    """(k, 2) Rayleigh quotients of the columns under (S_x, S_y)."""
    return np.stack(
        [
            _rayleigh_quotients(v, family.apply_sx(v)),
            _rayleigh_quotients(v, family.apply_sy(v)),
        ],
        axis=1,
    )


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
    r, s = _momentum_indices(_translation_eigs(v, family), family.n, angle_tol)
    return list(map(MomentumIndex, r.tolist(), s.tolist()))


def _refine_within_blocks(
    vectors: np.ndarray,
    blocks: list[range],
    apply_operator,
    gap_tol: float,
) -> list[range]:
    """Diagonalize the projection of one Hermitian operator inside each block.

    ``apply_operator`` maps a (dim, k) block of columns to the operator times
    it; it is applied once to all columns. The blocks of each size k > 1 are
    gathered into an (m, dim, k) stack, projected, decomposed by one stacked
    :func:`eig_hermitian` call and rotated back into their own columns of
    ``vectors``, in place. Blocks of size one are left untouched. Returns the
    refined block partition, in column order.
    """
    applied = apply_operator(vectors)
    sizes = np.array([len(b) for b in blocks])
    starts = np.array([b.start for b in blocks])
    # new_block[j]: column j opens a block of the refined partition
    new_block = np.zeros(vectors.shape[1], dtype=bool)
    new_block[starts] = True
    for k in np.unique(sizes[sizes > 1]).tolist():
        cols = starts[sizes == k, None] + np.arange(k)
        stack = vectors[:, cols].transpose(1, 0, 2)
        projected = stack.conj().transpose(0, 2, 1) @ applied[:, cols].transpose(1, 0, 2)
        projected = (projected + projected.conj().transpose(0, 2, 1)) / 2.0
        sub = eig_hermitian(projected)
        vectors[:, cols] = (stack @ sub.vectors).transpose(1, 0, 2)
        new_block[cols[:, 1:]] = np.diff(sub.values, axis=1) > gap_tol
    edges = np.append(np.flatnonzero(new_block), vectors.shape[1]).tolist()
    return [range(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _symmetry_stages(n: int) -> list:
    """One Hermitian stage operator per axis, S_x then S_y, in refinement order.

    Each is M = (e^{i phi} S + e^{-i phi} S*)/2 with phi = pi/(2n), applied
    as two translations (S* = S^-1). A column with S-eigenvalue
    exp(-2*pi*i*k/n) has M-eigenvalue cos(2*pi*k/n - phi), and two momenta
    k != j could share it only if k + j = 1/2 (mod n): one stage pins the
    whole translation eigenvalue.
    """
    rotation = 0.5 * np.exp(0.5j * math.pi / n)
    stages = []
    for axis in (X_AXIS, Y_AXIS):

        def rotated_part(v, axis=axis):
            out = rotation * translate(v, n, axis, 1)
            out += rotation.conjugate() * translate(v, n, axis, -1)
            return out

        stages.append(rotated_part)
    return stages


def _assemble(vectors: np.ndarray, family: CommutingFamily) -> SymBasis:
    """Phase-fix, label, and sort a complete set of simultaneous eigenvectors."""
    n, dim = family.n, family.dim
    vectors = fix_phase(vectors)
    sym_eigs = _translation_eigs(vectors, family)
    r, s = _momentum_indices(sym_eigs, n)
    codes = r * n + s
    collisions = dim - np.unique(codes).size
    if collisions:
        raise MomentumLabelError(
            f"momentum labels are not bijective: {collisions} collisions"
        )
    order = np.argsort(codes)
    vectors = np.ascontiguousarray(vectors[:, order])
    labels = [MomentumIndex(*divmod(code, n)) for code in codes[order].tolist()]
    energies = _rayleigh_quotients(vectors, family.apply_h(vectors)).real
    return SymBasis(
        vectors=vectors, energies=energies, labels=labels, sym_eigs=sym_eigs[order]
    )


def simultaneous_basis_refine(
    family: CommutingFamily, gap_tol: float | None = None
) -> SymBasis:
    """Simultaneous eigenbasis by sequential subspace refinement.

    Stages: (1) diagonalize H and cluster its eigenvalues; (2) inside every
    degenerate cluster diagonalize the projection of the phase-rotated
    Hermitian part (e^{i phi} S_x + e^{-i phi} S_x*)/2, phi = pi/(2n), whose
    eigenvalue fixes the x-translation eigenvalue; (3) inside remaining
    sub-clusters the same for S_y. Every stage uses only Hermitian
    eigendecompositions of projected blocks, one stacked call per block size.

    Parameters
    ----------
    family : CommutingFamily
    gap_tol : float, optional
        Eigenvalue gap below which values count as degenerate. When omitted,
        each stage uses 1e-9 * ||M||_F / sqrt(dim) of its stage operator M
        (``STAGE_GAP_TOL`` for the rotated translation parts).

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
    for apply_operator in _symmetry_stages(family.n):
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
    sym_eigs = np.array([(sx_eig, sy_eig) for _v, _h, sx_eig, sy_eig in accepted], dtype=complex)
    r, s = _momentum_indices(sym_eigs.reshape(-1, 2), family.n)
    chosen: dict[MomentumIndex, np.ndarray] = {}
    for label, (v, *_eigs) in zip(map(MomentumIndex, r.tolist(), s.tolist()), accepted):
        chosen.setdefault(label, v)
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
    exact_energies = np.array([analytic_eigenvalue(spec, label) for label in basis.labels])
    eig_err = float(np.abs(basis.energies - exact_energies).max())
    exact = np.stack([analytic_eigenvector(spec, label) for label in basis.labels], axis=1)
    # Align each oracle vector's phase to its computed column.
    overlap = _rayleigh_quotients(exact, v)
    modulus = np.abs(overlap)
    exact *= np.divide(overlap, modulus, out=np.ones_like(overlap), where=modulus > 0.0)
    exact -= v
    entry_err = float(max(np.abs(exact.real).max(), np.abs(exact.imag).max()))
    return VerificationReport(
        max_residual_h=residuals["h"],
        max_residual_sx=residuals["sx"],
        max_residual_sy=residuals["sy"],
        max_orthogonality_defect=orth,
        max_eigenvalue_error=eig_err,
        max_entrywise_vector_error=entry_err,
    )
