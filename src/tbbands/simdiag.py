"""Simultaneous eigenbasis of the Hamiltonian and its translation operators.

A generic dense eigensolver applied to H alone returns an arbitrary
orthonormal basis inside every degenerate eigenspace, and such vectors carry
no momentum label. The routines here resolve the ambiguity in two ways:

* :func:`simultaneous_basis_refine` (default): diagonalize the real H, then
  within each degenerate cluster diagonalize the projection of one
  phase-rotated Hermitian part of S_x, then of S_y. Only Hermitian
  eigendecompositions are ever needed: the rotated part
  (e^{i phi} S + e^{-i phi} S*)/2 with phi = pi/(2n) has n distinct
  eigenvalues, so one stage per axis pins each translation eigenvalue uniquely
  on the unit circle. S_x and S_y are projected once onto each cluster of H's
  eigenvectors; the stages then act on the clusters' k x k coordinates, all
  blocks of one size in one stacked call, and the complex basis is formed
  once, from the final coordinates.

* :func:`simultaneous_basis_combination`: diagonalize the two product matrices
  H(S_x - S_y) and S_x(H - S_y) (both normal, handled through their commuting
  Hermitian/anti-Hermitian parts) and keep only those eigenvectors that are
  simultaneous eigenvectors of H, S_x and S_y. Works whenever the combination
  spectra are simple enough; fails explicitly otherwise.

Each accepted column gets a deterministic phase (designated anchor entry real
positive) and a momentum label recovered from its translation eigenvalues.
"""

from __future__ import annotations

import cmath
import functools
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
# fall back to the first entry whose modulus is within ANCHOR_TIE_RTOL of the
# largest. Rotating a column moves its moduli by a few ulps, so an exact
# argmax could jump between near-equal entries and fix_phase would not be
# idempotent.
ANCHOR_FLOOR = 1e-6
ANCHOR_TIE_RTOL = 1e-8

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
    first entry within ANCHOR_TIE_RTOL of the largest modulus. For a (dim, k)
    block, one index per column.
    """
    v = np.asarray(v)
    block = v.reshape(v.shape[0], -1)
    anchor = np.zeros(block.shape[1], dtype=int)
    tiny = np.flatnonzero(~(np.abs(block[0]) >= ANCHOR_FLOOR / math.sqrt(v.shape[0])))
    if tiny.size:
        modulus = np.abs(block[:, tiny])
        near_largest = modulus >= (1.0 - ANCHOR_TIE_RTOL) * modulus.max(axis=0)
        anchor[tiny] = np.argmax(near_largest, axis=0)
    return int(anchor[0]) if v.ndim == 1 else anchor


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase of a unit vector, or of each column of a (dim, k)
    block, so that its anchor entry is real positive.

    The anchor is the first entry unless that is numerically zero, in which
    case the first entry of (nearly) the largest modulus is used instead; see
    :func:`phase_anchor`. An already-real-positive anchor leaves the column
    unchanged.
    """
    v = np.asarray(v, dtype=complex)
    block = v.reshape(v.shape[0], -1)
    return (block * _phase_factors(block)).reshape(v.shape)


def _phase_factors(block: np.ndarray) -> np.ndarray:
    """The unit factors by which :func:`fix_phase` rotates the columns of a block."""
    anchors = phase_anchor(block)
    a = block[anchors, np.arange(block.shape[1])]
    zero = np.flatnonzero(a == 0)
    if zero.size:
        raise ValueError(f"column {zero[0]} is a zero vector and has no phase to fix")
    fallbacks = np.count_nonzero(anchors)
    if fallbacks:
        logger.debug("phase anchor fell back to the largest entry in %d columns", fallbacks)
    return a.conj() / np.abs(a)


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
    """Per-column v_j* (M v)_j for ``applied`` = M v, of a (dim, k) block or
    of each matrix of a (..., dim, k) stack, against which ``v`` broadcasts.

    Each column's products are summed pairwise along a contiguous axis, with
    rounding error O(log(dim) eps); a running sum (einsum) errs by
    O(dim eps), which at n = 30 uses most of the eigenvalue-error bound.
    """
    products = np.empty(np.swapaxes(applied, -1, -2).shape, dtype=complex)
    np.conjugate(np.swapaxes(v, -1, -2), out=products)
    products *= np.swapaxes(applied, -1, -2)
    return products.sum(axis=-1)


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
    sym_eigs = np.stack(
        [_rayleigh_quotients(v, family.apply_sx(v)), _rayleigh_quotients(v, family.apply_sy(v))],
        axis=1,
    )
    r, s = _momentum_indices(sym_eigs, family.n, angle_tol)
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


def _stage(translation: np.ndarray, n: int) -> np.ndarray:
    """The refinement stage of a real translation S, dense or projected.

    Returns M = (e^{i phi} S + e^{-i phi} S^T)/2 with phi = pi/(2n) (S^T is
    S* = S^-1). A column with S-eigenvalue exp(-2*pi*i*k/n) has M-eigenvalue
    cos(2*pi*k/n - phi), and two momenta k != j could share it only if
    k + j = 1/2 (mod n): one stage pins the whole translation eigenvalue.
    ``translation`` may also be a (..., k, k) stack of projections Q^T S Q
    with Q real; their stages are the projections Q^T M Q, since
    Q^T S^T Q = (Q^T S Q)^T.
    """
    rotation = 0.5 * cmath.exp(0.5j * math.pi / n)
    return rotation * translation + rotation.conjugate() * np.swapaxes(translation, -1, -2)


@dataclass(frozen=True, eq=False)
class _BlockGroup:
    """The H-blocks of one size k, in the real eigenvectors Q of H.

    ``cols`` (m, k) holds each block's columns; ``q`` (m, dim, k) their
    columns of Q; ``projected`` (2, m, k, k) the projections Q_b^T S Q_b of
    S_x and of S_y.
    """

    cols: np.ndarray
    q: np.ndarray
    projected: np.ndarray


def _block_groups(q: np.ndarray, blocks: list[range], n: int) -> list[_BlockGroup]:
    """Gather the blocks of each size from Q and project both translations onto them."""
    # (S Q)[i] = Q[p[i]] for the site permutation p of each translation.
    sites = np.arange(q.shape[0])
    perms = np.stack([translate(sites, n, X_AXIS, 1), translate(sites, n, Y_AXIS, 1)])
    sizes = np.array([len(b) for b in blocks])
    starts = np.array([b.start for b in blocks])
    groups = []
    for k in np.unique(sizes).tolist():
        cols = starts[sizes == k, None] + np.arange(k)
        gathered = q[:, cols]
        qb = gathered.transpose(1, 0, 2)
        shifted = gathered[perms].transpose(0, 2, 1, 3)
        groups.append(_BlockGroup(cols=cols, q=qb, projected=qb.transpose(0, 2, 1) @ shifted))
    return groups


def _apply_within_blocks(coords: np.ndarray, parts) -> np.ndarray:
    """Multiply each H-block's coordinates by that block's (k, k) matrix.

    ``coords`` is (k_max, dim): block j's coordinates sit in the first k_j
    rows of its columns. ``parts`` pairs each group's ``cols`` with an
    (..., m, k, k) stack, the same leading shape for every group; one
    batched product per block size, returned as (..., k_max, dim).
    """
    out = np.zeros(parts[0][1].shape[:-3] + coords.shape, dtype=complex)
    for cols, matrices in parts:
        k = cols.shape[1]
        applied = matrices @ coords[:k, cols].transpose(1, 0, 2)
        out[..., :k, cols] = np.swapaxes(applied, -3, -2)
    return out


def _assemble(
    vectors: np.ndarray, sym_eigs: np.ndarray, labels: list[MomentumIndex], family: CommutingFamily
) -> SymBasis:
    """Phase-fix a complete set of simultaneous eigenvectors and compute their energies.

    The columns of ``vectors`` come in label order, with their (x, y)
    translation eigenvalues in ``sym_eigs`` and their ``labels`` as computed
    by the caller; their phases are fixed in place, as :func:`fix_phase`
    would fix them.
    """
    vectors *= _phase_factors(vectors)
    energies = _rayleigh_quotients(vectors, family.apply_h(vectors)).real
    return SymBasis(vectors=vectors, energies=energies, labels=labels, sym_eigs=sym_eigs)


def simultaneous_basis_refine(
    family: CommutingFamily, gap_tol: float | None = None
) -> SymBasis:
    """Simultaneous eigenbasis by sequential subspace refinement.

    Stages: (1) diagonalize the real H and cluster its eigenvalues; (2) inside
    every degenerate cluster diagonalize the projection of the phase-rotated
    Hermitian part (e^{i phi} S_x + e^{-i phi} S_x*)/2, phi = pi/(2n), whose
    eigenvalue fixes the x-translation eigenvalue; (3) inside remaining
    sub-clusters the same for S_y. After the one dense eigensolve every stage
    works in the blocks' own coordinates: S_x and S_y are projected once onto
    each block of H's real eigenvectors Q, the stages are (k, k) Hermitian
    eigendecompositions of those projections, one stacked call per block size,
    and the translation eigenvalues are quotients of the coordinates. The
    complex basis, Q times the coordinates, is formed once at the end.

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
    n, dim = family.n, family.dim
    base = eig_hermitian(family.h)
    tol_h = gap_tol if gap_tol is not None else default_gap_tol(family.h)
    blocks = cluster_eigenvalues(base.values, tol_h).clusters
    groups = _block_groups(base.vectors, blocks, n)
    # Block j's coordinates in its own columns of Q start as the identity.
    sizes = [len(b) for b in blocks]
    coords = np.zeros((max(sizes), dim), dtype=complex)
    coords[np.arange(dim) - np.repeat([b.start for b in blocks], sizes), np.arange(dim)] = 1.0
    tol = gap_tol if gap_tol is not None else STAGE_GAP_TOL
    stages = [(g.cols, _stage(g.projected, n)) for g in groups if g.cols.shape[1] > 1]
    for axis in (0, 1):
        parts = [(cols, stage[axis]) for cols, stage in stages]
        blocks = _refine_within_blocks(
            coords, blocks, functools.partial(_apply_within_blocks, parts=parts), tol
        )
    stuck = [(b.start, b.stop) for b in blocks if len(b) > 1]
    if stuck:
        raise RefinementError(
            f"degeneracy unresolved after all refinement stages in column "
            f"blocks {stuck}; gap_tol may be too coarse or the family has an "
            "unexpected extra symmetry"
        )
    applied = _apply_within_blocks(coords, [(g.cols, g.projected) for g in groups])
    sym_eigs = _rayleigh_quotients(coords, applied).T
    r, s = _momentum_indices(sym_eigs, n)
    codes = r * n + s
    collisions = dim - np.unique(codes).size
    if collisions:
        raise MomentumLabelError(
            f"momentum labels are not bijective: {collisions} collisions"
        )
    order = np.argsort(codes)
    # The basis is written once, each column straight into its label's place;
    # real Q times complex coordinates is one real product per block size.
    position = np.empty_like(order)
    position[order] = np.arange(dim)
    vectors = np.empty((dim, dim), dtype=complex)
    for g in groups:
        k = g.cols.shape[1]
        dest = position[g.cols]
        if k == 1:
            vectors[:, dest[:, 0]] = g.q[:, :, 0].T
        else:
            c = np.ascontiguousarray(coords[:k, g.cols].transpose(1, 0, 2))
            vectors[:, dest] = (g.q @ c.view(float)).view(complex).transpose(1, 0, 2)
    labels = list(map(MomentumIndex, r[order].tolist(), s[order].tolist()))
    # Free Q and its gathered blocks before the energies take their temporaries.
    del base, groups
    return _assemble(vectors, sym_eigs[order], labels, family)


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
    sym_eigs = np.array(
        [(sx_eig, sy_eig) for _v, _h, sx_eig, sy_eig in accepted], dtype=complex
    ).reshape(-1, 2)
    r, s = _momentum_indices(sym_eigs, family.n)
    chosen: dict[MomentumIndex, int] = {}
    for j, label in enumerate(map(MomentumIndex, r.tolist(), s.tolist())):
        chosen.setdefault(label, j)
    dim = family.dim
    if len(chosen) < dim:
        raise CandidateDeficitError(
            f"combination method recovered {len(chosen)} of {dim} momentum "
            f"labels (deficit {dim - len(chosen)}): degenerate combination "
            "spectrum for these parameters; use the refinement method"
        )
    labels = sorted(chosen)
    keep = [chosen[label] for label in labels]
    vectors = np.stack([accepted[j][0] for j in keep], axis=1)
    return _assemble(vectors, sym_eigs[keep], labels, family)


def _max_residual(applied: np.ndarray, v: np.ndarray, eigs: np.ndarray) -> float:
    """Largest column 2-norm of ``applied - v * eigs``, computed in ``applied``.

    ``applied`` must be a C-ordered complex (dim, k) array; it is overwritten.
    """
    applied -= v * eigs
    parts = applied.view(float)
    np.square(parts, out=parts)
    squares = parts[:, 0::2]
    squares += parts[:, 1::2]
    return float(np.sqrt(np.add.reduce(squares, axis=0).max()))


def _orthogonality_defect(v: np.ndarray) -> float:
    """max |V* V - I| in real arithmetic.

    For V = A + iB, V* V - I = (A^T A + B^T B - I) + i(A^T B - (A^T B)^T):
    half the flops of the complex product, since numpy forms A^T A and B^T B
    as symmetric rank-k updates. A and B are freed before the antisymmetric
    part is formed, to bound the peak allocation.
    """
    a = np.ascontiguousarray(v.real)
    b = np.ascontiguousarray(v.imag)
    gram = a.T @ a
    gram += b.T @ b
    cross = a.T @ b
    del a, b
    gram[np.diag_indices_from(gram)] -= 1.0
    cross -= cross.T
    gram *= gram
    cross *= cross
    gram += cross
    return float(np.sqrt(gram.max()))


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
    # differently over C- and F-ordered input, and _max_residual needs C order.
    v = np.ascontiguousarray(basis.vectors, dtype=complex)
    residuals = {}
    for key, apply_operator, eigs in (
        ("h", family.apply_h, basis.energies),
        ("sx", family.apply_sx, basis.sym_eigs[:, 0]),
        ("sy", family.apply_sy, basis.sym_eigs[:, 1]),
    ):
        residuals[key] = _max_residual(apply_operator(v), v, eigs)
    orth = _orthogonality_defect(v)
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
