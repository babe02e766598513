"""Simultaneous eigenbasis of the Hamiltonian and its translation operators.

A generic dense eigensolver applied to H alone returns an arbitrary
orthonormal basis inside every degenerate eigenspace, and such vectors carry
no momentum label. The routines here resolve the ambiguity in two ways:

* :func:`simultaneous_basis_refine` (default): H = alpha I - t A, with A the
  parameter-free hopping operator, so the basis is solved for A alone and
  alpha and t only set the energies, alpha - t lambda with lambda the A
  eigenvalue. Diagonalize the real A, then within each degenerate cluster
  diagonalize the projection of one phase-rotated Hermitian part of S_x, then
  of S_y. Only Hermitian eigendecompositions are ever needed: the rotated part
  (e^{i phi} S + e^{-i phi} S*)/2 with phi = pi/(2n) has n distinct
  eigenvalues, so one stage per axis pins each translation eigenvalue uniquely
  on the unit circle. S_x and S_y are projected once onto each cluster of A's
  eigenvectors; the stages then act on the clusters' k x k coordinates, all
  blocks of one size in one stacked call, and the complex basis is formed
  once, from the final coordinates, which also give each column's lambda.
  Every tolerance is a constant of the operator it clusters, and the block
  partition depends on n alone.

  A itself is diagonalized by :func:`sector_eigh`, in the blocks of its
  explicit lattice symmetries: the site reflections q -> -q and p -> -p,
  at even n the half-shifts q -> q + n/2 and p -> p + n/2, and the
  diagonal swap (p, q) -> (q, p). The reflections, and the half-shifts at
  even n, split each ring into factors (two at odd n, four at even n); A
  maps each product of two ring factors into itself, as the Kronecker sum of
  the two rings' hoppings, and the swap maps F (x) G onto G (x) F and splits
  each F (x) F into a swap-even and a swap-odd half. So the dense eigensolve
  of dim runs as blocks of about dim/4 and dim/8 at odd n (five blocks) and
  dim/16 and dim/32 at even n (at most fourteen), and each mirror
  G (x) F takes F (x) G's eigenpairs. The reflections and the swap do not
  commute with the translations, so a symmetry-adapted eigenvector carries
  no momentum: each block's solver still returns an arbitrary basis inside
  its degenerate subspaces (the (r, s) and (s, r) modes, say), and a cluster
  of A spans several blocks. A half-shift parity is the parity of a
  momentum component, but it is used only to sum the projections of S_x and
  S_y over a quarter of the lattice (the fundamental domain of the two
  half-shifts, weighted by the columns' parities); every momentum label
  still comes from the translation stages.

* :func:`simultaneous_basis_combination`: diagonalize the two product matrices
  H(S_x - S_y) and S_x(H - S_y) (both normal, handled through their commuting
  Hermitian/anti-Hermitian parts) and keep only those eigenvectors that are
  simultaneous eigenvectors of H, S_x and S_y. The screen
  (:func:`filter_simultaneous`) applies A, S_x and S_y to CHUNK candidates at
  a time, takes H's residual as |t| times A's, and its Rayleigh quotients give
  each kept column's translation eigenvalues and its energy alpha - t (v* A v).
  Works whenever the combination spectra are simple enough; fails explicitly
  otherwise.

Each accepted column gets a deterministic phase (first entry real positive)
and a momentum label recovered from its translation eigenvalues by
:func:`momentum_labels`, the one labelling step of both methods.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import (
    analytic_energies,
    analytic_eigenvector,
    analytic_eigenvectors,
    label_codes,
)
from .eigen import EigenDecomposition, cluster_eigenvalues, default_gap_tol, eig_hermitian
from .model import (
    X_AXIS,
    Y_AXIS,
    CommutingFamily,
    LatticeSpec,
    apply_hopping,
    hamiltonian_norm,
    ring_factors,
    translate,
)

# Below ANCHOR_FLOOR/sqrt(dim) the first entry is too small to define a
# phase. Every momentum eigenvector has entries of modulus 1/sqrt(dim).
ANCHOR_FLOOR = 1e-6

# Residual acceptance threshold factor for filter_simultaneous, 1e-8 * ||H||_F,
# against the residuals of S_x, S_y and H, the last taken as |t| times A's.
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

# Gap tolerance of the hopping operator A's eigenvalues: default_gap_tol of A,
# 1e-9 * ||A||_F / sqrt(dim), where ||A||_F = 2n for every n >= 3 (four unit
# entries at distinct columns per row), so the scale is 2 at every size.
HOPPING_GAP_TOL = 2e-9

# Columns per chunk of the passes over a whole basis: the combination
# method's screen, and the residuals, the oracle comparison and the
# orthogonality estimate in verify_basis. Each chunk's temporaries stay a
# fraction of the (dim, dim) basis.
CHUNK = 128

# verify_basis takes its residuals, phase overlaps and orthogonality estimate
# from the plane-wave transform at every n. Only its oracle plane waves, for
# the entrywise error, are formed two ways: in one analytic_eigenvectors
# broadcast per chunk from this dimension (n = 5) up, and by one
# analytic_eigenvector call per column below it; both give the same bits.
# The broadcast halves verify at n = 5..16, where the per-column calls are
# most of its time. The per-column branch serves n <= 4 only because the
# benchmark's tracer test counts its 16 calls at n = 4.
BULK_ORACLE_MIN_DIM = 25


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

    ``vectors[:, j]`` is a simultaneous eigenvector, its first entry real
    positive; ``energies[j]`` its energy alpha - t lambda_j, with lambda_j its
    eigenvalue under the hopping operator A as the solver computed it (the
    refine method from its block coordinates, the combination method as the
    Rayleigh quotient v_j* A v_j); ``labels`` a (dim, 2) integer array whose
    row j is the column's momentum index (r, s); ``sym_eigs[j]`` the pair of
    unit-modulus translation eigenvalues (x-translation, y-translation).
    """

    vectors: np.ndarray
    energies: np.ndarray
    labels: np.ndarray
    sym_eigs: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class VerificationReport:
    """Per-column maxima of the basis-quality metrics (each >= 0, or NaN)."""

    max_residual_h: float
    max_residual_sx: float
    max_residual_sy: float
    max_orthogonality_defect: float
    max_eigenvalue_error: float
    max_entrywise_vector_error: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def combination_matrices(
    family: CommutingFamily,
) -> tuple[np.ndarray, np.ndarray]:
    """The two dense complex products H(S_x - S_y) and S_x(H - S_y).

    Both are members of the commuting algebra generated by the family, hence
    normal and simultaneously diagonalizable with it. Each is the family's
    operators applied to the columns of the identity: every entry sums at most
    two nonzero terms, so both equal the dense matrix products exactly. K2 is
    formed as H S_x - S_x S_y, since [H, S_x] = 0 exactly, so no dense H is made.
    """
    eye = np.eye(family.dim, dtype=complex)
    sx = family.apply_sx(eye)
    sy = family.apply_sy(eye)
    del eye
    k2 = family.apply_h(sx)
    k2 -= family.apply_sx(sy)
    sx -= sy
    del sy
    return family.apply_h(sx), k2


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase of a unit vector, or of each column of a (dim, k)
    block, so that its first entry is real positive.

    A column whose first entry is already real positive is unchanged. Raises
    ValueError naming the first column whose first entry is below
    ANCHOR_FLOOR/sqrt(dim), zero included.
    """
    v = np.asarray(v, dtype=complex)
    block = v.reshape(v.shape[0], -1)
    return (block * _phase_factors(block)).reshape(v.shape)


def _phase_factors(block: np.ndarray) -> np.ndarray:
    """The unit factors by which :func:`fix_phase` rotates the columns of a block."""
    a = block[0]
    modulus = np.abs(a)
    floor = ANCHOR_FLOOR / math.sqrt(block.shape[0])
    tiny = np.flatnonzero(~(modulus >= floor))
    if tiny.size:
        j = tiny[0]
        raise ValueError(
            f"column {j}: first entry has modulus {modulus[j]:.3g}, below {floor:.3g}; "
            "no phase to fix"
        )
    return a.conj() / modulus


def momentum_labels(sym_eigs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer labels (r, s) of the rows of a (k, 2) array of (x, y) translation eigenvalues.

    The x-translation (in-block shift) resolves s and the y-translation (block
    shift) resolves r, each through the negative of the eigenvalue phase. This
    sign and axis assignment is pinned by the analytic-vector regression test
    at n=4; see tests/test_simdiag.py. Raises :class:`MomentumLabelError`
    naming the first column whose eigenvalue is off the unit circle or off the
    2*pi/n grid.
    """
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
        off_grid = np.flatnonzero(np.abs(grid_pos - k) > ANGLE_RTOL)
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


def _swap_pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices into the m x m coordinates of F (x) F: the diagonal (a, a),
    and the pairs (a, b) and (b, a) for a < b, which the swap exchanges."""
    grid = np.arange(m * m).reshape(m, m)
    upper = np.arange(m)[:, None] < np.arange(m)
    return grid.diagonal(), grid[upper], grid.T[upper]


def _swap_fold(full: np.ndarray, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The swap-even and swap-odd halves of a block over F (x) F.

    ``full`` is the (m^2, m^2) block and ``pairs`` is :func:`_swap_pairs` of
    m. The halves are its projections onto the orthonormal columns e_(a,a)
    and (e_(a,b) + e_(b,a))/sqrt(2), and onto (e_(a,b) - e_(b,a))/sqrt(2),
    a < b, in that order: sizes m(m+1)/2 and m(m-1)/2. Both are formed by
    index gathers, in O(m^4).
    """
    diag, upper, lower = pairs
    root = math.sqrt(0.5)
    cols = np.concatenate([full[:, diag], (full[:, upper] + full[:, lower]) * root], axis=1)
    plus = np.concatenate([cols[diag], (cols[upper] + cols[lower]) * root])
    cols = (full[:, upper] - full[:, lower]) * root
    return plus, (cols[upper] - cols[lower]) * root


def _swap_unfold(plus: np.ndarray, minus: np.ndarray, pairs) -> np.ndarray:
    """The (m^2, k+ + k-) coordinates over F (x) F of both halves' vectors.

    ``plus`` and ``minus`` are the swap-even and swap-odd halves' vectors,
    with rows in the column order of :func:`_swap_fold`; the plus columns
    come first.
    """
    diag, upper, lower = pairs
    root = math.sqrt(0.5)
    k = plus.shape[1]
    coords = np.zeros((len(diag) ** 2, k + minus.shape[1]))
    coords[diag, :k] = plus[: len(diag)]
    coords[upper, :k] = coords[lower, :k] = plus[len(diag) :] * root
    coords[upper, k:] = minus * root
    coords[lower, k:] = -coords[upper, k:]
    return coords


@dataclass(frozen=True, eq=False)
class SectorEigh(EigenDecomposition):
    """An eigendecomposition of A whose columns have definite half-shift parities.

    ``half_shifts[j]`` holds column j's parities (+1 or -1) under the
    half-shifts q -> q + n/2 and p -> p + n/2, in the (x, y) order of
    ``SymBasis.sym_eigs``; both are 0 at odd n, where there is no half-shift.
    """

    half_shifts: np.ndarray


def _kronecker_sum(a: np.ndarray, b: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """a (x) I + I (x) b, over the coordinates (i, j) at row i * len(b) + j.

    One broadcast, given an identity at least as large as a and b: every
    entry is one entry of a or b, or the sum of two diagonal ones.
    """
    ma, mb = len(a), len(b)
    total = a[:, None, :, None] * eye[:mb, None, :mb] + eye[:ma, None, :ma, None] * b[:, None]
    return total.reshape(ma * mb, -1)


def sector_eigh(n: int) -> SectorEigh:
    """Eigendecomposition of the hopping operator A through its symmetry blocks.

    A, the sum of the four unit neighbour shifts of the n x n lattice
    (:func:`~tbbands.model.apply_hopping`), depends on n alone; its
    eigenvectors are those of H = alpha I - t A for every alpha and t. With
    F_f the ring factors of :func:`~tbbands.model.ring_factors` (the
    reflection-even and -odd columns at odd n, each split by the half-shift
    at even n), A maps the span of each product F_f (x) F_g, F_f on the block
    index p and F_g on the in-block index q, into itself, and acts there as
    the Kronecker sum h_f (x) I + I (x) h_g of the ring hoppings
    h_f = F_f^T (P + P^T) F_f (:func:`_kronecker_sum`). The diagonal swap
    (p, q) -> (q, p) commutes with A too: it maps F_f (x) F_g onto
    F_g (x) F_f, and splits each F_f (x) F_f into a swap-even (+) and a
    swap-odd (-) half (:func:`_swap_fold`). So the blocks are F_f (x) F_g for
    f < g, whose mirror takes its values bit for bit and its vectors with the
    site grid transposed, and the two halves of each F_f (x) F_f: five blocks
    at odd n, at most fourteen at even n. They are decomposed with one
    stacked :func:`eig_hermitian` call per distinct block size, the values
    are merged by one stable sort, and each block's lifted vectors are
    written straight into its sorted columns. Returns ascending values, real
    orthonormal (dim, dim) vectors, column-major, as a dense eigensolve of
    the whole A would, in a different basis inside each degenerate
    eigenspace, and each column's half-shift parities, those of its block's
    factors. No h_f is decomposed on its own: its eigenvectors would be the
    ring's cosine and sine modes, the oracle's.
    """
    dim = n * n
    factors, taus = ring_factors(n)
    # F_f^T P F_f for every f at once: P couples no two factors.
    ring = np.hstack(factors)
    hop = ring.T @ ring[np.arange(-1, n - 1)]
    hop += hop.T
    bounds = list(itertools.accumulate([f.shape[1] for f in factors], initial=0))
    hops = [hop[a:b, a:b] for a, b in zip(bounds, bounds[1:])]
    eye = np.eye(max(map(len, hops)))
    # The factor pairs f <= g, each with its blocks: F_f (x) F_g, or for f = g
    # the halves of _swap_fold and the index sets that fold them.
    pairs = [(f, g) for f in range(len(factors)) for g in range(f, len(factors))]
    swaps = [_swap_pairs(len(h)) for h in hops]
    blocks = []
    for f, g in pairs:
        kron = _kronecker_sum(hops[f], hops[g], eye)
        blocks += _swap_fold(kron, swaps[f]) if f == g else [kron]
    sizes = [len(b) for b in blocks]
    solved = [(np.zeros(0), np.zeros((0, 0)))] * len(blocks)
    for k in sorted(set(sizes) - {0}):
        members = [i for i, size in enumerate(sizes) if size == k]
        sub = eig_hermitian(np.stack([blocks[i] for i in members]))
        for i, values, vectors in zip(members, sub.values, sub.vectors):
            solved[i] = (values, vectors)
    # Per pair: its values and its coordinates over F_f (x) F_g.
    solved = iter(solved)
    sectors = []
    for f, g in pairs:
        if f == g:
            (plus, u), (minus, w) = next(solved), next(solved)
            sectors.append((np.concatenate([plus, minus]), _swap_unfold(u, w, swaps[f])))
        else:
            sectors.append(next(solved))
    # Each off-diagonal pair's vectors, transposed on the site grid, are its
    # mirror's, and its values repeat there, after all the pairs'.
    mirrored = [values for (f, g), (values, _) in zip(pairs, sectors) if f != g]
    values = np.concatenate([v for v, _ in sectors] + mirrored)
    order = np.argsort(values, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(dim)
    # Written column by column into the rows of the transpose, contiguously;
    # a column's half-shift parities (x, y) are those of its factors on q and p.
    columns = np.empty((dim, n, n))
    half_shifts = np.empty((dim, 2), dtype=int)
    start, mirror = 0, dim - sum(map(len, mirrored))
    for (f, g), (_, coords) in zip(pairs, sectors):
        m = coords.shape[1]
        a, b = factors[f], factors[g]
        lifted = b @ (a @ coords.reshape(a.shape[1], -1)).reshape(n, b.shape[1], m)
        dest = position[start : start + m]
        columns[dest] = lifted.transpose(2, 0, 1)
        half_shifts[dest] = taus[g], taus[f]
        start += m
        if f != g:
            dest = position[mirror : mirror + m]
            columns[dest] = lifted.transpose(2, 1, 0)
            half_shifts[dest] = taus[f], taus[g]
            mirror += m
    return SectorEigh(
        values=values[order], vectors=columns.reshape(dim, dim).T, half_shifts=half_shifts
    )


def _block_sizes(starts: np.ndarray, dim: int, min_size: int = 1):
    """(k, cols) for each block size k >= min_size, ascending, of the partition of
    [0, dim) into blocks opening at ``starts``; cols (m, k) holds its blocks' columns."""
    sizes = np.diff(starts, append=dim)
    for k in np.unique(sizes[sizes >= min_size]).tolist():
        yield k, starts[sizes == k, None] + np.arange(k)


def _refine_within_blocks(
    vectors: np.ndarray, starts: np.ndarray, applied: np.ndarray, gap_tol: float
) -> np.ndarray:
    """Diagonalize the projection of one Hermitian operator inside each block.

    ``starts`` holds the first column of each block, ascending; ``applied`` is
    the operator times ``vectors``. The blocks of each size k > 1 are gathered
    into an (m, dim, k) stack, projected, decomposed by one stacked
    :func:`eig_hermitian` call and rotated back into their own columns of
    ``vectors``, in place; blocks of size one are left untouched. Returns the
    refined starts: a block splits where its eigenvalues are gap_tol apart.
    """
    # new_block[j]: column j opens a block of the refined partition
    new_block = np.zeros(vectors.shape[1], dtype=bool)
    new_block[starts] = True
    for k, cols in _block_sizes(starts, vectors.shape[1], min_size=2):
        stack = vectors[:, cols].transpose(1, 0, 2)
        projected = stack.conj().transpose(0, 2, 1) @ applied[:, cols].transpose(1, 0, 2)
        projected = (projected + projected.conj().transpose(0, 2, 1)) / 2.0
        sub = eig_hermitian(projected)
        vectors[:, cols] = (stack @ sub.vectors).transpose(1, 0, 2)
        new_block[cols[:, 1:]] = np.diff(sub.values, axis=1) > gap_tol
    return np.flatnonzero(new_block)


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


def _apply_within_blocks(coords: np.ndarray, parts) -> np.ndarray:
    """Multiply each block's coordinates by that block's (k, k) matrix.

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
    vectors: np.ndarray, hopping: np.ndarray, sym_eigs: np.ndarray, family: CommutingFamily
) -> SymBasis:
    """Phase-fix a complete set of simultaneous eigenvectors and give them their energies.

    The columns of ``vectors`` come in label order, column j labelled
    (r, s) = divmod(j, n), with their hopping eigenvalues in ``hopping`` and
    their (x, y) translation eigenvalues in ``sym_eigs``; their phases are
    fixed in place, as :func:`fix_phase` would fix them.
    Each energy is alpha - t * hopping: alpha and t enter once, here, and
    never through the rounding of H.
    """
    vectors *= _phase_factors(vectors)
    energies = family.spec.alpha - family.spec.t * hopping
    labels = np.stack(np.divmod(np.arange(family.dim), family.n), axis=1)
    return SymBasis(vectors=vectors, energies=energies, labels=labels, sym_eigs=sym_eigs)


def _quarter_sites(n: int) -> np.ndarray:
    """The sites of the fundamental domain p, q < n/2, and their images under
    S_x and S_y, as a (3, sites) array: (S Q)[s] = Q[image of s]. At odd n,
    where there is no half-shift, the domain is the whole lattice."""
    half = n // 2 if n % 2 == 0 else n
    sites = np.arange(n * n)
    images = np.stack([sites, translate(sites, n, X_AXIS, 1), translate(sites, n, Y_AXIS, 1)])
    return images.reshape(3, n, n)[:, :half, :half].reshape(3, -1)


def _translation_projections(
    columns: np.ndarray, characters: np.ndarray, quarter: np.ndarray
) -> np.ndarray:
    """Q_b^T S_x Q_b and Q_b^T S_y Q_b, (2, m, k, k), for m blocks of k columns.

    ``columns`` is the (m, k, dim) stack of the blocks' columns of a
    :class:`SectorEigh` and ``quarter`` is :func:`_quarter_sites`. The
    translations commute with the half-shifts, so the summand
    Q[s, i] (S Q)[s, j] at the image of site s under a half-shift g is
    chi_i(g) chi_j(g) times the one at s, chi_i being column i's parities:
    each projection is a sum over the fundamental domain, weighted by
    sum_g chi_i(g) chi_j(g) = (1 + tau_i tau_j)(1 + sigma_i sigma_j) for the
    x and y parities tau and sigma. ``characters`` holds each column's
    chi(g) over the four g, (1, tau, sigma, tau sigma), as (m, k, 4), so the
    weights are their inner products: 4 between columns of equal parities
    and 0 between others, exact, and 1 at odd n, where the parities are 0.
    The sums run along the sites, the contiguous axis.
    """
    rows = np.take(columns, quarter, axis=-1)
    projections = rows[:, :, 0] @ rows[:, :, 1:].transpose(2, 0, 3, 1)
    projections *= characters @ characters.transpose(0, 2, 1)
    return projections


def simultaneous_basis_refine(family: CommutingFamily) -> SymBasis:
    """Simultaneous eigenbasis by sequential subspace refinement.

    H = alpha I - t A, so the basis is solved for the hopping operator A,
    which depends on n alone; alpha and t enter only the energies
    (:func:`_assemble`). The block partition, the tolerances and the rounding
    of the vectors are the same for every (alpha, t) at one n, t = 0 included.

    Stages: (1) diagonalize the real A in its symmetry blocks
    (:func:`sector_eigh`) and cluster its eigenvalues with HOPPING_GAP_TOL;
    (2) inside every degenerate cluster diagonalize the projection of the
    phase-rotated Hermitian part (e^{i phi} S_x + e^{-i phi} S_x*)/2,
    phi = pi/(2n), whose eigenvalue fixes the x-translation eigenvalue;
    (3) inside remaining sub-clusters the same for S_y. Both stages cluster
    with STAGE_GAP_TOL; the partition is carried as ``starts``, each block's
    first column. After the eigensolve of A every stage works in the
    blocks' own coordinates: S_x and S_y are projected once onto each block of
    A's real eigenvectors Q, as sums over the fundamental domain of the
    half-shifts weighted by the columns' half-shift parities
    (:func:`_translation_projections`; the whole lattice at odd n), the
    stages are (k, k) Hermitian eigendecompositions of those projections,
    one stacked call per block size, and the translation eigenvalues are
    quotients of the coordinates. The complex basis, Q times the
    coordinates, is formed once at the end. Column j's A eigenvalue is
    sum_i |c_ij|^2 lambda_i, over its final coordinates c and its block's
    eigenvalues lambda, in O(dim k): A is never applied to the basis.

    Raises
    ------
    RefinementError
        A block stayed degenerate through all stages, which signals an extra
        symmetry this procedure does not know.
    """
    n, dim = family.n, family.dim
    base = sector_eigh(n)
    values = base.values
    starts = np.array([c.start for c in cluster_eigenvalues(values, HOPPING_GAP_TOL).clusters])
    # Per block size: its blocks' columns, their Q (m, dim, k), and Q_b^T S Q_b of S_x and
    # S_y (2, m, k, k), summed over a quarter of the sites.
    quarter = _quarter_sites(n)
    tau, sigma = base.half_shifts.T
    characters = np.stack([np.ones(dim), tau, sigma, tau * sigma], axis=1)
    groups = []
    for k, cols in _block_sizes(starts, dim):
        # Q is column-major: its transpose's rows are its columns, contiguous.
        columns = base.vectors.T[cols]
        projected = _translation_projections(columns, characters[cols], quarter)
        groups.append((k, cols, columns.transpose(0, 2, 1), projected))
    # The groups hold their own copies of Q's columns: free Q before the basis.
    del base
    # Block j's coordinates in its own columns of Q start as the identity.
    sizes = np.diff(starts, append=dim)
    first = np.repeat(starts, sizes)
    sites = np.arange(dim)
    coords = np.zeros((sizes.max(), dim), dtype=complex)
    coords[sites - first, sites] = 1.0
    stages = [(cols, _stage(projected, n)) for k, cols, _, projected in groups if k > 1]
    for axis in (0, 1):
        applied = _apply_within_blocks(coords, [(cols, stage[axis]) for cols, stage in stages])
        starts = _refine_within_blocks(coords, starts, applied, STAGE_GAP_TOL)
    if len(starts) < dim:
        stops = np.append(starts[1:], dim).tolist()
        stuck = [(a, b) for a, b in zip(starts.tolist(), stops) if b - a > 1]
        raise RefinementError(
            f"degeneracy unresolved after all refinement stages in column "
            f"blocks {stuck}; the family has an unexpected extra symmetry"
        )
    applied = _apply_within_blocks(coords, [(cols, projected) for _, cols, _, projected in groups])
    sym_eigs = _rayleigh_quotients(coords, applied).T
    r, s = momentum_labels(sym_eigs, n)
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
    for k, cols, q, _ in groups:
        dest = position[cols]
        if k == 1:
            vectors[:, dest[:, 0]] = q[:, :, 0].T
        else:
            c = np.ascontiguousarray(coords[:k, cols].transpose(1, 0, 2))
            vectors[:, dest] = (q @ c.view(float)).view(complex).transpose(1, 0, 2)
    # Column j's hopping eigenvalue is sum_i |c_ij|^2 lambda_i over its block's
    # values lambda; the coordinate rows past a block's size are zero.
    block_values = values[np.minimum(first + np.arange(len(coords))[:, None], dim - 1)]
    hopping = np.add.reduce((coords.real**2 + coords.imag**2) * block_values, axis=0)
    return _assemble(vectors, hopping[order], sym_eigs[order], family)


def _normal_eigenbasis(k: np.ndarray) -> np.ndarray:
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
    clusters = cluster_eigenvalues(base.values, default_gap_tol(herm)).clusters
    starts = np.array([c.start for c in clusters])
    _refine_within_blocks(vectors, starts, anti @ vectors, default_gap_tol(anti))
    return vectors


def default_filter_tol(family: CommutingFamily) -> float:
    """Residual acceptance threshold: orders above solver noise, far below O(t) mixing."""
    return FILTER_RTOL * hamiltonian_norm(family.spec)


def filter_simultaneous(
    candidates: np.ndarray, family: CommutingFamily
) -> tuple[np.ndarray, np.ndarray]:
    """Screen the unit-norm columns of a (dim, m) block for simultaneous eigenvectors.

    A column v is accepted iff ``||M v - (v* M v) v||_2`` is at most
    :func:`default_filter_tol` for every M among H, S_x, S_y. H = alpha I - t A
    with A the hopping operator, so H's residual of a unit v is exactly |t|
    times A's: A is applied and its residual scaled. Returns the (m,) accept
    mask and the (m, 3) Rayleigh quotients (v* A v, v* S_x v, v* S_y v) of
    every column, CHUNK columns at a time; each column's quotients are the
    same, bit for bit, as when it is screened alone.
    """
    filter_tol = default_filter_tol(family)
    screens = (
        (lambda v: apply_hopping(v, family.n), abs(family.spec.t)),
        (family.apply_sx, 1.0),
        (family.apply_sy, 1.0),
    )
    accept = np.ones(candidates.shape[1], dtype=bool)
    quotients = np.empty((candidates.shape[1], 3), dtype=complex)
    for start in range(0, candidates.shape[1], CHUNK):
        cols = slice(start, start + CHUNK)
        chunk = candidates[:, cols]
        for i, (apply_operator, scale) in enumerate(screens):
            applied = apply_operator(chunk)
            mu = _rayleigh_quotients(chunk, applied)
            applied -= mu * chunk
            accept[cols] &= scale * np.linalg.norm(applied, axis=0) <= filter_tol
            quotients[cols, i] = mu
    return accept, quotients


def simultaneous_basis_combination(family: CommutingFamily) -> SymBasis:
    """Simultaneous eigenbasis through the combination matrices.

    Candidate vectors are the eigenbases of H(S_x - S_y) and S_x(H - S_y);
    whenever one of those matrices has a simple eigenvalue at some momentum,
    the corresponding eigenvector is automatically a simultaneous eigenvector
    of the whole family. Candidates are screened with
    :func:`filter_simultaneous` and the first survivor is kept per momentum
    label. Both matrices are built from H itself: built from the hopping
    operator A they would be those of alpha = 0, where their spectra
    degenerate, and the method would fail at every (alpha, t). Only the
    energies come from A, as in the refine method, here as alpha - t (v* A v)
    from the screen's Rayleigh quotients.

    Raises
    ------
    CandidateDeficitError
        Fewer than n^2 labels were recovered: both combination spectra are
        degenerate at the missing momenta for these (alpha, t, n). The
        refinement method remains the reliable path.
    """
    n, dim = family.n, family.dim
    k1, k2 = combination_matrices(family)
    candidates = np.hstack([_normal_eigenbasis(k1), _normal_eigenbasis(k2)])
    accept, quotients = filter_simultaneous(candidates, family)
    survivors = np.flatnonzero(accept)
    r, s = momentum_labels(quotients[survivors, 1:], n)
    codes, first = np.unique(r * n + s, return_index=True)
    if codes.size < dim:
        raise CandidateDeficitError(
            f"combination method recovered {codes.size} of {dim} momentum "
            f"labels (deficit {dim - codes.size}): degenerate combination "
            "spectrum for these parameters; use the refinement method"
        )
    keep = survivors[first]
    return _assemble(candidates[:, keep], quotients[keep, 0].real, quotients[keep, 1:], family)


def _squared_moduli(a: np.ndarray) -> np.ndarray:
    """|a|^2 entry by entry, computed in ``a``, a C-ordered complex (dim, k) array.

    Returns a (dim, k) float view into the overwritten ``a``.
    """
    parts = a.view(float)
    np.square(parts, out=parts)
    squares = parts[:, 0::2]
    squares += parts[:, 1::2]
    return squares


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


def _fourier_orthogonality_defect(f: np.ndarray, dropped: np.ndarray) -> float | None:
    """max |V* V - I| from the basis's plane-wave coefficients, in O(dim^2).

    ``f[i, j]`` = <u_i, v_j>, with u_i the oracle's plane wave at column i's
    own label, so ``f`` is the unitary 2-D DFT of V with its rows in label
    order and d = diag(f) holds each column's own-label overlap. With E = f
    off its diagonal and ``dropped[j]`` = ||E_j||^2, V* V = f* f gives
    (V* V)_jj - 1 = |d_j|^2 + ||E_j||^2 - 1 and, for i != j, (V* V)_ij =
    G_ij + conj(G_ji) + R_ij with G = conj(d) E, row i scaled by conj(d_i),
    and |R_ij| <= max_j ||E_j||^2. The estimate drops R, so it is taken only
    when that bound is at most eps, where R cannot move the result; otherwise
    None. Each pair {i, j} is visited once: the off-diagonal estimate is
    Hermitian. ``f`` must come from bijective labels, and is overwritten by G.
    A NaN in ``dropped`` also gives None.
    """
    if not dropped.max() <= np.finfo(float).eps:
        return None
    dim = f.shape[0]
    d = f.diagonal().copy()
    f[np.diag_indices(dim)] = 0.0
    f *= np.conj(d)[:, None]
    worst = 0.0
    for start in range(0, dim, CHUNK):
        rows = slice(start, start + CHUNK)
        off = np.add(f[rows, start:], np.conj(f[start:, rows].T), order="C")
        worst = max(worst, float(_squared_moduli(off).max()))
    diagonal = (d.real * d.real + d.imag * d.imag - 1.0) + dropped
    return math.sqrt(max(worst, float(np.square(diagonal).max())))


def _plane_wave_residuals(
    power: np.ndarray, energies: np.ndarray, eigs: list[np.ndarray]
) -> list[float]:
    """Largest residual norms of H, S_x and S_y over a chunk, from its plane-wave power.

    ``power[r, s, j]`` = |<u_(r,s), v_j>|^2 over the plane waves u_(r,s), an
    (n, n, k) array, and ``energies[r, s]`` their closed-form energies;
    ``eigs`` holds the chunk's H, S_x and S_y eigenvalues mu_j. The plane
    waves are a unitary eigenbasis of all three operators, M = U Lambda U*,
    so ||M v_j - mu_j v_j||^2 = sum_(r,s) |Lambda_(r,s) - mu_j|^2
    power[r, s, j] holds for any v. S_x and S_y take exp(-2 pi i s/n) and
    exp(-2 pi i r/n), which depend on one index each, so their sums run over
    the two marginals of ``power``, in O(n k).
    """
    weights = energies[:, :, None] - eigs[0]
    weights *= weights
    weights *= power
    squares = [np.add.reduce(weights.reshape(-1, weights.shape[2]), axis=0)]
    n = power.shape[0]
    phases = np.exp(-2j * math.pi * np.arange(n) / n)[:, None]
    for marginal, mu in zip((power.sum(axis=0), power.sum(axis=1)), eigs[1:]):
        gap = phases - mu
        squares.append(np.add.reduce((gap.real**2 + gap.imag**2) * marginal, axis=0))
    return [float(np.sqrt(sq.max())) for sq in squares]


def verify_basis(
    basis: SymBasis, family: CommutingFamily, spec: LatticeSpec
) -> VerificationReport:
    """Quality metrics of a computed basis against the closed-form solution.

    Residuals use the basis's own Rayleigh-quotient eigenvalues; the
    eigenvalue and entrywise errors compare against the closed-form values at
    each column's momentum label (one :func:`~tbbands.analytic.analytic_energies`
    grid), with the analytic vector phase-aligned to the computed column
    before the entrywise comparison.

    The oracle's eigenvectors are the plane waves u_(r,s), so a column's
    coefficients in them are its unitary 2-D DFT, <u_(r,s), v> =
    fft2(v on the (n, n) site grid)[r, s] / n, and V* V = W* W for W = U* V.
    At every n each chunk of columns is transformed once, and the
    coefficients give:

    * the three residuals (:func:`_plane_wave_residuals`): the plane waves
      diagonalize H, S_x and S_y at once, so ||M v - mu v||^2 =
      sum |Lambda - mu|^2 |<u, v>|^2 over the closed-form eigenvalues Lambda,
      for any v and whatever its label; no operator is applied, so the H
      residual does not carry the rounding of alpha v;
    * the own-label coefficients d_j, which align the oracle vectors' phases;
    * the orthogonality defect (:func:`_fourier_orthogonality_defect`), in
      O(dim^2 log n) where the Gram product costs O(dim^3). The estimate
      drops a term bounded by max_j ||E_j||^2, E_j column j's coefficients
      off its own label, and is taken only when the labels are a bijection
      and that bound is at most eps; only then is the (dim, dim) coefficient
      array formed. Otherwise (a basis with swapped or duplicated labels, or
      one mixed inside a degenerate block) the exact Gram product
      :func:`_orthogonality_defect` is taken.

    The transform checks a basis against the oracle; the solver never uses
    it, and the benchmark's checker forms its residuals on the site grid,
    independently of both. Every pass runs CHUNK columns at a time. From
    BULK_ORACLE_MIN_DIM (n = 5) each chunk's oracle vectors come from one
    broadcast product (:func:`~tbbands.analytic.analytic_eigenvectors`); at
    n <= 4 from one :func:`~tbbands.analytic.analytic_eigenvector` call per
    column. Both give the same bits. The maxima propagate NaN: a NaN entry in
    the basis gives NaN residuals, orthogonality defect and entrywise error.
    Raises ValueError naming the first field whose shape does not fit the
    family.
    """
    n, dim = family.n, family.dim
    shapes = {"vectors": (dim, dim), "energies": (dim,), "labels": (dim, 2), "sym_eigs": (dim, 2)}
    for name, want in shapes.items():
        if np.shape(getattr(basis, name)) != want:
            raise ValueError(f"basis {name} has shape {np.shape(getattr(basis, name))}, not {want}")
    # One memory layout whatever the caller's, so that no metric depends on it.
    v = np.ascontiguousarray(basis.vectors, dtype=complex)
    codes = label_codes(spec, basis.labels)
    energies = analytic_energies(spec)
    eig_err = float(np.abs(basis.energies - energies.ravel()[codes]).max())
    eigs = (basis.energies, basis.sym_eigs[:, 0], basis.sym_eigs[:, 1])
    residuals = np.zeros(len(eigs))
    entry_err = 0.0
    bijective = np.unique(codes).size == dim
    if bijective:
        # f[i, j] = <u_(label i), v_j>: the coefficients with rows in label order.
        f = np.empty((dim, dim), dtype=complex)
        dropped = np.empty(dim)
    for start in range(0, dim, CHUNK):
        cols = slice(start, start + CHUNK)
        chunk = v[:, cols]
        grid = np.fft.fft2(chunk.reshape(n, n, -1), axes=(0, 1), norm="ortho")
        coefficients = grid.reshape(dim, -1)
        own = (codes[cols], np.arange(coefficients.shape[1]))
        overlap = coefficients[own]
        if bijective:
            f[:, cols] = coefficients[codes]
        power = _squared_moduli(coefficients)
        chunk_residuals = _plane_wave_residuals(
            power.reshape(n, n, -1), energies, [e[cols] for e in eigs]
        )
        if bijective:
            power[own] = 0.0
            dropped[cols] = np.add.reduce(power, axis=0)
        if dim >= BULK_ORACLE_MIN_DIM:
            exact = analytic_eigenvectors(spec, basis.labels[cols])
        else:
            exact = np.stack(
                [analytic_eigenvector(spec, label) for label in basis.labels[cols].tolist()],
                axis=1,
            )
        residuals = np.maximum(residuals, chunk_residuals)
        # Align each oracle vector's phase to its computed column.
        modulus = np.abs(overlap)
        exact *= np.divide(overlap, modulus, out=np.ones_like(overlap), where=modulus > 0.0)
        exact -= chunk
        entry_err = np.max([entry_err, np.abs(exact.real).max(), np.abs(exact.imag).max()])
    orth = None
    if bijective:
        orth = _fourier_orthogonality_defect(f, dropped)
        del f
    if orth is None:
        orth = _orthogonality_defect(v)
    return VerificationReport(
        *residuals.tolist(),
        max_orthogonality_defect=orth,
        max_eigenvalue_error=eig_err,
        max_entrywise_vector_error=float(entry_err),
    )
