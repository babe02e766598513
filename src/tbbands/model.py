"""Hamiltonian and translation operators for the periodic square lattice.

Site index j = p*n + q, with p the block (y) index and q the in-block (x)
index, so a vector or a block of columns reshapes to an (n, n, k) site grid.
The translations are permutations of that grid and H is a five-point stencil
on it: :class:`CommutingFamily` applies all three exactly, without matrices,
as ``np.roll`` on the grid. The one dense matrix kept is the real symmetric H
from :func:`build_hamiltonian`, the input of the single dense eigensolve.
:func:`build_symmetries` still builds the dense complex translations, for the
combination-matrix method and for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A dense matrix beyond this dimension is hundreds of MiB; refuse early.
MAX_DENSE_DIM = 8192

# Axes of the (n, n, k) site grid: the in-block (x) index q, the block (y) index p.
X_AXIS = 1
Y_AXIS = 0


@dataclass(frozen=True)
class LatticeSpec:
    """Problem parameters: n sites per dimension, on-site energy alpha, hopping t.

    The Hamiltonian acts on the n*n sites of the periodic lattice. n >= 3 is
    required: for n = 2 the left and right neighbour of a site coincide and the
    nearest-neighbour coupling pattern would double up, and n = 1 self-couples.
    """

    n: int
    alpha: float
    t: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(
                f"n must be >= 3 (got {self.n}); below that the cyclic "
                "neighbours coincide and the four-neighbour pattern breaks"
            )
        if not (math.isfinite(self.alpha) and math.isfinite(self.t)):
            raise ValueError("alpha and t must be finite reals")

    @property
    def dim(self) -> int:
        return self.n * self.n


def build_shift(n: int) -> np.ndarray:
    """n x n real cyclic shift permutation, first row (0, ..., 0, 1).

    Maps basis vector e_j to e_{(j+1) mod n}; orthogonal, so its transpose is
    its inverse.
    """
    if n < 1:
        raise ValueError(f"shift size must be >= 1 (got {n})")
    shift = np.zeros((n, n))
    shift[np.arange(n), (np.arange(n) - 1) % n] = 1.0
    return shift


def build_chain(spec: LatticeSpec) -> np.ndarray:
    """One-dimensional ring Hamiltonian: alpha on the diagonal, -t to both cyclic neighbours."""
    shift = build_shift(spec.n)
    return spec.alpha * np.eye(spec.n) - spec.t * (shift + shift.T)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a guard against absurd dense allocations."""
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > MAX_DENSE_DIM:
        raise ValueError(
            f"kron result dimension {out_dim} exceeds the dense cap {MAX_DENSE_DIM}"
        )
    return np.kron(a, b)


def build_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """Real block-circulant lattice Hamiltonian on the n^2 sites.

    Assembled as I (x) C + (P + P^T) (x) (-t I) with C the ring Hamiltonian and
    P the cyclic shift. Site index j decomposes as j = p*n + q with p the block
    (outer) index and q the in-block index. The two Kronecker terms touch
    disjoint entries, so every entry is exactly alpha or -t: H is exactly real
    symmetric with four off-diagonal couplings per row.
    """
    eye = np.eye(spec.n)
    shift = build_shift(spec.n)
    return kron(eye, build_chain(spec)) + kron(shift + shift.T, -spec.t * eye)


def build_symmetries(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Dense complex translation permutations: (in-block direction, block direction)."""
    eye = np.eye(spec.n, dtype=complex)
    shift = build_shift(spec.n)
    return kron(eye, shift), kron(shift, eye)


def translate(v: np.ndarray, n: int, axis: int, step: int) -> np.ndarray:
    """Shift a (dim,) vector or (dim, k) block ``step`` sites along a grid axis.

    With ``step`` = 1 this is the translation along ``axis`` (S_x for X_AXIS,
    S_y for Y_AXIS); with ``step`` = -1 its transpose. Exact: entries only move.
    """
    return np.roll(v.reshape(n, n, -1), step, axis=axis).reshape(v.shape)


@dataclass(frozen=True, eq=False)
class CommutingFamily:
    """The Hamiltonian and the two translations it commutes with.

    ``apply_h``, ``apply_sx`` and ``apply_sy`` act on a (dim,) vector or a
    (dim, k) block of columns through the site grid; they equal the dense
    matrices of :func:`build_hamiltonian` and :func:`build_symmetries` applied
    to the same input. ``h`` is the read-only dense real Hamiltonian, kept as
    the input of the one dense eigensolve.
    """

    spec: LatticeSpec
    h: np.ndarray

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def n(self) -> int:
        return self.spec.n

    def apply_sx(self, v: np.ndarray) -> np.ndarray:
        return translate(v, self.n, X_AXIS, 1)

    def apply_sy(self, v: np.ndarray) -> np.ndarray:
        return translate(v, self.n, Y_AXIS, 1)

    def apply_h(self, v: np.ndarray) -> np.ndarray:
        """alpha * v minus t times the sum of the four neighbour shifts."""
        g = v.reshape(self.n, self.n, -1)
        hop = np.roll(g, 1, 0)
        hop += np.roll(g, -1, 0)
        hop += np.roll(g, 1, 1)
        hop += np.roll(g, -1, 1)
        hop *= -self.spec.t
        hop += self.spec.alpha * g
        return hop.reshape(v.shape)


def build_family(spec: LatticeSpec) -> CommutingFamily:
    """Build H and assert it commutes exactly with both translations.

    The translations are the site permutations px and py (S v = v[p]), so
    [H, S] = 0 reads H[p][:, p] == H entry for entry, and [S_x, S_y] = 0 reads
    px[py] == py[px]. The checks are exact index arithmetic in O(dim^2); any
    mismatch is a construction bug, not a numerical artifact.
    """
    h = build_hamiltonian(spec)
    sites = np.arange(spec.dim)
    px = translate(sites, spec.n, X_AXIS, 1)
    py = translate(sites, spec.n, Y_AXIS, 1)
    for name, p in (("[h, sx]", px), ("[h, sy]", py)):
        if not np.array_equal(h[np.ix_(p, p)], h):
            raise AssertionError(f"construction bug: commutator {name} is nonzero")
    if not np.array_equal(px[py], py[px]):
        raise AssertionError("construction bug: commutator [sx, sy] is nonzero")
    h.setflags(write=False)
    return CommutingFamily(spec=spec, h=h)
