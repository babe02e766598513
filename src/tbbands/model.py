"""Hamiltonian and translation operators for the periodic square lattice.

Site index j = p*n + q, with p the block (y) index and q the in-block (x)
index, so a vector or a block of columns reshapes to an (n, n, k) site grid.
The translations are permutations of that grid and H = alpha I - t A, where
the hopping operator A (:func:`apply_hopping`) sums the four unit neighbour
shifts: :class:`CommutingFamily` holds only the spec and applies all three
exactly, without matrices, as shifts on the grid. A depends on n alone, so
its eigenvectors are H's for every (alpha, t), and the parameters only set
the energies. The lattice's point group C4v commutes with A too: the site
reflections q -> -q and p -> -p, and the diagonal swap (p, q) -> (q, p).
At even n so do the half-shifts q -> q + n/2 and p -> p + n/2, which commute
with the reflections and which the swap exchanges. :func:`parity_factors`
gives the ring's reflection-even and reflection-odd columns, and
:func:`ring_factors` splits each of them by the half-shift at even n. The
Kronecker products of two ring factors split the sites into sectors that A
maps into themselves; the swap maps F (x) G onto G (x) F and splits each
F (x) F in halves, so the one dense eigensolve runs as blocks of about a
quarter or an eighth of the dimension at odd n, and a sixteenth or a
thirty-second at even n (``simdiag.sector_eigh``). The norm of H has the
closed form :func:`hamiltonian_norm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest dimension build_family accepts: the (dim, dim) complex basis a solve
# returns takes 16 dim^2 bytes, 1 GiB at dim = 8192, and the eigensolve holds
# a few arrays of that size at once.
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
    |alpha| + 4|t|, the bound on every energy, must be a finite float, which
    also rules out a NaN or infinite alpha or t.
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
        if not math.isfinite(abs(self.alpha) + 4.0 * abs(self.t)):
            raise ValueError(
                f"alpha and t must be finite, with |alpha| + 4|t| finite "
                f"(got alpha={self.alpha}, t={self.t})"
            )

    @property
    def dim(self) -> int:
        return self.n * self.n


def hamiltonian_norm(spec: LatticeSpec) -> float:
    """Frobenius norm of H in closed form: n * sqrt(alpha^2 + 4 t^2).

    For n >= 3 each row of H holds alpha on the diagonal and -t at four
    distinct columns, so ||H||_F^2 = n^2 (alpha^2 + 4 t^2).
    """
    return spec.n * math.hypot(spec.alpha, 2.0 * spec.t)


def translate(v: np.ndarray, n: int, axis: int, step: int) -> np.ndarray:
    """Shift a (dim,) vector or (dim, k) block ``step`` sites along a grid axis.

    With ``step`` = 1 this is the translation along ``axis`` (S_x for X_AXIS,
    S_y for Y_AXIS); with ``step`` = -1 its transpose. Exact: entries only move.
    """
    return np.roll(v.reshape(n, n, -1), step, axis=axis).reshape(v.shape)


def apply_hopping(v: np.ndarray, n: int) -> np.ndarray:
    """A v for the hopping operator A, the sum of the four unit neighbour shifts.

    ``v`` is a (dim,) vector or a (dim, k) block. The shifts are added into
    one buffer by wrap-around slices, in the order +1 and -1 on the y axis,
    then +1 and -1 on the x axis: the same sums as adding the four
    ``np.roll`` copies, bit for bit. A is real, symmetric and parameter-free;
    H = alpha I - t A.
    """
    g = v.reshape(n, n, -1)
    hop = np.empty_like(g)
    hop[1:] = g[:-1]
    hop[0] = g[-1]
    hop[:-1] += g[1:]
    hop[-1] += g[0]
    hop[:, 1:] += g[:, :-1]
    hop[:, 0] += g[:, -1]
    hop[:, :-1] += g[:, 1:]
    hop[:, -1] += g[:, 0]
    return hop.reshape(v.shape)


def parity_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Real orthonormal reflection-even and reflection-odd columns of the n-site ring.

    The ring reflection j -> -j (mod n) maps e_j to e_{n-j}. The even columns
    are e_0, (e_j + e_{n-j})/sqrt(2) for 0 < j < n/2, and e_{n/2} when n is
    even, (n, n//2 + 1); the odd columns are (e_j - e_{n-j})/sqrt(2) for
    0 < j < n/2, (n, (n-1)//2). Side by side they form an orthogonal matrix.
    On the lattice the reflections q -> -q and p -> -p commute with the
    hopping operator, so with F and G each one of the two factors, the
    columns F (x) G of one parity sector span a subspace it maps into itself.
    """
    half = (n - 1) // 2
    j = np.arange(1, half + 1)
    even = np.zeros((n, n // 2 + 1))
    odd = np.zeros((n, half))
    even[0, 0] = 1.0
    if n % 2 == 0:
        even[n // 2, n // 2] = 1.0
    even[j, j] = even[n - j, j] = math.sqrt(0.5)
    odd[j, j - 1] = math.sqrt(0.5)
    odd[n - j, j - 1] = -math.sqrt(0.5)
    return even, odd


def ring_factors(n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The ring's columns of definite reflection and half-shift parity, and the latter.

    At odd n these are :func:`parity_factors`, with half-shift parity 0: there
    is no half-shift. At even n the half-shift T: j -> j + n/2 commutes with
    the reflection R (TR = RT^-1 = RT) and with the ring hopping, and splits
    each parity factor into a T-even and a T-odd half. The four factors, in
    the order (R, T) = (+, +), (+, -), (-, +), (-, -), hold the columns
    e_j + rho e_{-j} + tau e_{j+n/2} + rho tau e_{n/2-j} for 0 <= j <= n/4,
    normalized, that do not vanish; every entry is exactly 0, +-1/2 or
    +-sqrt(1/2). Returns the factors with at least one column, and their
    half-shift parities tau (+1 or -1, or 0 at odd n). Side by side they form
    an orthogonal matrix, and the ring hopping P + P^T couples no two of them.
    """
    if n % 2:
        return list(parity_factors(n)), np.zeros(2, dtype=int)
    # Row f of raw sums, with factor f's signs, the unit vectors at the images
    # j, -j, n/2 + j and n/2 - j of each representative j; coinciding images
    # add, so a column's entries are integers of one modulus, 1 or 2, and the
    # scales sqrt(1/4) = 1/2 and sqrt(1/8) = sqrt(1/2)/2 are exact.
    half, last = n // 2, n // 4 + 1
    j = np.arange(last)
    images = (np.array([[1], [-1], [1], [-1]]) * j + np.array([[0], [0], [half], [half]])) % n
    signs = np.array([[1.0, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])
    raw = (signs @ (images[:, None] == np.arange(n)[:, None]).reshape(4, -1)).reshape(4, n, last)
    raw *= np.sqrt(1.0 / np.maximum(np.square(raw).sum(axis=1), 1.0))[:, None]
    # The columns that vanish: j = 0 for rho = -1, and j = n/4 for rho tau = -1.
    cut = int(n % 4 == 0)
    factors = [raw[0], raw[1, :, : last - cut], raw[2, :, 1 : last - cut], raw[3, :, 1:]]
    keep = [f for f in range(4) if factors[f].shape[1]]
    return [factors[f] for f in keep], np.array([1, -1, 1, -1])[keep]


@dataclass(frozen=True, eq=False)
class CommutingFamily:
    """The Hamiltonian and the two translations it commutes with, given by their spec.

    ``apply_h``, ``apply_sx`` and ``apply_sy`` act on a (dim,) vector or a
    (dim, k) block of columns through the site grid; they are the only way
    the package applies H, S_x and S_y.
    """

    spec: LatticeSpec

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
        """alpha * v minus t times the hopping operator A applied to v."""
        hop = apply_hopping(v, self.n)
        hop *= -self.spec.t
        hop += self.spec.alpha * v
        return hop


def build_family(spec: LatticeSpec) -> CommutingFamily:
    """The family of ``spec``, after checking that its operators commute exactly.

    Refuses a dimension above MAX_DENSE_DIM before allocating anything. The
    commutators [H, S_x], [H, S_y] and [S_x, S_y] are checked on the operators
    the solver applies, on one probe column of distinct nonzero entries of
    modulus at most 1, so no product overflows while |alpha| + 4|t| is finite:
    each output entry of ``apply_h`` is summed in the same order wherever it
    sits, so a product and its swap agree bit for bit, and any mismatch is a
    construction bug, not a numerical artifact. The check costs O(dim).
    """
    if spec.dim > MAX_DENSE_DIM:
        raise ValueError(
            f"dimension {spec.dim} (n = {spec.n}) exceeds the dense cap {MAX_DENSE_DIM}"
        )
    family = CommutingFamily(spec=spec)
    probe = np.arange(1.0, spec.dim + 1.0) / spec.dim
    h, sx, sy = family.apply_h, family.apply_sx, family.apply_sy
    for name, a, b in (("[h, sx]", h, sx), ("[h, sy]", h, sy), ("[sx, sy]", sx, sy)):
        if not np.array_equal(a(b(probe)), b(a(probe))):
            raise AssertionError(f"construction bug: commutator {name} is nonzero")
    return family
