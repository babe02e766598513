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
with the reflections and which the swap exchanges. :func:`ring_factors`
gives the ring's columns of definite reflection parity and, at even n,
half-shift parity: one factor per character of the group they generate. The
Kronecker products of two ring factors split the sites into sectors that A
maps into themselves; the swap maps F (x) G onto G (x) F and splits each
F (x) F in halves, so the one dense eigensolve runs as blocks of about a
quarter or an eighth of the dimension at odd n, and a sixteenth or a
thirty-second at even n (``simdiag.sector_blocks``). The norm of H has the
closed form :func:`hamiltonian_norm`.
"""

from __future__ import annotations

import math
import numbers
import operator
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

    The Hamiltonian acts on the n*n sites of the periodic lattice. n must be
    an integer (a numpy integer is stored as an int), and n >= 3 is required:
    for n = 2 the left and right neighbour of a site coincide and the
    nearest-neighbour coupling pattern would double up, and n = 1 self-couples.
    alpha and t must be real numbers, stored as floats, and |alpha| + 4|t|,
    the bound on every energy, must be a finite float, which also rules out a
    NaN or infinite alpha or t.
    """

    n: int
    alpha: float
    t: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"n must be an integer (got {self.n!r})") from None
        for name in ("alpha", "t"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number (got {value!r})")
            object.__setattr__(self, name, float(value))
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


def translate(v: np.ndarray, n: int, axis: int) -> np.ndarray:
    """The translation along a grid axis (S_x for X_AXIS, S_y for Y_AXIS) of a
    (dim,) vector or (dim, k) block: one site forward, with wrap-around.

    The entries move by two slice copies, as in :func:`apply_hopping`, into a
    buffer laid out as ``np.roll``'s: the result is ``np.roll(g, 1, axis)``'s
    on the site grid g, bit for bit.
    """
    g = v.reshape(n, n, -1)
    shifted = np.empty_like(g)
    dst, src = (shifted, g) if axis == Y_AXIS else (shifted.swapaxes(0, 1), g.swapaxes(0, 1))
    dst[1:] = src[:-1]
    dst[0] = src[-1]
    return shifted.reshape(v.shape)


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


def ring_factors(n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The ring's columns of definite reflection and half-shift parity, and the latter.

    The reflection R: j -> -j and, at even n, the half-shift T: j -> j + n/2
    commute (TR = RT^-1 = RT), as does the ring hopping P + P^T, and
    generate a group G. Each factor is one character of G, in the order
    (R, T) = (+, +), (+, -), (-, +), (-, -), or R = +, - at odd n: its columns
    are the character-weighted sums of e_g(j) over g in G, normalized, for the
    representatives 0 <= j <= n // |G|, except those that vanish. At odd n
    they are e_0 and (e_j + e_{n-j})/sqrt(2), and (e_j - e_{n-j})/sqrt(2), for
    0 < j < n/2; at even n every entry is exactly 0, +-1/2 or +-sqrt(1/2).
    Returns the factors with at least one column, and their half-shift
    parities tau (+1 or -1, or 0 at odd n: there is no half-shift). Side by
    side they form an orthogonal matrix, and P + P^T couples no two of them.
    """
    shifts, taus = ([0, n // 2], [1, -1]) if n % 2 == 0 else ([0], [0])
    # R^a T^b maps j to (-1)^a j + b n/2, and has the character rho^a tau^b
    # in the factor of parities (rho, tau); both orders take a (or rho) first.
    m = len(shifts)
    z2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    table = (z2[:, None, :, None] * z2[:m, None, :m]).reshape(2 * m, 2 * m)
    reps = n // (2 * m) + 1
    images = (np.array([[1], [-1]]) * np.arange(reps))[:, None] + np.array(shifts)[:, None]
    hits = images.reshape(2 * m, 1, reps) % n == np.arange(n)[:, None]
    # Coinciding images add, so a column's entries are integers of one modulus,
    # and its scale is sqrt(1/2), 1/2 or sqrt(1/8) = sqrt(1/2)/2, exactly.
    raw = (table @ hits.reshape(2 * m, -1)).reshape(2 * m, n, reps)
    norms = np.square(raw).sum(axis=1)
    raw *= np.sqrt(1.0 / np.maximum(norms, 1.0))[:, None]
    # A column vanishes where an element fixing j has character -1: only at
    # j = 0 (fixed by R) and j = n/4 (by RT), the first and last representatives.
    ends = (norms[:, [0, -1]] == 0).tolist()
    factors = [raw[f, :, first : reps - last] for f, (first, last) in enumerate(ends)]
    keep = [f for f in range(2 * m) if factors[f].shape[1]]
    return [factors[f] for f in keep], np.array(taus * 2)[keep]


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
        return translate(v, self.n, X_AXIS)

    def apply_sy(self, v: np.ndarray) -> np.ndarray:
        return translate(v, self.n, Y_AXIS)

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
    # Each operator meets the probe once, then the six cross compositions.
    hp, sxp, syp = h(probe), sx(probe), sy(probe)
    for name, ab, ba in (
        ("[h, sx]", h(sxp), sx(hp)),
        ("[h, sy]", h(syp), sy(hp)),
        ("[sx, sy]", sx(syp), sy(sxp)),
    ):
        if not np.array_equal(ab, ba):
            raise AssertionError(f"construction bug: commutator {name} is nonzero")
    return family
