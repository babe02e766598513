"""Dense H, S_x and S_y of a lattice, written entry by entry from the site layout.

A reference for the tests only: it is built from explicit loops over the sites
j = p*n + q (p the block (y) index, q the in-block (x) index), never from the
package's operators, so comparing those operators with it is not circular.
It also holds :func:`sector_eigh`, the dense sorted eigenbasis of the hopping
operator lifted from the package's symmetry blocks, against which the tests
check the columns refine lifts into its groups.
"""

from types import SimpleNamespace

import numpy as np

from tbbands.simdiag import sector_blocks


def dense_operators(spec):
    """(H, S_x, S_y) of ``spec``: H real, the translations complex, all (dim, dim).

    S_x moves the site (p, q) to (p, q + 1), S_y moves it to (p + 1, q), both
    mod n; H holds alpha on the diagonal and -t between the four cyclic
    neighbours.
    """
    n = spec.n
    dim = n * n
    h = np.zeros((dim, dim))
    sx = np.zeros((dim, dim), dtype=complex)
    sy = np.zeros((dim, dim), dtype=complex)
    for p in range(n):
        for q in range(n):
            j = p * n + q
            sx[p * n + (q + 1) % n, j] = 1.0
            sy[((p + 1) % n) * n + q, j] = 1.0
            h[j, j] = spec.alpha
            for i in (p * n + (q + 1) % n, p * n + (q - 1) % n,
                      ((p + 1) % n) * n + q, ((p - 1) % n) * n + q):
                h[i, j] = -spec.t
    return h, sx, sy


def dense_h(spec):
    """The real dense H of ``spec``."""
    return dense_operators(spec)[0]


def dense_hopping(n):
    """The dense hopping operator A of the n x n lattice: H at alpha = 0, t = -1."""
    return dense_h(SimpleNamespace(n=n, alpha=0.0, t=-1.0))


def max_residual(applied, v, eigs):
    """Largest column 2-norm of ``applied - v * eigs``.

    With ``applied`` = M v, the direct residual ||M v_j - mu_j v_j|| of each
    column against its eigenvalue mu_j = ``eigs[j]``, summed on the site grid.
    """
    residual = applied - v * eigs
    return float(np.sqrt(np.add.reduce(residual.real**2 + residual.imag**2, axis=0).max()))


def sector_eigh(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of the hopping operator A through its symmetry blocks.

    The columns of :func:`sector_blocks` are put in one order, by half-shift
    class 2 tau + sigma of their (x, y) parities (tau, sigma), then by value,
    with one stable sort, and each pair's vectors are lifted once and written
    straight into their sorted columns, and an f < g pair's into its mirror's
    with the site grid transposed. Returns the values, real orthonormal
    (dim, dim) vectors, column-major, which diagonalize A as a dense
    eigensolve of the whole A would, in a different basis inside each
    degenerate eigenspace, and each column's parities, those of its pair's
    factors; at odd n every parity is 0 and the order is that of the values.
    """
    dim = n * n
    values, parities, factors, records = sector_blocks(n)
    order = np.lexsort((values, 2 * parities[:, 0] + parities[:, 1]))
    position = np.empty_like(order)
    position[order] = np.arange(dim)
    # Written column by column into the rows of the transpose, contiguously.
    columns = np.empty((dim, n, n))
    start, mirror = 0, sum(len(v) for _, _, v, _ in records)
    for f, g, pair_values, coords in records:
        m = len(pair_values)
        a, b = factors[f], factors[g]
        lifted = b @ (a @ coords.reshape(a.shape[1], -1)).reshape(n, b.shape[1], m)
        columns[position[start : start + m]] = lifted.transpose(2, 0, 1)
        start += m
        if f != g:
            columns[position[mirror : mirror + m]] = lifted.transpose(2, 1, 0)
            mirror += m
    return values[order], columns.reshape(dim, dim).T, parities[order]
