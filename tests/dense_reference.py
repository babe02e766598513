"""Dense H, S_x and S_y of a lattice, written entry by entry from the site layout.

A reference for the tests only: it is built from explicit loops over the sites
j = p*n + q (p the block (y) index, q the in-block (x) index), never from the
package's operators, so comparing those operators with it is not circular.
"""

from types import SimpleNamespace

import numpy as np


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
