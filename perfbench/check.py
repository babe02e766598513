"""Independent output checker for the tbbands benchmark.

Nothing here imports ``tbbands``. The Hamiltonian and the two translations are
applied with ``np.roll`` on the (n, n) reshape of each column, and the
closed-form dispersion is evaluated from its formula, so a fault shared by the
program's operators and its own oracle cannot pass unnoticed.

Site index j = p*n + q, with p the block (y) index and q the in-block (x)
index. S_x moves every entry one step along q, S_y one step along p, so the
column labelled (r, s) has S_x eigenvalue exp(-2*pi*i*s/n) and S_y eigenvalue
exp(-2*pi*i*r/n).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# The thresholds printed by `tbbands verify --help`; the checker's tests
# compare them against that help text.
BOUNDS = {
    "max_residual_h": 1.9e-11,
    "max_residual_sx": 1.9e-11,
    "max_residual_sy": 1.9e-11,
    "max_orthogonality_defect": 3.8e-11,
    "max_eigenvalue_error": 1.1e-13,
}

BAND_HEADER = "r,s,kx,ky,energy"

# kx = 2*pi*r/n in the bands CSV, allowed a few ulps of the largest value 2*pi.
MOMENTUM_ATOL = 1e-14


class CheckError(Exception):
    """An output violated one of the checked properties."""


def _grid(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape(n, n, v.shape[1])


def apply_h(v: np.ndarray, n: int, alpha: float, t: float) -> np.ndarray:
    """H v: on-site alpha plus hopping -t to the four periodic neighbours."""
    g = _grid(v, n)
    hop = np.roll(g, 1, 0) + np.roll(g, -1, 0) + np.roll(g, 1, 1) + np.roll(g, -1, 1)
    return (alpha * g - t * hop).reshape(v.shape)


def apply_sx(v: np.ndarray, n: int) -> np.ndarray:
    return np.roll(_grid(v, n), 1, 1).reshape(v.shape)


def apply_sy(v: np.ndarray, n: int) -> np.ndarray:
    return np.roll(_grid(v, n), 1, 0).reshape(v.shape)


def dispersion(n: int, alpha: float, t: float, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Closed-form energy alpha - 2t(cos(2 pi r/n) + cos(2 pi s/n))."""
    return alpha - 2.0 * t * (np.cos(2.0 * math.pi * r / n) + np.cos(2.0 * math.pi * s / n))


def _max_column_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, axis=0).max())


def basis_metrics(
    vectors: np.ndarray,
    energies: np.ndarray,
    r: np.ndarray,
    s: np.ndarray,
    n: int,
    alpha: float,
    t: float,
) -> dict[str, float]:
    """The five checked quantities of a labelled basis, as maxima over columns.

    Raises CheckError when the labels are not a bijection onto Z_n^2, since the
    other quantities are then meaningless.
    """
    dim = n * n
    v = np.asarray(vectors, dtype=complex)
    r = np.asarray(r, dtype=int)
    s = np.asarray(s, dtype=int)
    if v.shape != (dim, dim) or energies.shape != (dim,) or r.shape != (dim,) or s.shape != (dim,):
        raise CheckError(f"expected {dim} columns of length {dim}, got vectors {v.shape}")
    if r.min() < 0 or s.min() < 0 or r.max() >= n or s.max() >= n:
        raise CheckError("momentum label outside [0, n)")
    if np.unique(r * n + s).size != dim:
        raise CheckError("momentum labels are not a bijection onto Z_n^2")
    lam_x = np.exp(-2j * math.pi * s / n)
    lam_y = np.exp(-2j * math.pi * r / n)
    return {
        "max_residual_h": _max_column_norm(apply_h(v, n, alpha, t) - v * energies),
        "max_residual_sx": _max_column_norm(apply_sx(v, n) - v * lam_x),
        "max_residual_sy": _max_column_norm(apply_sy(v, n) - v * lam_y),
        "max_orthogonality_defect": float(np.abs(v.conj().T @ v - np.eye(dim)).max()),
        "max_eigenvalue_error": float(np.abs(energies - dispersion(n, alpha, t, r, s)).max()),
    }


def check_basis(vectors, energies, r, s, n: int, alpha: float, t: float) -> dict[str, float]:
    """Raise CheckError unless every metric of :func:`basis_metrics` is within BOUNDS."""
    metrics = basis_metrics(vectors, np.asarray(energies, dtype=float), r, s, n, alpha, t)
    breached = {k: v for k, v in metrics.items() if not v <= BOUNDS[k]}
    if breached:
        detail = ", ".join(f"{k}={v:.3e} > {BOUNDS[k]:.1e}" for k, v in breached.items())
        raise CheckError(f"n={n} alpha={alpha!r} t={t!r}: {detail}")
    return metrics


def _parse_exact(field: str) -> float:
    """Parse a 17-significant-digit field and insist it round-trips exactly."""
    value = float(field)
    if format(value, ".17g") != field:
        raise CheckError(f"field {field!r} does not round-trip at 17 digits")
    return value


def read_lines(path: str):
    """Lines of a file the program wrote, without their newlines; each must have one."""
    with open(path, encoding="ascii", newline="") as fh:
        for line in fh:
            if not line.endswith("\n"):
                raise CheckError(f"{path}: last line lacks its newline")
            yield line[:-1]


def read_band_csv(lines, n: int):
    """(r, s, energy) arrays of a ``bands`` CSV, checking its layout and momenta."""
    lines = list(lines)
    if not lines or lines[0] != BAND_HEADER or len(lines) != n * n + 1:
        raise CheckError("bands CSV header or row count is wrong")
    r, s, energy = [], [], []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 5:
            raise CheckError(f"bands CSV row has {len(fields)} fields")
        ri, si = int(fields[0]), int(fields[1])
        kx, ky, e = (_parse_exact(f) for f in fields[2:])
        if abs(kx - 2.0 * math.pi * ri / n) > MOMENTUM_ATOL or abs(ky - 2.0 * math.pi * si / n) > MOMENTUM_ATOL:
            raise CheckError(f"row ({ri}, {si}): momentum ({kx}, {ky}) off the 2 pi/n grid")
        r.append(ri)
        s.append(si)
        energy.append(e)
    if list(zip(r, s)) != sorted(zip(r, s)):
        raise CheckError("bands CSV rows are not in lexicographic (r, s) order")
    return np.array(r), np.array(s), np.array(energy)


def read_vectors_csv(lines, dim: int) -> np.ndarray:
    """Eigenvector CSV (one column per line, interleaved real,imag) as a dim x dim matrix."""
    # One printf-style call re-renders a whole line; "%.17g" matches format(x, ".17g").
    line_format = ",".join(["%.17g"] * (2 * dim))
    columns = []
    for j, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) != 2 * dim:
            raise CheckError(f"vectors CSV line {j} has {len(fields)} fields, expected {2 * dim}")
        values = [float(f) for f in fields]
        if line_format % tuple(values) != line:
            raise CheckError(f"vectors CSV line {j}: a field does not round-trip at 17 digits")
        pairs = np.array(values)
        columns.append(pairs[0::2] + 1j * pairs[1::2])
    if len(columns) != dim:
        raise CheckError(f"vectors CSV has {len(columns)} lines, expected {dim}")
    return np.stack(columns, axis=1)


def check_cli_outputs(band_path: str, vectors_path: str, n: int, alpha: float, t: float) -> dict[str, float]:
    """Re-parse the two CSVs of ``tbbands bands --vectors`` and check the basis they hold.

    Row j of the bands CSV labels line j of the vectors CSV: both follow the
    basis's (r, s) order. Files are read line by line, so the checker adds
    little to the run's peak memory.
    """
    r, s, energy = read_band_csv(read_lines(band_path), n)
    vectors = read_vectors_csv(read_lines(vectors_path), n * n)
    return check_basis(vectors, energy, r, s, n, alpha, t)


def file_digest(*paths: str) -> tuple[str, int]:
    """SHA-256 over the files' bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
                size += len(chunk)
    return h.hexdigest(), size
