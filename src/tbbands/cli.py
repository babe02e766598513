"""Command-line interface: build, solve, verify, and export dispersion data.

Subcommands
-----------
spectrum   sorted Hamiltonian eigenvalues as CSV ``index,energy``
bands      numerical dispersion as CSV ``r,s,kx,ky,energy``
verify     basis-quality metrics as ``key=value`` lines, checked against
           fixed thresholds
analytic   closed-form dispersion in the same CSV schema as ``bands``

Exit codes: 0 success, 1 computational failure or an output file that
cannot be written, 2 usage error, 3 verification threshold breach.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analytic import analytic_eigenvectors
from .bands import (
    METHODS,
    analytic_dispersion,
    band_from_energies,
    compute_basis,
    compute_spectrum,
)
from .model import LatticeSpec
from .simdiag import SimultaneousDiagonalizationError, verify_basis

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_THRESHOLD = 3

# verify exits 0 only when every metric is at most its threshold (a NaN breaches).
VERIFY_THRESHOLDS = {
    "max_residual_h": 1.9e-11,
    "max_residual_sx": 1.9e-11,
    "max_residual_sy": 1.9e-11,
    "max_orthogonality_defect": 3.8e-11,
    "max_eigenvalue_error": 1.1e-13,
    "max_entrywise_vector_error": 3.5e-12,
}


# Eigenvector lines per write: the file is never held whole in memory.
_CHUNK_LINES = 64


def _fmt(x: float) -> str:
    """17 significant digits: enough for exact float round-trips."""
    return format(float(x), ".17g")


def _write_lines(path: str | None, lines) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_band_csv(path: str | None, band) -> None:
    lines = ["r,s,kx,ky,energy"]
    for r, s, kx, ky, energy in band.rows:
        lines.append(f"{r},{s},{_fmt(kx)},{_fmt(ky)},{_fmt(energy)}")
    _write_lines(path, lines)


def _write_vectors_csv(path: str, vectors: np.ndarray) -> None:
    """One eigenvector per line, entries as interleaved real,imag pairs.

    The entries repeat: a momentum eigenvector is a phase times the plane wave
    e^{2 pi i (r p + s q)/n} / n, so a column holds only O(n) distinct values,
    and the solver keeps many of them bit-identical (the lift of the C4v
    blocks writes entries as exact +-sqrt(1/2) copies, and oe's vectors are
    eo's with the site grid transposed). Each distinct bit pattern is
    therefore rendered once with ``%.17g``, the text of :func:`_fmt` (bits,
    not values, so -0.0 stays "-0"), and the file is written _CHUNK_LINES
    lines at a time from that table.
    """
    rows = np.ascontiguousarray(vectors.T, dtype=complex).view(float)
    bits, inverse = np.unique(rows.view(np.uint64), return_inverse=True)
    inverse = inverse.reshape(rows.shape)
    rendered = ("%.17g," * len(bits) % tuple(bits.view(float).tolist())).split(",")
    table = np.array(rendered[:-1], dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(rows), _CHUNK_LINES):
            cells = table[inverse[start:start + _CHUNK_LINES]].tolist()
            fh.write("\n".join(map(",".join, cells)) + "\n")


def cmd_spectrum(args: argparse.Namespace, spec: LatticeSpec) -> int:
    lines = ["index,energy"]
    for i, value in enumerate(compute_spectrum(spec)):
        lines.append(f"{i},{_fmt(value)}")
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_bands(args: argparse.Namespace, spec: LatticeSpec) -> int:
    _family, basis = compute_basis(spec, args.method)
    band = band_from_energies(spec, basis.labels, basis.energies)
    _write_band_csv(args.out, band)
    if args.vectors is not None:
        _write_vectors_csv(args.vectors, basis.vectors)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, spec: LatticeSpec) -> int:
    family, basis = compute_basis(spec, args.method)
    report = verify_basis(basis, family, spec).as_dict()
    _write_lines(args.out, [f"{key}={_fmt(value)}" for key, value in report.items()])
    if args.vectors is not None:
        _write_vectors_csv(args.vectors, basis.vectors)
    breached = [key for key, value in report.items() if not value <= VERIFY_THRESHOLDS[key]]
    if breached:
        print(f"threshold breached: {', '.join(breached)}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_analytic(args: argparse.Namespace, spec: LatticeSpec) -> int:
    band = analytic_dispersion(spec)
    _write_band_csv(args.out, band)
    if args.vectors is not None:
        vectors = analytic_eigenvectors(spec, np.stack([band.r, band.s], axis=1))
        _write_vectors_csv(args.vectors, vectors)
    return EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "bands": cmd_bands,
    "verify": cmd_verify,
    "analytic": cmd_analytic,
}


def _add_common_flags(
    sub: argparse.ArgumentParser, with_method: bool, with_vectors: bool
) -> None:
    sub.add_argument("--n", type=int, required=True, help="lattice sites per dimension (must be >= 3)")
    sub.add_argument("--alpha", type=float, default=1.0, help="on-site energy (default 1.0)")
    sub.add_argument("--t", type=float, default=0.2, help="hopping amplitude (default 0.2)")
    sub.add_argument("--out", dest="out", default=None, help="output CSV path (default: stdout)")
    if with_method:
        sub.add_argument(
            "--method", choices=METHODS, default="refine",
            help="simultaneous-basis algorithm (default refine)",
        )
    if with_vectors:
        sub.add_argument("--vectors", default=None, help="also write eigenvectors (interleaved real/imag CSV, one per line)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbbands",
        description="Periodic square-lattice tight-binding bands: spectra, "
        "symmetry-labelled dispersion, and verification against the closed-form solution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common_flags(
        sub.add_parser("spectrum", help="sorted Hamiltonian eigenvalues"),
        with_method=False, with_vectors=False,
    )
    _add_common_flags(
        sub.add_parser("bands", help="momentum-labelled dispersion"),
        with_method=True, with_vectors=True,
    )
    thresholds = ", ".join(f"{k} <= {v:g}" for k, v in VERIFY_THRESHOLDS.items())
    _add_common_flags(
        sub.add_parser(
            "verify",
            help="basis-quality metrics",
            description="Prints six key=value metrics; exits 0 only if all "
            f"stay below the built-in thresholds: {thresholds}. Exits 3 on a "
            "breach; a NaN metric is a breach.",
        ),
        with_method=True, with_vectors=True,
    )
    _add_common_flags(
        sub.add_parser("analytic", help="closed-form dispersion"),
        with_method=False, with_vectors=True,
    )
    return parser


def _join_parameter_values(argv: list[str]) -> list[str]:
    """Pass ``--alpha X``, or any prefix of it from ``--a``, and ``--t X`` as
    ``--alpha=X``: argparse takes -1e-6 for an option."""
    joined, tokens = [], iter(argv)
    for token in tokens:
        parameter = token == "--t" or (len(token) > 2 and "--alpha".startswith(token))
        value = next(tokens, None) if parameter else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_parameter_values(sys.argv[1:] if argv is None else argv))
    paths = [os.path.abspath(p) for p in (args.out, getattr(args, "vectors", None)) if p]
    if len(paths) == 2 and paths[0] == paths[1]:
        parser.error(f"--out and --vectors name the same file: {args.out}")
    try:
        spec = LatticeSpec(n=args.n, alpha=args.alpha, t=args.t)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return _COMMANDS[args.command](args, spec)
    except (SimultaneousDiagonalizationError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"tbbands {args.command}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        target = "standard output" if exc.filename is None else exc.filename
        print(f"tbbands {args.command}: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
