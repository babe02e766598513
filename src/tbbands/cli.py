"""Command-line interface: build, solve, verify, and export dispersion data.

Subcommands
-----------
spectrum   sorted Hamiltonian eigenvalues as CSV ``index,energy``
bands      numerical dispersion as CSV ``r,s,kx,ky,energy``
verify     basis-quality metrics as ``key=value`` lines, checked against
           fixed thresholds
analytic   closed-form dispersion in the same CSV schema as ``bands``

Exit codes: 0 success, 1 computational failure, 2 usage error,
3 verification threshold breach.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import MomentumIndex, analytic_eigenvector
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
EXIT_USAGE = 2
EXIT_THRESHOLD = 3

# verify exits 0 only when every metric stays below its threshold.
VERIFY_THRESHOLDS = {
    "max_residual_h": 1.9e-11,
    "max_residual_sx": 1.9e-11,
    "max_residual_sy": 1.9e-11,
    "max_orthogonality_defect": 3.8e-11,
    "max_eigenvalue_error": 1.1e-13,
    "max_entrywise_vector_error": 3.5e-12,
}


@dataclass
class RunConfig:
    n: int
    alpha: float
    t: float
    method: str = "refine"
    gap_tol: float | None = None
    filter_tol: float | None = None
    output_path: str | None = None
    vectors_path: str | None = None

    def spec(self) -> LatticeSpec:
        return LatticeSpec(n=self.n, alpha=self.alpha, t=self.t)


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

    Rendered with ``%.17g``, which gives the same text as :func:`_fmt`.
    """
    rows = np.ascontiguousarray(vectors.T, dtype=complex).view(float)
    template = ",".join(["%.17g"] * rows.shape[1])
    _write_lines(path, [template % tuple(row.tolist()) for row in rows])


def cmd_spectrum(config: RunConfig) -> int:
    spectrum = compute_spectrum(config.spec())
    lines = ["index,energy"]
    for i, value in enumerate(spectrum.values):
        lines.append(f"{i},{_fmt(value)}")
    _write_lines(config.output_path, lines)
    return EXIT_OK


def cmd_bands(config: RunConfig) -> int:
    spec = config.spec()
    _family, basis = compute_basis(
        spec, config.method, config.gap_tol, config.filter_tol
    )
    band = band_from_energies(spec, basis.labels, basis.energies)
    _write_band_csv(config.output_path, band)
    if config.vectors_path is not None:
        _write_vectors_csv(config.vectors_path, basis.vectors)
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    spec = config.spec()
    family, basis = compute_basis(
        spec, config.method, config.gap_tol, config.filter_tol
    )
    report = verify_basis(basis, family, spec)
    for key, value in report.as_dict().items():
        print(f"{key}={_fmt(value)}")
    if config.vectors_path is not None:
        _write_vectors_csv(config.vectors_path, basis.vectors)
    breached = [
        key for key, value in report.as_dict().items() if value > VERIFY_THRESHOLDS[key]
    ]
    if breached:
        print(f"threshold breached: {', '.join(breached)}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_analytic(config: RunConfig) -> int:
    spec = config.spec()
    band = analytic_dispersion(spec)
    _write_band_csv(config.output_path, band)
    if config.vectors_path is not None:
        vectors = np.stack(
            [
                analytic_eigenvector(spec, MomentumIndex(int(r), int(s)))
                for r, s in zip(band.r, band.s)
            ],
            axis=1,
        )
        _write_vectors_csv(config.vectors_path, vectors)
    return EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "bands": cmd_bands,
    "verify": cmd_verify,
    "analytic": cmd_analytic,
}


def _add_common_flags(sub: argparse.ArgumentParser, with_method: bool) -> None:
    sub.add_argument("--n", type=int, required=True, help="lattice sites per dimension (must be >= 3)")
    sub.add_argument("--alpha", type=float, default=1.0, help="on-site energy (default 1.0)")
    sub.add_argument("--t", type=float, default=0.2, help="hopping amplitude (default 0.2)")
    sub.add_argument("--out", dest="out", default=None, help="output CSV path (default: stdout)")
    if with_method:
        sub.add_argument(
            "--method", choices=METHODS, default="refine",
            help="simultaneous-basis algorithm (default refine)",
        )
        sub.add_argument("--gap-tol", type=float, default=None, help="eigenvalue degeneracy gap")
        sub.add_argument("--filter-tol", type=float, default=None, help="simultaneity residual threshold (combination method)")
        sub.add_argument("--vectors", default=None, help="also write eigenvectors (interleaved real/imag CSV, one per line)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbbands",
        description="Periodic square-lattice tight-binding bands: spectra, "
        "symmetry-labelled dispersion, and verification against the closed-form solution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common_flags(sub.add_parser("spectrum", help="sorted Hamiltonian eigenvalues"), with_method=False)
    _add_common_flags(sub.add_parser("bands", help="momentum-labelled dispersion"), with_method=True)
    thresholds = ", ".join(f"{k} <= {v:g}" for k, v in VERIFY_THRESHOLDS.items())
    _add_common_flags(
        sub.add_parser(
            "verify",
            help="basis-quality metrics",
            description="Prints six key=value metrics; exits 0 only if all "
            f"stay below the built-in thresholds: {thresholds}. Exits 3 on a breach.",
        ),
        with_method=True,
    )
    _add_common_flags(sub.add_parser("analytic", help="closed-form dispersion"), with_method=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 3:
        parser.error(f"--n must be >= 3 (got {args.n})")
    config = RunConfig(
        n=args.n,
        alpha=args.alpha,
        t=args.t,
        method=getattr(args, "method", "refine"),
        gap_tol=getattr(args, "gap_tol", None),
        filter_tol=getattr(args, "filter_tol", None),
        output_path=args.out,
        vectors_path=getattr(args, "vectors", None),
    )
    if config.gap_tol is not None and config.gap_tol <= 0:
        parser.error(f"--gap-tol must be > 0 (got {config.gap_tol})")
    if config.filter_tol is not None and config.filter_tol <= 0:
        parser.error(f"--filter-tol must be > 0 (got {config.filter_tol})")
    try:
        return _COMMANDS[args.command](config)
    except (SimultaneousDiagonalizationError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"tbbands {args.command}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
