"""End-to-end pipeline: dispersion relation, spectrum, and oracle comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .analytic import analytic_energies, label_codes
from .model import CommutingFamily, LatticeSpec, build_family
from .simdiag import (
    SymBasis,
    VerificationReport,
    sector_eigh,
    simultaneous_basis_combination,
    simultaneous_basis_refine,
    verify_basis,
)

METHODS = ("refine", "combination")


@dataclass(frozen=True, eq=False)
class BandData:
    """Numerical dispersion relation: one row per momentum index, lexicographic in (r, s)."""

    r: np.ndarray
    s: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    energy: np.ndarray

    @property
    def rows(self) -> Iterator[tuple[int, int, float, float, float]]:
        for j in range(self.r.shape[0]):
            yield (
                int(self.r[j]),
                int(self.s[j]),
                float(self.kx[j]),
                float(self.ky[j]),
                float(self.energy[j]),
            )


def band_from_energies(spec: LatticeSpec, labels, energies: np.ndarray) -> BandData:
    """Assemble a BandData table from labelled energies, rows in label order.

    ``labels`` is a sequence of index pairs or a (k, 2) integer array.
    """
    codes = label_codes(spec, labels)
    order = np.argsort(codes, kind="stable")
    r, s = np.divmod(codes[order], spec.n)
    return BandData(
        r=r,
        s=s,
        kx=2.0 * math.pi * r / spec.n,
        ky=2.0 * math.pi * s / spec.n,
        energy=np.asarray(energies, dtype=float)[order],
    )


def compute_basis(
    spec: LatticeSpec, method: str = "refine"
) -> tuple[CommutingFamily, SymBasis]:
    """Build the operator family and solve for its simultaneous eigenbasis."""
    family = build_family(spec)
    if method == "refine":
        basis = simultaneous_basis_refine(family)
    elif method == "combination":
        basis = simultaneous_basis_combination(family)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return family, basis


def compute_dispersion(
    spec: LatticeSpec, method: str = "refine"
) -> tuple[BandData, VerificationReport]:
    """Numerical dispersion relation plus the verification report of its basis.

    Energies are alpha - t lambda, with lambda each column's hopping eigenvalue
    as the solver computed it (from the refine method's block coordinates, or
    the combination method's Rayleigh quotients), not closed-form
    substitutions, so comparing them against the analytic values measures real
    solver error.
    """
    family, basis = compute_basis(spec, method)
    band = band_from_energies(spec, basis.labels, basis.energies)
    return band, verify_basis(basis, family, spec)


def compute_spectrum(spec: LatticeSpec) -> np.ndarray:
    """Eigenvalues of the Hamiltonian, ascending (no momentum labels needed).

    The eigenvalues alpha - t lambda of H = alpha I - t A, from the same
    reflection-parity sector eigensolve of the hopping operator A that the
    refine method starts from.
    """
    hopping = sector_eigh(build_family(spec).n).values
    return np.sort(spec.alpha - spec.t * hopping)


def analytic_dispersion(spec: LatticeSpec) -> BandData:
    """Closed-form dispersion table in the same layout as :func:`compute_dispersion`."""
    labels = np.stack(np.divmod(np.arange(spec.dim), spec.n), axis=1)
    return band_from_energies(spec, labels, analytic_energies(spec).ravel())


def compare_to_analytic(band: BandData, spec: LatticeSpec) -> np.ndarray:
    """n x n grid of absolute energy errors against the closed-form values.

    Entry [r, s] is |energy(r, s) - analytic(r, s)|, the layout used for
    error-surface exports.
    """
    if band.r.shape[0] != spec.dim:
        raise ValueError(f"band has {band.r.shape[0]} rows, expected {spec.dim}")
    exact = analytic_energies(spec)
    grid = np.zeros((spec.n, spec.n))
    grid[band.r, band.s] = np.abs(band.energy - exact[band.r, band.s])
    return grid
