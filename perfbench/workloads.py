"""The benchmark's three workloads: their inputs, one operation each, and its check.

Each workload is a closed loop with one caller. A round is one operation per
lattice size in ``sizes``, in that order, and every operation draws a fresh
(alpha, t) from the workload seed, so no cache spanning calls can serve it.
The parameter regions stay where the program is known to meet the
``tbbands verify`` bounds; README.md says why each was chosen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import check
import spans

# Enough pre-drawn inputs for any run the benchmark can make.
MAX_OPS = 50_000

ALPHA_RANGE = (-3.0, 3.0)
T_RANGE = (0.05, 1.5)  # |t|, either sign


@dataclass(frozen=True)
class Output:
    """What one operation produced, as the checker needs it."""

    vectors: np.ndarray | None = None
    energies: np.ndarray | None = None
    labels: np.ndarray | None = None
    band_path: str | None = None
    vectors_path: str | None = None


def library_op(tb, n: int, alpha: float, t: float, out_dir: str) -> Output:
    """The README's library path: build_family -> simultaneous_basis_refine -> verify_basis."""
    spec = tb.LatticeSpec(n=n, alpha=alpha, t=t)
    family = tb.build_family(spec)
    basis = tb.simultaneous_basis_refine(family)
    tb.verify_basis(basis, family, spec)
    return Output(
        vectors=basis.vectors,
        energies=np.asarray(basis.energies),
        labels=np.asarray(basis.labels, dtype=int).reshape(-1, 2),
    )


class OperationFailed(Exception):
    """The program reported a failure instead of a result."""


def cli_op(tb, n: int, alpha: float, t: float, out_dir: str) -> Output:
    """``tbbands bands --vectors`` in process, with the default refine method."""
    band_path = os.path.join(out_dir, "bands.csv")
    vectors_path = os.path.join(out_dir, "vectors.csv")
    code = tb.cli.main([
        "bands", "--n", str(n), "--alpha", repr(alpha), "--t", repr(t),
        "--vectors", vectors_path, "--out", band_path,
    ])
    if code != 0:
        raise OperationFailed(f"tbbands bands exited {code}")
    return Output(band_path=band_path, vectors_path=vectors_path)


def check_output(output: Output, n: int, alpha: float, t: float) -> tuple[str, int]:
    """Raise check.CheckError unless the output is a correct labelled basis.

    Returns the digest and size in bytes of the files written, or ("", 0)
    for the library path, which writes none.
    """
    if output.band_path is None:
        r, s = output.labels[:, 0], output.labels[:, 1]
        check.check_basis(output.vectors, output.energies, r, s, n, alpha, t)
        return "", 0
    check.check_cli_outputs(output.band_path, output.vectors_path, n, alpha, t)
    return check.file_digest(output.band_path, output.vectors_path)


def _signed(rng, low: float, high: float, count: int) -> np.ndarray:
    return rng.uniform(low, high, count) * rng.choice([-1.0, 1.0], count)


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int
    sizes: tuple[int, ...]
    op: object
    sites: list
    determinism: bool
    # Whether operation times are scaled by the calibration kernel. The kernel
    # follows the host's drift for Python-bound and small-matrix work; it does
    # not follow dense work at N = 900, where scaling doubled the spread of a
    # repeated operation's time (see README.md, Steadiness).
    calibrated: bool
    warmup: tuple[int, float, float] = (8, 1.0, 0.2)

    def rounds(self, seed: int) -> list[list[tuple[int, float, float]]]:
        """Every round the run may attempt, drawn from the seed alone."""
        rng = np.random.default_rng([self.tag, seed])
        count = MAX_OPS // len(self.sizes) * len(self.sizes)
        alpha = rng.uniform(*ALPHA_RANGE, count)
        t = _signed(rng, *T_RANGE, count)
        inputs = [(n, float(a), float(b)) for n, a, b in zip(self.sizes * (count // len(self.sizes)), alpha, t)]
        step = len(self.sizes)
        return [inputs[i:i + step] for i in range(0, count, step)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("refine_large", 1, (30,), library_op, spans.LIBRARY_SITES,
                 determinism=False, calibrated=False),
        Workload("sweep_small", 2, tuple(range(3, 17)), library_op, spans.LIBRARY_SITES,
                 determinism=False, calibrated=True),
        Workload("cli_vectors", 3, (22,), cli_op, spans.CLI_SITES,
                 determinism=True, calibrated=True),
    )
}
