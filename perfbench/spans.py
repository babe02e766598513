"""Spans around calls into tbbands, recorded from the benchmark's side.

The program is not edited: :class:`Tracer` replaces public names by attribute
on the modules where the program (or the benchmark's workload) looks them up,
and restores them on :meth:`Tracer.restore`. A name that does not exist at the
commit under test (or whose module is missing) is skipped, and the metrics
built on it read ``None``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field

# Internal helpers, looked up by the solver in its own module namespace:
# (module, attribute, span name, what to record about the call).
SOLVER_SITES = [
    ("tbbands.simdiag", "eig_hermitian", "eigen.eigh", "dim"),
    ("tbbands.simdiag", "cluster_eigenvalues", "eigen.cluster", "clusters"),
    ("tbbands.simdiag", "fix_phase", "simdiag.fix_phase", None),
    ("tbbands.simdiag", "momentum_labels", "simdiag.labels", None),
    ("tbbands.simdiag", "analytic_eigenvector", "analytic.vector", None),
]

# Entry points, wrapped where each workload looks them up.
LIBRARY_SITES = [
    ("tbbands", "build_family", "model.build_family", None),
    ("tbbands", "simultaneous_basis_refine", "simdiag.refine", None),
    ("tbbands", "verify_basis", "simdiag.verify", None),
]
CLI_SITES = [
    ("tbbands.cli", "main", "cli.main", None),
    ("tbbands.cli", "compute_basis", "bands.compute_basis", None),
    ("tbbands.cli", "band_from_energies", "bands.band_from_energies", None),
    ("tbbands.bands", "build_family", "model.build_family", None),
    ("tbbands.bands", "simultaneous_basis_refine", "simdiag.refine", None),
]

# Per-layer metric -> (unit, span names it needs).
LAYER_METRICS = {
    "model.build_family_s": ("s", ["model.build_family"]),
    "eigen.eigh_full_s": ("s", ["eigen.eigh"]),
    "eigen.eigh_block_s": ("s", ["eigen.eigh"]),
    "eigen.eigh_calls": ("count", ["eigen.eigh"]),
    "eigen.eigh_work_n3": ("count", ["eigen.eigh"]),
    "eigen.cluster_s": ("s", ["eigen.cluster"]),
    "eigen.max_block_after_h": ("count", ["eigen.cluster", "simdiag.refine"]),
    "simdiag.refine_s": ("s", ["simdiag.refine"]),
    "simdiag.refine_self_s": ("s", ["simdiag.refine"]),
    "simdiag.fix_phase_s": ("s", ["simdiag.fix_phase"]),
    "simdiag.fix_phase_calls": ("count", ["simdiag.fix_phase"]),
    "simdiag.labels_s": ("s", ["simdiag.labels"]),
    "simdiag.verify_s": ("s", ["simdiag.verify"]),
    "analytic.vector_s": ("s", ["analytic.vector"]),
    "analytic.vector_calls": ("count", ["analytic.vector"]),
    "cli.output_self_s": ("s", ["cli.main"]),
    "cli.output_bytes": ("bytes", []),
}


def _describe(kind: str | None, args: tuple, result) -> dict:
    if kind == "dim":
        return {"dim": len(args[0])}
    if kind == "clusters":
        return {"size": len(args[0]), "max_block": max(len(c) for c in result.clusters)}
    return {}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one root span per benchmark operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def install(self, sites) -> None:
        for module_name, attr, name, kind in sites:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            setattr(owner, attr, self._wrap(original, name, kind))
            self._patched.append((owner, attr, original))

    def _wrap(self, original, name: str, kind: str | None):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
                try:
                    self.spans[index].attrs = _describe(kind, args, result)
                except (AttributeError, TypeError, ValueError):
                    # The call's shape changed at this commit: drop the metrics built on it.
                    self.missing.add(name)
                return result
            finally:
                self.close(index)

        return traced

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def op_metrics(spans: list[Span], root: int, dim: int, output_bytes: int) -> dict[str, float]:
    """Per-layer figures of one operation, from the spans under ``root``.

    A span's self time is its duration minus that of its direct children.
    """
    children_time: dict[int, float] = {}
    by_name: dict[str, list[Span]] = {}
    for index in range(root + 1, len(spans)):
        span = spans[index]
        children_time[span.parent] = children_time.get(span.parent, 0.0) + span.duration
        by_name.setdefault(span.name, []).append(span)
    self_time = {
        index: spans[index].duration - children_time.get(index, 0.0)
        for index in range(root + 1, len(spans))
    }

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, []))

    def total_self(name: str) -> float:
        return sum(self_time[i] for i in range(root + 1, len(spans)) if spans[i].name == name)

    eighs = by_name.get("eigen.eigh", [])
    after_h = [
        s.attrs.get("max_block", 0)
        for s in by_name.get("eigen.cluster", [])
        if s.attrs.get("size") == dim and s.parent is not None and spans[s.parent].name == "simdiag.refine"
    ]
    return {
        "model.build_family_s": total("model.build_family"),
        "eigen.eigh_full_s": sum(s.duration for s in eighs if s.attrs.get("dim", 0) == dim),
        "eigen.eigh_block_s": sum(s.duration for s in eighs if s.attrs.get("dim", 0) < dim),
        "eigen.eigh_calls": len(eighs),
        "eigen.eigh_work_n3": sum(s.attrs.get("dim", 0) ** 3 for s in eighs),
        "eigen.cluster_s": total("eigen.cluster"),
        "eigen.max_block_after_h": after_h[0] if after_h else 0,
        "simdiag.refine_s": total("simdiag.refine"),
        "simdiag.refine_self_s": total_self("simdiag.refine"),
        "simdiag.fix_phase_s": total("simdiag.fix_phase"),
        "simdiag.fix_phase_calls": len(by_name.get("simdiag.fix_phase", [])),
        "simdiag.labels_s": total("simdiag.labels"),
        "simdiag.verify_s": total("simdiag.verify"),
        "analytic.vector_s": total("analytic.vector"),
        "analytic.vector_calls": len(by_name.get("analytic.vector", [])),
        "cli.output_self_s": total_self("cli.main"),
        "cli.output_bytes": output_bytes,
    }


def layer_report(per_op: list[dict[str, float]], missing: set[str]) -> dict[str, dict]:
    """Median over operations of every per-layer metric; None where a wrapped name is missing."""
    report = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        absent = any(n in missing for n in needs)
        value = None if absent else statistics.median(op[name] for op in per_op)
        report[name] = {"value": value, "unit": unit}
    return report
