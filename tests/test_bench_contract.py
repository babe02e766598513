"""The benchmark's tracer finds every library name it wraps.

``perfbench/spans.py`` wraps names by attribute on the modules where the
library and the workloads look them up. A name that is no longer there is
skipped, and every per-layer metric built on it reads None in a traced
benchmark run that still exits 0; these tests fail instead.
"""

import os
import sys

import pytest

import tbbands
import tbbands.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tracer():
    tracer = spans.Tracer()
    tracer.install(spans.SOLVER_SITES + spans.LIBRARY_SITES + spans.CLI_SITES)
    yield tracer
    tracer.restore()


def test_every_wrapped_name_resolves(tracer):
    assert tracer.missing == set()


@pytest.mark.parametrize("op", [workloads.library_op, workloads.cli_op])
def test_every_layer_metric_is_a_number(op, tracer, tmp_path):
    n = 4
    root = tracer.open("op")
    op(tbbands, n, 1.0, 0.2, str(tmp_path))
    tracer.close(root)
    assert tracer.missing == set()
    report = spans.layer_report([spans.op_metrics(tracer.spans, root, n * n, 0)], tracer.missing)
    assert set(report) == set(spans.LAYER_METRICS)
    absent = [name for name, m in report.items() if not isinstance(m["value"], (int, float))]
    assert absent == []
