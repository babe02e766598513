"""Tests of the benchmark's own checker and tracer.

Run from the root of the checkout:  python3 -m pytest perfbench -q

The checker must accept the program's basis and reject bases that are wrong
in ways a solver can plausibly go wrong while H alone still looks fine.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import spans  # noqa: E402
import tbbands  # noqa: E402
import tbbands.cli  # noqa: E402
import workloads  # noqa: E402


def program_basis(n, alpha, t):
    spec = tbbands.LatticeSpec(n=n, alpha=alpha, t=t)
    basis = tbbands.simultaneous_basis_refine(tbbands.build_family(spec))
    labels = np.asarray(basis.labels, dtype=int)
    return basis.vectors.copy(), basis.energies.copy(), labels[:, 0].copy(), labels[:, 1].copy()


def degenerate_pair(energies, r, s):
    """Two columns with equal energy and different momenta."""
    order = np.argsort(energies)
    for a, b in zip(order[:-1], order[1:]):
        if abs(energies[a] - energies[b]) < 1e-12 and (r[a], s[a]) != (r[b], s[b]):
            return int(a), int(b)
    raise AssertionError("no degenerate pair")


def test_bounds_are_those_printed_by_verify_help():
    text = io.StringIO()
    with contextlib.redirect_stdout(text), pytest.raises(SystemExit):
        tbbands.cli.main(["verify", "--help"])
    help_text = " ".join(text.getvalue().split())
    for key, bound in check.BOUNDS.items():
        assert f"{key} <= {bound:g}" in help_text


@pytest.mark.parametrize("n, alpha, t", [(3, 1.0, 0.2), (4, -2.5, -1.3), (6, 0.0, 0.7), (9, 2.9, -0.05)])
def test_accepts_program_basis(n, alpha, t):
    metrics = check.check_basis(*program_basis(n, alpha, t), n, alpha, t)
    assert set(metrics) == set(check.BOUNDS)


def test_accepts_program_cli_outputs(tmp_path):
    n, alpha, t = 6, -1.7, 0.45
    band, vectors = tmp_path / "bands.csv", tmp_path / "vectors.csv"
    argv = ["bands", "--n", str(n), "--alpha", repr(alpha), "--t", repr(t),
            "--vectors", str(vectors), "--out", str(band)]
    assert tbbands.cli.main(argv) == 0
    check.check_cli_outputs(str(band), str(vectors), n, alpha, t)


def test_rejects_mixed_degenerate_columns():
    n, alpha, t = 6, 1.0, 0.3
    v, e, r, s = program_basis(n, alpha, t)
    a, b = degenerate_pair(e, r, s)
    c = math.cos(0.3)
    v[:, [a, b]] = v[:, [a, b]] @ np.array([[c, -math.sin(0.3)], [math.sin(0.3), c]])
    metrics = check.basis_metrics(v, e, r, s, n, alpha, t)
    assert metrics["max_residual_h"] <= check.BOUNDS["max_residual_h"]
    with pytest.raises(check.CheckError, match="max_residual_s"):
        check.check_basis(v, e, r, s, n, alpha, t)


def test_rejects_swapped_labels():
    n, alpha, t = 6, 1.0, 0.3
    v, e, r, s = program_basis(n, alpha, t)
    a, b = degenerate_pair(e, r, s)
    r[[a, b]], s[[a, b]] = r[[b, a]], s[[b, a]]
    with pytest.raises(check.CheckError, match="max_residual_s"):
        check.check_basis(v, e, r, s, n, alpha, t)


def test_rejects_conjugated_column():
    n, alpha, t = 6, 1.0, 0.3
    v, e, r, s = program_basis(n, alpha, t)
    j = int(np.flatnonzero((r == 1) & (s == 2))[0])
    v[:, j] = v[:, j].conj()
    with pytest.raises(check.CheckError, match="max_residual_s"):
        check.check_basis(v, e, r, s, n, alpha, t)


def test_rejects_labels_that_are_not_a_bijection():
    n, alpha, t = 4, 1.0, 0.3
    v, e, r, s = program_basis(n, alpha, t)
    r[0], s[0] = r[1], s[1]
    with pytest.raises(check.CheckError, match="bijection"):
        check.check_basis(v, e, r, s, n, alpha, t)


def test_rejects_field_that_does_not_round_trip():
    rows = ["r,s,kx,ky,energy"] + [
        f"{r},{s},{format(2 * math.pi * r / 3, '.17g')},{format(2 * math.pi * s / 3, '.17g')},1.0"
        for r in range(3) for s in range(3)
    ]
    with pytest.raises(check.CheckError, match="round-trip"):
        check.read_band_csv(rows, 3)
    with pytest.raises(check.CheckError, match="round-trip"):
        check.read_vectors_csv(["0.5,0,0.25,0", "1e-3,0,0.75,-0"], 2)
    assert check.read_vectors_csv(["0.5,0,0.25,0", "0.001,0,0.75,-0"], 2).shape == (2, 2)


def test_rounds_are_whole_and_seeded():
    sweep = workloads.WORKLOADS["sweep_small"]
    first, again, other = sweep.rounds(7), sweep.rounds(7), sweep.rounds(8)
    assert first == again and first != other
    assert all([n for n, _, _ in rnd] == list(sweep.sizes) for rnd in first)


def test_tracer_reports_missing_names_as_absent():
    renamed = [site for site in spans.SOLVER_SITES if site[1] != "fix_phase"]
    renamed.append(("tbbands.simdiag", "fix_phase_renamed", "simdiag.fix_phase", None))
    tracer = spans.Tracer()
    tracer.install(renamed + spans.LIBRARY_SITES)
    try:
        root = tracer.open("op")
        workloads.library_op(tbbands, 4, 1.0, 0.2, "")
        tracer.close(root)
    finally:
        tracer.restore()
    row = spans.op_metrics(tracer.spans, root, 16, 0)
    assert row["eigen.eigh_calls"] > 0 and row["analytic.vector_calls"] == 16
    report = spans.layer_report([row], tracer.missing)
    assert report["simdiag.fix_phase_s"]["value"] is None
    assert report["simdiag.refine_s"]["value"] > report["simdiag.refine_self_s"]["value"] > 0
    assert tbbands.simdiag.eig_hermitian.__name__ == "eig_hermitian"
    assert not hasattr(tbbands.simdiag.eig_hermitian, "__wrapped__")
