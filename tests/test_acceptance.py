"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from tbbands import cli
from tbbands.analytic import MomentumIndex, analytic_eigenvalue, degeneracy_census
from tbbands.bands import compute_spectrum
from tbbands.eigen import cluster_eigenvalues, eig_hermitian
from tbbands.model import LatticeSpec, build_family, build_hamiltonian
from tbbands.simdiag import simultaneous_basis_refine, verify_basis


def conclude(name, failures):
    print(f"[acceptance] {name}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{name}: " + "; ".join(failures)


def analytic_multiset(spec):
    return np.sort(
        [
            analytic_eigenvalue(spec, MomentumIndex(r, s))
            for r in range(spec.n)
            for s in range(spec.n)
        ]
    )


@pytest.fixture(scope="module")
def sweep():
    """Shared solve sweep for criteria 3-5: n in 3..10, alpha in {0,1}, t in {0.2,1.0},
    plus the fully degenerate t=0 runs for the bijectivity criterion."""
    started = time.perf_counter()
    solved = {}
    for n, alpha, t in itertools.product(range(3, 11), (0.0, 1.0), (0.2, 1.0)):
        spec = LatticeSpec(n, alpha, t)
        family = build_family(spec)
        solved[(n, alpha, t)] = (spec, family, simultaneous_basis_refine(family))
    elapsed = time.perf_counter() - started
    degenerate = {}
    for n in range(3, 11):
        spec = LatticeSpec(n, 1.0, 0.0)
        family = build_family(spec)
        degenerate[n] = (spec, family, simultaneous_basis_refine(family))
    return solved, degenerate, elapsed


def test_criterion_1_reference_experiment(capsys):
    bounds = {
        "max_residual_h": 1.9e-11,
        "max_residual_sx": 1.9e-11,
        "max_residual_sy": 1.9e-11,
        "max_orthogonality_defect": 3.8e-11,
        "max_eigenvalue_error": 1.1e-13,
        "max_entrywise_vector_error": 3.5e-12,
    }
    started = time.perf_counter()
    rc = cli.main(["verify", "--n", "25", "--alpha", "1.0", "--t", "0.2", "--method", "refine"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    metrics = dict(line.split("=") for line in out.strip().splitlines())
    failures = []
    if rc != 0:
        failures.append(f"verify exit code {rc}")
    for key, bound in bounds.items():
        value = float(metrics[key])
        if value > bound:
            failures.append(f"{key}={value:.3e} > {bound:.3e}")
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.1f}s > 120s")
    with capsys.disabled():
        conclude("criterion 1 (25x25 verification run)", failures)


def test_criterion_2_degeneracy_structure():
    spec = LatticeSpec(8, 1.0, 0.2)
    values = compute_spectrum(spec).values
    clusters = cluster_eigenvalues(values, 1e-9).clusters
    failures = []
    if len(clusters) != 13:
        failures.append(f"{len(clusters)} levels != 13")
    sizes = [len(c) for c in clusters]
    means = [values[c.start : c.stop].mean() for c in clusters]
    for want_energy, want_count in ((0.2, 1), (1.8, 1), (1.0, 14)):
        hits = [
            size
            for mean, size in zip(means, sizes)
            if math.isclose(mean, want_energy, abs_tol=1e-9)
        ]
        if hits != [want_count]:
            failures.append(f"level {want_energy}: multiplicities {hits} != [{want_count}]")
    oracle_sizes = [count for _, count in degeneracy_census(spec, tol=1e-9)]
    if sizes != oracle_sizes:
        failures.append(f"cluster sizes {sizes} != enumeration oracle {oracle_sizes}")
    conclude("criterion 2 (n=8 degeneracy structure)", failures)


def test_criterion_3_oracle_equivalence(sweep):
    solved, _degenerate, elapsed = sweep
    failures = []
    for (n, alpha, t), (spec, family, basis) in solved.items():
        fro = np.linalg.norm(family.h)
        computed = eig_hermitian(family.h).values
        gap = np.abs(computed - analytic_multiset(spec)).max()
        if gap > 1e-12 * fro:
            failures.append(f"n={n} a={alpha} t={t}: multiset error {gap:.2e}")
        labelled = max(
            abs(basis.energies[j] - analytic_eigenvalue(spec, label))
            for j, label in enumerate(basis.labels)
        )
        if labelled > 1e-10 * fro:
            failures.append(f"n={n} a={alpha} t={t}: labelled-energy error {labelled:.2e}")
    if elapsed > 60.0:
        failures.append(f"sweep runtime {elapsed:.1f}s > 60s")
    conclude("criterion 3 (oracle equivalence sweep)", failures)


def test_criterion_4_simultaneity(sweep):
    solved, _degenerate, _elapsed = sweep
    failures = []
    for (n, alpha, t), (_spec, family, basis) in solved.items():
        v = basis.vectors
        eye = np.eye(v.shape[1])
        unitary_defect = np.abs(v.conj().T @ v - eye).max()
        if unitary_defect > 1e-10:
            failures.append(f"n={n} a={alpha} t={t}: unitary defect {unitary_defect:.2e}")
        for key, apply in (("h", family.apply_h), ("sx", family.apply_sx), ("sy", family.apply_sy)):
            transformed = v.conj().T @ apply(v)
            off = np.abs(transformed - np.diag(np.diag(transformed))).max()
            if off > 1e-10 * np.linalg.norm(apply(eye)):
                failures.append(f"n={n} a={alpha} t={t}: {key} off-diagonal {off:.2e}")
    conclude("criterion 4 (simultaneous diagonalization)", failures)


def test_criterion_5_label_bijectivity(sweep):
    solved, degenerate, _elapsed = sweep
    failures = []
    runs = [
        (f"n={n} a={alpha} t={t}", n, basis)
        for (n, alpha, t), (_s, _f, basis) in solved.items()
    ]
    runs += [(f"n={n} t=0", n, basis) for n, (_s, _f, basis) in degenerate.items()]
    for tag, n, basis in runs:
        want = {(r, s) for r in range(n) for s in range(n)}
        got = {tuple(label) for label in basis.labels}
        if got != want or len(basis.labels) != n * n:
            failures.append(f"{tag}: labels not bijective")
    conclude("criterion 5 (label bijectivity incl. t=0)", failures)


def test_criterion_6_cross_method_agreement():
    from tbbands.simdiag import simultaneous_basis_combination

    failures = []
    for n in (3, 4, 5):
        spec = LatticeSpec(n, 1.0, 0.2)
        family = build_family(spec)
        refined = simultaneous_basis_refine(family)
        combined = simultaneous_basis_combination(family)
        if refined.labels != combined.labels:
            failures.append(f"n={n}: label sets differ")
            continue
        for j in range(n * n):
            a = refined.vectors[:, j]
            b = combined.vectors[:, j]
            overlap = np.vdot(b, a)
            if abs(overlap) > 0:
                b = b * (overlap / abs(overlap))
            gap = np.abs(a - b).max()
            if gap > 1e-9:
                failures.append(f"n={n} column {j}: distance {gap:.2e}")
    conclude("criterion 6 (refine vs combination)", failures)


def test_criterion_7_exact_structure():
    failures = []
    for n in (3, 4, 8, 16, 25, 32):
        spec = LatticeSpec(n, 1.0, 0.2)
        family = build_family(spec)
        eye = np.eye(n * n)
        for name, a, b in (
            ("[h,sx]", family.apply_h, family.apply_sx),
            ("[h,sy]", family.apply_h, family.apply_sy),
            ("[sx,sy]", family.apply_sx, family.apply_sy),
        ):
            # applied to the identity, both orders give the full product matrices
            defect = np.abs(a(b(eye)) - b(a(eye))).max()
            if defect != 0.0:
                failures.append(f"n={n}: {name} max entry {defect!r}")
        h = build_hamiltonian(spec)
        diagonal = np.diag(h)
        if not np.all(diagonal == spec.alpha):
            failures.append(f"n={n}: diagonal entries deviate from alpha")
        if math.fsum(diagonal.real) != n * n * spec.alpha:
            failures.append(f"n={n}: trace != n^2 alpha")
    conclude("criterion 7 (exact commutators and trace)", failures)


def test_criterion_8_cli_determinism(tmp_path):
    args = ["bands", "--n", "8", "--alpha", "1.0", "--t", "0.2"]
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    failures = []
    if cli.main(args + ["--out", str(first)]) != 0:
        failures.append("first run failed")
    if cli.main(args + ["--out", str(second)]) != 0:
        failures.append("second run failed")
    if not failures and first.read_bytes() != second.read_bytes():
        failures.append("outputs differ byte-wise")
    conclude("criterion 8 (byte-identical reruns)", failures)
