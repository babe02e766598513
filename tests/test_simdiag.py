import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tbbands.analytic import (
    MomentumIndex,
    analytic_eigenvalue,
    analytic_eigenvector,
)
from tbbands.cli import VERIFY_THRESHOLDS
from tbbands.eigen import default_gap_tol
from tbbands.model import LatticeSpec, build_family, build_symmetries
from tbbands.simdiag import (
    STAGE_GAP_TOL,
    CandidateDeficitError,
    MomentumLabelError,
    RefinementError,
    SymBasis,
    combination_matrices,
    filter_simultaneous,
    fix_phase,
    momentum_labels,
    phase_anchor,
    simultaneous_basis_combination,
    simultaneous_basis_refine,
    verify_basis,
)


def all_indices(n):
    return [MomentumIndex(r, s) for r in range(n) for s in range(n)]


def translation_eigs(n, idx):
    """Expected unit-circle eigenvalues of (x, y) translation on the analytic vector."""
    return (
        cmath.exp(-2j * math.pi * idx.s / n),
        cmath.exp(-2j * math.pi * idx.r / n),
    )


def aligned_distance(a, b):
    """Max-modulus entry difference after rotating a onto b's phase."""
    overlap = np.vdot(a, b)
    if abs(overlap) > 0:
        a = a * (overlap / abs(overlap))
    return np.abs(a - b).max()


def analytic_sym_basis(spec):
    """Exact simultaneous basis straight from the closed-form vectors."""
    family = build_family(spec)
    labels = all_indices(spec.n)
    vectors = np.stack([analytic_eigenvector(spec, lab) for lab in labels], axis=1)
    energies = np.real(np.einsum("ij,ij->j", vectors.conj(), family.apply_h(vectors)))
    sym_eigs = np.stack(
        [
            np.einsum("ij,ij->j", vectors.conj(), family.apply_sx(vectors)),
            np.einsum("ij,ij->j", vectors.conj(), family.apply_sy(vectors)),
        ],
        axis=1,
    )
    return family, SymBasis(vectors=vectors, energies=energies, labels=labels, sym_eigs=sym_eigs)


class TestCombinationMatrices:
    def test_stay_in_commuting_algebra(self):
        family = build_family(LatticeSpec(3, 1.0, 0.2))
        k1, k2 = combination_matrices(family)
        eye = np.eye(9)
        for k in (k1, k2):
            for apply in (family.apply_h, family.apply_sx, family.apply_sy):
                assert np.abs(k @ apply(eye) - apply(k)).max() <= 1e-13

    def test_t_zero_collapses_to_scaled_difference(self):
        family = build_family(LatticeSpec(4, 1.3, 0.0))
        k1, _ = combination_matrices(family)
        eye = np.eye(16)
        assert np.array_equal(k1, 1.3 * (family.apply_sx(eye) - family.apply_sy(eye)))

    def test_analytic_vectors_are_eigenvectors_n4(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        family = build_family(spec)
        k1, _ = combination_matrices(family)
        for idx in all_indices(4):
            v = analytic_eigenvector(spec, idx)
            lam_x, lam_y = translation_eigs(4, idx)
            mu = analytic_eigenvalue(spec, idx) * (lam_x - lam_y)
            assert np.abs(k1 @ v - mu * v).max() <= 1e-13


class TestFixPhase:
    def test_rotates_to_real_positive(self):
        v = np.array([0.3 + 0.4j, 1.0, -2.0j])
        v = v / np.linalg.norm(v)
        out = fix_phase(v)
        assert abs(out[0] - 0.5 / np.linalg.norm([0.5, 1.0, 2.0])) <= 1e-15
        assert abs(out[0].imag) <= 1e-16

    def test_real_positive_anchor_unchanged(self):
        v = np.array([0.6, 0.8j, 0.0], dtype=complex)
        assert np.array_equal(fix_phase(v), v)

    def test_analytic_vector_already_fixed(self):
        v = analytic_eigenvector(LatticeSpec(5, 1.0, 0.2), MomentumIndex(2, 3))
        assert np.array_equal(fix_phase(v), v)

    def test_anchor_fallback_on_tiny_first_entry(self):
        v = np.array([0.0, 1j, 0.0], dtype=complex)
        assert phase_anchor(v) == 1
        out = fix_phase(v)
        assert out[1] == 1.0

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            fix_phase(np.zeros(4, dtype=complex))

    @settings(max_examples=60)
    @given(
        hnp.arrays(
            np.complex128,
            st.integers(2, 12),
            elements=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        )
    )
    def test_idempotent_up_to_rounding(self, v):
        norm = np.linalg.norm(v)
        if norm < 1e-3:
            return
        v = v / norm
        once = fix_phase(v)
        twice = fix_phase(once)
        assert np.abs(twice - once).max() <= 1e-15


class TestMomentumLabels:
    def test_uniform_vector_is_origin(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        family = build_family(spec)
        v = analytic_eigenvector(spec, MomentumIndex(0, 0))[:, None]
        assert momentum_labels(v, family) == [MomentumIndex(0, 0)]

    def test_convention_regression_n4(self):
        # Pins the sign and axis assignment: the analytic vector at (r, s) must
        # label back to exactly (r, s), with the x-translation eigenvalue
        # exp(-2*pi*i*s/n) and the y-translation eigenvalue exp(-2*pi*i*r/n).
        spec = LatticeSpec(4, 1.0, 0.2)
        family = build_family(spec)
        for idx in all_indices(4):
            v = analytic_eigenvector(spec, idx)
            lam_x = np.vdot(v, family.apply_sx(v))
            lam_y = np.vdot(v, family.apply_sy(v))
            want_x, want_y = translation_eigs(4, idx)
            assert abs(lam_x - want_x) <= 1e-14
            assert abs(lam_y - want_y) <= 1e-14
            assert momentum_labels(v[:, None], family) == [idx]

    def test_full_analytic_basis_bijective(self):
        spec = LatticeSpec(5, 1.0, 0.2)
        family = build_family(spec)
        basis = np.stack([analytic_eigenvector(spec, idx) for idx in all_indices(5)], axis=1)
        labels = momentum_labels(basis, family)
        assert labels == all_indices(5)

    def test_rejects_non_simultaneous_columns(self):
        family = build_family(LatticeSpec(3, 1.0, 0.2))
        with pytest.raises(MomentumLabelError):
            momentum_labels(np.eye(9, dtype=complex), family)


class TestFilterSimultaneous:
    def test_accepts_analytic_vector(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        family = build_family(spec)
        idx = MomentumIndex(1, 2)
        accepted = filter_simultaneous([analytic_eigenvector(spec, idx)], family)
        assert len(accepted) == 1
        _v, h_eig, sx_eig, sy_eig = accepted[0]
        assert abs(h_eig - analytic_eigenvalue(spec, idx)) <= 1e-13
        want_x, want_y = translation_eigs(4, idx)
        assert abs(sx_eig - want_x) <= 1e-13
        assert abs(sy_eig - want_y) <= 1e-13

    def test_rejects_mixed_degenerate_combination(self):
        # (1, 0) and (0, 1) share the energy but not the translation eigenvalues
        spec = LatticeSpec(4, 1.0, 0.2)
        family = build_family(spec)
        a = analytic_eigenvector(spec, MomentumIndex(1, 0))
        b = analytic_eigenvector(spec, MomentumIndex(0, 1))
        mixed = (a + b) / np.linalg.norm(a + b)
        assert filter_simultaneous([mixed], family) == []

    def test_rejects_coordinate_vector(self):
        family = build_family(LatticeSpec(4, 1.0, 0.2))
        e0 = np.zeros(16, dtype=complex)
        e0[0] = 1.0
        assert filter_simultaneous([e0], family) == []

    def test_empty_input_is_valid(self):
        family = build_family(LatticeSpec(3, 1.0, 0.2))
        assert filter_simultaneous([], family) == []


class TestRefine:
    def test_n3_matches_analytic_up_to_phase(self):
        spec = LatticeSpec(3, 1.0, 0.2)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        assert basis.labels == all_indices(3)
        for j, label in enumerate(basis.labels):
            exact = analytic_eigenvector(spec, label)
            assert aligned_distance(exact, basis.vectors[:, j]) <= 1e-10

    def test_fully_degenerate_t_zero(self):
        spec = LatticeSpec(4, 1.0, 0.0)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        assert basis.labels == all_indices(4)
        assert np.abs(basis.energies - 1.0).max() <= 1e-12

    @pytest.mark.parametrize(
        "n,alpha,t", [(3, 1.0, 0.2), (5, 0.0, 1.0), (6, 1.0, 1.0), (12, 1.0, 0.2)]
    )
    def test_diagonalizes_all_three(self, n, alpha, t):
        family = build_family(LatticeSpec(n, alpha, t))
        basis = simultaneous_basis_refine(family)
        v = basis.vectors
        assert np.abs(v.conj().T @ v - np.eye(n * n)).max() <= 1e-10
        for apply in (family.apply_h, family.apply_sx, family.apply_sy):
            transformed = v.conj().T @ apply(v)
            off = transformed - np.diag(np.diag(transformed))
            assert np.abs(off).max() <= 1e-10 * np.linalg.norm(apply(np.eye(n * n)))

    def test_energy_sum_matches_trace(self):
        spec = LatticeSpec(6, 0.8, 0.5)
        basis = simultaneous_basis_refine(build_family(spec))
        total = math.fsum(basis.energies)
        scale = spec.n**2 * (abs(spec.alpha) + 4 * abs(spec.t))
        assert abs(total - spec.n**2 * spec.alpha) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_stage_gap_tol_is_dense_default(self, n):
        # default_gap_tol of the dense stage operators, to its last-ulp rounding
        for s in build_symmetries(LatticeSpec(n, 1.0, 0.2)):
            for part in ((s + s.conj().T) / 2.0, (s - s.conj().T) * -0.5j):
                assert math.isclose(default_gap_tol(part), STAGE_GAP_TOL, rel_tol=1e-15)

    @pytest.mark.parametrize(
        "alpha,t",
        # the first pair is an input whose running-sum energies breached the
        # bound (1.24x); the rest are seeded draws from the benchmark's region
        [(1.2562154349235621, -1.365429370315859)]
        + [
            (float(a), float(b))
            for a, b in zip(
                np.random.default_rng(30).uniform(-3.0, 3.0, 4),
                np.random.default_rng(31).uniform(0.05, 1.5, 4) * [1, -1, 1, -1],
            )
        ],
    )
    def test_eigenvalue_error_margin_n30(self, alpha, t):
        spec = LatticeSpec(30, alpha, t)
        family = build_family(spec)
        report = verify_basis(simultaneous_basis_refine(family), family, spec)
        assert report.max_eigenvalue_error <= 0.5 * VERIFY_THRESHOLDS["max_eigenvalue_error"]

    def test_unresolvable_gap_tol_fails_loudly(self):
        family = build_family(LatticeSpec(3, 1.0, 0.2))
        with pytest.raises(RefinementError, match="blocks"):
            simultaneous_basis_refine(family, gap_tol=1e6)

    def test_rejects_nonpositive_gap_tol(self):
        family = build_family(LatticeSpec(3, 1.0, 0.2))
        with pytest.raises(ValueError):
            simultaneous_basis_refine(family, gap_tol=0.0)


class TestCombinationMethod:
    @pytest.mark.parametrize("n", [3, 4])
    def test_agrees_with_refine(self, n):
        spec = LatticeSpec(n, 1.0, 0.2)
        family = build_family(spec)
        a = simultaneous_basis_refine(family)
        b = simultaneous_basis_combination(family)
        assert a.labels == b.labels == all_indices(n)
        for j in range(n * n):
            assert aligned_distance(b.vectors[:, j], a.vectors[:, j]) <= 1e-9

    def test_energies_match_oracle_n4(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        basis = simultaneous_basis_combination(build_family(spec))
        for j, label in enumerate(basis.labels):
            assert abs(basis.energies[j] - analytic_eigenvalue(spec, label)) <= 1e-11

    def test_degenerate_combination_spectrum_fails_loudly(self):
        # at t=0 both combination matrices are degenerate at every (0, s) momentum
        family = build_family(LatticeSpec(4, 1.0, 0.0))
        with pytest.raises(CandidateDeficitError, match="deficit"):
            simultaneous_basis_combination(family)


class TestVerifyBasis:
    def test_exact_analytic_basis_n5(self):
        spec = LatticeSpec(5, 1.0, 0.2)
        family, basis = analytic_sym_basis(spec)
        report = verify_basis(basis, family, spec)
        for value in report.as_dict().values():
            assert 0.0 <= value <= 1e-13

    def test_column_order_does_not_change_metrics(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        family, basis = analytic_sym_basis(spec)
        rng = np.random.default_rng(3)
        perm = rng.permutation(16)
        scrambled = SymBasis(
            vectors=basis.vectors[:, perm],
            energies=basis.energies[perm],
            labels=[basis.labels[j] for j in perm],
            sym_eigs=basis.sym_eigs[perm],
        )
        assert verify_basis(scrambled, family, spec) == verify_basis(basis, family, spec)

    def test_memory_order_does_not_change_metrics(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        family, basis = analytic_sym_basis(spec)
        f_ordered = SymBasis(
            vectors=np.asfortranarray(basis.vectors),
            energies=basis.energies,
            labels=basis.labels,
            sym_eigs=basis.sym_eigs,
        )
        assert verify_basis(f_ordered, family, spec) == verify_basis(basis, family, spec)

    def test_rejects_incomplete_basis(self):
        spec = LatticeSpec(3, 1.0, 0.2)
        family, basis = analytic_sym_basis(spec)
        truncated = SymBasis(
            vectors=basis.vectors[:, :5],
            energies=basis.energies[:5],
            labels=basis.labels[:5],
            sym_eigs=basis.sym_eigs[:5],
        )
        with pytest.raises(ValueError, match="columns"):
            verify_basis(truncated, family, spec)

    def test_computed_basis_unit_circle_sym_eigs(self):
        family = build_family(LatticeSpec(5, 1.0, 0.2))
        basis = simultaneous_basis_refine(family)
        assert np.abs(np.abs(basis.sym_eigs) - 1.0).max() <= 1e-10
