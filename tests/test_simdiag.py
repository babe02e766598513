import cmath
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tbbands.analytic import analytic_eigenvector, analytic_eigenvectors
from tbbands.bands import compute_spectrum
from tbbands.cli import VERIFY_THRESHOLDS
from tbbands import simdiag
from tbbands.eigen import cluster_eigenvalues, default_gap_tol, eig_hermitian
from tbbands.model import (
    X_AXIS,
    Y_AXIS,
    CommutingFamily,
    LatticeSpec,
    apply_hopping,
    build_family,
    ring_factors,
    translate,
)
from tbbands.simdiag import (
    FILTER_RTOL,
    HOPPING_MERGE_TOL,
    STAGE_GAP_TOL,
    CandidateDeficitError,
    MomentumLabelError,
    RefinementError,
    SymBasis,
    combination_matrices,
    filter_simultaneous,
    fix_phase,
    momentum_labels,
    simultaneous_basis_combination,
    simultaneous_basis_refine,
    verify_basis,
)

from analytic_reference import analytic_eigenvalue
from dense_reference import dense_h, dense_hopping, dense_operators, max_residual, sector_eigh


def all_indices(n):
    return [(r, s) for r in range(n) for s in range(n)]


def translation_eigs(n, idx):
    """Expected unit-circle eigenvalues of (x, y) translation on the analytic vector."""
    r, s = idx
    return (
        cmath.exp(-2j * math.pi * s / n),
        cmath.exp(-2j * math.pi * r / n),
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
    labels = np.array(all_indices(spec.n))
    vectors = np.stack([analytic_eigenvector(spec, lab) for lab in labels.tolist()], axis=1)
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
    @pytest.mark.parametrize("n", range(3, 9))
    def test_equal_dense_products_exactly(self, n):
        # equal in value and dtype; only the sign of some zero imaginary
        # parts can differ from a BLAS product, and -0.0 == 0.0
        rng = np.random.default_rng(n)
        draws = [(float(a), float(t)) for a, t in rng.uniform(-3.0, 3.0, (2, 2))]
        for alpha, t in draws + [(1.3, -0.7), (1.3, 0.0), (0.0, 0.2)]:
            spec = LatticeSpec(n, alpha, t)
            h, sx, sy = dense_operators(spec)
            k1, k2 = combination_matrices(build_family(spec))
            for got, want in ((k1, h @ (sx - sy)), (k2, sx @ (h - sy))):
                assert got.dtype == want.dtype == np.complex128
                assert np.array_equal(got, want)

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
        v = analytic_eigenvector(LatticeSpec(5, 1.0, 0.2), (2, 3))
        assert np.array_equal(fix_phase(v), v)

    def test_rejects_first_entry_below_floor(self):
        # The phase is anchored at the first entry alone: a unit vector whose
        # first entry is below ANCHOR_FLOOR/sqrt(dim) has no phase to fix.
        for first in (0.0, 1e-9j, 0.9e-6 / math.sqrt(3)):
            v = np.array([first, 1j, 0.0], dtype=complex)
            v /= np.linalg.norm(v)
            with pytest.raises(ValueError, match="column 0: first entry"):
                fix_phase(v)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            fix_phase(np.zeros(4, dtype=complex))

    def test_block_equals_column_by_column(self):
        rng = np.random.default_rng(11)
        block = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        out = fix_phase(block)
        for j in range(5):
            assert np.array_equal(out[:, j], fix_phase(block[:, j]))

    def test_block_names_first_column_below_floor(self):
        rng = np.random.default_rng(11)
        block = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        block[0, [1, 3]] = 1e-9
        with pytest.raises(ValueError, match="column 1: first entry"):
            fix_phase(block)

    def test_block_names_zero_column(self):
        block = np.full((4, 4), 0.5, dtype=complex)
        block[:, 2] = 0.0
        with pytest.raises(ValueError, match="column 2"):
            fix_phase(block)

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
        if not abs(v[0]) >= simdiag.ANCHOR_FLOOR / math.sqrt(len(v)):
            with pytest.raises(ValueError, match="column 0: first entry"):
                fix_phase(v)
            return
        once = fix_phase(v)
        twice = fix_phase(once)
        assert np.abs(twice - once).max() <= 1e-15


def translation_quotients(family, v):
    """(k, 2) Rayleigh quotients of S_x and S_y over the columns of a (dim, k) block."""
    return np.stack(
        [(v.conj() * family.apply_sx(v)).sum(axis=0), (v.conj() * family.apply_sy(v)).sum(axis=0)],
        axis=1,
    )


def labels_of(family, v):
    return np.stack(momentum_labels(translation_quotients(family, v), family.n), axis=1)


class TestMomentumLabels:
    def test_uniform_vector_is_origin(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        family = build_family(spec)
        v = analytic_eigenvector(spec, (0, 0))[:, None]
        assert np.array_equal(labels_of(family, v), [(0, 0)])

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
            assert np.array_equal(labels_of(family, v[:, None]), [idx])

    def test_full_analytic_basis_bijective(self):
        spec = LatticeSpec(5, 1.0, 0.2)
        family = build_family(spec)
        basis = np.stack([analytic_eigenvector(spec, idx) for idx in all_indices(5)], axis=1)
        assert np.array_equal(labels_of(family, basis), all_indices(5))

    def test_rejects_non_simultaneous_columns(self):
        family = build_family(LatticeSpec(3, 1.0, 0.2))
        with pytest.raises(MomentumLabelError):
            labels_of(family, np.eye(9, dtype=complex))

    def test_error_names_first_offending_column(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        family = build_family(spec)
        basis = np.stack([analytic_eigenvector(spec, idx) for idx in all_indices(4)], axis=1)
        basis[:, 5] = np.eye(16)[:, 0]
        basis[:, 9] = np.eye(16)[:, 1]
        with pytest.raises(MomentumLabelError, match="column 5: x-translation"):
            labels_of(family, basis)

    def test_rejects_off_grid_angle(self):
        n = 4
        on_grid = np.exp(-2j * math.pi * np.array([[1, 2], [3, 0], [0, 1]]) / n)
        r, s = momentum_labels(on_grid, n)
        assert r.tolist() == [2, 0, 1] and s.tolist() == [1, 3, 0]
        off_grid = on_grid.copy()
        off_grid[2, 1] *= np.exp(0.3j)
        with pytest.raises(MomentumLabelError, match="column 2: y-translation .* grid units"):
            momentum_labels(off_grid, n)


class TestFilterSimultaneous:
    def test_accepts_analytic_vector(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        family = build_family(spec)
        idx = (1, 2)
        accept, quotients = filter_simultaneous(analytic_eigenvector(spec, idx)[:, None], family)
        assert accept.tolist() == [True]
        hopping, sx_eig, sy_eig = quotients[0]
        energy = spec.alpha - spec.t * hopping.real
        assert abs(energy - analytic_eigenvalue(spec, idx)) <= 1e-13
        want_x, want_y = translation_eigs(4, idx)
        assert abs(sx_eig - want_x) <= 1e-13
        assert abs(sy_eig - want_y) <= 1e-13

    def test_rejects_mixed_degenerate_combination(self):
        # (1, 0) and (0, 1) share the energy but not the translation eigenvalues
        spec = LatticeSpec(4, 1.0, 0.2)
        family = build_family(spec)
        a = analytic_eigenvector(spec, (1, 0))
        b = analytic_eigenvector(spec, (0, 1))
        mixed = (a + b) / np.linalg.norm(a + b)
        accept, _ = filter_simultaneous(mixed[:, None], family)
        assert accept.tolist() == [False]

    def test_rejects_coordinate_vector(self):
        family = build_family(LatticeSpec(4, 1.0, 0.2))
        e0 = np.zeros((16, 1), dtype=complex)
        e0[0] = 1.0
        accept, _ = filter_simultaneous(e0, family)
        assert accept.tolist() == [False]

    def test_empty_input_is_valid(self):
        family = build_family(LatticeSpec(3, 1.0, 0.2))
        accept, quotients = filter_simultaneous(np.empty((9, 0), dtype=complex), family)
        assert accept.shape == (0,) and quotients.shape == (0, 3)

    def test_chunked_screen_equals_columns_screened_alone(self):
        # 144 analytic and 144 unit columns span three CHUNK-column chunks
        spec = LatticeSpec(12, 1.3, -0.7)
        family = build_family(spec)
        block = np.hstack(
            [analytic_eigenvectors(spec, all_indices(12)), np.eye(144, dtype=complex)]
        )
        assert block.shape[1] > simdiag.CHUNK
        accept, quotients = filter_simultaneous(block, family)
        assert accept.tolist() == [True] * 144 + [False] * 144
        for j in range(block.shape[1]):
            alone, alone_quotients = filter_simultaneous(block[:, j : j + 1], family)
            assert alone[0] == accept[j]
            assert np.array_equal(alone_quotients[0], quotients[j])

    def test_translation_screens_reject_at_t_zero(self):
        # H = alpha I at t = 0: the scaled H test passes every column, and the
        # S_x and S_y tests alone reject the non-simultaneous ones
        spec = LatticeSpec(4, 1.0, 0.0)
        family = build_family(spec)
        a = analytic_eigenvector(spec, (1, 0))
        b = analytic_eigenvector(spec, (2, 3))
        e0 = np.eye(16, dtype=complex)[:, 0]
        block = np.stack([a, (a + b) / np.linalg.norm(a + b), e0], axis=1)
        applied = apply_hopping(block, 4)
        mu = (block.conj() * applied).sum(axis=0)
        hopping_residuals = np.linalg.norm(applied - mu * block, axis=0)
        assert np.all(hopping_residuals[1:] > simdiag.default_filter_tol(family))
        accept, _ = filter_simultaneous(block, family)
        assert accept.tolist() == [True, False, False]


class TestSectorEigh:
    @pytest.mark.parametrize(
        "n,alpha,t",
        [
            (n, float(a), float(b))
            for n, a, b in zip(
                range(3, 31),
                np.random.default_rng(50).uniform(-3.0, 3.0, 28),
                np.random.default_rng(51).uniform(0.05, 1.5, 28) * np.resize([1, -1], 28),
            )
        ]
        + [(n, 1.3, 0.0) for n in (3, 4, 9, 16)]
        + [(n, 1.0, 1e-6) for n in (3, 8, 13)]
        + [(n, 1e3, 0.7) for n in (4, 7, 12)],
    )
    def test_matches_dense_eigh(self, n, alpha, t):
        # sector_eigh decomposes the hopping operator A, which is H at
        # alpha = 0, t = -1; its vectors diagonalize the H of every (alpha, t)
        # with the eigenvalues alpha - t lambda
        a = dense_hopping(n)
        values, v, parities = sector_eigh(n)
        want = eig_hermitian(a)
        scale = np.linalg.norm(a)
        assert v.shape == (n * n, n * n) and v.dtype == np.float64
        assert np.abs(np.sort(values) - want.values).max() <= 1e-13 * scale
        tol = default_gap_tol(a)
        assert (
            cluster_eigenvalues(np.sort(values), tol).clusters
            == cluster_eigenvalues(want.values, tol).clusters
        )
        # the columns run by half-shift class, then value: each class is one
        # contiguous, ascending run
        classes = 2 * parities[:, 0] + parities[:, 1]
        runs = np.split(values, np.flatnonzero(np.diff(classes)) + 1)
        assert len(runs) == np.unique(classes).size
        assert all(np.all(np.diff(run) >= 0) for run in runs)
        assert np.abs(v.T @ v - np.eye(n * n)).max() <= 1e-13
        assert np.abs(a @ v - v * values).max() <= 1e-13 * scale
        h = dense_h(LatticeSpec(n, alpha, t))
        energies = alpha - t * values
        assert np.abs(h @ v - v * energies).max() <= 1e-13 * np.linalg.norm(h)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_order_is_the_value_sort_then_the_class_sort(self, n):
        # one sort, by class then value, gives the order of a stable sort by
        # value followed by a stable sort of value + 16 (2 tau + sigma): the
        # key is monotone in the value inside a class, and where it rounds two
        # values together the second stable sort keeps the first's order
        values, parities, factors, records = simdiag.sector_blocks(n)
        by_value = np.argsort(values, kind="stable")
        tau, sigma = parities[by_value].T
        order = by_value[np.argsort(values[by_value] + 16.0 * (2 * tau + sigma), kind="stable")]
        # every pair's columns lifted, then each f < g pair's mirrored
        lifted = [np.kron(factors[f], factors[g]) @ coords for f, g, _, coords in records]
        grids = [q.reshape(n, n, -1) for (f, g, _, _), q in zip(records, lifted) if f < g]
        lifted += [grid.transpose(1, 0, 2).reshape(n * n, -1) for grid in grids]
        got_values, got_vectors, got_parities = sector_eigh(n)
        assert np.array_equal(got_values.view(np.uint64), values[order].view(np.uint64))
        assert np.array_equal(got_parities, parities[order])
        assert np.abs(got_vectors - np.hstack(lifted)[:, order]).max() <= 1e-15

    @staticmethod
    def swap_images(n, vectors):
        """Each column's reflection parities on the p and q axes (True: odd),
        and the columns under the swap (p, q) -> (q, p)."""
        dim = n * n
        grid = vectors.reshape(n, n, dim)
        flip = (-np.arange(n)) % n
        odd = []
        for axis in (0, 1):
            reflected = np.take(grid, flip, axis=axis)
            is_even = np.all(reflected == grid, axis=(0, 1))
            is_odd = np.all(reflected == -grid, axis=(0, 1))
            assert np.all(is_even ^ is_odd)
            odd.append(is_odd)
        return odd[0], odd[1], grid.transpose(1, 0, 2).reshape(dim, dim)

    @staticmethod
    def half_shift_parities(n, vectors):
        """Each column's parities (+1 or -1) under the half-shifts q -> q + n/2
        and p -> p + n/2, as a (dim, 2) array, read off the vectors; 0 at odd n.
        Every entry must equal its image exactly (a float comparison, so +0
        matches -0), or its negation."""
        dim = n * n
        if n % 2:
            return np.zeros((dim, 2), dtype=int)
        grid = vectors.reshape(n, n, dim)
        parities = []
        for axis in (1, 0):
            shifted = np.roll(grid, n // 2, axis=axis)
            is_even = np.all(shifted == grid, axis=(0, 1))
            is_odd = np.all(shifted == -grid, axis=(0, 1))
            assert np.all(is_even ^ is_odd)
            parities.append(np.where(is_even, 1, -1))
        return np.stack(parities, axis=1)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 16, 17, 30])
    def test_diagonal_sectors_split_into_swap_even_and_odd(self, n):
        # the swap maps each product F_f (x) F_g of ring factors onto
        # F_g (x) F_f; the diagonal products F_f (x) F_f are the columns of
        # equal reflection parities and equal half-shift parities on the two
        # axes, and each of their columns is swap-even or swap-odd
        _, vectors, _ = sector_eigh(n)
        odd_p, odd_q, swapped = self.swap_images(n, vectors)
        tau = self.half_shift_parities(n, vectors)
        diagonal = (odd_p == odd_q) & (tau[:, 0] == tau[:, 1])
        plus = np.all(swapped == vectors, axis=0)
        minus = np.all(swapped == -vectors, axis=0)
        assert np.all((plus ^ minus)[diagonal])
        sizes = [f.shape[1] for f in ring_factors(n)[0]]
        assert np.count_nonzero(plus & diagonal) == sum(m * (m + 1) // 2 for m in sizes)
        assert np.count_nonzero(minus & diagonal) == sum(m * (m - 1) // 2 for m in sizes)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 9, 10, 16, 17, 30])
    def test_columns_have_the_reported_half_shift_parities(self, n):
        _, vectors, parities = sector_eigh(n)
        assert np.array_equal(parities, self.half_shift_parities(n, vectors))

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 16, 17, 30])
    def test_oe_is_eo_under_the_swap_bit_for_bit(self, n):
        values, vectors, _ = sector_eigh(n)
        odd_p, odd_q, swapped = self.swap_images(n, vectors)
        eo = np.flatnonzero(~odd_p & odd_q)
        oe = np.flatnonzero(odd_p & ~odd_q)
        columns = {vectors[:, j].tobytes(): j for j in oe}
        partner = [columns[swapped[:, j].tobytes()] for j in eo]
        assert sorted(partner) == oe.tolist()
        assert np.array_equal(values[partner].view(np.uint64), values[eo].view(np.uint64))

    def test_deterministic(self):
        first, second = sector_eigh(11), sector_eigh(11)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestRefine:
    def test_n3_matches_analytic_up_to_phase(self):
        spec = LatticeSpec(3, 1.0, 0.2)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        assert np.array_equal(basis.labels, all_indices(3))
        for j, label in enumerate(basis.labels):
            exact = analytic_eigenvector(spec, label)
            assert aligned_distance(exact, basis.vectors[:, j]) <= 1e-10

    def test_fully_degenerate_t_zero(self):
        spec = LatticeSpec(4, 1.0, 0.0)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        assert np.array_equal(basis.labels, all_indices(4))
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
        # default_gap_tol of the dense stage operators, to its last-ulp rounding;
        # each stage is (e^{i phi} S + e^{-i phi} S*)/2 with phi = pi/(2n), and
        # projecting onto real columns Q commutes with it
        rotation = np.exp(0.5j * math.pi / n)
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((n * n, 5)))
        for s in dense_operators(LatticeSpec(n, 1.0, 0.2))[1:]:
            dense = simdiag._stage(s.real, n)
            assert np.abs(dense - (rotation * s + rotation.conjugate() * s.T) / 2.0).max() <= 1e-16
            assert np.array_equal(dense, dense.conj().T)
            assert math.isclose(default_gap_tol(dense), STAGE_GAP_TOL, rel_tol=1e-15)
            projected = simdiag._stage(q.T @ s.real @ q, n)
            assert np.abs(projected - q.T @ dense @ q).max() <= 1e-15

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 16])
    def test_hopping_merge_tol_bounds_the_mixing(self, n):
        # Davis-Kahan: the eigensolver mixes the vectors of A's clusters g
        # apart by about eps ||A||_2 / g, with ||A||_2 = 4 at every n (the
        # level 4 at momentum (0, 0)); across HOPPING_MERGE_TOL that is
        # 3e-13, under 1/50 of verify's translation-residual bounds. The
        # dense default_gap_tol(A), 2e-9, would allow 4.4e-7.
        a = dense_hopping(n)
        assert math.isclose(np.linalg.norm(a, 2), 4.0, rel_tol=1e-14)
        mixing = np.finfo(float).eps * 4.0 / HOPPING_MERGE_TOL
        assert 2.9e-13 <= mixing <= 3e-13
        for key in ("max_residual_sx", "max_residual_sy"):
            assert 50 * mixing <= VERIFY_THRESHOLDS[key]
        assert math.isclose(default_gap_tol(a), 2e-9, rel_tol=1e-15)

    @pytest.mark.parametrize("n", range(3, 91))
    def test_merged_hopping_clusters_in_closed_form(self, n):
        # A's levels 2 cos(2 pi r / n) + 2 cos(2 pi s / n), clustered at the
        # dense default 2e-9 and at HOPPING_MERGE_TOL: the partitions agree at
        # every benchmark size, no gap sits within 1e-9 of the tolerance (so
        # rounding cannot move a cluster boundary), and the greedy merge
        # chains no cluster beyond 178 columns (n = 90's largest either way)
        ring = 2.0 * np.cos(2.0 * math.pi * np.arange(n) / n)
        grid = ring[:, None] + ring
        levels = np.sort(grid.ravel())
        fine = cluster_eigenvalues(levels, 2e-9).clusters
        merged = cluster_eigenvalues(levels, HOPPING_MERGE_TOL).clusters
        if n <= 16 or n in (22, 30):
            assert merged == fine
        assert np.abs(np.diff(levels) - HOPPING_MERGE_TOL).min() > 1e-9
        assert max(map(len, merged)) <= 178
        # refine clusters inside each half-shift class, (s mod 2, r mod 2) of
        # the momentum (r, s) at even n and one class at odd n: the classes
        # sit 16 apart, so the greedy merge never chains across them, and
        # the keyed clusters are at most 89 columns at even n (n = 90) and
        # 112 at odd n (n = 89)
        r, s = np.divmod(np.arange(n * n), n)
        classes = 2 * (s % 2) + r % 2 if n % 2 == 0 else np.zeros(n * n, dtype=int)
        keyed = cluster_eigenvalues(np.sort(grid.ravel() + 16.0 * classes), HOPPING_MERGE_TOL)
        if n % 2:
            assert keyed.clusters == merged
        assert max(map(len, keyed.clusters)) <= (89 if n % 2 == 0 else 112)

    @pytest.mark.parametrize("n", range(3, 91))
    def test_rotated_stage_separates_every_momentum(self, n):
        # Each translation acts along its axis as the n-site cyclic shift; the
        # stage of that shift must have the n plane waves as eigenvectors, with
        # n eigenvalues at least 1e-3 apart (six orders above STAGE_GAP_TOL).
        steps = np.arange(n)
        waves = np.exp(2j * math.pi * (np.outer(steps, steps) % n) / n) / math.sqrt(n)
        # the x-translation of the first block's n sites, within that block
        shift = translate(np.eye(n * n, n), n, X_AXIS)[:n]
        applied = simdiag._stage(shift, n) @ waves
        values = np.einsum("ij,ij->j", waves.conj(), applied)
        assert np.abs(applied - waves * values).max() <= 1e-14
        assert np.abs(values.imag).max() <= 1e-15
        assert np.diff(np.sort(values.real)).min() >= 1e-3

    @pytest.mark.parametrize("n", [3, 4, 8, 13])
    def test_t_zero_stages_leave_singletons(self, n, monkeypatch):
        # at t = 0 H = alpha I is one block of size n^2, but refine clusters
        # the hopping operator, so it refines the same partitions as at t = 1
        # and the two stages end in singletons
        engine = simdiag._refine_within_blocks
        partitions = []

        def recorded(vectors, starts, applied, gap_tol):
            refined = engine(vectors, starts, applied, gap_tol)
            partitions.append((starts.tolist(), refined.tolist()))
            return refined

        monkeypatch.setattr(simdiag, "_refine_within_blocks", recorded)
        simultaneous_basis_refine(build_family(LatticeSpec(n, 1.3, 0.0)))
        at_zero = partitions.copy()
        partitions.clear()
        simultaneous_basis_refine(build_family(LatticeSpec(n, 1.3, 1.0)))
        assert at_zero == partitions
        assert np.array_equal(at_zero[-1][1], np.arange(n * n))

    def test_engine_splits_only_inside_input_blocks(self):
        # Blocks [0, 3), [3, 5) and [5, 6) of a random unitary basis; the
        # operator's spectra on the first two share the value 1, and the first
        # holds 1 and 1 + 1e-12, closer than gap_tol, so a split may happen
        # at the gap of 1 inside each block and nowhere else.
        rng = np.random.default_rng(7)
        basis, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        inner = np.zeros((6, 6), dtype=complex)
        for block, spectrum in ((slice(0, 3), [0.0, 1.0, 1.0 + 1e-12]), (slice(3, 5), [1.0, 2.0])):
            u, _ = np.linalg.qr(rng.normal(size=(len(spectrum),) * 2))
            inner[block, block] = (u * spectrum) @ u.T
        inner[5, 5] = 1.0
        # coupling between the blocks, which the projections never see
        inner[0, 4] = inner[4, 0] = 0.3
        operator = basis @ inner @ basis.conj().T
        vectors = basis.copy()
        refined = simdiag._refine_within_blocks(
            vectors, np.array([0, 3, 5]), operator @ vectors, 1e-9
        )
        assert refined.tolist() == [0, 1, 3, 4, 5]
        assert np.array_equal(vectors[:, 5], basis[:, 5])
        values = np.einsum("ij,ij->j", vectors.conj(), operator @ vectors).real
        assert np.allclose(values, [0.0, 1.0, 1.0, 1.0, 2.0, 1.0], atol=1e-12)
        assert np.abs(vectors.conj().T @ vectors - np.eye(6)).max() <= 1e-14

    @pytest.mark.parametrize("n", [5, 12])
    def test_basis_depends_on_n_alone(self, n):
        # alpha and t enter only the energies: the vectors, labels and
        # translation eigenvalues are the same bits for every (alpha, t)
        want = simultaneous_basis_refine(build_family(LatticeSpec(n, 1.3, -0.7)))
        for alpha, t in ((0.0, 0.0), (1e3, 1e-6), (-2.5, 1e-3)):
            spec = LatticeSpec(n, alpha, t)
            got = simultaneous_basis_refine(build_family(spec))
            assert np.array_equal(got.vectors, want.vectors)
            assert np.array_equal(got.sym_eigs, want.sym_eigs)
            assert np.array_equal(got.labels, want.labels)
            exact = [analytic_eigenvalue(spec, label) for label in got.labels.tolist()]
            assert np.abs(got.energies - exact).max() <= 1e-13

    @pytest.mark.parametrize(
        "n,alpha,t", [(8, 1.0, 0.2), (9, 2.1, -0.4), (12, -0.7, 1.1), (16, 0.0, 0.3)]
    )
    def test_each_block_eigh_once_and_each_stage_once_per_size(self, n, alpha, t, monkeypatch):
        family = build_family(LatticeSpec(n, alpha, t))
        shapes = []

        def counted(a):
            shapes.append(np.shape(a))
            return eig_hermitian(a)

        monkeypatch.setattr(simdiag, "eig_hermitian", counted)
        simultaneous_basis_refine(family)
        # the hopping operator in its symmetry blocks, over the ring factors
        # F_f, one call per block in factor-pair order: F_f (x) F_g for f < g
        # (its mirror F_g (x) F_f is not solved), and for f = g the swap-even,
        # then the swap-odd half of F_f (x) F_f, empty halves included
        factors = [f.shape[1] for f in ring_factors(n)[0]]
        blocks = []
        for f, g in itertools.combinations_with_replacement(range(len(factors)), 2):
            a, b = factors[f], factors[g]
            blocks += [a * b] if f < g else [a * (a + 1) // 2, a * (a - 1) // 2]
        mirrored = [a * b for i, a in enumerate(factors) for b in factors[i + 1 :]]
        sectors, stages = shapes[: len(blocks)], shapes[len(blocks) :]
        assert sectors == [(k, k) for k in blocks]
        assert sum(shape[0] for shape in sectors) == n * n - sum(mirrored)
        sizes = [shape[-1] for shape in stages]
        assert all(len(shape) == 3 for shape in stages)
        # two stages, one per translation
        assert all(sizes.count(k) <= 2 for k in sizes)
        a = dense_hopping(n)
        a_blocks = cluster_eigenvalues(eig_hermitian(a).values, default_gap_tol(a))
        assert len(stages) <= 2 * len({len(b) for b in a_blocks.clusters if len(b) > 1})

    @pytest.mark.parametrize(
        "n,alpha,t",
        [(n, 1.3, 0.0) for n in range(3, 17)]
        + [
            (n, float(a), float(b))
            for n, a, b in zip(
                range(3, 17),
                np.random.default_rng(40).uniform(-3.0, 3.0, 14),
                np.random.default_rng(41).uniform(0.05, 1.5, 14) * np.resize([1, -1], 14),
            )
        ],
    )
    def test_sym_eigs_are_quotients_of_returned_columns(self, n, alpha, t):
        # the translation eigenvalues come from the blocks' coordinates; they
        # must match the Rayleigh quotients of the final columns
        family = build_family(LatticeSpec(n, alpha, t))
        basis = simultaneous_basis_refine(family)
        v = basis.vectors
        for column, apply in ((0, family.apply_sx), (1, family.apply_sy)):
            quotients = simdiag._rayleigh_quotients(v, apply(v))
            assert np.abs(basis.sym_eigs[:, column] - quotients).max() <= 1e-15

    @pytest.mark.parametrize("n", [*range(3, 41), 61])
    def test_grouped_lift_is_the_dense_reference_bit_for_bit(self, n):
        # refine lifts each pair's vectors once, straight into one buffer that
        # holds its clusters' columns size by size, in groups of at most CHUNK
        # clusters (the 318 eight-column clusters of n = 61 form three): each
        # group's Q is a view of that buffer and holds the dense reference's
        # sorted columns at the group's clusters, bit for bit
        values, parities, starts, groups = simdiag._hopping_groups(n)
        want_values, vectors, want_parities = sector_eigh(n)
        assert np.array_equal(values.view(np.uint64), want_values.view(np.uint64))
        assert np.array_equal(parities, want_parities)
        keys = values + 16.0 * (2 * parities[:, 0] + parities[:, 1])
        clusters = cluster_eigenvalues(keys, HOPPING_MERGE_TOL).clusters
        assert starts.tolist() == [c.start for c in clusters]
        by_size = list(simdiag._block_sizes(starts, n * n))
        assert np.array_equal(
            np.concatenate([cols for _, cols, _, _ in groups], axis=None),
            np.concatenate([cols for _, cols in by_size], axis=None),
        )
        buffer = groups[0][2].base
        assert buffer.size == n**4
        offset = 0
        for k, cols, q, _ in groups:
            assert cols.shape[1] == k and len(cols) <= simdiag.CHUNK
            assert q.base is buffer
            rows = buffer.reshape(n * n, -1)[offset : offset + cols.size]
            assert np.shares_memory(q, rows)
            offset += cols.size
            columns = q.transpose(0, 2, 1)
            assert np.array_equal(columns.view(np.uint64), vectors.T[cols].view(np.uint64))
        assert offset == n * n

    @pytest.mark.parametrize("n", range(3, 31))
    def test_quarter_domain_projections_equal_whole_lattice_sums(self, n):
        # Q_b^T S Q_b over clusters of A's columns of one half-shift class,
        # from the fundamental domain p, q < n/2 scaled by 4, against the sum
        # over every site of Q times its translate (np.roll), taken pairwise
        # along the sites so that the reference itself errs by O(log(dim)
        # eps); at odd n the domain is the whole lattice and every column is
        # of the one class
        _, parities, _, groups = simdiag._hopping_groups(n)
        quarter = simdiag._quarter_sites(n, parities)
        assert quarter.shape == (3, (n // 2 if n % 2 == 0 else n) ** 2)
        for _, cols, q, got in groups:
            assert (parities[cols] == parities[cols][:, :1]).all()
            columns = q.transpose(0, 2, 1)
            for projected, axis in zip(got, (X_AXIS, Y_AXIS)):
                shifted = np.roll(columns.reshape(*cols.shape, n, n), 1, axis=axis - 2)
                products = columns[:, :, None] * shifted.reshape(columns.shape)[:, None]
                assert np.abs(projected - products.sum(axis=-1)).max() <= 1e-15

    @pytest.mark.parametrize("n", [4, 6, 12, 30])
    def test_first_stage_blocks_lie_in_one_half_shift_class(self, n, monkeypatch):
        # every block the x-stage receives holds columns of one half-shift
        # class, read from their momentum labels: (s mod 2, r mod 2); at
        # n = 30 the largest block is 29 columns, half the 58 of one cluster
        # of A's levels across the classes
        engine, labelled = simdiag._refine_within_blocks, simdiag.momentum_labels
        calls = []

        def recorded(vectors, starts, applied, gap_tol):
            calls.append(starts.copy())
            return engine(vectors, starts, applied, gap_tol)

        def labels(sym_eigs, n):
            calls.append(labelled(sym_eigs, n))
            return calls[-1]

        monkeypatch.setattr(simdiag, "_refine_within_blocks", recorded)
        monkeypatch.setattr(simdiag, "momentum_labels", labels)
        simultaneous_basis_refine(build_family(LatticeSpec(n, 1.3, -0.7)))
        starts, (r, s) = calls[0], calls[-1]
        classes = 2 * (s % 2) + r % 2
        blocks = np.split(classes, starts[1:])
        assert all((block == block[0]).all() for block in blocks)
        if n == 30:
            assert max(map(len, blocks)) == 29

    @pytest.mark.parametrize("n", [6, 12, 20, 30])
    def test_half_shifts_act_on_the_basis_by_label_parity(self, n):
        # q -> q + n/2 multiplies a momentum-(r, s) column by (-1)^s, and
        # p -> p + n/2 by (-1)^r
        basis = simultaneous_basis_refine(build_family(LatticeSpec(n, 1.3, -0.7)))
        grid = basis.vectors.reshape(n, n, -1)
        r, s = basis.labels.T
        for axis, index in ((X_AXIS, s), (Y_AXIS, r)):
            shifted = np.roll(grid, n // 2, axis=axis).reshape(n * n, -1)
            assert np.abs(shifted - (1 - 2 * (index % 2)) * basis.vectors).max() <= 1e-14

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

    @pytest.mark.parametrize("n,alpha,t", [(5, 1.3, -0.7), (13, -2.1, 0.9), (8, 0.0, 0.0)])
    def test_never_reads_the_dense_hamiltonian(self, n, alpha, t):
        spec = LatticeSpec(n, alpha, t)
        family = build_family(spec)
        want = simultaneous_basis_refine(family)
        got = simultaneous_basis_refine(CommutingFamily(spec=spec))
        assert np.array_equal(got.vectors, want.vectors)
        assert np.array_equal(got.energies, want.energies)
        assert np.array_equal(got.labels, want.labels)
        dense = FILTER_RTOL * np.linalg.norm(dense_h(spec))
        assert math.isclose(simdiag.default_filter_tol(family), dense, rel_tol=1e-15)

    def test_chunked_energies_equal_whole_basis_quotients(self, monkeypatch):
        # refine's energies come from the block coordinates,
        # alpha - t sum_i |c_ij|^2 lambda_i; against alpha - t (v* A v) over the
        # whole returned basis they may differ by the sector eigensolve's
        # rounding of the hopping values (|lambda| <= 4), bounded here by
        # 64 eps, times |t|, plus one rounding of the energy
        for n, alpha, t in [(12, -2.0, 0.3), (17, 0.0, 1.0), (30, 1.3, -0.7)]:
            basis = simultaneous_basis_refine(build_family(LatticeSpec(n, alpha, t)))
            v = basis.vectors
            whole = simdiag._rayleigh_quotients(v, apply_hopping(v, n)).real
            want = alpha - t * whole
            bound = 64 * np.finfo(float).eps * abs(t) + np.spacing(np.abs(want))
            assert np.all(np.abs(basis.energies - want) <= bound)
        # the combination method's energies come from its screen's quotients,
        # formed CHUNK candidates at a time; each column's pairwise sum is the
        # same as over the whole returned basis, bit for bit. The phase fix
        # rotates each column after its energy is taken, which moves v* A v in
        # its last bits, so it is switched off here.
        monkeypatch.setattr(simdiag, "_phase_factors", lambda block: np.ones(block.shape[1]))
        n, alpha, t = 12, 1.3, -0.7
        assert 2 * n * n > simdiag.CHUNK
        basis = simultaneous_basis_combination(build_family(LatticeSpec(n, alpha, t)))
        v = basis.vectors
        whole = simdiag._rayleigh_quotients(v, apply_hopping(v, n)).real
        assert np.array_equal(basis.energies, alpha - t * whole)

    def test_label_collision_fails_loudly(self, monkeypatch):
        family = build_family(LatticeSpec(4, 1.0, 0.2))
        labelled = simdiag.momentum_labels

        def colliding(sym_eigs, n):
            r, s = labelled(sym_eigs, n)
            r[1], s[1] = r[0], s[0]
            return r, s

        monkeypatch.setattr(simdiag, "momentum_labels", colliding)
        with pytest.raises(MomentumLabelError, match="1 collisions"):
            simultaneous_basis_refine(family)

    @pytest.mark.parametrize("n", [6, 12])
    def test_label_off_its_half_shift_class_fails_loudly(self, n, monkeypatch):
        # s + 1 keeps the labels a bijection but flips every column's
        # x-parity (-1)^s against its cluster's half-shift class
        labelled = simdiag.momentum_labels

        def shifted(sym_eigs, n):
            r, s = labelled(sym_eigs, n)
            return r, (s + 1) % n

        monkeypatch.setattr(simdiag, "momentum_labels", shifted)
        with pytest.raises(MomentumLabelError, match="column 0: .* half-shift parities"):
            simultaneous_basis_refine(build_family(LatticeSpec(n, 1.3, -0.7)))

    def test_unresolvable_gap_tol_fails_loudly(self, monkeypatch):
        family = build_family(LatticeSpec(3, 1.0, 0.2))
        monkeypatch.setattr(simdiag, "STAGE_GAP_TOL", 1e6)
        with pytest.raises(RefinementError, match="blocks"):
            simultaneous_basis_refine(family)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(3, 16),
        t=st.one_of(
            st.just(0.0),
            st.builds(
                lambda exponent, sign: sign * 10.0**exponent,
                st.floats(-14.0, 1.0),
                st.sampled_from([-1.0, 1.0]),
            ),
        ),
        alpha=st.builds(
            lambda scale, fraction: scale * fraction,
            st.sampled_from([0.0, 1.0, -1.0, 100.0, -100.0]),
            st.floats(0.0, 1.0, exclude_min=True),
        ),
    )
    def test_meets_verify_thresholds_across_parameters(self, n, t, alpha):
        # log-uniform |t| from 1e-14 to 10, t = 0, and |alpha| up to 100: the
        # basis depends on n alone, so neither a tiny t nor a large alpha/t
        # ratio may cost it the verify bounds
        spec = LatticeSpec(n, alpha, t)
        family = build_family(spec)
        report = verify_basis(simultaneous_basis_refine(family), family, spec).as_dict()
        assert {k: v for k, v in report.items() if v > VERIFY_THRESHOLDS[k]} == {}

    def test_odd_n61_meets_verify_thresholds(self):
        # n = 61 is the worst of the odd sizes whose near-tied levels of A
        # (1.4e-6 apart) once sat in separate clusters: the translation
        # residuals reached 15.8 times their bound
        spec = LatticeSpec(61, 1.3, -0.7)
        family = build_family(spec)
        report = verify_basis(simultaneous_basis_refine(family), family, spec).as_dict()
        assert {k: v for k, v in report.items() if v > VERIFY_THRESHOLDS[k]} == {}


    def test_large_finite_parameters_solve(self):
        # |alpha| + 4|t| = 1.04e308 is finite; the commutator probe
        # arange(1, dim + 1) once overflowed here into a false "construction bug".
        spec = LatticeSpec(30, 1e308, 1e307)
        basis = simultaneous_basis_refine(build_family(spec))
        assert np.isfinite(basis.energies).all()


class TestCombinationMethod:
    # at n = 6 the anti-Hermitian stage projects to pure rounding on some
    # clusters, which the engine's hermitization must absorb
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_agrees_with_refine(self, n):
        spec = LatticeSpec(n, 1.0, 0.2)
        family = build_family(spec)
        a = simultaneous_basis_refine(family)
        b = simultaneous_basis_combination(family)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.labels, all_indices(n))
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


@pytest.mark.parametrize(
    "solve,n",
    [(simultaneous_basis_refine, n) for n in range(3, 17)]
    + [(simultaneous_basis_combination, n) for n in (3, 5, 8)],
)
def test_labels_are_the_grid_and_phases_anchor_at_site_0(solve, n):
    # Both solvers return the plane waves in lexicographic (r, s) order, every
    # entry of modulus 1/n, so the first entry always carries the phase.
    basis = solve(build_family(LatticeSpec(n, 1.3, -0.7)))
    assert isinstance(basis.labels, np.ndarray) and basis.labels.dtype.kind == "i"
    assert basis.labels.shape == (n * n, 2)
    assert np.array_equal(basis.labels, np.stack(np.divmod(np.arange(n * n), n), axis=1))
    assert np.abs(n * np.abs(basis.vectors[0]) - 1.0).max() <= 1e-11
    assert (basis.vectors[0].real > 0).all()


@pytest.mark.parametrize(
    "solve,n",
    [(simultaneous_basis_refine, n) for n in (3, 4, 5, 8, 13)]
    + [(simultaneous_basis_combination, n) for n in (3, 4, 5)],
)
def test_each_eigenvector_is_one_contiguous_row(solve, n):
    # Both solvers lay the basis out one eigenvector per row, so that verify and
    # the vector file read it in that order without a copy.
    basis = solve(build_family(LatticeSpec(n, 1.3, -0.7)))
    assert basis.vectors.T.flags.c_contiguous


class TestVerifyBasis:
    @pytest.mark.parametrize("n", [4, 21])
    def test_nan_entry_is_not_read_as_zero(self, n):
        # Python's max(0.0, nan) is 0.0: maxima taken with it reported a NaN
        # entry as 0 at n = 4, and at n = 21 (four chunks) kept only the
        # other chunks' residuals.
        spec = LatticeSpec(n, 1.0, 0.2)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        vectors = basis.vectors.copy()
        vectors[3, 5] = np.nan
        report = verify_basis(replace(basis, vectors=vectors), family, spec).as_dict()
        nan_keys = [key for key, value in report.items() if math.isnan(value)]
        assert nan_keys == [
            "max_residual_h",
            "max_residual_sx",
            "max_residual_sy",
            "max_orthogonality_defect",
            "max_entrywise_vector_error",
        ]

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
            labels=basis.labels[perm],
            sym_eigs=basis.sym_eigs[perm],
        )
        assert verify_basis(scrambled, family, spec) == verify_basis(basis, family, spec)

    # n = 12 has dim 144, more than one CHUNK of columns; n = 22 several.
    @pytest.mark.parametrize("n", [4, 12, 22])
    def test_memory_order_does_not_change_metrics(self, n):
        spec = LatticeSpec(n, 1.0, 0.2)
        family, basis = analytic_sym_basis(spec)
        strided = np.empty((n * n, 2 * n * n), dtype=complex)[:, ::2]
        strided[...] = basis.vectors
        layouts = [np.ascontiguousarray(basis.vectors), np.asfortranarray(basis.vectors), strided]
        assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
        reports = [verify_basis(replace(basis, vectors=v), family, spec) for v in layouts]
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_rejects_incomplete_basis(self):
        spec = LatticeSpec(3, 1.0, 0.2)
        family, basis = analytic_sym_basis(spec)
        truncated = SymBasis(
            vectors=basis.vectors[:, :5],
            energies=basis.energies[:5],
            labels=basis.labels[:5],
            sym_eigs=basis.sym_eigs[:5],
        )
        with pytest.raises(ValueError, match=r"vectors has shape \(9, 5\)"):
            verify_basis(truncated, family, spec)
        # one field at a time: a one-row sym_eigs once broadcast silently
        for name in ("vectors", "energies", "labels", "sym_eigs"):
            field = getattr(basis, name)
            for wrong in (field[:, :-1] if name == "vectors" else field[:-1], field[:1]):
                with pytest.raises(ValueError, match=f"basis {name} has shape"):
                    verify_basis(replace(basis, **{name: wrong}), family, spec)

    @pytest.mark.parametrize("other", [LatticeSpec(4, 5.0, 0.2), LatticeSpec(5, 1.0, 0.2)])
    def test_rejects_another_spec(self, other):
        # the metrics would compare against the closed form of another spec:
        # another alpha read max_eigenvalue_error 4.0, another n an IndexError
        family, basis = analytic_sym_basis(LatticeSpec(4, 1.0, 0.2))
        with pytest.raises(ValueError, match="is not the family's"):
            verify_basis(basis, family, other)

    def test_rejects_complex_energies(self):
        # their imaginary parts would be dropped with a ComplexWarning
        spec = LatticeSpec(4, 1.0, 0.2)
        family, basis = analytic_sym_basis(spec)
        energies = basis.energies + 0j
        with pytest.raises(ValueError, match="energies are complex"):
            verify_basis(replace(basis, energies=energies), family, spec)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_real_orthogonality_defect_equals_complex_product(self, n):
        family = build_family(LatticeSpec(n, 0.9, -0.4))
        v = simultaneous_basis_refine(family).vectors
        mixed = v.copy()
        mixed[:, 1] += 1e-9 * mixed[:, 0]
        for basis in (v, mixed):
            want = np.abs(basis.conj().T @ basis - np.eye(n * n)).max()
            assert abs(simdiag._orthogonality_defect(basis) - want) <= 1e-15
        assert simdiag._orthogonality_defect(mixed) > 1e-10

    @pytest.mark.parametrize("n", [3, 12, 17, 19, 20])
    def test_chunked_residuals_equal_whole_basis_residuals(self, n):
        # verify reads each chunk's residuals from its plane-wave coefficients;
        # the reference applies each operator M to the whole basis. Both round
        # the same exact residual norm, within a few eps ||M||_2: ||H||_2 =
        # |alpha| + 4|t| = 4.8 here, and 1 for the translations.
        spec = LatticeSpec(n, -0.4, 1.1)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        v = basis.vectors
        report = verify_basis(basis, family, spec)
        eps = np.finfo(float).eps
        for got, apply, eigs, norm in (
            (report.max_residual_h, family.apply_h, basis.energies, 4.8),
            (report.max_residual_sx, family.apply_sx, basis.sym_eigs[:, 0], 1.0),
            (report.max_residual_sy, family.apply_sy, basis.sym_eigs[:, 1], 1.0),
        ):
            assert abs(got - max_residual(apply(v), v, eigs)) <= 4 * eps * norm

    @pytest.mark.parametrize("n", [3, 4, 5, 19, 20, 30])
    def test_oracle_vectors_per_column_only_at_n_up_to_4(self, n, monkeypatch):
        calls = []
        single = simdiag.analytic_eigenvector

        def counted(spec, idx):
            calls.append(idx)
            return single(spec, idx)

        monkeypatch.setattr(simdiag, "analytic_eigenvector", counted)
        spec = LatticeSpec(n, 1.3, -0.7)
        family = build_family(spec)
        verify_basis(simultaneous_basis_refine(family), family, spec)
        assert len(calls) == (n * n if n <= 4 else 0)

    @pytest.mark.parametrize("n", [5, 7, 12, 13, 16, 19, 20, 23])
    def test_bulk_oracle_vectors_give_the_per_column_report(self, n, monkeypatch):
        spec = LatticeSpec(n, -0.4, 0.9)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        want = verify_basis(basis, family, spec)
        monkeypatch.setattr(
            simdiag,
            "analytic_eigenvectors",
            lambda spec, labels: np.stack([analytic_eigenvector(spec, x) for x in labels], axis=1),
        )
        assert verify_basis(basis, family, spec) == want

    @pytest.mark.parametrize("n", [4, 20])
    @pytest.mark.parametrize("bad", [(4, 20), (0, -1), (1.7, 0.2)])
    def test_rejects_out_of_range_label(self, n, bad):
        spec = LatticeSpec(n, 1.0, 0.2)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        # a float copy of the labels for the label that is not integral
        labels = basis.labels.astype(type(bad[0]))
        labels[1] = bad
        problem = "is not integral" if isinstance(bad[0], float) else "out of range"
        with pytest.raises(ValueError, match=rf"momentum index \({bad[0]}, {bad[1]}\) {problem}"):
            verify_basis(replace(basis, labels=labels), family, spec)

    def test_computed_basis_unit_circle_sym_eigs(self):
        family = build_family(LatticeSpec(5, 1.0, 0.2))
        basis = simultaneous_basis_refine(family)
        assert np.abs(np.abs(basis.sym_eigs) - 1.0).max() <= 1e-10


def accurate_orthogonality_defect(v):
    """max |V* V - I| with each diagonal entry summed exactly (math.fsum).

    The double Gram product sums each column's squared moduli in sequence and
    rounds its diagonal by up to ~3e-15 at n = 19; its off-diagonal entries,
    sums of terms of random phase, round far below that.
    """
    gram = v.conj().T @ v
    np.fill_diagonal(gram, 0.0)
    squares = np.concatenate([v.real**2, v.imag**2])
    diagonal = max(abs(math.fsum(column) - 1.0) for column in squares.T)
    return max(float(np.abs(gram).max()), diagonal)


class TestFourierOrthogonality:
    @pytest.fixture
    def gram_calls(self, monkeypatch):
        """Count the exact Gram products verify_basis takes."""
        calls = []
        exact = simdiag._orthogonality_defect

        def counted(v):
            calls.append(v.shape)
            return exact(v)

        monkeypatch.setattr(simdiag, "_orthogonality_defect", counted)
        return calls

    @pytest.mark.parametrize(
        "n,alpha,t",
        [
            (n, float(a), float(b))
            for n, a, b in zip(
                range(3, 31),
                np.random.default_rng(60).uniform(-3.0, 3.0, 28),
                np.random.default_rng(61).uniform(0.05, 1.5, 28) * np.resize([1, -1], 28),
            )
        ]
        + [(n, 1.3, 0.0) for n in (3, 4, 9, 16)],
    )
    def test_estimate_matches_gram_on_refine_bases(self, n, alpha, t, gram_calls):
        spec = LatticeSpec(n, alpha, t)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        report = verify_basis(basis, family, spec)
        assert gram_calls == []
        want = accurate_orthogonality_defect(basis.vectors)
        assert abs(report.max_orthogonality_defect - want) <= 1e-15

    @pytest.mark.parametrize("n", [5, 12, 20])
    def test_estimate_matches_gram_on_analytic_basis(self, n, gram_calls):
        spec = LatticeSpec(n, 1.0, 0.2)
        family, basis = analytic_sym_basis(spec)
        report = verify_basis(basis, family, spec)
        assert gram_calls == []
        want = accurate_orthogonality_defect(basis.vectors)
        assert abs(report.max_orthogonality_defect - want) <= 1e-15

    @pytest.mark.parametrize("n", [6, 20])
    @pytest.mark.parametrize("defect", ["leak", "scale"])
    def test_small_defects_read_the_same_both_ways(self, n, defect, gram_calls):
        spec = LatticeSpec(n, 0.9, -0.4)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        v = basis.vectors.copy()
        if defect == "leak":
            v[:, 1] += 1e-9 * v[:, 0]
        else:
            v[:, 1] *= 1.0 + 1e-9
        got = verify_basis(replace(basis, vectors=v), family, spec).max_orthogonality_defect
        assert gram_calls == []
        want = simdiag._orthogonality_defect(v)
        assert want > 5e-10
        assert math.isclose(got, want, rel_tol=1e-6)

    @pytest.mark.parametrize("damage", ["swapped", "duplicated", "rotated"])
    def test_bases_off_their_labels_take_the_exact_path(self, damage, gram_calls):
        spec = LatticeSpec(6, 1.0, 0.3)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        a = next(
            j for j in range(spec.dim - 1) if basis.energies[j + 1] - basis.energies[j] < 1e-12
        )
        labels = basis.labels.copy()
        if damage == "swapped":
            labels[[a, a + 1]] = labels[[a + 1, a]]
            damaged = replace(basis, labels=labels)
        elif damage == "duplicated":
            labels[a + 1] = labels[a]
            damaged = replace(basis, labels=labels)
        else:
            v = basis.vectors.copy()
            c, s = math.cos(0.3), math.sin(0.3)
            v[:, [a, a + 1]] = v[:, [a, a + 1]] @ np.array([[c, -s], [s, c]])
            damaged = replace(basis, vectors=v)
        report = verify_basis(damaged, family, spec)
        assert len(gram_calls) == 1
        assert report.max_orthogonality_defect == simdiag._orthogonality_defect(damaged.vectors)

    def test_duplicated_label_with_its_wave_missing_takes_the_exact_path(self, gram_calls):
        # Columns 0 and 1 both lie on the plane wave of label 1, which no
        # column carries after the duplication: every coefficient at the
        # labels is zero, so the dropped-term bound holds, and only the
        # bijection test keeps the estimate (1.0) from replacing the true 0.75.
        spec = LatticeSpec(4, 1.0, 0.2)
        family, basis = analytic_sym_basis(spec)
        v = basis.vectors.copy()
        v[:, 0], v[:, 1] = v[:, 1], 0.5 * v[:, 1]
        labels = basis.labels.copy()
        labels[1] = labels[0]
        report = verify_basis(replace(basis, vectors=v, labels=labels), family, spec)
        assert len(gram_calls) == 1
        assert math.isclose(report.max_orthogonality_defect, 0.75, rel_tol=1e-14)

    @pytest.mark.parametrize("n", [3, 12, 19, 20, 24])
    def test_exact_gram_below_the_dimension_threshold(self, n, gram_calls):
        # For bijective labels the estimate replaces the Gram product at every n.
        spec = LatticeSpec(n, 1.3, -0.7)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        verify_basis(basis, family, spec)
        assert gram_calls == []


class TestPlaneWaveResiduals:
    """verify_basis reads the residuals from the plane-wave coefficients; the
    direct residuals, which apply each operator (dense_reference.max_residual),
    are the reference.

    Both norms measure the same exact residual vector M v - mu v, each with
    its own rounding. The direct one rounds apply_h's entries, by about
    eps (|alpha| + 4|t|) <= 2e-15 per unit column for |alpha| <= 3 and
    |t| <= 1.5 (the translations only move entries). The transform errs by
    about eps sqrt(log2 dim) <= 8e-16 (rms) per unit column, weighted by
    |Lambda - mu|, whose rms over the spectrum is at most 2 sqrt(5) |t| <= 6.7
    for H and 2 for the translations: below 6e-15. RESIDUAL_TOL covers the
    sum; the largest difference seen on the bases below is 1.5e-15.
    """

    RESIDUAL_TOL = 1e-14

    @staticmethod
    def direct_residuals(basis, family):
        v = basis.vectors
        return [
            max_residual(apply(v), v, eigs)
            for apply, eigs in (
                (family.apply_h, basis.energies),
                (family.apply_sx, basis.sym_eigs[:, 0]),
                (family.apply_sy, basis.sym_eigs[:, 1]),
            )
        ]

    @staticmethod
    def report_residuals(report):
        return [report.max_residual_h, report.max_residual_sx, report.max_residual_sy]

    @pytest.mark.parametrize(
        "n,alpha,t",
        [
            (n, float(a), float(b))
            for n, a, b in zip(
                range(20, 32),
                np.random.default_rng(62).uniform(-3.0, 3.0, 12),
                np.random.default_rng(63).uniform(0.05, 1.5, 12) * np.resize([1, -1], 12),
            )
        ]
        + [(22, 3.0, 1.5), (29, -3.0, -1.5)],
    )
    def test_match_the_direct_residuals_on_refine_bases(self, n, alpha, t):
        spec = LatticeSpec(n, alpha, t)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        got = self.report_residuals(verify_basis(basis, family, spec))
        for value, want in zip(got, self.direct_residuals(basis, family)):
            assert abs(value - want) <= self.RESIDUAL_TOL

    @pytest.mark.parametrize("n", [20, 23])
    def test_leak_into_a_degenerate_neighbour_reads_the_same_both_ways(self, n):
        spec = LatticeSpec(n, 0.9, -0.4)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        # Columns come in label order; (r, s) and (s, r) share an energy.
        a, b = n + 2, 2 * n + 1
        assert abs(basis.energies[a] - basis.energies[b]) < 1e-13
        v = basis.vectors.copy()
        v[:, b] += 1e-9 * v[:, a]
        leaked = replace(basis, vectors=v)
        got = self.report_residuals(verify_basis(leaked, family, spec))
        want = self.direct_residuals(leaked, family)
        assert abs(got[0] - want[0]) <= self.RESIDUAL_TOL
        for value, reference in zip(got[1:], want[1:]):
            assert reference > 1e-10
            assert math.isclose(value, reference, rel_tol=1e-6)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_conjugated_translation_eigenvalue_reads_the_same_both_ways(self, axis):
        spec = LatticeSpec(20, 1.3, -0.7)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        sym_eigs = basis.sym_eigs.copy()
        j = 3 if axis == 0 else 3 * spec.n
        assert abs(sym_eigs[j, axis].imag) > 0.5
        sym_eigs[j, axis] = sym_eigs[j, axis].conjugate()
        damaged = replace(basis, sym_eigs=sym_eigs)
        got = self.report_residuals(verify_basis(damaged, family, spec))
        want = self.direct_residuals(damaged, family)
        assert want[1 + axis] > 1.0
        for value, reference in zip(got, want):
            assert math.isclose(value, reference, rel_tol=1e-6, abs_tol=self.RESIDUAL_TOL)

    @pytest.mark.parametrize("damage", ["swapped", "duplicated"])
    def test_labels_do_not_move_the_residuals(self, damage):
        spec = LatticeSpec(21, -0.4, 0.9)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        labels = basis.labels.copy()
        if damage == "swapped":
            labels[[5, 40]] = labels[[40, 5]]
        else:
            labels[5] = labels[40]
        want = self.report_residuals(verify_basis(basis, family, spec))
        got = self.report_residuals(verify_basis(replace(basis, labels=labels), family, spec))
        assert got == want

    @pytest.mark.parametrize("n", [3, 12, 19, 20, 30])
    def test_no_operator_applied_from_the_transform_on(self, n, monkeypatch):
        calls = []
        for name in ("apply_h", "apply_sx", "apply_sy"):
            method = getattr(CommutingFamily, name)

            def counted(self, v, _method=method, _name=name):
                calls.append(_name)
                return _method(self, v)

            monkeypatch.setattr(CommutingFamily, name, counted)
        spec = LatticeSpec(n, 1.3, -0.7)
        family = build_family(spec)
        basis = simultaneous_basis_refine(family)
        calls.clear()
        verify_basis(basis, family, spec)
        assert calls == []


class TestAllocationBudget:
    # Traced peak allocations of one solve and one verification at n = 30,
    # bounded at the figures this test measured once the energies and the
    # verification ran in column chunks (34.8 and 19.8 MiB), rounded up to
    # the next MiB. A memory regression shows here instead of only in a long
    # benchmark run.
    REFINE_MIB = 35
    VERIFY_MIB = 20
    # compute_spectrum at n = 40 reads the symmetry blocks' values alone:
    # 1.75 MiB measured, against 19.5 MiB for one real (dim, dim) basis.
    SPECTRUM_MIB = 4
    # One solve at n = 61, where odd n has no half-shift and the projections
    # gather the whole lattice: 383.8 MiB measured (382.8 under one BLAS
    # thread) once A's eigenvectors were lifted straight into refine's groups
    # of at most CHUNK clusters (1.82 times the 211 MiB complex basis); it
    # was 469.4 MiB with the dense Q and per-size copies of its columns.
    REFINE_N61_MIB = 384

    def test_peaks_at_n30(self):
        spec = LatticeSpec(30, 1.3, -0.7)
        family = build_family(spec)
        tracemalloc.start()
        try:
            basis = simultaneous_basis_refine(family)
            _current, refine_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            verify_basis(basis, family, spec)
            verify_peak = tracemalloc.get_traced_memory()[1] - _current
        finally:
            tracemalloc.stop()
        assert refine_peak <= self.REFINE_MIB * 2**20
        assert verify_peak <= self.VERIFY_MIB * 2**20

    def test_refine_peak_at_n61(self):
        family = build_family(LatticeSpec(61, 1.3, -0.7))
        tracemalloc.start()
        try:
            simultaneous_basis_refine(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.REFINE_N61_MIB * 2**20

    def test_spectrum_peak_at_n40(self):
        spec = LatticeSpec(40, 1.3, -0.7)
        tracemalloc.start()
        try:
            compute_spectrum(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.SPECTRUM_MIB * 2**20
