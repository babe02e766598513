import math
import re
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tbbands.analytic import (
    analytic_energies,
    analytic_eigenvector,
    analytic_eigenvectors,
    label_codes,
)
from tbbands.bands import analytic_dispersion
from tbbands.model import LatticeSpec

from analytic_reference import analytic_eigenvalue, degeneracy_census
from dense_reference import dense_h

REFERENCE_N8 = LatticeSpec(8, 1.0, 0.2)


def all_indices(n):
    return [(r, s) for r in range(n) for s in range(n)]


@st.composite
def index_cases(draw):
    n = draw(st.integers(3, 16))
    r = draw(st.integers(0, n - 1))
    s = draw(st.integers(0, n - 1))
    return n, r, s


class TestEigenvalue:
    def test_zero_momentum_n4(self):
        val = analytic_eigenvalue(LatticeSpec(4, 1.0, 0.2), (0, 0))
        assert math.isclose(val, 0.2, abs_tol=1e-15)

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_band_top_at_half_n(self, n):
        spec = LatticeSpec(n, 1.0, 0.2)
        val = analytic_eigenvalue(spec, (n // 2, n // 2))
        assert math.isclose(val, spec.alpha + 4 * spec.t, abs_tol=1e-15)

    def test_extended_precision_value_n8(self):
        # oracle: evaluate the dispersion formula with 50-digit arithmetic
        with mpmath.workdps(50):
            want = mpmath.mpf(1) - mpmath.mpf("0.4") * mpmath.cos(mpmath.pi / 4) - mpmath.mpf("0.4")
            want = float(want)
        assert want == 0.31715728752538097
        got = analytic_eigenvalue(REFERENCE_N8, (1, 0))
        assert math.isclose(got, want, abs_tol=1e-15)

    def test_rejects_out_of_range_index(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        for bad in [(4, 0), (0, 4), (-1, 0)]:
            with pytest.raises(ValueError):
                analytic_eigenvalue(spec, bad)

    @given(index_cases())
    def test_index_symmetries(self, case):
        n, r, s = case
        spec = LatticeSpec(n, 0.9, 0.35)
        e = analytic_eigenvalue(spec, (r, s))
        for other in [(s, r), ((n - r) % n, s), (r, (n - s) % n)]:
            assert abs(e - analytic_eigenvalue(spec, other)) <= 1e-15

    @given(index_cases())
    def test_spectrum_bounds(self, case):
        n, r, s = case
        spec = LatticeSpec(n, 0.4, -0.7)
        e = analytic_eigenvalue(spec, (r, s))
        slack = 4 * abs(spec.t) * 2**-50
        assert spec.alpha - 4 * abs(spec.t) - slack <= e <= spec.alpha + 4 * abs(spec.t) + slack

    @pytest.mark.parametrize("n,alpha,t", [(4, 1.0, 0.2), (5, 0.7, 0.3)])
    def test_sum_rule(self, n, alpha, t):
        spec = LatticeSpec(n, alpha, t)
        total = math.fsum(analytic_eigenvalue(spec, idx) for idx in all_indices(n))
        assert abs(total - n * n * alpha) <= 1e-12 * n * n * abs(alpha)


class TestEnergies:
    @pytest.mark.parametrize("n", range(3, 41))
    def test_grid_is_the_pointwise_values_bit_for_bit(self, n):
        for alpha, t in [(1.0, 0.2), (-0.4, 1.1), (0.0, -1.5), (716.2394190794505, -1.7)]:
            spec = LatticeSpec(n, alpha, t)
            grid = analytic_energies(spec)
            assert grid.shape == (n, n)
            want = np.array([[analytic_eigenvalue(spec, (r, s)) for s in range(n)] for r in range(n)])
            assert np.array_equal(grid.view(np.uint64), want.view(np.uint64))
            # (r, s) and (s, r) feed the same two cosines to one sum.
            assert np.array_equal(grid.view(np.uint64), grid.T.view(np.uint64))


class TestEigenvector:
    def test_uniform_mode(self):
        v = analytic_eigenvector(LatticeSpec(5, 1.0, 0.2), (0, 0))
        assert np.array_equal(v, np.full(25, 1 / 5, dtype=complex))

    def test_quarter_turn_entry_n4(self):
        v = analytic_eigenvector(LatticeSpec(4, 1.0, 0.2), (1, 0))
        assert abs(v[4] - 0.25j) <= 1e-15  # p=1, q=0

    def test_first_entry_exactly_real(self):
        for idx in all_indices(4):
            v = analytic_eigenvector(LatticeSpec(4, 1.0, 0.2), idx)
            assert v[0] == 0.25

    @given(index_cases())
    def test_equals_kronecker_product_of_ring_modes(self, case):
        n, r, s = case
        steps = np.arange(n)
        want = np.kron(np.exp(2j * math.pi * r * steps / n), np.exp(2j * math.pi * s * steps / n)) / n
        got = analytic_eigenvector(LatticeSpec(n, 1.0, 0.2), (r, s))
        assert np.array_equal(got, want)

    @given(index_cases())
    def test_constant_modulus(self, case):
        n, r, s = case
        v = analytic_eigenvector(LatticeSpec(n, 1.0, 0.2), (r, s))
        assert np.abs(np.abs(v) - 1 / n).max() <= 1e-15

    def test_eigen_equation_all_indices_n5(self):
        spec = LatticeSpec(5, 1.0, 0.2)
        h = dense_h(spec)
        for idx in all_indices(5):
            vector = analytic_eigenvector(spec, idx)
            defect = h @ vector - analytic_eigenvalue(spec, idx) * vector
            assert np.abs(defect).max() <= 1e-13

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_orthonormal_basis(self, n):
        spec = LatticeSpec(n, 1.0, 0.2)
        basis = np.stack([analytic_eigenvector(spec, idx) for idx in all_indices(n)], axis=1)
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(n * n)).max() <= 1e-13

    @pytest.mark.parametrize("n", [3, 8, 12])
    def test_residual_against_hamiltonian(self, n):
        spec = LatticeSpec(n, 1.0, 0.2)
        h = dense_h(spec)
        bound = 1e-13 * np.linalg.norm(h)
        for idx in all_indices(n):
            vector = analytic_eigenvector(spec, idx)
            energy = analytic_eigenvalue(spec, idx)
            assert np.linalg.norm(h @ vector - energy * vector) <= bound


class TestEigenvectors:
    @pytest.mark.parametrize("n", range(3, 32))
    def test_bulk_columns_are_the_single_vectors_bit_for_bit(self, n):
        # one plane-wave formula: every column of the block, in any label
        # order, has the bits of analytic_eigenvector, signed zeros included
        spec = LatticeSpec(n, 1.0, 0.2)
        labels = all_indices(n)[::-1]
        bulk = analytic_eigenvectors(spec, labels)
        assert bulk.shape == (n * n, n * n) and bulk.dtype == np.complex128
        single = np.stack([analytic_eigenvector(spec, idx) for idx in labels])
        assert np.array_equal(np.ascontiguousarray(bulk.T).view(np.uint64), single.view(np.uint64))

    def test_takes_an_integer_array_of_labels(self):
        spec = LatticeSpec(6, 1.0, 0.2)
        labels = [(5, 0), (2, 3)]
        want = analytic_eigenvectors(spec, labels)
        assert np.array_equal(analytic_eigenvectors(spec, np.array(labels)), want)

    @pytest.mark.parametrize("bad", [(4, 0), (0, -1), (1.7, 0.2), (math.nan, 0.0), (0.0, -math.inf)])
    def test_rejects_out_of_range_label(self, bad):
        integral = all(float(x).is_integer() for x in bad)
        with pytest.raises(ValueError, match="out of range" if integral else "is not integral"):
            analytic_eigenvectors(LatticeSpec(4, 1.0, 0.2), [(1, 1), bad])


class TestLabelCodes:
    @pytest.mark.parametrize("labels", [np.zeros((2, 3)), [0, 1, 2, 3]])
    def test_rejects_other_shapes(self, labels):
        # reshape(-1, 2) once re-paired the numbers: three codes, and [1, 11]
        shape = np.shape(labels)
        with pytest.raises(ValueError, match=rf"not of shape {re.escape(str(shape))}$"):
            label_codes(LatticeSpec(4, 1.0, 0.2), labels)


class TestDispersionPoint:
    """The rows of :func:`analytic_dispersion`, one per (r, s) in lexicographic order."""

    def test_band_bottom(self):
        spec = LatticeSpec(6, 1.0, 0.2)
        band = analytic_dispersion(spec)
        assert (band.r[0], band.s[0], band.kx[0], band.ky[0]) == (0, 0, 0.0, 0.0)
        assert math.isclose(band.energy[0], spec.alpha - 4 * spec.t, abs_tol=1e-15)

    def test_band_top_momentum_is_pi(self):
        band = analytic_dispersion(LatticeSpec(4, 1.0, 0.2))
        j = 2 * 4 + 2
        assert (band.r[j], band.s[j]) == (2, 2)
        assert band.kx[j] == math.pi and band.ky[j] == math.pi
        assert math.isclose(band.energy[j], 1.8, abs_tol=1e-15)

    def test_full_grid_n25(self):
        spec = LatticeSpec(25, 1.0, 0.2)
        band = analytic_dispersion(spec)
        for j, (r, s) in enumerate(all_indices(25)):
            assert (band.r[j], band.s[j]) == (r, s)
            assert band.kx[j] == 2 * math.pi * r / 25
            assert band.ky[j] == 2 * math.pi * s / 25
            assert band.energy[j] == analytic_eigenvalue(spec, (r, s))


class TestDegeneracyCensus:
    def test_n8_against_enumeration_oracle(self):
        # oracle: enumerate all 64 energies and bucket them far above float noise
        oracle = Counter(
            round(analytic_eigenvalue(REFERENCE_N8, idx), 6) for idx in all_indices(8)
        )
        census = degeneracy_census(REFERENCE_N8)
        assert len(census) == len(oracle) == 13
        for energy, count in census:
            assert oracle[round(energy, 6)] == count
        by_energy = {round(e, 6): c for e, c in census}
        assert by_energy[0.2] == 1
        assert by_energy[1.8] == 1
        assert by_energy[1.0] == 14

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_even_n_inner_levels_at_least_fourfold(self, n):
        census = degeneracy_census(LatticeSpec(n, 1.0, 0.2))
        inner = census[1:-1]
        assert census[0][1] == 1 and census[-1][1] == 1
        assert all(count >= 4 for _, count in inner)

    def test_t_zero_single_cluster(self):
        census = degeneracy_census(LatticeSpec(5, 1.3, 0.0))
        assert len(census) == 1
        energy, count = census[0]
        assert energy == 1.3 and count == 25

    @pytest.mark.parametrize("n,alpha,t", [(3, 1.0, 0.2), (7, 0.0, 1.0), (8, 1.0, 0.2)])
    def test_counts_sum_to_dim(self, n, alpha, t):
        census = degeneracy_census(LatticeSpec(n, alpha, t))
        assert sum(c for _, c in census) == n * n
        energies = [e for e, _ in census]
        assert energies == sorted(energies)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            degeneracy_census(REFERENCE_N8, tol=0.0)
        with pytest.raises(ValueError):
            degeneracy_census(REFERENCE_N8, tol=-1e-9)
