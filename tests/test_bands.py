import math

import numpy as np
import pytest

from tbbands.analytic import analytic_energies
from tbbands.bands import (
    analytic_dispersion,
    band_from_energies,
    compare_to_analytic,
    compute_dispersion,
    compute_spectrum,
)
from tbbands.eigen import cluster_eigenvalues
from tbbands.model import LatticeSpec

from analytic_reference import analytic_eigenvalue, degeneracy_census
from dense_reference import dense_h, sector_eigh

REFERENCE_N8 = LatticeSpec(8, 1.0, 0.2)

# (alpha, t) of the spectrum sweeps: a generic point, pure hopping, and a
# large on-site energy over a weak hopping.
SPECTRUM_PARAMETERS = [(1.3, -0.7), (0.0, 1.0), (-2.5, 0.05)]


class TestBandFromEnergies:
    @pytest.mark.parametrize("k_labels,k_energies", [(9, 12), (5, 9), (9, 5)])
    def test_rejects_mismatched_lengths(self, k_labels, k_energies):
        labels = np.stack(np.divmod(np.arange(k_labels), 3), axis=1)
        with pytest.raises(ValueError, match=f"^{k_labels} labels for {k_energies} energies$"):
            band_from_energies(LatticeSpec(3, 1.0, 0.2), labels, np.zeros(k_energies))

    def test_rejects_repeated_label(self):
        # compare_to_analytic would fill one cell and read 0 at the 15 others
        labels = [(0, 0)] * 16
        with pytest.raises(ValueError, match=r"^label \(0, 0\) of row 1 repeats an earlier row's$"):
            band_from_energies(LatticeSpec(4, 1.0, 0.2), labels, np.zeros(16))

    def test_rejects_complex_energies(self):
        # a cast to float would drop the imaginary parts from the band table
        labels = np.stack(np.divmod(np.arange(9), 3), axis=1)
        with pytest.raises(ValueError, match=r"^energies are complex; they must be real$"):
            band_from_energies(LatticeSpec(3, 1.0, 0.2), labels, np.ones(9) + 1j)


class TestComputeDispersion:
    def test_n8_staircase(self):
        band, report = compute_dispersion(REFERENCE_N8)
        assert band.r.shape == (64,)
        clusters = cluster_eigenvalues(np.sort(band.energy), 1e-9)
        assert len(clusters.clusters) == 13
        census_sizes = [count for _, count in degeneracy_census(REFERENCE_N8)]
        assert [len(c) for c in clusters.clusters] == census_sizes
        assert report.max_residual_h <= 1e-12

    def test_t_zero_flat_band(self):
        band, _ = compute_dispersion(LatticeSpec(3, 0.7, 0.0))
        assert np.abs(band.energy - 0.7).max() <= 1e-13

    def test_rows_lexicographic_with_momentum_grid(self):
        band, _ = compute_dispersion(LatticeSpec(5, 1.0, 0.2))
        keys = list(zip(band.r, band.s))
        assert keys == [(r, s) for r in range(5) for s in range(5)]
        assert np.array_equal(band.kx, 2 * math.pi * band.r / 5)
        assert np.array_equal(band.ky, 2 * math.pi * band.s / 5)

    def test_energies_within_band_limits(self):
        spec = LatticeSpec(6, 0.3, 0.9)
        band, _ = compute_dispersion(spec)
        slack = 1e-12
        assert band.energy.min() >= spec.alpha - 4 * abs(spec.t) - slack
        assert band.energy.max() <= spec.alpha + 4 * abs(spec.t) + slack

    def test_even_n_extremes_at_corner_momenta(self):
        band, _ = compute_dispersion(REFERENCE_N8)
        lowest, highest = np.argmin(band.energy), np.argmax(band.energy)
        assert (band.r[lowest], band.s[lowest]) == (0, 0)
        assert (band.r[highest], band.s[highest]) == (4, 4)
        near_min = np.abs(band.energy - band.energy[lowest]) <= 1e-9
        near_max = np.abs(band.energy - band.energy[highest]) <= 1e-9
        assert np.count_nonzero(near_min) == np.count_nonzero(near_max) == 1

    def test_methods_agree_n4(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        refined, _ = compute_dispersion(spec, method="refine")
        combined, _ = compute_dispersion(spec, method="combination")
        assert np.array_equal(refined.r, combined.r)
        assert np.abs(refined.energy - combined.energy).max() <= 1e-9

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            compute_dispersion(LatticeSpec(3, 1.0, 0.2), method="qr")


class TestComputeSpectrum:
    def test_n8_extremes(self):
        spectrum = compute_spectrum(REFERENCE_N8)
        assert abs(spectrum[0] - 0.2) <= 1e-13
        assert abs(spectrum[-1] - 1.8) <= 1e-13
        assert np.all(np.diff(spectrum) >= 0)

    def test_t_zero(self):
        spectrum = compute_spectrum(LatticeSpec(4, 0.9, 0.0))
        assert np.abs(spectrum - 0.9).max() <= 1e-14

    def test_multiset_matches_oracle_n6(self):
        spec = LatticeSpec(6, 1.0, 0.2)
        spectrum = compute_spectrum(spec)
        want = np.sort(
            [
                analytic_eigenvalue(spec, (r, s))
                for r in range(6)
                for s in range(6)
            ]
        )
        assert np.abs(spectrum - want).max() <= 1e-12

    @pytest.mark.parametrize("n", [*range(3, 41), 60, 61, 90])
    def test_matches_sorted_closed_form(self, n):
        # every n up to 40, and three sizes toward the dense cap: n = 60, the
        # prime 61 (no half-shift) and the cap's 90
        for alpha, t in SPECTRUM_PARAMETERS:
            spec = LatticeSpec(n, alpha, t)
            want = np.sort(analytic_energies(spec), axis=None)
            error = np.abs(compute_spectrum(spec) - want).max()
            assert error <= 1e-13 * (abs(alpha) + 4 * abs(t))

    @pytest.mark.parametrize("n", range(3, 41))
    def test_is_sector_eigh_values_bit_for_bit(self, n):
        # the two readers of the symmetry blocks keep the same values; the
        # refine method's come in class order, and are sorted here by value
        values = np.sort(sector_eigh(n)[0])
        for alpha, t in SPECTRUM_PARAMETERS:
            got = compute_spectrum(LatticeSpec(n, alpha, t))
            want = np.sort(alpha - t * values)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_band_and_spectrum_agree_as_multisets(self):
        spec = LatticeSpec(5, 1.0, 0.2)
        band, _ = compute_dispersion(spec)
        spectrum = compute_spectrum(spec)
        bound = 1e-10 * np.linalg.norm(dense_h(spec))
        assert np.abs(np.sort(band.energy) - spectrum).max() <= bound


class TestCompareToAnalytic:
    def test_analytic_band_gives_zero_grid(self):
        spec = LatticeSpec(6, 1.0, 0.2)
        grid = compare_to_analytic(analytic_dispersion(spec), spec)
        assert np.array_equal(grid, np.zeros((6, 6)))

    def test_computed_band_error_small_n8(self):
        band, _ = compute_dispersion(REFERENCE_N8)
        assert compare_to_analytic(band, REFERENCE_N8).max() <= 1e-11

    def test_reference_column_inherits_index_symmetry(self):
        spec = LatticeSpec(7, 1.0, 0.2)
        band = analytic_dispersion(spec)
        energy = np.full((7, 7), np.nan)
        energy[band.r, band.s] = band.energy
        assert np.abs(energy - energy[(7 - np.arange(7)) % 7]).max() <= 1e-15

    def test_rejects_wrong_row_count(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        with pytest.raises(ValueError, match="rows"):
            compare_to_analytic(analytic_dispersion(LatticeSpec(5, 1.0, 0.2)), spec)


class TestAnalyticDispersion:
    def test_matches_pointwise_oracle(self):
        spec = LatticeSpec(5, 0.4, 0.3)
        band = analytic_dispersion(spec)
        columns = (band.r, band.s, band.kx, band.ky, band.energy)
        for r, s, kx, ky, energy in zip(*(c.tolist() for c in columns)):
            assert energy == analytic_eigenvalue(spec, (r, s))
            assert kx == 2 * math.pi * r / 5
            assert ky == 2 * math.pi * s / 5

    def test_distinct_rows(self):
        band = analytic_dispersion(LatticeSpec(4, 1.0, 0.2))
        keys = set(zip(band.r.tolist(), band.s.tolist()))
        assert len(keys) == 16
