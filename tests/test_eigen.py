import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbbands.eigen import (
    RESIDUAL_C,
    cluster_eigenvalues,
    default_gap_tol,
    eig_hermitian,
)
from tbbands.model import LatticeSpec

from analytic_reference import analytic_eigenvalue
from dense_reference import dense_h

EPS = np.finfo(float).eps


class TestEigHermitian:
    def test_diagonal_matrix(self):
        dec = eig_hermitian(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(dec.values, [1.0, 2.0, 3.0], atol=1e-15)
        assert np.allclose(np.abs(dec.vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-15)

    def test_ring_n3(self):
        # the ring Hamiltonian: the first in-block diagonal block of H
        dec = eig_hermitian(dense_h(LatticeSpec(3, 1.0, 0.2))[:3, :3])
        assert np.allclose(dec.values, [0.6, 1.2, 1.2], atol=1e-14)

    def test_hamiltonian_multiset_matches_oracle_n4(self):
        spec = LatticeSpec(4, 1.0, 0.2)
        h = dense_h(spec)
        dec = eig_hermitian(h)
        want = sorted(
            analytic_eigenvalue(spec, (r, s))
            for r in range(4)
            for s in range(4)
        )
        assert np.abs(dec.values - want).max() <= 1e-12

    def test_random_hermitian_batch(self):
        # residual / orthogonality / reconstruction bounds on 200 random draws
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            dim = int(rng.integers(2, 65))
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = (raw + raw.conj().T) / 2
            dec = eig_hermitian(a)
            fro = np.linalg.norm(a)
            assert np.all(np.diff(dec.values) >= 0)
            residual = np.linalg.norm(a @ dec.vectors - dec.vectors * dec.values, axis=0).max()
            assert residual <= RESIDUAL_C * EPS * fro
            orth = np.abs(dec.vectors.conj().T @ dec.vectors - np.eye(dim)).max()
            assert orth <= RESIDUAL_C * EPS * dim
            recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.conj().T
            assert np.linalg.norm(recon - a) <= RESIDUAL_C * EPS * dim * fro

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((12, 12))
        dec = eig_hermitian((raw + raw.T) / 2)
        assert dec.values.dtype == np.float64
        assert not np.iscomplexobj(dec.vectors)

    def test_deterministic(self):
        a = dense_h(LatticeSpec(5, 1.0, 0.2))
        d1, d2 = eig_hermitian(a), eig_hermitian(a)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.vectors, d2.vectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_accepts_hermitian_within_tolerance(self):
        a = np.array([[1.0, 0.5], [0.5 + 1e-16, 2.0]], dtype=complex)
        dec = eig_hermitian(a)
        assert dec.values.shape == (2,)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_stack_equals_per_matrix_calls(self, k):
        rng = np.random.default_rng(k)
        raw = rng.standard_normal((7, k, k)) + 1j * rng.standard_normal((7, k, k))
        stack = (raw + raw.conj().transpose(0, 2, 1)) / 2
        dec = eig_hermitian(stack)
        assert dec.values.shape == (7, k) and dec.vectors.shape == (7, k, k)
        for i in range(7):
            one = eig_hermitian(stack[i])
            assert np.array_equal(dec.values[i], one.values)
            assert np.array_equal(dec.vectors[i], one.vectors)

    def test_stack_rejects_one_non_hermitian_member(self):
        stack = np.tile(np.eye(3, dtype=complex), (5, 1, 1))
        stack[3, 0, 2] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(stack)

    def test_stack_checks_each_member_against_its_own_norm(self):
        # a defect negligible next to a large member is not next to a small one
        stack = np.stack([1e6 * np.eye(2), np.array([[1.0, 1e-9], [0.0, 1.0]])])
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(stack)

    def test_exactly_hermitian_input_is_decomposed_as_given(self):
        # (A + A*)/2 is A for an exactly Hermitian A, so it is skipped; any
        # other accepted input is decomposed as its Hermitian part
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
        exact = raw + raw.conj().transpose(0, 2, 1)
        for a in (exact, exact.real):
            want = np.linalg.eigh(a)
            got = eig_hermitian(a)
            assert np.array_equal(got.values, want[0]) and np.array_equal(got.vectors, want[1])
        near = exact.copy()
        near[1, 0, 4] += 1e-15
        want = np.linalg.eigh((near + near.conj().transpose(0, 2, 1)) / 2.0)
        got = eig_hermitian(near)
        assert np.array_equal(got.values, want[0]) and np.array_equal(got.vectors, want[1])

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestClusterEigenvalues:
    def test_forced_split(self):
        got = cluster_eigenvalues(np.array([1.0, 1.0 + 1e-12, 2.0]), 1e-9)
        assert got.clusters == [range(0, 2), range(2, 3)]

    def test_all_equal_single_cluster(self):
        got = cluster_eigenvalues(np.full(6, 0.3), 1e-9)
        assert got.clusters == [range(0, 6)]

    def test_n8_spectrum_clusters(self):
        spec = LatticeSpec(8, 1.0, 0.2)
        values = np.sort(
            [
                analytic_eigenvalue(spec, (r, s))
                for r in range(8)
                for s in range(8)
            ]
        )
        got = cluster_eigenvalues(values, 1e-9)
        assert len(got.clusters) == 13
        assert sum(len(c) for c in got.clusters) == 64

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            cluster_eigenvalues(np.array([2.0, 1.0]), 1e-9)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            cluster_eigenvalues(np.array([1.0, 2.0]), 0.0)

    def test_infinite_gap_gives_one_cluster(self):
        got = cluster_eigenvalues(np.array([0.0, 1.0]), math.inf)
        assert got.clusters == [range(0, 2)]

    def test_rejects_nan_gap(self):
        with pytest.raises(ValueError, match=r"^gap_tol must be > 0 \(got nan\)$"):
            cluster_eigenvalues(np.array([0.0, 1.0]), math.nan)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="^values must be finite$"):
            cluster_eigenvalues(np.array([0.0, math.nan, 1.0]), 1e-9)

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=40),
        st.floats(1e-9, 1.0),
    )
    def test_partition_property(self, values, gap_tol):
        values = np.sort(np.asarray(values))
        got = cluster_eigenvalues(values, gap_tol)
        covered = [i for c in got.clusters for i in c]
        assert covered == list(range(values.size))
        for c in got.clusters:
            inner = np.diff(values[c.start : c.stop])
            assert np.all(inner <= gap_tol)
        for left, right in zip(got.clusters, got.clusters[1:]):
            assert values[right.start] - values[left.stop - 1] > gap_tol


def test_default_gap_tol_scales():
    h = dense_h(LatticeSpec(5, 1.0, 0.2))
    tol = default_gap_tol(h)
    assert 0 < tol < 1e-8
    assert default_gap_tol(np.zeros((3, 3))) > 0
