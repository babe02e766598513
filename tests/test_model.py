import math
import re
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tbbands import model
from tbbands.model import (
    X_AXIS,
    Y_AXIS,
    LatticeSpec,
    build_chain,
    build_family,
    build_hamiltonian,
    build_shift,
    build_symmetries,
    kron,
    translate,
)


def charpoly_roots(matrix):
    """Independent eigenvalue oracle: exact characteristic polynomial, exact roots."""
    exact = sympy.Matrix(
        [[sympy.Rational(complex(x).real) for x in row] for row in matrix]
    )
    roots = exact.charpoly().all_roots(multiple=True)
    return sorted(float(z.evalf(30)) for z in roots)


class TestLatticeSpec:
    def test_rejects_small_n(self):
        for n in (0, 1, 2):
            with pytest.raises(ValueError, match=">= 3"):
                LatticeSpec(n, 1.0, 0.2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LatticeSpec(4, math.inf, 0.2)
        with pytest.raises(ValueError):
            LatticeSpec(4, 1.0, math.nan)

    def test_dim(self):
        assert LatticeSpec(5, 1.0, 0.2).dim == 25


class TestShift:
    def test_first_rows_n3(self):
        s = build_shift(3)
        assert np.array_equal(s.real, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    def test_n1_is_identity(self):
        assert np.array_equal(build_shift(1), [[1.0]])

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            build_shift(0)

    @given(st.integers(1, 40))
    def test_orthogonal_permutation(self, n):
        s = build_shift(n)
        assert np.array_equal(s.T @ s, np.eye(n, dtype=complex))
        # exactly one 1 per row and column
        assert np.array_equal(np.abs(s).sum(axis=0), np.ones(n))
        assert np.array_equal(np.abs(s).sum(axis=1), np.ones(n))

    def test_period_n(self):
        for n in (3, 5):
            s = build_shift(n)
            assert np.array_equal(np.linalg.matrix_power(s, n), np.eye(n, dtype=complex))


class TestChain:
    def test_ring_structure_n4(self):
        c = build_chain(LatticeSpec(4, 1.0, 0.2))
        assert np.array_equal(np.diag(c), np.full(4, 1.0 + 0j))
        assert c[0, 1] == c[0, 3] == -0.2
        assert c[0, 2] == 0.0

    def test_t_zero_is_scalar(self):
        c = build_chain(LatticeSpec(3, 0.7, 0.0))
        assert np.array_equal(c, 0.7 * np.eye(3))

    def test_eigenvalues_against_charpoly_oracle(self):
        c = build_chain(LatticeSpec(3, 1.0, 0.2))
        roots = charpoly_roots(c)
        assert np.allclose(roots, [0.6, 1.2, 1.2], atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(c), roots, atol=1e-12)


class TestKron:
    def test_identity_factor_gives_block_diagonal(self):
        x = np.array([[1, 2], [3, 4]], dtype=complex)
        out = kron(np.eye(2, dtype=complex), x)
        assert np.array_equal(out[:2, :2], x)
        assert np.array_equal(out[2:, 2:], x)
        assert np.array_equal(out[:2, 2:], np.zeros((2, 2)))

    def test_shift_factor_swaps_block_halves(self):
        out = kron(build_shift(2), np.eye(2, dtype=complex))
        want = np.zeros((4, 4), dtype=complex)
        want[2:, :2] = np.eye(2)
        want[:2, 2:] = np.eye(2)
        assert np.array_equal(out, want)

    @settings(max_examples=50)
    @given(
        *(
            hnp.arrays(np.int64, (3, 3), elements=st.integers(-5, 5))
            for _ in range(4)
        )
    )
    def test_mixed_product_rule(self, a, b, c, d):
        a, b, c, d = (m.astype(complex) for m in (a, b, c, d))
        assert np.array_equal(kron(a, b) @ kron(c, d), kron(a @ c, b @ d))

    def test_rejects_oversized_result(self):
        big = np.eye(200, dtype=complex)
        with pytest.raises(ValueError, match="cap"):
            kron(big, big)


class TestHamiltonian:
    def test_row0_nonzeros_n4(self):
        h = build_hamiltonian(LatticeSpec(4, 1.0, 0.2))
        row = h[0]
        nonzero = {j: row[j] for j in range(16) if row[j] != 0}
        assert nonzero == {0: 1.0, 1: -0.2, 3: -0.2, 4: -0.2, 12: -0.2}

    def test_t_zero_is_scalar_matrix(self):
        h = build_hamiltonian(LatticeSpec(3, 1.0, 0.0))
        assert np.array_equal(h, np.eye(9, dtype=complex))

    def test_trace_is_correctly_rounded_diagonal_sum(self):
        h = build_hamiltonian(LatticeSpec(5, 0.7, 0.3))
        assert math.fsum(np.diag(h).real) == 17.5

    def test_exactly_symmetric(self):
        h = build_hamiltonian(LatticeSpec(6, 0.9, 0.4))
        assert np.array_equal(h, h.T)
        assert np.array_equal(h.imag, np.zeros_like(h.imag))

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_four_couplings_per_row(self, n):
        h = build_hamiltonian(LatticeSpec(n, 1.0, 0.2))
        for i in range(n * n):
            offdiag = [h[i, j] for j in range(n * n) if j != i and h[i, j] != 0]
            assert len(offdiag) == 4
            assert all(x == -0.2 for x in offdiag)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_matches_explicit_block_assembly(self, n):
        spec = LatticeSpec(n, 1.3, 0.45)
        chain = build_chain(spec)
        coupling = -spec.t * np.eye(n, dtype=complex)
        want = np.zeros((n * n, n * n), dtype=complex)
        for p in range(n):
            for q in range(n):
                delta = (q - p) % n
                if delta == 0:
                    want[p * n : (p + 1) * n, q * n : (q + 1) * n] = chain
                elif delta in (1, n - 1):
                    want[p * n : (p + 1) * n, q * n : (q + 1) * n] = coupling
        assert np.array_equal(build_hamiltonian(spec), want)

    def test_entry_sum_of_squares(self):
        spec = LatticeSpec(6, 0.8, 0.3)
        h = build_hamiltonian(spec)
        total = math.fsum((np.abs(h) ** 2).ravel())
        n2 = spec.n**2
        want = n2 * spec.alpha**2 + 4 * n2 * spec.t**2
        assert math.isclose(total, want, rel_tol=1e-13)


class TestSymmetries:
    def test_kron_layout(self):
        # x-translation acts inside blocks, y-translation across blocks
        sx, sy = build_symmetries(LatticeSpec(3, 1.0, 0.2))
        shift = build_shift(3)
        assert np.array_equal(sx[:3, :3], shift)
        assert np.array_equal(sx[3:6, 3:6], shift)
        assert np.array_equal(sy[3:6, :3], np.eye(3, dtype=complex))

    def test_orthogonal(self):
        sx, sy = build_symmetries(LatticeSpec(4, 1.0, 0.2))
        assert np.array_equal(sx @ sx.T, np.eye(16, dtype=complex))
        assert np.array_equal(sy @ sy.T, np.eye(16, dtype=complex))

    def test_period_n(self):
        sx, _ = build_symmetries(LatticeSpec(5, 1.0, 0.2))
        assert np.array_equal(np.linalg.matrix_power(sx, 5), np.eye(25, dtype=complex))

    def test_permutation_structure(self):
        for s in build_symmetries(LatticeSpec(4, 1.0, 0.2)):
            assert np.array_equal(np.abs(s).sum(axis=0), np.ones(16))
            assert np.array_equal(np.abs(s).sum(axis=1), np.ones(16))


def dyadic_block(rng, dim, k):
    """Complex block with entries j/8, |j| <= 64: with dyadic alpha and t every
    product and partial sum of H v is exact, whatever order a BLAS sums in."""
    parts = rng.integers(-64, 65, size=(2, dim, k)) / 8.0
    return parts[0] + 1j * parts[1]


class TestFamily:
    @pytest.mark.parametrize("n,alpha,t", [(3, 1.0, 0.2), (4, 1.0, 0.0), (6, 0.5, 1.3)])
    def test_commutators_exactly_zero(self, n, alpha, t):
        family = build_family(LatticeSpec(n, alpha, t))
        rng = np.random.default_rng(n)
        v = rng.standard_normal((n * n, 5)) + 1j * rng.standard_normal((n * n, 5))
        pairs = [
            (family.apply_h, family.apply_sx),
            (family.apply_h, family.apply_sy),
            (family.apply_sx, family.apply_sy),
        ]
        for a, b in pairs:
            assert np.array_equal(a(b(v)), b(a(v)))

    def test_dimension_n8(self):
        family = build_family(LatticeSpec(8, 1.0, 0.2))
        assert family.dim == 64
        assert family.n == 8

    def test_matrices_frozen(self):
        family = build_family(LatticeSpec(3, 1.0, 0.2))
        with pytest.raises(ValueError):
            family.h[0, 0] = 5.0

    def test_hamiltonian_is_real(self):
        family = build_family(LatticeSpec(4, 1.0, 0.2))
        assert family.h.dtype == np.float64

    @pytest.mark.parametrize(
        "sites,name",
        [
            # one on-site energy off: breaks both translations, x is checked first
            ([0], "[h, sx]"),
            # the on-site energies of the whole first block (p = 0) off:
            # invariant along x, not along y
            (list(range(5)), "[h, sy]"),
        ],
    )
    def test_corrupted_stencil_fails_commutator_check(self, monkeypatch, sites, name):
        def corrupted(spec):
            h = build_hamiltonian(spec)
            h[sites, sites] += 1.0
            return h

        monkeypatch.setattr(model, "build_hamiltonian", corrupted)
        with pytest.raises(AssertionError, match=re.escape(name)):
            build_family(LatticeSpec(5, 1.0, 0.2))

    def test_dense_cap_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                build_family(LatticeSpec(91, 1.0, 0.2))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestMatrixFreeOperators:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_bit_identical_to_dense_matrices(self, n):
        spec = LatticeSpec(n, 1.375, -0.625)
        family = build_family(spec)
        h = build_hamiltonian(spec)
        sx, sy = build_symmetries(spec)
        v = dyadic_block(np.random.default_rng(n), n * n, 6)
        for apply, dense in ((family.apply_h, h), (family.apply_sx, sx), (family.apply_sy, sy)):
            assert np.array_equal(apply(v), dense @ v)
            assert np.array_equal(apply(v[:, 0]), dense @ v[:, 0])
            assert np.array_equal(apply(np.eye(n * n)), dense)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_generic_inputs_match_dense_to_rounding(self, n):
        rng = np.random.default_rng(n)
        spec = LatticeSpec(n, float(rng.uniform(-3, 3)), float(rng.uniform(-1.5, 1.5)))
        family = build_family(spec)
        v = rng.standard_normal((n * n, 6)) + 1j * rng.standard_normal((n * n, 6))
        want = build_hamiltonian(spec) @ v
        scale = (abs(spec.alpha) + 4 * abs(spec.t)) * np.abs(v).max()
        assert np.abs(family.apply_h(v) - want).max() <= 8 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_negative_step_is_transpose(self, n):
        sx, sy = build_symmetries(LatticeSpec(n, 1.0, 0.2))
        v = dyadic_block(np.random.default_rng(n), n * n, 4)
        assert np.array_equal(translate(v, n, X_AXIS, -1), sx.T @ v)
        assert np.array_equal(translate(v, n, Y_AXIS, -1), sy.T @ v)
