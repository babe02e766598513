import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tbbands.model import (
    MAX_DENSE_DIM,
    X_AXIS,
    Y_AXIS,
    CommutingFamily,
    LatticeSpec,
    apply_hopping,
    build_family,
    hamiltonian_norm,
    parity_factors,
    ring_factors,
    translate,
)

from dense_reference import dense_h, dense_hopping, dense_operators


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

    def test_rejects_energy_bound_overflow(self):
        # alpha and t are finite, but |alpha| + 4|t|, the bound on every energy, is not.
        with pytest.raises(ValueError, match=r"\|alpha\| \+ 4\|t\|"):
            LatticeSpec(3, 1e308, 1e308)
        assert LatticeSpec(3, 1e308, 1e307).dim == 9

    def test_dim(self):
        assert LatticeSpec(5, 1.0, 0.2).dim == 25

    @pytest.mark.parametrize("n", [4.5, 4.0, np.float64(5)])
    def test_rejects_non_integral_n(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer (got {n!r})")):
            LatticeSpec(n, 1.0, 0.2)

    def test_accepts_numpy_integer_n(self):
        spec = LatticeSpec(np.int64(5), 1.0, 0.2)
        assert spec == LatticeSpec(5, 1.0, 0.2) and type(spec.n) is int
        assert build_family(spec).dim == 25


def ring_shift(n):
    """The n-site cyclic shift as ``translate`` applies it along the x axis of
    an n x n grid: the first in-block diagonal block of S_x."""
    return translate(np.eye(n * n, n), n, X_AXIS, 1)[:n]


class TestShift:
    def test_first_rows_n3(self):
        assert np.array_equal(ring_shift(3), [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    def test_n1_is_identity(self):
        for axis in (X_AXIS, Y_AXIS):
            assert np.array_equal(translate(np.eye(1), 1, axis, 1), [[1.0]])

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            LatticeSpec(0, 1.0, 0.2)
        # a vector that does not fill the n x n grid is refused, not truncated
        with pytest.raises(ValueError):
            translate(np.ones(5), 2, X_AXIS, 1)

    @given(st.integers(1, 40))
    def test_orthogonal_permutation(self, n):
        # every site index lands exactly once, and the step -1 (the
        # transpose) undoes the step +1: an orthogonal permutation
        sites = np.arange(n * n)
        for axis in (X_AXIS, Y_AXIS):
            moved = translate(sites, n, axis, 1)
            assert np.array_equal(np.sort(moved), sites)
            assert np.array_equal(translate(moved, n, axis, -1), sites)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_is_np_roll_bit_for_bit(self, data):
        # every step, negative and beyond n included, on both axes, for a
        # vector and a block holding signed zeros and NaNs with payloads:
        # the slices move the same bits to the same places as np.roll
        n = data.draw(st.integers(1, 40))
        step = data.draw(st.integers(-n, 2 * n))
        k = data.draw(st.sampled_from([None, 1, 3]))
        shape = (n * n,) if k is None else (n * n, k)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        specials = np.array([0x0, 0x8000000000000000, 0x7FF8000000000001, 0xFFF0000000DEAD01])
        bits.ravel()[rng.permutation(bits.size)[:4]] = specials[: bits.size]
        v = bits.view(np.float64)
        for axis in (X_AXIS, Y_AXIS):
            got = translate(v, n, axis, step)
            want = np.roll(v.reshape(n, n, -1), step, axis=axis).reshape(v.shape)
            assert got.shape == v.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_period_n(self):
        for n in (3, 5):
            family = build_family(LatticeSpec(n, 1.0, 0.2))
            sites = np.arange(n * n)
            for apply in (family.apply_sx, family.apply_sy):
                v = sites
                for step in range(1, n + 1):
                    v = apply(v)
                    assert np.array_equal(v, sites) == (step == n)


def hamiltonian_matrix(spec):
    """H as ``apply_h`` applies it, column by column."""
    return build_family(spec).apply_h(np.eye(spec.dim))


def ring_block(spec):
    """The in-block (p = 0) diagonal block of H: the n-site ring Hamiltonian."""
    return hamiltonian_matrix(spec)[: spec.n, : spec.n]


class TestChain:
    def test_ring_structure_n4(self):
        c = ring_block(LatticeSpec(4, 1.0, 0.2))
        assert np.array_equal(np.diag(c), np.full(4, 1.0))
        assert c[0, 1] == c[0, 3] == -0.2
        assert c[0, 2] == 0.0

    def test_t_zero_is_scalar(self):
        c = ring_block(LatticeSpec(3, 0.7, 0.0))
        assert np.array_equal(c, 0.7 * np.eye(3))

    def test_eigenvalues_against_charpoly_oracle(self):
        c = ring_block(LatticeSpec(3, 1.0, 0.2))
        roots = charpoly_roots(c)
        assert np.allclose(roots, [0.6, 1.2, 1.2], atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(c), roots, atol=1e-12)


class TestKron:
    """The Kronecker layout of the translations: S_x = I (x) P, S_y = P (x) I,
    with P the ring shift."""

    def test_identity_factor_gives_block_diagonal(self):
        n = 3
        sx = build_family(LatticeSpec(n, 1.0, 0.2)).apply_sx(np.eye(n * n))
        for p in range(n):
            for q in range(n):
                block = sx[p * n : (p + 1) * n, q * n : (q + 1) * n]
                assert np.array_equal(block, ring_shift(n) if p == q else np.zeros((n, n)))

    def test_shift_factor_swaps_block_halves(self):
        out = translate(np.eye(4), 2, Y_AXIS, 1)
        want = np.zeros((4, 4))
        want[2:, :2] = np.eye(2)
        want[:2, 2:] = np.eye(2)
        assert np.array_equal(out, want)

    def test_rejects_oversized_result(self):
        # the cap sits exactly at MAX_DENSE_DIM: n = 90 (8100) passes, n = 91 (8281) does not
        assert build_family(LatticeSpec(90, 1.0, 0.2)).dim == 8100 <= MAX_DENSE_DIM
        with pytest.raises(ValueError, match="cap"):
            build_family(LatticeSpec(91, 1.0, 0.2))


class TestHamiltonian:
    def test_row0_nonzeros_n4(self):
        row = hamiltonian_matrix(LatticeSpec(4, 1.0, 0.2))[0]
        nonzero = {j: row[j] for j in range(16) if row[j] != 0}
        assert nonzero == {0: 1.0, 1: -0.2, 3: -0.2, 4: -0.2, 12: -0.2}

    def test_t_zero_is_scalar_matrix(self):
        h = hamiltonian_matrix(LatticeSpec(3, 1.0, 0.0))
        assert np.array_equal(h, np.eye(9))

    def test_trace_is_correctly_rounded_diagonal_sum(self):
        h = hamiltonian_matrix(LatticeSpec(5, 0.7, 0.3))
        assert math.fsum(np.diag(h)) == 17.5

    def test_exactly_symmetric(self):
        h = hamiltonian_matrix(LatticeSpec(6, 0.9, 0.4))
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_four_couplings_per_row(self, n):
        h = hamiltonian_matrix(LatticeSpec(n, 1.0, 0.2))
        for i in range(n * n):
            offdiag = [h[i, j] for j in range(n * n) if j != i and h[i, j] != 0]
            assert len(offdiag) == 4
            assert all(x == -0.2 for x in offdiag)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_matches_explicit_block_assembly(self, n):
        spec = LatticeSpec(n, 1.3, 0.45)
        chain = np.zeros((n, n))
        for q in range(n):
            chain[q, q] = spec.alpha
            chain[q, (q + 1) % n] = chain[q, (q - 1) % n] = -spec.t
        coupling = -spec.t * np.eye(n)
        want = np.zeros((n * n, n * n))
        for p in range(n):
            for q in range(n):
                delta = (q - p) % n
                if delta == 0:
                    want[p * n : (p + 1) * n, q * n : (q + 1) * n] = chain
                elif delta in (1, n - 1):
                    want[p * n : (p + 1) * n, q * n : (q + 1) * n] = coupling
        assert np.array_equal(hamiltonian_matrix(spec), want)
        assert np.array_equal(dense_h(spec), want)

    def test_entry_sum_of_squares(self):
        spec = LatticeSpec(6, 0.8, 0.3)
        h = hamiltonian_matrix(spec)
        total = math.fsum((h**2).ravel())
        n2 = spec.n**2
        want = n2 * spec.alpha**2 + 4 * n2 * spec.t**2
        assert math.isclose(total, want, rel_tol=1e-13)

    @pytest.mark.parametrize("n", range(3, 31))
    def test_closed_form_norm_matches_dense(self, n):
        rng = np.random.default_rng(n)
        draws = [(float(a), float(t)) for a, t in rng.uniform(-3.0, 3.0, (3, 2))]
        for alpha, t in draws + [(1.3, 0.0), (0.0, -0.7), (0.0, 0.0)]:
            spec = LatticeSpec(n, alpha, t)
            # Summed exactly: np.linalg.norm is a BLAS reduction, which on one
            # thread errs by up to 1.4e-15 here.
            h = dense_h(spec)
            want = math.sqrt(math.fsum((h * h).ravel()))
            assert math.isclose(hamiltonian_norm(spec), want, rel_tol=1e-15)


class TestSymmetries:
    def test_kron_layout(self):
        # x-translation acts inside blocks, y-translation across blocks
        family = build_family(LatticeSpec(3, 1.0, 0.2))
        sx = family.apply_sx(np.eye(9))
        sy = family.apply_sy(np.eye(9))
        assert np.array_equal(sx[:3, :3], ring_shift(3))
        assert np.array_equal(sx[3:6, 3:6], ring_shift(3))
        assert np.array_equal(sy[3:6, :3], np.eye(3))

    def test_orthogonal(self):
        family = build_family(LatticeSpec(4, 1.0, 0.2))
        for apply in (family.apply_sx, family.apply_sy):
            s = apply(np.eye(16))
            assert np.array_equal(s @ s.T, np.eye(16))

    def test_period_n(self):
        family = build_family(LatticeSpec(5, 1.0, 0.2))
        sx = family.apply_sx(np.eye(25))
        assert np.array_equal(np.linalg.matrix_power(sx, 5), np.eye(25))

    def test_permutation_structure(self):
        family = build_family(LatticeSpec(4, 1.0, 0.2))
        for apply in (family.apply_sx, family.apply_sy):
            s = apply(np.eye(16))
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
        # the family holds its spec and no matrix, and cannot be rebound
        family = build_family(LatticeSpec(3, 1.0, 0.2))
        assert [f.name for f in dataclasses.fields(CommutingFamily)] == ["spec"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            family.spec = LatticeSpec(3, 2.0, 0.2)

    def test_hamiltonian_is_real(self):
        family = build_family(LatticeSpec(4, 1.0, 0.2))
        assert family.apply_h(np.eye(16)).dtype == np.float64

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
        stencil = CommutingFamily.apply_h

        def corrupted(self, v):
            out = stencil(self, v)
            out[sites] += v[sites]
            return out

        monkeypatch.setattr(CommutingFamily, "apply_h", corrupted)
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

    def test_building_allocates_no_dense_operator(self):
        # the family is its spec: the commutator check runs on one probe
        # column, far below the 99 MiB a dense H takes at n = 60
        tracemalloc.start()
        try:
            build_family(LatticeSpec(60, 1.3, -0.7))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestMatrixFreeOperators:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_bit_identical_to_dense_matrices(self, n):
        spec = LatticeSpec(n, 1.375, -0.625)
        family = build_family(spec)
        h, sx, sy = dense_operators(spec)
        v = dyadic_block(np.random.default_rng(n), n * n, 6)
        for apply, dense in (
            (family.apply_h, h),
            (family.apply_sx, sx),
            (family.apply_sy, sy),
            (lambda v: apply_hopping(v, n), dense_hopping(n)),
        ):
            assert np.array_equal(apply(v), dense @ v)
            assert np.array_equal(apply(v[:, 0]), dense @ v[:, 0])
            assert np.array_equal(apply(np.eye(n * n)), dense)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_generic_inputs_match_dense_to_rounding(self, n):
        rng = np.random.default_rng(n)
        spec = LatticeSpec(n, float(rng.uniform(-3, 3)), float(rng.uniform(-1.5, 1.5)))
        family = build_family(spec)
        v = rng.standard_normal((n * n, 6)) + 1j * rng.standard_normal((n * n, 6))
        want = dense_h(spec) @ v
        scale = (abs(spec.alpha) + 4 * abs(spec.t)) * np.abs(v).max()
        assert np.abs(family.apply_h(v) - want).max() <= 8 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_negative_step_is_transpose(self, n):
        _h, sx, sy = dense_operators(LatticeSpec(n, 1.0, 0.2))
        v = dyadic_block(np.random.default_rng(n), n * n, 4)
        assert np.array_equal(translate(v, n, X_AXIS, -1), sx.T @ v)
        assert np.array_equal(translate(v, n, Y_AXIS, -1), sy.T @ v)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_apply_h_equals_four_roll_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        spec = LatticeSpec(n, float(rng.uniform(-3, 3)), float(rng.uniform(-1.5, 1.5)))
        family = build_family(spec)

        def four_rolls(v):
            g = v.reshape(n, n, -1)
            hop = np.roll(g, 1, 0)
            hop += np.roll(g, -1, 0)
            hop += np.roll(g, 1, 1)
            hop += np.roll(g, -1, 1)
            hop *= -spec.t
            hop += spec.alpha * g
            return hop.reshape(v.shape)

        block = rng.standard_normal((n * n, 7)) + 1j * rng.standard_normal((n * n, 7))
        for v in (block, block[:, 0].copy(), block.real.copy()):
            assert np.array_equal(family.apply_h(v), four_rolls(v))


def reflect(v, n, axis):
    """The site reflection along a grid axis (q -> -q or p -> -p, mod n)."""
    return np.take(v.reshape(n, n, -1), (-np.arange(n)) % n, axis=axis).reshape(v.shape)


class TestParityFactors:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_orthonormal_and_of_definite_parity(self, n):
        even, odd = parity_factors(n)
        assert even.shape == (n, n // 2 + 1)
        assert odd.shape == (n, (n - 1) // 2)
        both = np.hstack([even, odd])
        assert np.abs(both.T @ both - np.eye(n)).max() <= 4 * np.finfo(float).eps
        mirror = (-np.arange(n)) % n
        assert np.array_equal(even[mirror], even)
        assert np.array_equal(odd[mirror], -odd)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_apply_h_commutes_with_both_reflections(self, n):
        family = build_family(LatticeSpec(n, 1.375, -0.625))
        v = dyadic_block(np.random.default_rng(n), n * n, 5)
        for axis in (X_AXIS, Y_AXIS):
            assert np.array_equal(
                family.apply_h(reflect(v, n, axis)), reflect(family.apply_h(v), n, axis)
            )

    @pytest.mark.parametrize("n", range(3, 11))
    def test_sectors_decouple(self, n):
        # H maps each sector's columns A (x) B into that sector: folding them
        # onto any other sector leaves rounding only
        rng = np.random.default_rng(n)
        spec = LatticeSpec(n, float(rng.uniform(-3, 3)), float(rng.uniform(-1.5, 1.5)))
        family = build_family(spec)
        even, odd = parity_factors(n)
        sectors = [np.kron(a, b) for a in (even, odd) for b in (even, odd)]
        bound = 1e-15 * np.linalg.norm(dense_h(spec))
        for i, source in enumerate(sectors):
            applied = family.apply_h(source)
            for j, target in enumerate(sectors):
                if i != j:
                    assert np.abs(target.T @ applied).max() <= bound


class TestRingFactors:
    @pytest.mark.parametrize("n", range(4, 91, 2))
    def test_exact_orthonormal_factors_of_definite_parities(self, n):
        # at even n the reflection and half-shift parity factors, built by
        # index arithmetic; at n = 4 the reflection-odd, half-shift-even
        # factor has no column
        factors, taus = ring_factors(n)
        assert len(factors) == len(taus) == (3 if n == 4 else 4)
        ring = np.hstack(factors)
        assert ring.shape == (n, n)
        assert set(np.abs(ring).ravel().tolist()) <= {0.0, 0.5, math.sqrt(0.5)}
        assert np.abs(ring.T @ ring - np.eye(n)).max() <= 4 * np.finfo(float).eps
        mirror = (-np.arange(n)) % n
        parities = set()
        for f, tau in zip(factors, taus):
            assert np.array_equal(np.roll(f, n // 2, axis=0), tau * f)
            rho = 1 if np.array_equal(f[mirror], f) else -1
            assert np.array_equal(f[mirror], rho * f)
            parities.add((rho, int(tau)))
        assert len(parities) == len(factors)

    @pytest.mark.parametrize("n", range(4, 91, 2))
    def test_ring_hopping_couples_no_two_factors(self, n):
        # Each column's nonzero entries share one modulus, so F = sign(F) D
        # with D a positive diagonal, and F_f^T (P + P^T) F_g is zero exactly
        # when the integer product sign(F_f)^T (P + P^T) sign(F_g) is.
        factors, _ = ring_factors(n)
        signs = []
        for f in factors:
            moduli = np.abs(f)
            assert np.all((moduli == 0) | (moduli == moduli.max(axis=0)))
            signs.append(np.sign(f))
        for i, left in enumerate(signs):
            for j, right in enumerate(signs):
                coupling = left.T @ (np.roll(right, 1, axis=0) + np.roll(right, -1, axis=0))
                assert (i == j) or not coupling.any()

    @pytest.mark.parametrize("n", range(3, 30, 2))
    def test_odd_n_keeps_the_parity_factors(self, n):
        factors, taus = ring_factors(n)
        assert all(np.array_equal(f, g) for f, g in zip(factors, parity_factors(n)))
        assert len(factors) == 2 and np.array_equal(taus, [0, 0])
