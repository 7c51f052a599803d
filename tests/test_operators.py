"""Toeplitz assembly, index-map operators, block forms, Hankel."""

import numpy as np
import pytest

from conftest import kron_toeplitz_dense, random_banded_table
from flipspec import operators as ops
from flipspec import symbols as sym
from flipspec.errors import CapacityError, EvenSizeError, ShapeError


def perm_matrix(index_map):
    # y = x[map] as a matrix, P = I[map, :]
    return np.eye(len(index_map))[index_map]


class TestDenseAssembly:
    def test_ex1_two_by_two(self):
        op = ops.ToeplitzOperator.from_symbol(sym.ex1_symbol(), (2, 2))
        want = np.array([
            [4.0, 0.0, 0.0, 0.0],
            [1.0, 4.0, 0.0, 0.0],
            [1.0, 0.0, 4.0, 0.0],
            [0.0, 1.0, 1.0, 4.0],
        ])
        np.testing.assert_array_equal(op.dense(), want)

    def test_constant_symbol_gives_identity_multiple(self):
        op = ops.ToeplitzOperator({(0, 0): 3.0}, (3, 4))
        np.testing.assert_array_equal(op.dense(), 3.0 * np.eye(12))

    def test_laplace_tridiagonal(self):
        op = ops.ToeplitzOperator.from_symbol(sym.laplace1d_symbol(), (5,))
        want = 2.0 * np.eye(5) - np.eye(5, k=1) - np.eye(5, k=-1)
        np.testing.assert_array_equal(op.dense(), want)

    @pytest.mark.parametrize("d,seed", [(1, 0), (1, 1), (2, 2), (2, 3), (3, 4)])
    def test_matches_kronecker_assembly(self, d, seed):
        rng = np.random.default_rng(seed)
        coeffs, sizes = random_banded_table(rng, d, max_size=6)
        got = ops.ToeplitzOperator(coeffs, sizes).dense()
        np.testing.assert_allclose(got, kron_toeplitz_dense(coeffs, sizes), atol=1e-14)

    def test_complex_table(self):
        coeffs = {(0,): 2.0, (1,): 1.0 + 1.0j, (-1,): 0.5j}
        got = ops.ToeplitzOperator(coeffs, (4,)).dense()
        np.testing.assert_allclose(got, kron_toeplitz_dense(coeffs, (4,)), atol=1e-14)
        assert np.iscomplexobj(got)

    def test_out_of_band_coefficients_are_clipped(self):
        op = ops.ToeplitzOperator({(0,): 2.0, (5,): 1.0}, (3,))
        assert op.band == (0,)
        np.testing.assert_array_equal(op.dense(), 2.0 * np.eye(3))

    def test_capacity_guard(self):
        op = ops.ToeplitzOperator({(0, 0): 1.0}, (150, 150))
        with pytest.raises(CapacityError):
            op.dense()

    def test_from_symbol_level_mismatch(self):
        with pytest.raises(ShapeError):
            ops.ToeplitzOperator.from_symbol(sym.ex1_symbol(), (4,))


class TestMatvec:
    def test_identity(self):
        op = ops.ToeplitzOperator({(0,): 1.0}, (6,))
        x = np.arange(6.0)
        np.testing.assert_allclose(op.matvec(x), x, atol=1e-13)

    def test_ex1_ones(self):
        op = ops.ToeplitzOperator.from_symbol(sym.ex1_symbol(), (2, 2))
        np.testing.assert_allclose(op.matvec(np.ones(4)), [4.0, 5.0, 5.0, 6.0],
                                   atol=1e-12)

    @pytest.mark.parametrize("d,seed", [(1, 10), (1, 11), (2, 12), (2, 13),
                                        (2, 14), (3, 15), (3, 16), (3, 17)])
    def test_matches_dense_product(self, d, seed):
        rng = np.random.default_rng(seed)
        coeffs, sizes = random_banded_table(rng, d, max_size=7)
        op = ops.ToeplitzOperator(coeffs, sizes)
        a = op.dense()
        x = rng.standard_normal(op.dim)
        np.testing.assert_allclose(op.matvec(x), a @ x,
                                   atol=1e-12 * max(1.0, np.abs(a).max()))

    def test_complex_input_and_table(self):
        rng = np.random.default_rng(18)
        coeffs = {(0,): 1.0 + 2.0j, (1,): -0.5j, (-2,): 0.25}
        op = ops.ToeplitzOperator(coeffs, (9,))
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        np.testing.assert_allclose(op.matvec(x), op.dense() @ x, atol=1e-12)

    def test_real_in_real_out(self):
        op = ops.ToeplitzOperator.from_symbol(sym.laplace1d_symbol(), (8,))
        assert not np.iscomplexobj(op.matvec(np.ones(8)))

    def test_length_check(self):
        op = ops.ToeplitzOperator({(0,): 1.0}, (6,))
        with pytest.raises(ShapeError):
            op.matvec(np.ones(5))


def five_smooth_at_least(v):
    # brute force: scan upward for the first 2^a 3^b 5^c
    m = v
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def full_band_table(rng, sizes, complex_table):
    coeffs = {}
    for k in np.ndindex(*(2 * nl - 1 for nl in sizes)):
        key = tuple(int(ki - nl + 1) for ki, nl in zip(k, sizes))
        t = rng.standard_normal()
        coeffs[key] = t + 1j * rng.standard_normal() if complex_table else t
    return coeffs


class TestEmbeddingBoundary:
    """Full band q_l = n_l - 1, so the product needs every circulant slot.

    For n = 5, 13, 41 the length 2 n_l - 1 is already 5-smooth and the
    embedding has no slack at all; for n = 11, 17 it is not.
    """

    def test_length_helper_against_brute_force(self):
        assert [ops._smooth_len(v) for v in range(1, 4097)] == [
            five_smooth_at_least(v) for v in range(1, 4097)]

    def test_zero_slack_lengths(self):
        op = ops.ToeplitzOperator(full_band_table(np.random.default_rng(0), (5, 13, 41), False),
                                  (5, 13, 41))
        assert op._embedding()[0] == (9, 25, 81)

    @pytest.mark.parametrize("sizes", [(5,), (13,), (41,), (11,), (17,),
                                       (5, 13), (41, 11), (17, 5),
                                       (5, 13, 11), (17, 5, 5)])
    @pytest.mark.parametrize("complex_table", [False, True])
    @pytest.mark.parametrize("complex_x", [False, True])
    def test_full_band_matches_dense(self, sizes, complex_table, complex_x):
        rng = np.random.default_rng(sum(sizes))
        op = ops.ToeplitzOperator(full_band_table(rng, sizes, complex_table), sizes)
        assert op.band == tuple(nl - 1 for nl in sizes)
        x = rng.standard_normal(op.dim)
        if complex_x:
            x = x + 1j * rng.standard_normal(op.dim)
        y = op.matvec(x)
        ref = op.dense() @ x
        assert np.iscomplexobj(y) == (complex_table or complex_x)
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


class TestIndexMaps:
    def test_flip_is_full_reversal(self):
        np.testing.assert_array_equal(ops.flip_map((4,)), [3, 2, 1, 0])
        np.testing.assert_array_equal(ops.flip_map((2, 3)), np.arange(6)[::-1])

    def test_flip_apply_two_level(self):
        # (x11, x12, x21, x22) -> (x22, x21, x12, x11)
        y = ops.flip_apply((2, 2), np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(y, [4.0, 3.0, 2.0, 1.0])

    def test_flip_involution(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal(24)
        np.testing.assert_array_equal(ops.flip_apply((4, 6), ops.flip_apply((4, 6), x)), x)

    def test_flip_length_check(self):
        with pytest.raises(ShapeError):
            ops.flip_apply((4,), np.ones(5))

    def test_u_reverses_leading_half(self):
        np.testing.assert_array_equal(
            ops.u_apply((4,), np.array([1.0, 2.0, 3.0, 4.0])), [2.0, 1.0, 3.0, 4.0])
        np.testing.assert_array_equal(
            ops.u_apply((5,), np.arange(1.0, 6.0)), [3.0, 2.0, 1.0, 4.0, 5.0])

    def test_u_involution(self):
        rng = np.random.default_rng(21)
        for sizes in ((7,), (4, 5), (3, 4, 5)):
            x = rng.standard_normal(int(np.prod(sizes)))
            np.testing.assert_array_equal(ops.u_apply(sizes, ops.u_apply(sizes, x)), x)

    def test_pi_two_is_identity(self):
        np.testing.assert_array_equal(ops.pi_map((2,)), [0, 1])

    def test_pi_transpose_gathers_parities(self):
        y = ops.pi_apply((4,), np.array([1.0, 2.0, 3.0, 4.0]), transposed=True)
        np.testing.assert_array_equal(y, [1.0, 3.0, 2.0, 4.0])

    def test_pi_matrix_against_column_rule(self):
        # Pi_4 has columns e1, e3, e2, e4 of the identity
        p = perm_matrix(ops.pi_map((4,)))
        want = np.eye(4)[:, [0, 2, 1, 3]]
        np.testing.assert_array_equal(p, want)
        # general rule: odd-index unit vectors first, then the even ones
        p6 = perm_matrix(ops.pi_map((6,)))
        want6 = np.eye(6)[:, [0, 2, 4, 1, 3, 5]]
        np.testing.assert_array_equal(p6, want6)

    def test_pi_orthogonality(self):
        sizes = (4, 6)
        p = perm_matrix(ops.pi_map(sizes))
        pt = perm_matrix(ops.pi_map(sizes, transposed=True))
        np.testing.assert_array_equal(p @ pt, np.eye(24))
        np.testing.assert_array_equal(pt, p.T)

    def test_pi_rejects_odd_sizes(self):
        with pytest.raises(EvenSizeError):
            ops.pi_map((4, 5))


class TestBlockForms:
    def test_block_g_constant_one(self):
        g = ops.assemble_block_g(sym.constant_symbol(1.0), (1,))
        np.testing.assert_array_equal(g, [[0.0, 1.0], [1.0, 0.0]])

    def test_block_g_is_symmetric_for_real_tables(self):
        f = sym.Symbol(1, None, {(1,): 1.0})
        g = ops.assemble_block_g(f, (4,))
        np.testing.assert_array_equal(g, g.T)

    def test_block_g_eigenvalues_pair_up(self):
        # eigenvalues are plus/minus the singular values of T_n(f)
        f = sym.Symbol(1, None, {(1,): 1.0})
        g = ops.assemble_block_g(f, (4,))
        eigs = np.sort(np.linalg.eigvalsh(g))
        np.testing.assert_allclose(eigs, [-1, -1, -1, 0, 0, 1, 1, 1], atol=1e-12)

    def test_block_g_capacity_guard(self):
        with pytest.raises(CapacityError):
            ops.assemble_block_g(sym.constant_symbol(1.0), (10001,))

    def test_interleaved_matches_block_form_one_level(self):
        f = sym.Symbol(1, None, {(0,): 2.0, (1,): 1.0, (-1,): 1.0})
        np.testing.assert_array_equal(ops.interleaved_block_g(f, (8,)),
                                      ops.assemble_block_g(f, (4,)))

    def test_interleaved_rejects_odd_sizes(self):
        with pytest.raises(EvenSizeError):
            ops.interleaved_block_g(sym.ex1_symbol(), (4, 5))

    def test_shuffle_conjugation_identity_for_constant(self):
        # Pi U Y U Pi^T equals the interleaved block form of f = 1 exactly
        for sizes in ((8,), (2, 2), (4, 6)):
            d_n = int(np.prod(sizes))
            y = perm_matrix(ops.flip_map(sizes))
            u = perm_matrix(ops.u_map(sizes))
            p = perm_matrix(ops.pi_map(sizes))
            got = p @ u @ y @ u @ p.T
            want = ops.interleaved_block_g(sym.constant_symbol(1.0, len(sizes)), sizes)
            np.testing.assert_array_equal(got, want)


class TestHankel:
    def test_monomial_plus(self):
        f = sym.Symbol(1, None, {(1,): 1.0})
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 0] = 1.0
        np.testing.assert_array_equal(ops.assemble_hankel(f, (3,)), want)

    def test_constant_hits_only_corner(self):
        h = ops.assemble_hankel(sym.constant_symbol(1.0), (3,))
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        np.testing.assert_array_equal(h, want)

    def test_minus_orientation(self):
        h = ops.assemble_hankel(sym.laplace1d_symbol(), (3,), orientation="minus")
        want = np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(h, want)

    def test_two_level_entry_rule(self):
        rng = np.random.default_rng(22)
        coeffs, sizes = random_banded_table(rng, 2, max_size=5)
        h = ops.assemble_hankel(sym.Symbol(2, None, coeffs), sizes)
        idx = [np.unravel_index(r, sizes) for r in range(int(np.prod(sizes)))]
        for r in range(h.shape[0]):
            for c in range(h.shape[1]):
                k = tuple(a + b for a, b in zip(idx[r], idx[c]))
                want = coeffs.get(k, 0.0)
                assert h[r, c] == pytest.approx(want, abs=1e-14)

    def test_orientation_validation(self):
        with pytest.raises(ShapeError):
            ops.assemble_hankel(sym.constant_symbol(1.0), (3,), orientation="down")


class TestStructureResidual:
    def test_constant_symbol_residual_is_exactly_zero(self):
        for sizes in ((8,), (4, 6)):
            d, frac, tail = ops.structure_residual(
                sym.constant_symbol(1.0, len(sizes)), sizes)
            assert np.all(d == 0.0)
            assert frac == 0.0
            assert tail == 0.0

    def test_rank_fraction_decreases_with_size(self):
        f = sym.Symbol(1, None, {(1,): 1.0})
        _, frac8, _ = ops.structure_residual(f, (8,))
        _, frac16, _ = ops.structure_residual(f, (16,))
        assert 0.0 < frac16 < frac8

    def test_split_matches_svd_of_returned_matrix(self):
        d, frac, tail = ops.structure_residual(sym.ex1_symbol(), (6, 8))
        svals = np.linalg.svd(d, compute_uv=False)
        cut = 1e-8 * svals[0]
        count = int(np.count_nonzero(svals > cut))
        assert frac == count / (2.0 * d.shape[0])
        want_tail = float(svals[count]) if count < svals.size else 0.0
        assert tail == pytest.approx(want_tail, abs=1e-14)

    def test_two_level_fraction_is_small(self):
        _, frac, _ = ops.structure_residual(sym.ex1_symbol(), (8, 8))
        assert frac <= 0.5

    def test_rejects_odd_sizes(self):
        with pytest.raises(EvenSizeError):
            ops.structure_residual(sym.ex1_symbol(), (8, 7))


def test_flipped_toeplitz_is_exactly_symmetric():
    rng = np.random.default_rng(23)
    coeffs, sizes = random_banded_table(rng, 2, max_size=6)
    a = ops.ToeplitzOperator(coeffs, sizes).dense()
    ya = a[ops.flip_map(sizes), :]
    np.testing.assert_array_equal(ya, ya.T)
