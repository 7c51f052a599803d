"""Toeplitz assembly, index-map operators, block forms, Hankel."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import kron_toeplitz_dense, random_banded_table, shifted_sum
from flipspec import operators as ops
from flipspec import symbols as sym
from flipspec.errors import (CapacityError, EvenSizeError, ParameterError, ShapeError,
                             SymmetryError)
from flipspec import spectral as sp
from flipspec.experiments import ExperimentConfig, _flipped_spectrum, experiment_symbol


def perm_matrix(index_map):
    # y = x[map] as a matrix, P = I[map, :]
    return np.eye(len(index_map))[index_map]


@pytest.mark.parametrize("enter, error", [
    (lambda: sym.Symbol(1, None, {(0,): 2.0, (1,): 0.5j}), SymmetryError),
    (lambda: sym.Symbol(2, None, {(0, 0): np.complex128(4.0)}), SymmetryError),
    (lambda: ops.ToeplitzOperator({(0,): 2.0, (1,): 1.0 + 0.0j}, (4,)), SymmetryError),
    (lambda: ops.ToeplitzOperator({(0,): 2.0, (9,): 1j}, (4,)), SymmetryError),
    (lambda: sym.constant_symbol(1j), SymmetryError),
    (lambda: ops.ToeplitzOperator({(0,): 2.0}, (4,)).matvec(np.ones(4, dtype=complex)),
     ShapeError),
], ids=["symbol", "symbol_zero_imaginary_part", "operator", "operator_out_of_band",
        "constant_symbol", "matvec_x"])
def test_complex_values_are_refused_where_they_enter(enter, error):
    # a table holds real t_k, checked by type wherever it enters; matvec takes real x
    with pytest.raises(error, match="complex"):
        enter()


def refuses_complex(coeffs, sizes, x, complex_table, complex_x) -> bool:
    """Whether the case is complex, after checking that a complex table is
    refused at construction, or a complex x by matvec on the real table."""
    if complex_table:
        with pytest.raises(SymmetryError, match="complex"):
            ops.ToeplitzOperator(coeffs, sizes)
    elif complex_x:
        with pytest.raises(ShapeError, match="complex"):
            ops.ToeplitzOperator(coeffs, sizes).matvec(x + 1j * x)
    return complex_table or complex_x


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
        # the refusal names the first complex coefficient
        with pytest.raises(SymmetryError, match=r"t_\(1,\) = \(1\+1j\) is complex"):
            ops.ToeplitzOperator({(0,): 2.0, (1,): 1.0 + 1.0j, (-1,): 0.5j}, (4,))

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
        x = np.random.default_rng(18).standard_normal(9)
        assert refuses_complex({(0,): 1.0 + 2.0j, (1,): -0.5j, (-2,): 0.25}, (9,), x, True, False)
        assert refuses_complex({(0,): 1.0, (-2,): 0.25}, (9,), x, False, True)

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
        coeffs = full_band_table(rng, sizes, complex_table)
        x = rng.standard_normal(int(np.prod(sizes)))
        if refuses_complex(coeffs, sizes, x, complex_table, complex_x):
            return
        op = ops.ToeplitzOperator(coeffs, sizes)
        assert op.band == tuple(nl - 1 for nl in sizes)
        y = op.matvec(x)
        ref = op.dense() @ x
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


def stencil_table(rng, d):
    # every offset in [-1, 1]^d, diagonal couplings included
    return {tuple(int(v) - 1 for v in k): float(rng.standard_normal())
            for k in np.ndindex(*(3,) * d)}


def takes_sum(op):
    return ops._sums_directly(len(op.coefficients), op._lengths)


def assert_matches_oracle(op, x):
    ref = kron_toeplitz_dense(op.coefficients, op.sizes) @ x
    assert np.linalg.norm(op.matvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)


def assert_sum_matches_oracles(op, coeffs, x):
    # the diagonals add the terms in the table's order, as the slice loop does
    assert_matches_oracle(op, x)
    assert np.array_equal(op.matvec(x), shifted_sum(coeffs, op.sizes, x))


class TestShiftedSum:
    """Both matvec paths against the dense Kronecker oracle, and the sparse
    one bit for bit against the plain slice loop of conftest.

    The sum runs when a table stores at most log2 M coefficients, M the
    circulant embedding size; each case pins the side it lands on.
    """

    @pytest.mark.parametrize("d,sizes,direct", [
        (2, (20, 30), True),     # 9-point, M = 24 * 32
        (2, (6, 7), False),      # 9-point, M = 8 * 8
        (3, (7, 6, 8), False),   # 27-point takes the sum only past M = 2^27
    ])
    def test_full_stencils(self, d, sizes, direct):
        rng = np.random.default_rng(sum(sizes))
        coeffs = stencil_table(rng, d)
        op = ops.ToeplitzOperator(coeffs, sizes)
        assert takes_sum(op) == direct
        x = rng.standard_normal(op.dim)
        if direct:
            assert_sum_matches_oracles(op, coeffs, x)
        else:
            assert_matches_oracle(op, x)
        # the diagonal form itself, whichever path the rule picks
        assert np.array_equal(op._shifted_sum(x.reshape(sizes)), shifted_sum(coeffs, sizes, x))

    def test_coupled_three_level_table(self):
        rng = np.random.default_rng(30)
        coeffs = {(0, 0, 0): 6.0, (1, 1, 0): -1.0, (-1, 0, 1): -0.5, (0, -1, -1): -1.5,
                  (1, -1, 1): 0.25, (-1, 1, -1): 0.75, (0, 2, 0): -0.1}
        op = ops.ToeplitzOperator(coeffs, (6, 7, 8))
        assert takes_sum(op)
        x = rng.standard_normal(op.dim)
        assert_sum_matches_oracles(op, coeffs, x)

    def test_one_sided_table(self):
        rng = np.random.default_rng(31)
        coeffs = {(0, 0): 3.0, (1, 0): -1.0, (0, 1): -0.5, (1, 1): 0.25, (2, 0): 0.125}
        op = ops.ToeplitzOperator(coeffs, (9, 10))
        assert takes_sum(op)
        x = rng.standard_normal(op.dim)
        assert_sum_matches_oracles(op, coeffs, x)

    def test_coefficients_at_the_band_edge(self):
        rng = np.random.default_rng(32)
        coeffs = {(0, 0): 2.0, (4, 0): -1.0, (-4, 5): 0.5, (0, -5): 0.25}
        op = ops.ToeplitzOperator(coeffs, (5, 6))
        assert op.band == (4, 5)
        assert takes_sum(op)
        x = rng.standard_normal(op.dim)
        assert_sum_matches_oracles(op, coeffs, x)

    def test_level_of_size_one(self):
        rng = np.random.default_rng(33)
        coeffs = {(0, 0, 0): 4.0, (0, 1, 0): -1.0, (0, -1, 2): 0.5, (0, 0, -6): 0.25,
                  (1, 0, 0): 9.0}  # k_1 = 1 cannot touch a size-1 level
        op = ops.ToeplitzOperator(coeffs, (1, 12, 7))
        assert len(op.coefficients) == 4
        assert takes_sum(op)
        x = rng.standard_normal(op.dim)
        assert_sum_matches_oracles(op, coeffs, x)

    @pytest.mark.parametrize("complex_x", [False, True])
    def test_complex_table(self, complex_x):
        # the complex table is refused; its real part takes the sum, and
        # refuses a complex x
        coeffs = {(0,): 2.0 + 1.0j, (1,): -0.5j, (-3,): 0.25 + 0.1j}
        x = np.random.default_rng(34).standard_normal(12)
        assert refuses_complex(coeffs, (12,), x, True, complex_x)
        real = {k: t.real for k, t in coeffs.items()}
        op = ops.ToeplitzOperator(real, (12,))
        assert takes_sum(op)
        if complex_x:
            assert refuses_complex(real, (12,), x, False, True)
        else:
            assert_sum_matches_oracles(op, real, x)

    def test_complex_x_on_a_real_table(self):
        # refused before any kernel is built
        rng = np.random.default_rng(35)
        op = ops.ToeplitzOperator.from_symbol(sym.ex1_symbol(), (8, 9))
        assert takes_sum(op)
        x = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        with pytest.raises(ShapeError, match="complex"):
            op.matvec(x)
        assert op._diagonals is None and op._kernel_hat is None

    def test_coefficients_sharing_a_flat_offset(self):
        # k = (1, -2) and (0, 1) both sit at flat offset 1 on an (8, 3) grid,
        # and (-1, 2), (0, -1) at -1; they share one diagonal each
        rng = np.random.default_rng(37)
        coeffs = {(0, 0): 2.0, (1, -2): 0.5, (0, 1): -1.0, (-1, 2): 0.25, (0, -1): 0.75}
        op = ops.ToeplitzOperator(coeffs, (8, 3))
        assert takes_sum(op)
        x = rng.standard_normal(op.dim)
        assert_sum_matches_oracles(op, coeffs, x)
        assert len(op._diagonal_matrix().offsets) == 3

    def test_sum_builds_no_fft_kernel(self):
        x = np.ones(8 * 9)
        op = ops.ToeplitzOperator.from_symbol(sym.ex1_symbol(), (8, 9))
        assert op._diagonals is None
        op.matvec(x)
        assert op._kernel_hat is None and op._diagonals is not None
        dense = ops.ToeplitzOperator(stencil_table(np.random.default_rng(36), 2), (8, 9))
        dense.matvec(x)
        assert dense._kernel_hat is not None and dense._diagonals is None


def test_scipy_sparse_loads_on_the_first_sparse_matvec():
    # importing flipspec and dense assembly stay free of scipy.sparse
    script = ("import sys, numpy as np\n"
              "from flipspec import operators as ops, symbols as sym\n"
              "op = ops.ToeplitzOperator.from_symbol(sym.ex1_symbol(), (8, 9))\n"
              "op.dense()\n"
              "assert 'scipy.sparse' not in sys.modules\n"
              "op.matvec(np.ones(72))\n"
              "assert 'scipy.sparse' in sys.modules\n")
    src = str(Path(ops.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", script], check=True, env={**os.environ, "PYTHONPATH": src})


def separable_table(rng, sizes, complex_table):
    # t_0 plus a full band on each level alone, so the table is dense
    draw = (lambda: complex(*rng.standard_normal(2))) if complex_table else (
        lambda: float(rng.standard_normal()))
    coeffs = {(0,) * len(sizes): draw()}
    for l, nl in enumerate(sizes):
        for k in range(1 - nl, nl):
            if k:
                coeffs[tuple(k if m == l else 0 for m in range(len(sizes)))] = draw()
    return coeffs


class TestLevelProduct:
    """A separable dense table is applied level by level, one GEMM each,
    against the dense Kronecker oracle; t_0 must count once, not per level."""

    @pytest.mark.parametrize("sizes", [(5, 7), (7, 5), (6, 1), (1, 6), (4, 5, 3), (3, 1, 6)])
    @pytest.mark.parametrize("complex_table", [False, True])
    @pytest.mark.parametrize("complex_x", [False, True])
    def test_matches_kronecker_oracle(self, sizes, complex_table, complex_x):
        rng = np.random.default_rng(sum(sizes) + 7 * len(sizes))
        coeffs = separable_table(rng, sizes, complex_table)
        x = rng.standard_normal(int(np.prod(sizes)))
        if refuses_complex(coeffs, sizes, x, complex_table, complex_x):
            return
        op = ops.ToeplitzOperator(coeffs, sizes)
        assert op._kernel == "levels"
        y = op.matvec(x)
        ref = kron_toeplitz_dense(coeffs, sizes) @ x
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
        assert op._kernel_hat is None and op._diagonals is None

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_level_builder_entry_rule(self, n):
        # t_k at index k + n - 1, read through a strided view as well
        every_other = np.arange(1.0, 4 * n - 1) * (1 + 0.5j)
        t = every_other[::2]
        want = kron_toeplitz_dense({(k,): t[k + n - 1] for k in range(1 - n, n)}, (n,))
        assert np.array_equal(ops.toeplitz_level(t), want)
        with pytest.raises(ShapeError):
            ops.toeplitz_level(every_other[:2 * n])

    @pytest.mark.parametrize("sizes", [(5, 7), (6, 1), (4, 1, 3)])
    @pytest.mark.parametrize("complex_table", [False, True])
    def test_level_matrices_sum_to_the_kronecker_oracle(self, sizes, complex_table):
        # t_0 counts once; coefficients past the band, a coupled one among
        # them, touch no entry; a complex table is refused as the symbol is built
        rng = np.random.default_rng(3 * sum(sizes) + complex_table)
        coeffs = separable_table(rng, sizes, complex_table)
        far = {tuple(nl for nl in sizes): 1.0, (sizes[0],) + (0,) * (len(sizes) - 1): 2.0}
        if complex_table:
            with pytest.raises(SymmetryError, match="complex"):
                sym.Symbol(len(sizes), None, {**coeffs, **far})
            return
        levels = ops.level_matrices(sym.Symbol(len(sizes), None, {**coeffs, **far}), sizes)
        assert [a.shape for a in levels] == [(nl, nl) for nl in sizes]
        dense = ops.kron_sum_product(levels, np.eye(int(np.prod(sizes))))
        assert np.array_equal(dense, kron_toeplitz_dense(coeffs, sizes))

    def test_level_matrices_refuse_a_coupled_index_and_a_size_mismatch(self):
        coupled = sym.Symbol(2, None, {(0, 0): 4.0, (1, 1): -1.0})
        with pytest.raises(ParameterError, match="not separable"):
            ops.level_matrices(coupled, (3, 3))
        with pytest.raises(ShapeError):
            ops.level_matrices(coupled, (3, 3, 3))


def test_crossover_sends_large_separable_tables_to_the_fft():
    coeffs = {(0, 0): 4.0, **{(k, 0): -1.0 for k in (-1, 1, 2)},
              **{(0, k): 0.5 for k in range(-20, 21) if k}}
    assert ops.ToeplitzOperator(coeffs, (64, ops._LEVEL_CROSSOVER - 65))._kernel == "levels"
    assert ops.ToeplitzOperator(coeffs, (64, ops._LEVEL_CROSSOVER - 64))._kernel == "fft"


@pytest.mark.parametrize("exp,sizes,direct", [
    ("ex1", (50, 50), True),
    *[("ex3", (n, n, n), True) for n in (5, 10, 20, 24, 32, 64)],
    *[("ex2", (n, n), False) for n in (10, 20, 40, 80, 256, 512, 1024)],
])
def test_shipped_symbols_take_their_path(exp, sizes, direct):
    # direct: the flat diagonals; otherwise (ex2) the level product
    f = experiment_symbol(ExperimentConfig(exp=exp, sizes=sizes), sizes)
    op = ops.ToeplitzOperator.from_symbol(f, sizes)
    assert takes_sum(op) == direct
    assert op._kernel == ("diagonals" if direct else "levels")
    if not direct:
        op.matvec(np.ones(op.dim))
        assert op._kernel_hat is None and op._diagonals is None


def test_non_separable_and_one_level_tables_keep_the_fft():
    custom = experiment_symbol(ExperimentConfig(exp="custom", sizes=(64,)), (64,))
    for op in (ops.ToeplitzOperator(stencil_table(np.random.default_rng(38), 2), (8, 9)),
               ops.ToeplitzOperator.from_symbol(custom, (64,))):
        assert op._kernel == "fft"
        op.matvec(np.ones(op.dim))
        assert op._kernel_hat is not None and op._levels is None


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


@pytest.mark.parametrize("exp,sizes", [("ex1", (17, 19)), ("ex2", (17, 19)), ("ex3", (7, 7, 7))])
def test_flipped_dense_matches_kronecker_assembly(exp, sizes):
    # odd d_n over several row panels and a partial last one, gathered
    # directly from the table reversed on every level
    d_n = int(np.prod(sizes))
    assert d_n % 2 and d_n > ops._PANEL_ROWS and d_n // 2 % ops._PANEL_ROWS
    f = experiment_symbol(ExperimentConfig(exp=exp), sizes)
    want = kron_toeplitz_dense(f.coefficients, sizes)[ops.flip_map(sizes), :]
    got = ops.ToeplitzOperator.from_symbol(f, sizes).flipped_dense()
    np.testing.assert_array_equal(got, want)


def exchange_symmetric_symbol(band, pair, seed):
    # a random table on the full band with t_k = t_{S k}, S exchanging the two levels of pair
    rng = np.random.default_rng(seed)
    l, m = pair
    table = {}
    for k in np.ndindex(*(2 * q + 1 for q in band)):
        k = tuple(kl - q for kl, q in zip(k, band))
        swapped = list(k)
        swapped[l], swapped[m] = k[m], k[l]
        swapped = tuple(swapped)
        table[k] = table[swapped] if swapped in table else rng.standard_normal()
    return sym.Symbol(len(band), None, table)


def split_case(case):
    if case == "ex2-equal-orders":
        return sym.fractional_symbol(1.6, 1.6, 12, 12, 12), (12, 12)
    if case == "levels-2-3":
        return exchange_symmetric_symbol((1, 2, 2), (1, 2), 61), (4, 6, 6)
    if case == "levels-1-3":
        return exchange_symmetric_symbol((2, 1, 2), (0, 2), 62), (5, 3, 5)
    return sym.ex1_symbol(), tuple(int(n) for n in case.split("-")[1:])


def whole_case(case):
    if case == "ex1-ulp":
        coeffs = dict(sym.ex1_symbol().coefficients)
        coeffs[(1, 0)] = np.nextafter(coeffs[(1, 0)], 2.0)
        return sym.Symbol(2, None, coeffs), (16, 16)
    exp, sizes = {"ex1-20-21": ("ex1", (20, 21)), "ex2-16-16": ("ex2", (16, 16)),
                  "ex3-6-6-6": ("ex3", (6, 6, 6)), "custom-31": ("custom", (31,))}[case]
    return experiment_symbol(ExperimentConfig(exp=exp), sizes), sizes


class TestExchangeSplit:
    """Y T of a table exchange-symmetric in two equal-size levels, solved as two blocks.

    Odd n puts a diagonal representative, weighted 1/sqrt(2), in every
    row of the symmetric block.
    """

    @pytest.mark.parametrize("case", ["ex1-16-16", "ex1-17-17", "levels-2-3", "levels-1-3",
                                      "ex2-equal-orders"])
    def test_matches_eigvalsh_of_the_kronecker_assembly(self, case):
        f, sizes = split_case(case)
        blocks = list(ops.ToeplitzOperator.from_symbol(f, sizes).flipped_blocks())
        assert len(blocks) == 2
        want = np.linalg.eigvalsh(kron_toeplitz_dense(f.coefficients, sizes)[ops.flip_map(sizes)])
        got = _flipped_spectrum(f, sizes)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @staticmethod
    def solved_sizes(monkeypatch, f, sizes):
        eigvalsh, solved = np.linalg.eigvalsh, []

        def recorded(a, *args, **kwargs):
            solved.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        return _flipped_spectrum(f, sizes), solved

    @pytest.mark.parametrize("n", [16, 17])
    def test_ex1_solves_the_two_tensor_blocks(self, monkeypatch, n):
        _, solved = self.solved_sizes(monkeypatch, sym.ex1_symbol(), (n, n))
        assert solved == [n * (n + 1) // 2, n * (n - 1) // 2]

    @pytest.mark.parametrize("case", ["ex1-20-21", "ex2-16-16", "ex3-6-6-6", "custom-31",
                                      "ex1-ulp"])
    def test_other_tables_solve_whole(self, monkeypatch, case):
        # unequal sizes, unequal orders, distinct levels, one level, and a
        # table one ulp off the exchange symmetry
        f, sizes = whole_case(case)
        want = sp.sym_eigenvalues(kron_toeplitz_dense(f.coefficients, sizes)[ops.flip_map(sizes)])
        got, solved = self.solved_sizes(monkeypatch, f, sizes)
        assert solved == [int(np.prod(sizes))]
        assert np.array_equal(got, want)
