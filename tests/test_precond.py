"""Kronecker-sum preconditioners with Toeplitz and circulant levels.

Every reference matrix below is assembled densely from the conftest oracles
(direct Kronecker assembly, C[i, j] = c[(i - j) mod n]) and never read back
from the preconditioner under test.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import (brute_frobenius_circulant, dense_circulant, fft_fourier_coefficients,
                      kron_toeplitz_dense)
from flipspec import precond as pc
from flipspec import operators as ops
from flipspec import symbols as sym
from flipspec.errors import (CapacityError, NotSPDError, ParameterError, ShapeError,
                             SymmetryError)
from flipspec.experiments import ExperimentConfig, build_preconditioner, experiment_symbol

LAP = {0: 2.0, 1: -1.0, -1: -1.0}


def level_table(f, level):
    """One level's table of a separable symbol; the zero index sits on level 0."""
    return {k[level]: v for k, v in f.pairs()
            if all(kl == 0 for l, kl in enumerate(k) if l != level)
            and (k[level] != 0 or level == 0)}


def abs_circulant_dense(table, n):
    """(C^T C)^{1/2} for the Frobenius-optimal circulant C of a one-level table."""
    c = dense_circulant(brute_frobenius_circulant(table, n))
    w, v = np.linalg.eigh(c.T @ c)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def kron_sum_dense(levels):
    """sum_l I (x) A_l (x) I, assembled with np.kron."""
    sizes = [len(a) for a in levels]
    out = 0.0
    for l, a in enumerate(levels):
        term = np.eye(1)
        for m, nm in enumerate(sizes):
            term = np.kron(term, a if m == l else np.eye(nm))
        out = out + term
    return out


def circsum_dense(f, sizes):
    return kron_sum_dense([abs_circulant_dense(level_table(f, l), n)
                           for l, n in enumerate(sizes)])


def fractional_variant_dense(level2, alpha, beta, n1, n2, M):
    # 2 - 2 cos t1 on level 1, (hx^alpha / hy^beta) level2 on level 2, plus the shift
    hx, hy = 1.0 / (n1 + 1), 1.0 / (n2 + 1)
    t1 = kron_toeplitz_dense({(k,): v for k, v in LAP.items()}, (n1,))
    t2 = kron_toeplitz_dense(dict(level2.pairs()), (n2,))
    return (kron_sum_dense([t1, (hx**alpha / hy**beta) * t2])
            + 2.0 * hx**alpha * M * np.eye(n1 * n2))


class TestOptimalCirculant:
    def test_laplacian_column(self):
        c = pc.optimal_circulant(np.array([-1.0, 2.0, -1.0]), 3)
        np.testing.assert_allclose(c, [2.0, -2.0 / 3.0, -2.0 / 3.0], atol=1e-15)

    def test_diagonal_table(self):
        np.testing.assert_array_equal(pc.optimal_circulant(np.array([5.0]), 4),
                                      [5.0, 0.0, 0.0, 0.0])

    def test_subdiagonal_wraps(self):
        np.testing.assert_allclose(pc.optimal_circulant(np.array([1.0, 0.0, 0.0]), 4),
                                   [0.0, 0.0, 0.0, 0.75], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_least_squares_minimizer(self, n):
        rng = np.random.default_rng(40 + n)
        table = {k: float(rng.standard_normal()) for k in range(-(n - 1), n)}
        got = pc.optimal_circulant(np.array(list(table.values())), n)
        want = brute_frobenius_circulant(table, n)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_out_of_range_keys_ignored(self):
        a = pc.optimal_circulant(np.r_[np.zeros(7), 1.0, np.zeros(6), 9.0], 3)
        np.testing.assert_array_equal(a, [1.0, 0.0, 0.0])

    def test_size_validation(self):
        with pytest.raises(ParameterError):
            pc.optimal_circulant(np.array([1.0]), 0)


class TestCirculantAbs:
    def test_laplacian_moduli(self):
        lam = pc.circulant_abs(np.array([2.0, -2.0 / 3.0, -2.0 / 3.0]))
        np.testing.assert_allclose(lam, [2.0 / 3.0, 8.0 / 3.0, 8.0 / 3.0], atol=1e-13)

    def test_shift_is_unitary(self):
        np.testing.assert_allclose(pc.circulant_abs([0.0, 1.0, 0.0, 0.0]),
                                   np.ones(4), atol=1e-14)

    def test_sign_flip_invariance(self):
        c = np.array([1.0, -0.3, 0.7])
        np.testing.assert_allclose(pc.circulant_abs(c), pc.circulant_abs(-c),
                                   atol=1e-14)



def laplace_sum_symbol(d):
    coeffs = {(0,) * d: 2.0 * d}
    for l in range(d):
        for s in (-1, 1):
            k = [0] * d
            k[l] = s
            coeffs[tuple(k)] = -1.0
    return sym.Symbol(d, None, coeffs)


class TestCirculantKronSum:
    def test_single_level_is_the_modulus_circulant(self):
        p = pc.build_circulant_kron_sum(laplace_sum_symbol(1), (6,))
        dense = abs_circulant_dense(LAP, 6)
        x = np.random.default_rng(41).standard_normal(6)
        np.testing.assert_allclose(p.apply(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(p.apply_inverse(x), np.linalg.solve(dense, x), atol=1e-10)

    def test_three_level_positive(self):
        f = sym.convection_diffusion_symbol(5, 5, 5)
        p = pc.build_circulant_kron_sum(f, (5, 5, 5))
        assert p.eigen_tensor.shape == (5, 5, 5)
        assert p.eigen_tensor.min() > 0.0
        np.testing.assert_allclose(np.sort(p.eigen_tensor.ravel()),
                                   np.linalg.eigvalsh(circsum_dense(f, (5, 5, 5))),
                                   atol=1e-12)

    def test_constant_vector_is_an_eigenvector(self):
        # t_0 = 4 is booked on level 1, so the optimal circulants' column
        # sums are 4 - 2 (3/4) on level 1 and -2 (5/6) on level 2
        p = pc.build_circulant_kron_sum(laplace_sum_symbol(2), (4, 6))
        lam0 = (4.0 - 1.5) + 10.0 / 6
        np.testing.assert_allclose(p.apply(np.ones(24)), lam0 * np.ones(24), atol=1e-12)
        np.testing.assert_allclose(p.apply_inverse(np.ones(24)), np.ones(24) / lam0,
                                   atol=1e-12)

    def test_matches_dense_kronecker_sum(self):
        f = sym.convection_diffusion_symbol(4, 3, 5)
        p = pc.build_circulant_kron_sum(f, (4, 3, 5))
        dense = circsum_dense(f, (4, 3, 5))
        rng = np.random.default_rng(42)
        for x in (rng.standard_normal(60), rng.standard_normal((60, 3))):
            np.testing.assert_allclose(p.apply(x), dense @ x, atol=1e-12)
            np.testing.assert_allclose(p.apply_inverse(x), np.linalg.solve(dense, x),
                                       atol=1e-10)

    def test_inverse_round_trip(self):
        p = pc.build_circulant_kron_sum(laplace_sum_symbol(2), (8, 5))
        rng = np.random.default_rng(43)
        for x in (rng.standard_normal(40), rng.standard_normal((40, 2))):
            np.testing.assert_allclose(p.apply(p.apply_inverse(x)), x, atol=1e-10)
            z = p.apply_inverse_sqrt(p.apply_inverse_sqrt(x))
            np.testing.assert_allclose(z, p.apply_inverse(x), atol=1e-10)

    def test_zero_spectrum_is_rejected(self):
        with pytest.raises(NotSPDError, match="smallest eigenvalue"):
            pc.ToeplitzPreconditioner([np.zeros((4, 4))])
        # t_1 = -t_{-1}: every optimal-circulant column sums to zero
        odd = sym.Symbol(1, None, {(1,): 1.0, (-1,): -1.0})
        with pytest.raises(NotSPDError):
            pc.build_circulant_kron_sum(odd, (5,))

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            pc.ToeplitzPreconditioner([np.ones((4, 5))])
        with pytest.raises(ShapeError):
            pc.ToeplitzPreconditioner([])
        with pytest.raises(ShapeError):
            pc.build_circulant_kron_sum(laplace_sum_symbol(1), (4, 6))
        p = pc.ToeplitzPreconditioner([np.eye(4)])
        with pytest.raises(ShapeError):
            p.apply(np.ones(5))
        with pytest.raises(ShapeError):
            p.apply_inverse(np.ones((5, 2)))
        with pytest.raises(ShapeError):
            p.apply_inverse_sqrt(np.ones((4, 2, 2)))

    def test_build_from_level_tables(self):
        # the builder splits the symbol into its level tables and sums the
        # level moduli into the weight symbol
        f = sym.convection_diffusion_symbol(4, 6, 3)
        p = pc.build_circulant_kron_sum(f, (4, 6, 3))
        assert p.dim == 72 and p.sizes == (4, 6, 3)
        pts = np.random.default_rng(49).uniform(-np.pi, np.pi, size=(50, 3))
        want = sum(np.abs(sym.Symbol(1, None, {(k,): v for k, v in
                                               level_table(f, l).items()})
                          .eval(pts[:, [l]]))
                   for l in range(3))
        np.testing.assert_allclose(np.real(p.symbol.eval(pts)), want, atol=1e-12)
        coupled = sym.Symbol(2, None, {(0, 0): 4.0, (1, 1): -1.0, (-1, -1): -1.0})
        with pytest.raises(ParameterError, match="not separable"):
            pc.build_circulant_kron_sum(coupled, (4, 4))

    def test_is_the_toeplitz_class(self):
        assert pc.CirculantKronSum is pc.ToeplitzPreconditioner


class TestToeplitzPreconditioner:
    def test_identity_symbol(self):
        p = pc.ToeplitzPreconditioner.from_symbol(sym.constant_symbol(1.0, 1), (6,))
        r = np.arange(6.0)
        np.testing.assert_allclose(p.apply_inverse(r), r, atol=1e-13)
        np.testing.assert_allclose(p.apply(r), r, atol=1e-13)

    def test_apply_inverse_matches_dense_solve(self):
        rng = np.random.default_rng(44)
        coeffs = {(0, 0): 16.0}
        for level, band in ((0, 4), (1, 3)):
            for k in range(1, band + 1):
                v = float(rng.standard_normal())
                for s in (-k, k):
                    key = [0, 0]
                    key[level] = s
                    coeffs[tuple(key)] = v
        p = pc.ToeplitzPreconditioner.from_symbol(sym.Symbol(2, None, coeffs), (16, 9))
        dense = kron_toeplitz_dense(coeffs, (16, 9))
        for r in (rng.standard_normal(144), rng.standard_normal((144, 4))):
            np.testing.assert_allclose(p.apply(r), dense @ r, atol=1e-12)
            np.testing.assert_allclose(p.apply_inverse(r), np.linalg.solve(dense, r),
                                       atol=1e-12)

    @pytest.mark.parametrize("sizes", [(7,), (5, 1), (1, 6), (4, 5), (3, 1, 4), (2, 3, 4)])
    def test_eigen_apply_matches_dense_eigen_oracle(self, sizes):
        # size-1 and unequal levels catch a sweep that reshapes along the wrong
        # level, and r.T is a non-contiguous block; the levels are symmetric
        # and centrosymmetric, (s + J s J) / 2
        rng = np.random.default_rng(sum(sizes))
        levels = []
        for n in sizes:
            s = rng.standard_normal((n, n))
            s = (s + s.T) / 2.0
            s = (s + s[::-1, ::-1]) / 2.0
            levels.append(s + (np.abs(s).sum(axis=1).max() + 1.0) * np.eye(n))
        p = pc.ToeplitzPreconditioner(levels)
        w, v = np.linalg.eigh(kron_sum_dense(levels))
        inverse = (v / w) @ v.T
        inverse_sqrt = (v / np.sqrt(w)) @ v.T
        for r in (rng.standard_normal(p.dim), rng.standard_normal((p.dim, 3)),
                  rng.standard_normal((3, p.dim)).T):
            for got, want in ((p.apply(r), kron_sum_dense(levels) @ r),
                              (p.apply_inverse(r), inverse @ r),
                              (p.apply_inverse_sqrt(r), inverse_sqrt @ r)):
                assert got.shape == r.shape
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_toepfr_of_fractional_symbol(self):
        f = sym.fractional_symbol(1.8, 1.6, 10, 12, 10)
        p = pc.build_toepfr(f, (10, 12))
        dense = kron_toeplitz_dense(dict(sym.real_part_symbol(f).pairs()), (10, 12))
        r = np.random.default_rng(45).standard_normal(120)
        np.testing.assert_allclose(p.apply(r), dense @ r, atol=1e-12)
        np.testing.assert_allclose(p.apply_inverse(r), np.linalg.solve(dense, r), atol=1e-10)
        np.testing.assert_allclose(p.apply(p.apply_inverse(r)), r, atol=1e-10)

    def test_toepfr_of_convection_diffusion_symbol(self):
        f = sym.convection_diffusion_symbol(4, 5, 3)
        p = pc.build_toepfr(f, (4, 5, 3))
        dense = kron_toeplitz_dense(dict(sym.real_part_symbol(f).pairs()), (4, 5, 3))
        r = np.random.default_rng(50).standard_normal(60)
        np.testing.assert_allclose(p.apply(r), dense @ r, atol=1e-12)
        np.testing.assert_allclose(p.apply_inverse(r), np.linalg.solve(dense, r), atol=1e-10)

    def test_rejects_asymmetric_table(self):
        f = sym.fractional_symbol(1.8, 1.6, 8, 8, 8)
        with pytest.raises(SymmetryError):
            pc.ToeplitzPreconditioner.from_symbol(f, (8, 8))
        with pytest.raises(SymmetryError):
            pc.ToeplitzPreconditioner([np.triu(np.ones((3, 3)))])

    def test_rejects_a_table_asymmetric_in_the_last_bit(self):
        # no tolerance: t_{-1} one ulp below t_1 leaves a level A != A^T
        t1 = -0.7
        h = sym.Symbol(1, None, {(0,): 3.0, (1,): t1, (-1,): np.nextafter(t1, 0.0)})
        with pytest.raises(SymmetryError, match="not symmetric"):
            pc.ToeplitzPreconditioner.from_symbol(h, (5,))

    def test_rejects_a_complex_table(self):
        with pytest.raises(SymmetryError, match="complex"):
            h = sym.Symbol(1, None, {(0,): 3.0, (1,): 1e-17j, (-1,): -1e-17j})
            pc.ToeplitzPreconditioner.from_symbol(h, (5,))

    def test_rejects_a_complex_level(self):
        # not cut to its real part, which would set the off-diagonal to 0
        with pytest.raises(SymmetryError, match="complex"):
            pc.ToeplitzPreconditioner([[[2, 1j], [1j, 2]], [[3]]])

    def test_rejects_a_level_that_is_not_centrosymmetric(self):
        # symmetric, but J A J swaps the diagonal entries
        with pytest.raises(SymmetryError, match="not centrosymmetric"):
            pc.ToeplitzPreconditioner([np.eye(3), np.array([[2.0, 1.0], [1.0, 3.0]])])

    def test_rejects_empty_table(self):
        with pytest.raises(ParameterError):
            pc.ToeplitzPreconditioner.from_symbol(sym.Symbol(1, None, {}), (4,))

    def test_rejects_non_separable_table(self):
        h = sym.Symbol(2, None, {(0, 0): 4.0, (1, 1): -1.0, (-1, -1): -1.0})
        with pytest.raises(ParameterError, match="not separable"):
            pc.ToeplitzPreconditioner.from_symbol(h, (4, 4))

    def test_indefinite_symbol_names_the_pivot(self):
        # 2 cos theta changes sign, so T_5 has eigenvalues of both signs
        two_cos = sym.Symbol(1, None, {(1,): 1.0, (-1,): 1.0})
        with pytest.raises(NotSPDError, match=r"smallest eigenvalue -1\.73"):
            pc.ToeplitzPreconditioner.from_symbol(two_cos, (5,))


class TestFractionalPreconditioners:
    def test_p22_coefficients(self):
        n1, n2, M = 10, 12, 10
        hx, hy = 1.0 / (n1 + 1), 1.0 / (n2 + 1)
        ratio = hx**1.8 / hy**1.6
        shift = 2.0 * hx**1.8 * M
        p = pc.build_p22(1.8, 1.6, n1, n2, M)
        c = dict(p.symbol.pairs())
        assert c[(0, 0)] == pytest.approx(2.0 + 2.0 * ratio + shift, rel=1e-14)
        assert c[(1, 0)] == c[(-1, 0)] == -1.0
        assert c[(0, 1)] == pytest.approx(-ratio, rel=1e-14)
        assert len(c) == 5

    def test_p22_table_matches_evaluator(self):
        p = pc.build_p22(1.8, 1.6, 10, 10, 10)
        table = fft_fourier_coefficients(p.symbol.eval, 64, d=2)
        for k in np.ndindex(3, 3):
            k = (k[0] - 1, k[1] - 1)
            assert table[k[0] % 64, k[1] % 64].real == pytest.approx(
                complex(dict(p.symbol.pairs()).get(k, 0.0)).real, abs=1e-10)

    def test_p22_symbol_at_origin_is_the_shift(self):
        n1 = 10
        shift = 2.0 * (1.0 / 11.0) ** 1.8 * n1
        p = pc.build_p22(1.8, 1.6, n1, 10, n1)
        assert p.symbol.eval((0.0, 0.0)) == pytest.approx(shift, rel=1e-12)

    @pytest.mark.parametrize("n1", [10, 40, 160])
    def test_shift_is_the_system_shift(self, n1):
        # the preconditioners take the system's 2 h_x^alpha / dt bit for bit
        ratio, shift = sym.fractional_mesh(1.8, 1.6, n1, n1, n1)
        assert shift == 2.0 * (1.0 / (n1 + 1)) ** 1.8 / (1.0 / n1)
        p = pc.build_p22(1.8, 1.6, n1, n1, n1)
        assert p.symbol.eval((0.0, 0.0)) == shift
        assert dict(p.symbol.pairs())[(0, 0)] == 2.0 + ratio * 2.0 + shift

    def test_p22_is_spd(self):
        p = pc.build_p22(1.8, 1.6, 10, 12, 10)
        dense = fractional_variant_dense(sym.laplace1d_symbol(), 1.8, 1.6, 10, 12, 10)
        np.testing.assert_allclose(np.sort(p.eigen_tensor.ravel()),
                                   np.linalg.eigvalsh(dense), atol=1e-12)
        assert p.eigen_tensor.min() > 0.0
        r = np.random.default_rng(51).standard_normal((120, 2))
        np.testing.assert_allclose(p.apply(r), dense @ r, atol=1e-12)
        np.testing.assert_allclose(p.apply_inverse(r), np.linalg.solve(dense, r), atol=1e-10)

    def test_p2beta_band(self):
        p = pc.build_p2beta(1.8, 1.6, 10, 12, 10)
        assert p.symbol.band == (1, 2)
        ks = {k[1] for k in dict(p.symbol.pairs()) if k[0] == 0}
        assert ks == {-2, -1, 0, 1, 2}

    @pytest.mark.parametrize("include_shift", [True, False])
    def test_p2beta_weight_is_the_level_sum(self, include_shift):
        # bit for bit: 2 - 2 cos t1 + ratio Re(trunc)(t2) + shift
        ratio, shift = sym.fractional_mesh(1.8, 1.6, 10, 12, 10, include_shift)
        level2 = sym.real_part_symbol(sym.p_beta_truncation(1.6))
        p = pc.build_p2beta(1.8, 1.6, 10, 12, 10, include_shift)
        pts = np.random.default_rng(53).uniform(-np.pi, np.pi, size=(200, 2))
        want = (2.0 - 2.0 * np.cos(pts[:, 0]) + ratio * np.real(level2.eval(pts[:, [1]]))
                + shift)
        np.testing.assert_array_equal(np.real(p.symbol.eval(pts)), want)

    def test_p2beta_spd_without_shift(self):
        # the band truncation keeps the level-2 factor away from zero, so
        # the preconditioner stays SPD even with no identity shift
        p = pc.build_p2beta(1.8, 1.6, 30, 36, 30, include_shift=False)
        assert abs(p.symbol.eval((0.0, 0.0))) > 0.0
        level2 = sym.real_part_symbol(sym.p_beta_truncation(1.6))
        dense = fractional_variant_dense(level2, 1.8, 1.6, 30, 36, 0)
        np.testing.assert_allclose(np.sort(p.eigen_tensor.ravel()),
                                   np.linalg.eigvalsh(dense), atol=1e-12)
        assert p.eigen_tensor.min() > 0.0
        r = np.random.default_rng(52).standard_normal(1080)
        np.testing.assert_allclose(p.apply(r), dense @ r, atol=1e-12)
        np.testing.assert_allclose(p.apply_inverse(r), np.linalg.solve(dense, r), atol=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            pc.build_p22(2.4, 1.6, 8, 8, 8)
        with pytest.raises(ParameterError):
            pc.build_p2beta(1.8, 1.6, 8, 0, 8)

    @pytest.mark.parametrize("builder", [pc.build_p22, pc.build_p2beta])
    def test_symbol_positive_on_sample(self, builder):
        p = builder(1.8, 1.6, 12, 12, 12)
        rng = np.random.default_rng(46)
        pts = rng.uniform(-np.pi, np.pi, size=(2000, 2))
        vals = np.asarray(p.symbol.eval(pts))
        assert np.max(np.abs(vals.imag)) < 1e-12
        assert vals.real.min() > 0.0

    def test_toepfr_symbol_positive_on_sample(self):
        f = sym.fractional_symbol(1.8, 1.6, 12, 12, 12)
        r = sym.real_part_symbol(f)
        rng = np.random.default_rng(47)
        pts = rng.uniform(-np.pi, np.pi, size=(2000, 2))
        vals = np.asarray(r.eval(pts))
        assert vals.real.min() > 0.0


@pytest.mark.parametrize("exp,precond,sizes", [("ex2", "toepfr", (9, 11)),
                                               ("ex2", "p22", (9, 11)),
                                               ("ex2", "p2beta", (9, 11)),
                                               ("ex3", "circsum", (5, 6, 7))])
def test_levels_are_the_gathered_first_columns(exp, precond, sizes):
    # bit for bit A_l[i, j] = col_l[|i - j|], col_l the level's real first column
    cfg = ExperimentConfig(exp=exp, precond=precond)
    f = experiment_symbol(cfg, sizes)
    p, _ = build_preconditioner(cfg, f, sizes)
    if precond == "circsum":
        cols = [np.fft.ifft(pc.circulant_abs(pc.optimal_circulant(tab, n))).real
                for tab, n in zip(f.levels(), sizes)]
    else:
        cols = [np.pad(v, n)[v.size // 2 + n:][:n] for v, n in zip(p.symbol.levels(), sizes)]
    for a, col in zip(p.levels, cols):
        i = np.arange(len(col))
        assert np.array_equal(a, col[np.abs(i[:, None] - i)])


@pytest.mark.parametrize("precond", ["toepfr", "p22", "p2beta"])
@pytest.mark.parametrize("sizes", [(9, 7), (10, 12), (11, 8)])
def test_levels_are_the_level_matrices_of_the_weight(precond, sizes):
    # one path from a table to level matrices: P's levels are
    # operators.level_matrices of its own symbol, bit for bit
    cfg = ExperimentConfig(exp="ex2", precond=precond)
    p, h = build_preconditioner(cfg, experiment_symbol(cfg, sizes), sizes)
    for a, want in zip(p.levels, ops.level_matrices(h, sizes), strict=True):
        assert a.dtype == want.dtype and np.array_equal(a, want)


@pytest.mark.parametrize("exp,precond,sizes", [("ex2", "toepfr", (9, 10)),
                                               ("ex2", "p22", (9, 10)),
                                               ("ex2", "p2beta", (10, 9)),
                                               ("ex3", "circsum", (5, 6, 7))])
def test_level_bases_have_parity_by_construction(exp, precond, sizes):
    # J_l Q_l = Q_l D_l bit for bit, even at circsum's repeated eigenvalues,
    # and Q_l is an orthonormal eigenbasis of A_l
    cfg = ExperimentConfig(exp=exp, precond=precond)
    f = experiment_symbol(cfg, sizes)
    p, _ = build_preconditioner(cfg, f, sizes)
    for a, q, lam, parity in zip(p.levels, p.bases, p.eigenvalues, p.parities):
        assert np.array_equal(q[::-1], q * parity)
        assert np.array_equal(np.abs(parity), np.ones(len(a)))
        np.testing.assert_allclose(q.T @ q, np.eye(len(a)), atol=1e-14)
        np.testing.assert_allclose(a @ q, q * lam, atol=1e-13 * np.abs(a).max())


class TestPreconditionedSpectrum:
    @staticmethod
    def flipped(f, sizes):
        return kron_toeplitz_dense(dict(f.pairs()), sizes)[ops.flip_map(sizes), :]

    def test_toeplitz_branch_matches_general_solver(self):
        f = sym.fractional_symbol(1.8, 1.6, 6, 7, 6)
        p = pc.build_p22(1.8, 1.6, 6, 7, 6)
        dense = fractional_variant_dense(sym.laplace1d_symbol(), 1.8, 1.6, 6, 7, 6)
        s = self.flipped(f, (6, 7))
        got = pc.preconditioned_spectrum(p, f)
        want = np.sort(np.linalg.eigvals(np.linalg.solve(dense, s)).real)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_circulant_branch_matches_general_solver(self):
        f = laplace_sum_symbol(2)
        p = pc.build_circulant_kron_sum(f, (4, 5))
        s = self.flipped(sym.ex1_symbol(), (4, 5))
        got = pc.preconditioned_spectrum(p, sym.ex1_symbol())
        want = np.sort(np.linalg.eigvals(np.linalg.solve(circsum_dense(f, (4, 5)), s)).real)
        np.testing.assert_allclose(got, want, atol=1e-8)

    @pytest.mark.parametrize("case", ["toepfr-ex2", "toepfr-ex3", "p2beta", "circsum"])
    def test_matches_general_solver_on_the_experiments(self, case):
        if case == "toepfr-ex2":
            sizes = (5, 6)
            f = sym.fractional_symbol(1.8, 1.6, 5, 6, 5)
            p = pc.build_toepfr(f, sizes)
            dense = kron_toeplitz_dense(dict(sym.real_part_symbol(f).pairs()), sizes)
        elif case == "toepfr-ex3":
            sizes = (3, 4, 3)
            f = sym.convection_diffusion_symbol(*sizes)
            p = pc.build_toepfr(f, sizes)
            dense = kron_toeplitz_dense(dict(sym.real_part_symbol(f).pairs()), sizes)
        elif case == "p2beta":
            sizes = (5, 6)
            f = sym.fractional_symbol(1.8, 1.6, 5, 6, 5)
            p = pc.build_p2beta(1.8, 1.6, 5, 6, 5)
            level2 = sym.real_part_symbol(sym.p_beta_truncation(1.6))
            dense = fractional_variant_dense(level2, 1.8, 1.6, 5, 6, 5)
        else:
            sizes = (3, 4, 3)
            f = sym.convection_diffusion_symbol(*sizes)
            p = pc.build_circulant_kron_sum(f, sizes)
            dense = circsum_dense(f, sizes)
        s = self.flipped(f, sizes)
        got = pc.preconditioned_spectrum(p, f)
        want = np.sort(np.linalg.eigvals(np.linalg.solve(dense, s)).real)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_unknown_preconditioner_type(self):
        with pytest.raises(ParameterError):
            pc.preconditioned_spectrum(object(), sym.ex1_symbol())

    @pytest.mark.parametrize("exp,precond,sizes", [("ex2", "toepfr", (17, 19)),
                                                   ("ex2", "p2beta", (17, 19)),
                                                   ("ex3", "circsum", (7, 7, 7)),
                                                   ("ex3", "toepfr", (7, 7, 7)),
                                                   ("ex2", "p22", (17, 19)),
                                                   ("ex3", "circsum", (7, 9, 8))])
    def test_matches_the_whole_matrix_w(self, exp, precond, sizes):
        # the level assembly against W swept from the whole Y T, on two- and
        # three-level bases with odd and even level sizes, within 1e-13 of
        # max|lambda|: eigvalsh's error bound scales with ||W||, so a small
        # eigenvalue (0.05 at circsum (7, 9, 8)) can move by more relative to itself
        p, f, s = experiment_case(exp, precond, sizes)
        got = pc.preconditioned_spectrum(p, f)
        want = np.linalg.eigvalsh(whole_matrix_w(p, s))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())

    def test_rejects_a_complex_table(self):
        # Y T of a complex table is complex symmetric, not Hermitian
        p = pc.build_circulant_kron_sum(laplace_sum_symbol(2), (4, 5))
        with pytest.raises(SymmetryError):
            pc.preconditioned_spectrum(p, sym.Symbol(2, None, {(0, 0): 4.0, (1, 0): 1j}))

    @pytest.mark.parametrize("shape", [(20, 19), (19, 20), (20,), (20, 20, 1)])
    def test_rejects_a_non_square_matrix(self, shape):
        # a dense S in place of the symbol, as the function took before
        p = pc.build_circulant_kron_sum(laplace_sum_symbol(2), (4, 5))
        with pytest.raises(ShapeError, match="expected the symbol f"):
            pc.preconditioned_spectrum(p, np.zeros(shape))

    def test_rejects_a_non_separable_symbol(self):
        # W is assembled from one Toeplitz level per level of f
        p = pc.build_circulant_kron_sum(laplace_sum_symbol(2), (4, 5))
        coupled = sym.Symbol(2, None, {(0, 0): 4.0, (1, 1): -1.0, (-1, -1): -1.0})
        with pytest.raises(ParameterError, match="not separable"):
            pc.preconditioned_spectrum(p, coupled)

    def test_refuses_a_size_above_the_dense_cap(self):
        # checked before the d_n x d_n array is allocated
        p = pc.build_circulant_kron_sum(laplace_sum_symbol(2), (150, 150))
        with pytest.raises(CapacityError):
            pc.preconditioned_spectrum(p, laplace_sum_symbol(2))

    @pytest.mark.parametrize("exp,precond,sizes", [("ex2", "p2beta", (17, 19)),
                                                   ("ex2", "p22", (30, 30)),
                                                   ("ex3", "circsum", (7, 7, 7))])
    def test_whole_w_holds_one_d_n_square_array(self, exp, precond, sizes):
        # W itself and, per fiber, arrays of at most n_l x n_l: measured 1.01-1.05
        # d_n^2 doubles (tracemalloc does not see LAPACK's copy inside eigvalsh)
        p, f, _ = experiment_case(exp, precond, sizes)
        tracemalloc.start()
        try:
            pc.preconditioned_spectrum(p, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 8 * p.dim**2

    @pytest.mark.parametrize("levels", [1, 3])
    def test_rejects_a_symbol_with_another_level_count(self, levels):
        p = pc.build_circulant_kron_sum(laplace_sum_symbol(2), (4, 5))
        with pytest.raises(ShapeError):
            pc.preconditioned_spectrum(p, laplace_sum_symbol(levels))


def whole_matrix_w(p, s):
    """Symmetric Lambda^{-1/2} Q^T S Q Lambda^{-1/2}, by whole-matrix sweeps."""
    scale = np.sqrt(p._inverse)
    w = p._into(p._into(s) * scale) * scale
    return (w + w.T) / 2.0


def experiment_case(exp, precond, sizes):
    # P, the symbol f and the flipped matrix S = Y T that the spectrum command would build
    cfg = ExperimentConfig(exp=exp, precond=precond)
    f = experiment_symbol(cfg, sizes)
    p, _ = build_preconditioner(cfg, f, sizes)
    return p, f, ops.flipped_dense(f, sizes)


class TestParitySpectrum:
    """toepfr spectra solved in the flip parity split, W = [[I, B], [B^T, -I]].

    All-odd sizes have one even eigenvector more than odd ones, so the
    spectrum holds one eigenvalue +1 besides the pairs +-sqrt(1 + sigma^2).
    """

    @pytest.mark.parametrize("exp,sizes", [("ex2", (16, 16)), ("ex2", (17, 19)),
                                           ("ex2", (30, 60)), ("ex3", (7, 7, 7)),
                                           ("ex3", (9, 10, 11))])
    def test_matches_eigvalsh_of_the_same_w(self, exp, sizes):
        # eigvalsh's values are off by up to ~d_n eps ||W|| (2e-13 at d_n = 990,
        # moving with the column order and the BLAS thread count); the Rayleigh
        # quotients v^T W v of eigh's eigenvectors are off by ||r||^2 / gap,
        # 8e-15 or less on these cases
        p, f, s = experiment_case(exp, "toepfr", sizes)
        got = pc.preconditioned_spectrum(p, f)
        w = whole_matrix_w(p, s)
        vecs = np.linalg.eigh(w)[1]
        want = np.sort(np.einsum("ij,ij->j", vecs, w @ vecs))
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("exp,sizes", [("ex2", (30, 30)), ("ex2", (31, 30)),
                                           ("ex3", (9, 10, 8))])
    def test_holds_no_d_n_square_array(self, exp, sizes):
        # only B (m_e x m_o) and I + B^T B (m_o x m_o) are allocated, about
        # d_n^2 / 2 doubles, never W itself.  The one-level custom family is
        # left out: its level matrices alone are d_n x d_n
        p, f, _ = experiment_case(exp, "toepfr", sizes)
        tracemalloc.start()
        try:
            pc.preconditioned_spectrum(p, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * 8 * p.dim**2

    @pytest.mark.parametrize("exp,precond,sizes,half", [
        ("ex2", "toepfr", (16, 16), True),
        ("ex2", "toepfr", (17, 19), True),
        ("ex3", "toepfr", (7, 7, 7), True),
        ("ex2", "p22", (16, 16), False),
        ("ex2", "p2beta", (17, 19), False),
        ("ex3", "circsum", (7, 7, 7), False),
        ("ex2", "toepfr-scaled", (16, 16), False),
        ("ex2", "toepfr-nudged", (16, 16), False),
    ])
    def test_path_choice(self, monkeypatch, exp, precond, sizes, half):
        # the toepfr spectrum solves at size m_o <= max(m_e, m_o); any other
        # P solves at d_n, toepfr's scaled by 1.01 or by 1 + 2^-52 included:
        # the split needs (T_l + T_l^T) / 2 == A_l bit for bit.  Each
        # eigenvalue is checked within 1e-13 of max|lambda|, since eigvalsh on
        # two W's that differ by rounding agree to ||dW|| (Weyl), not relatively
        p, f, s = experiment_case(exp, precond.split("-")[0], sizes)
        factor = {"toepfr-scaled": 1.01, "toepfr-nudged": 1.0 + 2.0**-52}.get(precond)
        if factor is not None:
            p = pc.ToeplitzPreconditioner([factor * a for a in p.levels], p.symbol)
        eigvalsh, solved = np.linalg.eigvalsh, []

        def recorded(a, *args, **kwargs):
            solved.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        want = eigvalsh(whole_matrix_w(p, s))
        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        got = pc.preconditioned_spectrum(p, f)
        assert len(solved) == 1
        if half:
            assert solved[0] <= (p.dim + 1) // 2
        else:
            assert solved[0] == p.dim
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("exp,sizes", [("ex2", (30, 34)), ("ex3", (6, 6, 6))])
    def test_dense_spectrum_avoids_the_unit_interval(self, exp, sizes):
        # no flipspec path: P^{-1/2} Y T P^{-1/2} from the dense T(f_R) and its
        # eigh, so every |lambda| >= 1 is the finite-n clustering at +-|f| / f_R
        cfg = ExperimentConfig(exp=exp, precond="toepfr")
        f = experiment_symbol(cfg, sizes)
        vals, vecs = np.linalg.eigh(kron_toeplitz_dense(
            dict(sym.real_part_symbol(f).pairs()), sizes).real)
        root = (vecs / np.sqrt(vals)) @ vecs.T
        w = root @ TestPreconditionedSpectrum.flipped(f, sizes) @ root
        eigs = np.linalg.eigvalsh((w + w.T) / 2.0)
        assert np.abs(eigs).min() >= 1.0 - 1e-12
