"""Kronecker-sum preconditioners with Toeplitz and circulant levels.

Every reference matrix below is assembled densely from the conftest oracles
(direct Kronecker assembly, C[i, j] = c[(i - j) mod n]) and never read back
from the preconditioner under test.
"""

import numpy as np
import pytest

from conftest import brute_frobenius_circulant, dense_circulant, kron_toeplitz_dense
from flipspec import precond as pc
from flipspec import operators as ops
from flipspec import symbols as sym
from flipspec.errors import NotSPDError, ParameterError, ShapeError, SymmetryError

LAP = {0: 2.0, 1: -1.0, -1: -1.0}


def level_table(f, level):
    """One level's table of a separable symbol; the zero index sits on level 0."""
    return {k[level]: v for k, v in f.coefficients.items()
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
    t2 = kron_toeplitz_dense(level2.coefficients, (n2,))
    return (kron_sum_dense([t1, (hx**alpha / hy**beta) * t2])
            + 2.0 * hx**alpha * M * np.eye(n1 * n2))


class TestOptimalCirculant:
    def test_laplacian_column(self):
        c = pc.optimal_circulant({0: 2.0, 1: -1.0, -1: -1.0}, 3)
        np.testing.assert_allclose(c, [2.0, -2.0 / 3.0, -2.0 / 3.0], atol=1e-15)

    def test_diagonal_table(self):
        np.testing.assert_array_equal(pc.optimal_circulant({0: 5.0}, 4),
                                      [5.0, 0.0, 0.0, 0.0])

    def test_subdiagonal_wraps(self):
        np.testing.assert_allclose(pc.optimal_circulant({-1: 1.0}, 4),
                                   [0.0, 0.0, 0.0, 0.75], atol=1e-15)

    def test_tuple_keys_accepted(self):
        a = pc.optimal_circulant({(1,): 1.0, (0,): 2.0}, 5)
        b = pc.optimal_circulant({1: 1.0, 0: 2.0}, 5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_least_squares_minimizer(self, n):
        rng = np.random.default_rng(40 + n)
        table = {k: float(rng.standard_normal()) for k in range(-(n - 1), n)}
        got = pc.optimal_circulant(table, n)
        want = brute_frobenius_circulant(table, n)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_out_of_range_keys_ignored(self):
        a = pc.optimal_circulant({0: 1.0, 7: 9.0}, 3)
        np.testing.assert_array_equal(a, [1.0, 0.0, 0.0])

    def test_size_validation(self):
        with pytest.raises(ParameterError):
            pc.optimal_circulant({0: 1.0}, 0)


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

    def test_toepfr_of_fractional_symbol(self):
        f = sym.fractional_symbol(1.8, 1.6, 10, 12, 10)
        p = pc.build_toepfr(f, (10, 12))
        dense = kron_toeplitz_dense(sym.real_part_symbol(f).coefficients, (10, 12))
        r = np.random.default_rng(45).standard_normal(120)
        np.testing.assert_allclose(p.apply(r), dense @ r, atol=1e-12)
        np.testing.assert_allclose(p.apply_inverse(r), np.linalg.solve(dense, r), atol=1e-10)
        np.testing.assert_allclose(p.apply(p.apply_inverse(r)), r, atol=1e-10)

    def test_toepfr_of_convection_diffusion_symbol(self):
        f = sym.convection_diffusion_symbol(4, 5, 3)
        p = pc.build_toepfr(f, (4, 5, 3))
        dense = kron_toeplitz_dense(sym.real_part_symbol(f).coefficients, (4, 5, 3))
        r = np.random.default_rng(50).standard_normal(60)
        np.testing.assert_allclose(p.apply(r), dense @ r, atol=1e-12)
        np.testing.assert_allclose(p.apply_inverse(r), np.linalg.solve(dense, r), atol=1e-10)

    def test_rejects_asymmetric_table(self):
        f = sym.fractional_symbol(1.8, 1.6, 8, 8, 8)
        with pytest.raises(SymmetryError):
            pc.ToeplitzPreconditioner.from_symbol(f, (8, 8))
        with pytest.raises(SymmetryError):
            pc.ToeplitzPreconditioner([np.triu(np.ones((3, 3)))])

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
        c = p.symbol.coefficients
        assert c[(0, 0)] == pytest.approx(2.0 + 2.0 * ratio + shift, rel=1e-14)
        assert c[(1, 0)] == c[(-1, 0)] == -1.0
        assert c[(0, 1)] == pytest.approx(-ratio, rel=1e-14)
        assert len(c) == 5

    def test_p22_table_matches_evaluator(self):
        p = pc.build_p22(1.8, 1.6, 10, 10, 10)
        table = sym.fourier_coefficients(p.symbol, band=(1, 1))
        for k, v in table.items():
            assert complex(v).real == pytest.approx(
                complex(p.symbol.coefficient(k)).real, abs=1e-10)

    def test_p22_symbol_at_origin_is_the_shift(self):
        n1 = 10
        shift = 2.0 * (1.0 / 11.0) ** 1.8 * n1
        p = pc.build_p22(1.8, 1.6, n1, 10, n1)
        assert p.symbol.eval((0.0, 0.0)) == pytest.approx(shift, rel=1e-12)

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
        ks = {k[1] for k in p.symbol.coefficients if k[0] == 0}
        assert ks == {-2, -1, 0, 1, 2}

    def test_p2beta_spd_without_shift(self):
        # the band truncation keeps the level-2 factor away from zero, so
        # the preconditioner stays SPD even with no identity shift
        p = pc.build_p2beta(1.8, 1.6, 30, 36, 30, include_shift=False)
        assert abs(p.symbol.eval((0.0, 0.0))) > 0.0
        level2 = sym.real_part_symbol(sym.p_beta_truncation(1.6, 36))
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


class TestPreconditionedSpectrum:
    @staticmethod
    def flipped(f, sizes):
        return kron_toeplitz_dense(f.coefficients, sizes)[ops.flip_map(sizes), :]

    def test_toeplitz_branch_matches_general_solver(self):
        f = sym.fractional_symbol(1.8, 1.6, 6, 7, 6)
        p = pc.build_p22(1.8, 1.6, 6, 7, 6)
        dense = fractional_variant_dense(sym.laplace1d_symbol(), 1.8, 1.6, 6, 7, 6)
        s = self.flipped(f, (6, 7))
        got = pc.preconditioned_spectrum(p, s)
        want = np.sort(np.linalg.eigvals(np.linalg.solve(dense, s)).real)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_circulant_branch_matches_general_solver(self):
        f = laplace_sum_symbol(2)
        p = pc.build_circulant_kron_sum(f, (4, 5))
        rng = np.random.default_rng(48)
        s = rng.standard_normal((20, 20))
        s = s + s.T
        got = pc.preconditioned_spectrum(p, s)
        want = np.sort(np.linalg.eigvals(np.linalg.solve(circsum_dense(f, (4, 5)), s)).real)
        np.testing.assert_allclose(got, want, atol=1e-8)

    @pytest.mark.parametrize("case", ["toepfr-ex2", "toepfr-ex3", "p2beta", "circsum"])
    def test_matches_general_solver_on_the_experiments(self, case):
        if case == "toepfr-ex2":
            sizes = (5, 6)
            f = sym.fractional_symbol(1.8, 1.6, 5, 6, 5)
            p = pc.build_toepfr(f, sizes)
            dense = kron_toeplitz_dense(sym.real_part_symbol(f).coefficients, sizes)
        elif case == "toepfr-ex3":
            sizes = (3, 4, 3)
            f = sym.convection_diffusion_symbol(*sizes)
            p = pc.build_toepfr(f, sizes)
            dense = kron_toeplitz_dense(sym.real_part_symbol(f).coefficients, sizes)
        elif case == "p2beta":
            sizes = (5, 6)
            f = sym.fractional_symbol(1.8, 1.6, 5, 6, 5)
            p = pc.build_p2beta(1.8, 1.6, 5, 6, 5)
            level2 = sym.real_part_symbol(sym.p_beta_truncation(1.6, 6))
            dense = fractional_variant_dense(level2, 1.8, 1.6, 5, 6, 5)
        else:
            sizes = (3, 4, 3)
            f = sym.convection_diffusion_symbol(*sizes)
            p = pc.build_circulant_kron_sum(f, sizes)
            dense = circsum_dense(f, sizes)
        s = self.flipped(f, sizes)
        got = pc.preconditioned_spectrum(p, s)
        want = np.sort(np.linalg.eigvals(np.linalg.solve(dense, s)).real)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_unknown_preconditioner_type(self):
        with pytest.raises(ParameterError):
            pc.preconditioned_spectrum(object(), np.eye(2))
