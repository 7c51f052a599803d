"""Symbol construction, evaluation, and coefficient extraction."""

import numpy as np
import pytest

from conftest import (direct_fourier_coefficient, fft_fourier_coefficients,
                      grunwald_closed_form, kron_toeplitz_dense, trig_sum)
from flipspec import operators as ops
from flipspec import symbols as sym
from flipspec.errors import AliasingError, DomainError, ParameterError, ShapeError


class TestSymbolBasics:
    def test_eval_single_point_and_batch(self):
        f = sym.ex1_symbol()
        one = f.eval((0.0, 0.0))
        assert one == pytest.approx(6.0)
        pts = np.array([[0.0, 0.0], [np.pi, 0.0], [np.pi, np.pi]])
        np.testing.assert_allclose(f.eval(pts), [6.0, 4.0, 2.0], atol=1e-14)

    def test_eval_rejects_points_outside_domain(self):
        f = sym.ex1_symbol()
        with pytest.raises(DomainError):
            f.eval((4.0, 0.0))
        # boundary itself is fine
        f.eval((np.pi, -np.pi))

    def test_eval_rejects_wrong_coordinate_count(self):
        with pytest.raises(DomainError):
            sym.ex1_symbol().eval((0.0, 0.0, 0.0))

    def test_band_and_coefficient_lookup(self):
        f = sym.ex1_symbol()
        assert f.band == (1, 1)
        assert f.coefficients.get((0, 0), 0.0) == 4.0
        assert f.coefficients.get((2, 0), 0.0) == 0.0

    def test_coefficient_index_level_mismatch(self):
        with pytest.raises(ParameterError):
            sym.Symbol(2, None, {(1,): 1.0})

    def test_trig_sum_matches_evaluator_on_complete_table(self):
        # ex1 stores its full table, so the closed form and the plain
        # trigonometric sum are the same function
        f = sym.ex1_symbol()
        rng = np.random.default_rng(3)
        pts = rng.uniform(-np.pi, np.pi, size=(40, 2))
        np.testing.assert_allclose(trig_sum(f.coefficients, pts), f.eval(pts), atol=1e-12)

    def test_evaluator_only_symbol_falls_back_to_table(self):
        f = sym.Symbol(1, None, {(0,): 2.0, (1,): -1.0, (-1,): -1.0})
        assert f.eval((np.pi,)) == pytest.approx(4.0)

    def test_as_sizes_and_total_dim(self):
        assert sym.as_sizes(5) == (5,)
        assert sym.as_sizes((3, 4)) == (3, 4)
        assert sym.total_dim((3, 4, 2)) == 24
        with pytest.raises(ParameterError):
            sym.as_sizes((3, 0))


class TestFourierCoefficients:
    def test_exact_for_banded_symbol(self):
        table = sym.fourier_coefficients(sym.laplace1d_symbol(), band=1, m=16)
        assert set(table) == {(-1,), (0,), (1,)}
        assert table[(0,)] == pytest.approx(2.0, abs=1e-13)
        assert table[(1,)] == pytest.approx(-1.0, abs=1e-13)
        assert table[(-1,)] == pytest.approx(-1.0, abs=1e-13)

    def test_out_of_band_entries_are_pruned(self):
        table = sym.fourier_coefficients(sym.laplace1d_symbol(), band=4, m=32)
        assert set(table) == {(-1,), (0,), (1,)}

    def test_two_level_banded_symbol(self):
        table = sym.fourier_coefficients(sym.ex1_symbol(), band=(1, 1))
        assert set(table) == {(0, 0), (1, 0), (0, 1)}
        assert table[(1, 0)] == pytest.approx(1.0, abs=1e-12)

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            sym.fourier_coefficients(sym.laplace1d_symbol(), band=3, m=5)

    def test_band_validation(self):
        with pytest.raises(ParameterError):
            sym.fourier_coefficients(sym.laplace1d_symbol(), band=(1, 1))


class TestKronSumSymbol:
    @staticmethod
    def random_case(d):
        rng = np.random.default_rng(60 + d)
        sizes = tuple(int(v) for v in rng.integers(2, 7, size=d))
        tables = [{k: float(rng.standard_normal())
                   for k in range(-int(rng.integers(0, n)), int(rng.integers(0, n)) + 1)}
                  for n in sizes]
        weights = [float(w) for w in rng.uniform(0.5, 2.0, size=d)]
        return sizes, tables, weights, float(rng.standard_normal())

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matrix_is_the_kronecker_sum(self, d):
        sizes, tables, weights, shift = self.random_case(d)
        levels = [sym.Symbol(1, None, {(k,): t for k, t in tab.items()}) for tab in tables]
        f = sym.kron_sum_symbol(levels, weights, shift)
        want = shift * np.eye(int(np.prod(sizes)))
        for l, (tab, w) in enumerate(zip(tables, weights)):
            term = np.eye(1)
            for m, n in enumerate(sizes):
                one = kron_toeplitz_dense({(k,): t for k, t in tab.items()}, (n,))
                term = np.kron(term, w * one if m == l else np.eye(n))
            want = want + term
        np.testing.assert_allclose(ops.ToeplitzOperator.from_symbol(f, sizes).dense(), want,
                                   atol=1e-13)
        pts = np.random.default_rng(70 + d).uniform(-np.pi, np.pi, size=(30, d))
        direct = shift + sum(w * lev.eval(pts[:, [l]])
                             for l, (lev, w) in enumerate(zip(levels, weights)))
        np.testing.assert_allclose(f.eval(pts), direct, atol=1e-13)
        np.testing.assert_allclose(f.eval(pts), trig_sum(f.coefficients, pts), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_levels_round_trip(self, d):
        sizes, tables, weights, shift = self.random_case(d)
        f = sym.kron_sum_symbol([sym.Symbol(1, None, {(k,): t for k, t in tab.items()})
                                 for tab in tables], weights, shift)
        back = f.levels()
        origin = shift + sum(w * tab.get(0, 0.0) for tab, w in zip(tables, weights))
        assert back[0].pop(0) == pytest.approx(origin, rel=1e-14)
        for tab, w, got in zip(tables, weights, back):
            assert got == {k: w * t for k, t in tab.items() if k}

    def test_evaluator_uses_each_level_closed_form(self):
        f = sym.kron_sum_symbol((sym.grunwald_symbol(1.8), sym.laplace1d_symbol()), (1.0, 0.5))
        assert f.coefficients == {(0, 1): -0.5, (0, -1): -0.5, (0, 0): 1.0}
        assert f.eval((np.pi, 0.0)) == pytest.approx(2.785761802547597, abs=1e-13)

    def test_validation(self):
        with pytest.raises(ParameterError):
            sym.kron_sum_symbol([sym.ex1_symbol()])
        with pytest.raises(ParameterError):
            sym.kron_sum_symbol([sym.laplace1d_symbol()] * 2, (1.0,))
        with pytest.raises(ParameterError):
            sym.kron_sum_symbol([])
        coupled = sym.Symbol(2, None, {(0, 0): 4.0, (1, 1): -1.0})
        with pytest.raises(ParameterError, match="not separable"):
            coupled.levels()
        with pytest.raises(ShapeError):
            coupled.check_sizes((4, 4, 4))
        assert coupled.check_sizes([4, 5]) == (4, 5)


class TestGrunwald:
    def test_gamma_domain(self):
        for bad in (1.0, 2.0, 0.5, 2.5, -1.8):
            with pytest.raises(ParameterError):
                sym.grunwald_symbol(bad)
            with pytest.raises(ParameterError):
                sym.grunwald_coefficients(bad, band=4)

    def test_value_at_pi(self):
        # f_gamma(pi) = (gamma - 1) 2^gamma
        assert sym.grunwald_symbol(1.8).eval((np.pi,)) == pytest.approx(
            2.785761802547597, abs=1e-13)
        assert sym.grunwald_symbol(1.6).eval((np.pi,)) == pytest.approx(
            1.8188598798124778, abs=1e-13)

    def test_band_carries_the_exact_weights(self):
        f = sym.grunwald_symbol(1.7, band=9)
        assert f.coefficients == {(k,): t for k, t in sym.grunwald_coefficients(1.7, 9).items()}
        assert sym.grunwald_symbol(1.7).coefficients == {}
        assert f.eval((0.4,)) == sym.grunwald_symbol(1.7).eval((0.4,))

    def test_removable_zero_at_origin(self):
        assert abs(sym.grunwald_symbol(1.5).eval((0.0,))) < 1e-15

    @pytest.mark.parametrize("gamma", [1.8, 1.6, 1.2])
    def test_coefficients_match_binomial_expansion(self, gamma):
        table = sym.grunwald_coefficients(gamma, band=12)
        for k in range(-1, 13):
            assert table[k] == pytest.approx(grunwald_closed_form(gamma, k), abs=1e-8)

    def test_no_support_below_minus_one(self):
        assert all(k >= -1 for k in sym.grunwald_coefficients(1.2, band=12))

    @pytest.mark.parametrize("gamma", [1.2, 1.6, 1.8])
    def test_long_band_matches_binomial_expansion(self, gamma):
        # the weights decay like k^-(1+gamma); the last ones keep full relative accuracy
        table = sym.grunwald_coefficients(gamma, band=4095)
        assert set(table) == set(range(-1, 4096))
        assert all(type(v) is float for v in table.values())
        for k in (-1, 0, 1, 100, 2047, 4000, 4095):
            want = grunwald_closed_form(gamma, k)
            assert table[k] == pytest.approx(want, rel=1e-10)

    def test_quadrature_matches_plain_riemann_sum(self):
        # same lattice, FFT-free summation; checks the index bookkeeping
        f = sym.grunwald_symbol(1.7)
        table = fft_fourier_coefficients(f.eval, 4096)
        for k in (-1, 0, 3, 6):
            want = direct_fourier_coefficient(f.evaluator, k, m=4096)
            assert table[k % 4096].real == pytest.approx(want.real, abs=1e-12)
            assert abs(want.imag) < 1e-12


class TestFractionalSymbol:
    def test_cross_support(self):
        f = sym.fractional_symbol(1.8, 1.6, 10, 12, M=10)
        assert all(k1 == 0 or k2 == 0 for k1, k2 in f.coefficients)
        assert all(k1 >= -1 and k2 >= -1 for k1, k2 in f.coefficients)
        assert f.band == (9, 11)

    def test_coefficient_bookkeeping(self):
        n1, n2, M = 8, 10, 16
        hx, hy = 1.0 / (n1 + 1), 1.0 / (n2 + 1)
        ratio = hx**1.8 / hy**1.6
        ca = sym.grunwald_coefficients(1.8, n1 - 1)
        cb = sym.grunwald_coefficients(1.6, n2 - 1)
        c = sym.fractional_symbol(1.8, 1.6, n1, n2, M).coefficients
        shift = 2.0 * hx**1.8 * M
        assert c.get((0, 0), 0.0) == pytest.approx(ca[0] + ratio * cb[0] + shift, rel=1e-14)
        assert c.get((3, 0), 0.0) == pytest.approx(ca[3], rel=1e-14)
        assert c.get((0, -1), 0.0) == pytest.approx(ratio * cb[-1], rel=1e-14)

    @pytest.mark.parametrize("include_shift", [True, False])
    def test_table_is_the_per_formula_values(self, include_shift):
        n1, n2, M = 8, 10, 16
        ratio, shift = sym.fractional_mesh(1.8, 1.6, n1, n2, M, include_shift)
        ca = sym.grunwald_coefficients(1.8, n1 - 1)
        cb = sym.grunwald_coefficients(1.6, n2 - 1)
        want = {(k, 0): v for k, v in ca.items()}
        want.update({(0, k): ratio * v for k, v in cb.items() if k})
        want[(0, 0)] = ca[0] + ratio * cb[0] + shift
        f = sym.fractional_symbol(1.8, 1.6, n1, n2, M, include_shift)
        assert f.coefficients == want
        assert f.levels() == [{k[0]: v for k, v in want.items() if k[1] == 0},
                              {k[1]: v for k, v in want.items() if k[0] == 0 and k[1]}]

    def test_evaluator_combines_levels(self):
        n1, n2, M = 8, 10, 16
        hx, hy = 1.0 / (n1 + 1), 1.0 / (n2 + 1)
        ratio = hx**1.8 / hy**1.6
        f = sym.fractional_symbol(1.8, 1.6, n1, n2, M)
        want = 2.785761802547597 + ratio * 1.8188598798124778 + 2.0 * hx**1.8 * M
        assert f.eval((np.pi, np.pi)) == pytest.approx(want, rel=1e-12)

    def test_shift_toggle(self):
        kwargs = dict(alpha=1.8, beta=1.6, n1=8, n2=8, M=8)
        on = sym.fractional_symbol(**kwargs)
        off = sym.fractional_symbol(include_shift=False, **kwargs)
        hx = 1.0 / 9.0
        delta = on.coefficients.get((0, 0), 0.0) - off.coefficients.get((0, 0), 0.0)
        assert delta == pytest.approx(2.0 * hx**1.8 * 8, rel=1e-14)
        assert on.eval((0.3, -0.7)) - off.eval((0.3, -0.7)) == pytest.approx(delta, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            sym.fractional_symbol(2.0, 1.6, 8, 8, 8)
        with pytest.raises(ParameterError):
            sym.fractional_symbol(1.8, 1.6, 0, 8, 8)


class TestConvectionDiffusion:
    def test_stencil_at_mesh_nine(self):
        f = sym.convection_diffusion_symbol(9, 9, 9)
        c = f.coefficients
        assert c[(0, 0, 0)] == pytest.approx(6.45)
        assert c[(1, 0, 0)] == pytest.approx(-1.2)
        assert c[(0, 1, 0)] == pytest.approx(-1.1)
        assert c[(0, 0, 1)] == pytest.approx(-1.15)
        assert c[(-1, 0, 0)] == c[(0, -1, 0)] == c[(0, 0, -1)] == -1.0
        assert len(c) == 7

    def test_table_is_the_literal_stencil(self):
        f = sym.convection_diffusion_symbol(5, 10, 20)
        hx, hy, hz = 1.0 / 6.0, 1.0 / 11.0, 1.0 / 21.0
        assert f.coefficients == {
            (0, 0, 0): 6.0 + 2.0 * hx + hy + 1.5 * hz,
            (1, 0, 0): -1.0 - 2.0 * hx, (-1, 0, 0): -1.0,
            (0, 1, 0): -1.0 - hy, (0, -1, 0): -1.0,
            (0, 0, 1): -1.0 - 1.5 * hz, (0, 0, -1): -1.0,
        }

    def test_evaluator_matches_closed_form(self):
        f = sym.convection_diffusion_symbol(5, 10, 20)
        c = f.coefficients
        t = np.random.default_rng(12).uniform(-np.pi, np.pi, size=(20, 3))
        want = c[(0, 0, 0)] + sum(c[k] * np.exp(1j * s * t[:, l])
                                  for k in c for l, s in enumerate(k) if s)
        np.testing.assert_allclose(f.eval(t), want, atol=1e-13)

    def test_vanishes_at_origin(self):
        f = sym.convection_diffusion_symbol(5, 10, 20)
        assert abs(f.eval((0.0, 0.0, 0.0))) < 1e-14

    def test_evaluator_matches_table(self):
        f = sym.convection_diffusion_symbol(5, 10, 20)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-np.pi, np.pi, size=(20, 3))
        np.testing.assert_allclose(f.eval(pts), trig_sum(f.coefficients, pts), atol=1e-12)


class TestRealPart:
    def test_conjugate_symmetry_is_exact(self):
        f = sym.fractional_symbol(1.8, 1.6, 10, 10, 10)
        r = sym.real_part_symbol(f)
        for k, v in r.coefficients.items():
            mk = tuple(-x for x in k)
            assert r.coefficients.get(mk, 0.0) == v

    def test_evaluator_is_real_part(self):
        f = sym.ex1_symbol()
        r = sym.real_part_symbol(f)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-np.pi, np.pi, size=(25, 2))
        np.testing.assert_allclose(r.eval(pts), f.eval(pts).real, atol=1e-13)
        assert np.max(np.abs(r.eval(pts).imag)) < 1e-14

    def test_real_input_table_stays_real(self):
        r = sym.real_part_symbol(sym.ex1_symbol())
        assert r.coefficients.get((1, 0), 0.0) == pytest.approx(0.5)
        assert r.coefficients.get((-1, 0), 0.0) == pytest.approx(0.5)

    def test_requires_coefficients(self):
        with pytest.raises(ParameterError):
            sym.real_part_symbol(sym.grunwald_symbol(1.5))


def test_p_beta_truncation_keeps_four_coefficients():
    t = sym.p_beta_truncation(1.6)
    assert set(t.coefficients) == {(-1,), (0,), (1,), (2,)}
    full = sym.grunwald_coefficients(1.6, band=8)
    for k in (-1, 0, 1, 2):
        assert t.coefficients.get((k,), 0.0) == pytest.approx(full[k], rel=1e-14)
    # truncation does not vanish at 0 even though f_beta does
    assert abs(t.eval((0.0,))) > 0.05
