"""Eigen/singular solvers, grids, branch samples, matching, distribution."""

import functools

import numpy as np
import pytest

from conftest import kron_toeplitz_dense, tridiag_laplacian_eigs
from flipspec import operators as ops
from flipspec import spectral as sp
from flipspec import symbols as sym
from flipspec.errors import (CapacityError, EvenSizeError, ParameterError, PoleError, ShapeError,
                             SymmetryError)
from flipspec.experiments import (ExperimentConfig, _flipped_spectrum, build_preconditioner,
                                  experiment_symbol)
from flipspec.precond import preconditioned_spectrum


def flip_matrix(n):
    return np.eye(int(np.prod(n)))[ops.flip_map(n)]


def flipped_dense(f, n):
    a = ops.ToeplitzOperator(f, n).dense()
    return a[ops.flip_map(n), :]


class TestEigenvalues:
    def test_flip_spectrum(self):
        np.testing.assert_allclose(sp.sym_eigenvalues(flip_matrix((4,))),
                                   [-1.0, -1.0, 1.0, 1.0], atol=1e-14)
        eigs10 = sp.sym_eigenvalues(flip_matrix((10,)))
        assert np.sum(eigs10 < 0) == 5 and np.sum(eigs10 > 0) == 5

    def test_tridiagonal_closed_form(self):
        a = ops.ToeplitzOperator(sym.laplace1d_symbol(), (4,)).dense()
        np.testing.assert_allclose(sp.sym_eigenvalues(a),
                                   np.sort(tridiag_laplacian_eigs(4)), atol=1e-13)

    def test_matches_general_solver(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((12, 12))
        a = a + a.T
        want = np.sort(np.linalg.eigvals(a).real)
        np.testing.assert_allclose(sp.sym_eigenvalues(a), want, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            sp.sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            sp.sym_eigenvalues(np.ones((2, 3)))

    def test_rejects_a_complex_hermitian_matrix(self):
        with pytest.raises(SymmetryError, match="real"):
            sp.sym_eigenvalues(np.array([[1.0, 1j], [-1j, 1.0]]))


def symmetric_over_panels(seed):
    # a symmetric matrix spanning several row panels and a partial last one
    n = 10 * ops._PANEL_ROWS + 3
    b = np.random.default_rng(seed).standard_normal((n, n))
    return b + b.T


class TestSymmetryGate:
    """The gate sums its norms over row panels; every panel must count."""

    def test_rejects_skew_only_in_the_last_partial_panel(self):
        a = symmetric_over_panels(31)
        a[-1, -2] += 1e-8 * np.linalg.norm(a)
        with pytest.raises(SymmetryError, match="matrix is not symmetric"):
            sp.sym_eigenvalues(a)

    def test_rejects_skew_only_across_a_panel_boundary(self):
        a = symmetric_over_panels(32)
        edge = ops._PANEL_ROWS
        a[edge - 1, edge] += 1e-8 * np.linalg.norm(a)
        with pytest.raises(SymmetryError, match="matrix is not symmetric"):
            sp.sym_eigenvalues(a)

    def test_exactly_symmetric_input_goes_to_eigvalsh_unchanged(self):
        a = symmetric_over_panels(33)
        a.setflags(write=False)
        np.testing.assert_array_equal(sp.sym_eigenvalues(a), np.linalg.eigvalsh(a))

    def test_small_skew_is_averaged_away(self):
        a = symmetric_over_panels(34)
        skew = np.random.default_rng(35).standard_normal(a.shape)
        a += 1e-13 * np.linalg.norm(a) / np.linalg.norm(skew) * skew
        assert not np.array_equal(a, a.T)
        np.testing.assert_array_equal(sp.sym_eigenvalues(a), np.linalg.eigvalsh((a + a.T) / 2.0))


class TestSingularValues:
    def test_permutation_has_unit_spectrum(self):
        np.testing.assert_allclose(sp.singular_values(flip_matrix((6,))),
                                   np.ones(6), atol=1e-13)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(sp.singular_values(np.zeros((4, 4))), np.zeros(4))

    def test_descending_and_matches_svd(self):
        h = ops.assemble_hankel(sym.Symbol(1, None, {(1,): 1.0}), (8,))
        got = sp.singular_values(h)
        assert np.all(np.diff(got) <= 1e-14)
        assert int(np.sum(got > 0.1)) == 2
        np.testing.assert_allclose(got, np.linalg.svd(h, compute_uv=False), atol=1e-12)


    def test_ill_conditioned_matrix(self):
        # condition number 1e10, eigenvalues of both signs: a Gram-matrix route squares
        # it past 1/eps
        rng = np.random.default_rng(53)
        u, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        want = np.logspace(0, -10, 20)
        got = sp.singular_values(u @ np.diag(want * (-1.0) ** np.arange(20)) @ u.T)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("solve,a,error", [
    (sp.sym_eigenvalues, np.broadcast_to(0.0, (20001, 20001)), CapacityError),
    (sp.singular_values, np.broadcast_to(0.0, (20001, 20001)), CapacityError),
    (sp.singular_values, np.broadcast_to(0.0, (20001, 3)), ShapeError),
    (sp.singular_values, np.triu(np.ones((4, 4))), SymmetryError),
], ids=["eigenvalues", "singular_values", "singular_values_tall", "singular_values_nonsymmetric"])
def test_dense_cap_is_checked_before_the_solve(monkeypatch, solve, a, error):
    # a zero-stride view allocates nothing; the solvers are stubbed so that a missing
    # guard fails here instead of allocating a 3.2 GB copy.  The singular values take
    # the eigensolver's gate: a tall or non-symmetric matrix is refused before any solve
    def reached(*args, **kwargs):
        raise AssertionError("the dense solver was reached past the cap")

    monkeypatch.setattr(np.linalg, "eigvalsh", reached)
    monkeypatch.setattr(np.linalg, "svd", reached)
    with pytest.raises(error, match="20001 > 20000" if error is CapacityError else None):
        solve(a)


class TestGrids:
    def test_gamma_small_case(self):
        g = sp.build_gamma((4, 3))
        assert g.shape == (6, 2)
        np.testing.assert_allclose(sorted(set(g[:, 0])), [0.0, np.pi])
        np.testing.assert_allclose(sorted(set(g[:, 1])), [0.0, np.pi / 2, np.pi])

    def test_gamma_count_and_range(self):
        g = sp.build_gamma((10, 10))
        assert g.shape == (50, 2)
        assert g[-1, 0] == pytest.approx(np.pi)
        assert g.min() == 0.0

    def test_gamma_needs_enough_points(self):
        with pytest.raises(ParameterError):
            sp.build_gamma((3, 10))
        with pytest.raises(ParameterError):
            sp.build_gamma((10, 1))

    def test_delta_full_lattice(self):
        g = sp.build_delta((5, 4))
        assert g.shape == (20, 2)
        assert g[0, 0] == pytest.approx(-np.pi)
        assert g[-1, 1] == pytest.approx(np.pi)

    def test_delta_two_level_only(self):
        with pytest.raises(ParameterError):
            sp.build_delta((5, 4, 3))


class TestLambdaSet:
    def test_constant_symbol_gives_plus_minus_one(self):
        grid = sp.build_gamma((10, 10))
        lam = sp.build_lambda(sym.constant_symbol(1.0, 2), None, grid)
        assert len(lam) == 100
        assert np.all(lam.values[:50] == -1.0) and np.all(lam.values[50:] == 1.0)
        assert np.all(lam.branch[:50] == 1) and np.all(lam.branch[50:] == 2)

    def test_branches_come_in_opposite_pairs(self):
        lam = sp.build_lambda(sym.ex1_symbol(), None, sp.build_gamma((10, 10)))
        assert lam.values.min() == pytest.approx(-6.0)
        assert lam.values.max() == pytest.approx(6.0)
        np.testing.assert_allclose(np.sort(-lam.values), np.sort(lam.values), atol=1e-12)

    def test_sorted_with_deterministic_ties(self):
        lam = sp.build_lambda(sym.constant_symbol(1.0, 1), None, sp.build_gamma((8,)))
        assert np.all(np.diff(lam.values) >= 0)
        # equal values ordered by branch, then grid index
        neg = lam.point_index[lam.branch == 1]
        np.testing.assert_array_equal(neg, np.arange(4))

    def test_weight_pole_is_reported_with_its_point(self):
        grid = sp.build_gamma((8,))
        with pytest.raises(PoleError, match="theta"):
            sp.build_lambda(sym.constant_symbol(1.0, 1), sym.laplace1d_symbol(), grid)

    def test_common_zero_of_f_and_h_is_dropped(self):
        grid = sp.build_gamma((8, 5))
        # f = 2 h, both zero at theta = 0 (grid index 0) and nowhere else
        h = sym.kron_sum_symbol([sym.laplace1d_symbol()] * 2)
        f = sym.kron_sum_symbol([sym.laplace1d_symbol()] * 2, weights=(2.0, 2.0))
        lam = sp.build_lambda(f, h, grid)
        assert lam.dropped == (0,)
        assert len(lam) == 2 * (len(grid) - 1)
        assert 0 not in lam.point_index
        np.testing.assert_allclose(np.abs(lam.values), 2.0, atol=1e-12)

    def test_pole_of_h_alone_still_raises_at_a_common_grid(self):
        # f(0) = 1 while h(0) = 0, on the same grid through theta = 0
        grid = sp.build_gamma((8, 5))
        lap = sym.kron_sum_symbol([sym.laplace1d_symbol()] * 2)
        shifted = sym.kron_sum_symbol([sym.laplace1d_symbol()] * 2, shift=1.0)
        with pytest.raises(PoleError, match=r"theta = \(0\.0, 0\.0\)"):
            sp.build_lambda(shifted, lap, grid)

    @pytest.mark.parametrize("include_shift", [True, False])
    def test_scaling_f_and_h_together_moves_nothing(self, include_shift):
        # ex2 8^2 with its toepfr weight; without the shift f and h both vanish
        # at theta = 0.  The thresholds are relative to the grid's own maximum,
        # so c f and c h give the samples and drops of f and h at every scale
        def scaled(g, c):
            return sym.Symbol(g.dims, lambda *th: c * g.evaluator(*th),
                              {k: c * t for k, t in g.pairs()})

        f = sym.fractional_symbol(1.8, 1.6, 8, 8, 8, include_shift)
        h = sym.real_part_symbol(f)
        grid = sp.build_gamma((8, 8))
        want = sp.build_lambda(f, h, grid)
        assert want.dropped == (() if include_shift else (0,))
        for c in (1e-20, 1.0, 1e20):
            lam = sp.build_lambda(scaled(f, c), scaled(h, c), grid)
            assert lam.dropped == want.dropped
            np.testing.assert_allclose(lam.values, want.values, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_complex_weight_is_rejected_at_any_scale(self, c):
        h = sym.Symbol(2, lambda *th: np.full_like(th[0], c * (1.0 + 0.1j), dtype=complex))
        with pytest.raises(PoleError, match="real"):
            sp.build_lambda(sym.ex1_symbol(), h, sp.build_gamma((8, 8)))

    def test_weight_divides_values(self):
        grid = sp.build_gamma((9, 8))
        two = sym.constant_symbol(2.0, 2)
        lam = sp.build_lambda(sym.ex1_symbol(), two, grid)
        plain = sp.build_lambda(sym.ex1_symbol(), None, grid)
        np.testing.assert_allclose(lam.values, plain.values / 2.0, atol=1e-13)


class TestMatching:
    def test_flipped_constant_matches_exactly(self):
        f = sym.constant_symbol(1.0, 2)
        eigs = sp.sym_eigenvalues(flipped_dense(f, (4, 4)))
        lam = sp.build_lambda(f, None, sp.build_gamma((4, 4)))
        rep = sp.match_eigenvalues(eigs, lam)
        assert len(rep.eigenvalues) == 16
        assert rep.max_distance == 0.0

    def test_mean_distance_shrinks_with_size(self):
        f = sym.ex1_symbol()
        means = []
        for n in ((6, 6), (10, 10)):
            eigs = sp.sym_eigenvalues(flipped_dense(f, n))
            lam = sp.build_lambda(f, None, sp.build_gamma(n))
            means.append(sp.match_eigenvalues(eigs, lam).mean_distance)
        assert means[1] < means[0]

    def test_tie_takes_smaller_sample(self):
        lam = sp.LambdaSet(values=np.array([-1.0, 1.0]),
                           branch=np.array([1, 2]),
                           point_index=np.array([0, 0]),
                           points=np.zeros((1, 1)))
        rep = sp.match_eigenvalues(np.array([0.0]), lam)
        assert rep.matched_value[0] == -1.0
        assert rep.distance[0] == 1.0

    def test_duplicate_sample_resolves_to_first_occurrence(self):
        lam = sp.LambdaSet(values=np.array([-1.0, 1.0, 1.0]),
                           branch=np.array([1, 1, 2]),
                           point_index=np.array([0, 1, 0]),
                           points=np.zeros((2, 1)))
        rep = sp.match_eigenvalues(np.array([1.0]), lam)
        assert rep.branch[0] == 1 and rep.point_index[0] == 1

    def test_empty_sample_set(self):
        lam = sp.LambdaSet(np.array([]), np.array([], dtype=int),
                           np.array([], dtype=int), np.zeros((0, 1)))
        with pytest.raises(ParameterError):
            sp.match_eigenvalues(np.array([0.0]), lam)


class TestDistribution:
    def test_tent_shape(self):
        fn = sp.tent(2.0, 0.5)
        assert fn(2.0) == 1.0
        assert fn(2.5) == 0.0 and fn(1.4) == 0.0
        assert fn(2.25) == pytest.approx(0.5)
        assert fn.label == "tent(2,0.5)"
        with pytest.raises(ParameterError):
            sp.tent(0.0, 0.0)

    def test_identity_testfn_reduces_to_trace(self):
        # mean of the spectrum is trace/d_n and the limit integral of an odd
        # integrand vanishes, so the discrepancy must equal |trace|/d_n
        f = sym.ex1_symbol()
        ya = flipped_dense(f, (5, 5))
        eigs = sp.sym_eigenvalues(ya)
        identity = lambda x: x
        identity.label = "id"
        rows = sp.distribution_discrepancy(eigs, f, None, [identity])
        want = abs(np.trace(ya)) / 25.0
        assert want == pytest.approx(0.16)
        assert rows[0].discrepancy == pytest.approx(want, abs=1e-12)
        assert rows[0].integral == 0.0

    def test_quadrature_resolution_by_level_count(self):
        eigs = np.array([0.0, 1.0])
        r2 = sp.distribution_discrepancy(eigs, sym.ex1_symbol(), None, [sp.tent(0, 1)])
        assert r2[0].quadrature_points == 128
        f3 = sym.convection_diffusion_symbol(5, 5, 5)
        r3 = sp.distribution_discrepancy(eigs, f3, None, [sp.tent(0, 1)])
        assert r3[0].quadrature_points == 48

    def test_labels_from_functions_and_pairs(self):
        eigs = np.array([0.5])
        rows = sp.distribution_discrepancy(eigs, sym.constant_symbol(1.0, 1), None,
                                           [sp.tent(0, 1), np.sin])
        assert [r.label for r in rows] == ["tent(0,1)", "F1"]

    def test_empty_spectrum(self):
        with pytest.raises(ParameterError):
            sp.distribution_discrepancy(np.array([]), sym.ex1_symbol(), None,
                                        [sp.tent(0, 1)])

    def test_weight_pole_is_reported_with_its_point(self):
        # the lattice holds theta = -pi, where 1 + cos theta vanishes
        one_plus_cos = sym.Symbol(1, None, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})
        with pytest.raises(PoleError, match=r"theta = \("):
            sp.distribution_discrepancy(np.array([0.5]), sym.constant_symbol(1.0, 1),
                                        one_plus_cos, [sp.tent(0, 1)])

    def test_complex_weight_is_rejected(self):
        twist = sym.Symbol(1, None, {(0,): 2.0, (1,): 1.0})
        with pytest.raises(PoleError, match="real"):
            sp.distribution_discrepancy(np.array([0.5]), sym.constant_symbol(1.0, 1),
                                        twist, [sp.tent(0, 1)])


class TestZeroDistributionVerdict:
    def test_hankel_family_passes(self):
        f = sym.Symbol(1, None, {(1,): 1.0})
        mats = [ops.assemble_hankel(f, (n,)) for n in (8, 16, 32)]
        out = sp.zero_distribution_verdict(mats)
        np.testing.assert_allclose(out["fractions"], [2 / 8, 2 / 16, 2 / 32])
        assert out["pass"]

    def test_zero_matrices_pass(self):
        out = sp.zero_distribution_verdict([np.zeros((4, 4)), np.zeros((8, 8))])
        assert out["pass"] and out["fractions"] == [0.0, 0.0]

    def test_full_rank_family_fails(self):
        out = sp.zero_distribution_verdict([np.eye(4), np.eye(8)])
        assert not out["pass"]

    def test_needs_two_sizes(self):
        with pytest.raises(ParameterError):
            sp.zero_distribution_verdict([np.eye(4)])


@pytest.mark.parametrize("call", [
    lambda: sp.odd_embedding_check({(0,): 1.0}, 3),
    lambda: sp.odd_embedding_check(sym.laplace1d_symbol(), 3.5),
    lambda: sp.zero_distribution_verdict([np.zeros((0, 0))] * 2),
    lambda: sp.distribution_discrepancy(np.array([0.5]), {(0,): 1.0}, None, [sp.tent(0, 1)]),
], ids=["odd_embedding_not_a_symbol", "odd_embedding_fractional_size", "verdict_empty_matrix",
        "discrepancy_not_a_symbol"])
def test_structure_and_distribution_checks_refuse_bad_input(call):
    with pytest.raises(ParameterError):
        call()


class TestOddEmbedding:
    def test_constant_term(self):
        r = sp.odd_embedding_check(sym.constant_symbol(1.0, 1), 3)
        assert r.exact and r.term_deviation == {0: 0.0}
        assert r.correction_sigma_max == pytest.approx(1.0)
        assert r.correction_tail == 0.0

    @pytest.mark.parametrize("k,n", [(1, 5), (2, 7), (-1, 9)])
    def test_monomials_embed_exactly(self, k, n):
        r = sp.odd_embedding_check(sym.Symbol(1, None, {(k,): 1.0}), n)
        assert r.term_deviation == {k: 0.0}
        assert r.correction_tail == 0.0

    def test_banded_symbol(self):
        r = sp.odd_embedding_check(sym.laplace1d_symbol(), 9)
        assert r.exact
        assert 0.0 < r.correction_rank_fraction < 1.0

    @pytest.mark.parametrize("m", range(6))
    def test_monomial_blocks_are_the_assembled_matrices(self, m):
        # the check's gathers of e^{+-ik theta} bit for bit against their closed forms: the
        # Hankel matrices (entry 1 where i + j = +-k) and Toeplitz matrices (i - j = +-k) at
        # size m + 1, and Y T at the odd size n = 2m + 1, every |k| <= 2m + 2, so out of
        # every band too: an offset error shared by both sides of the check shows here
        size, n = m + 1, 2 * m + 1
        for k in range(-2 * m - 2, 2 * m + 3):
            plus, minus = sym.Symbol(1, None, {(k,): 1.0}), sym.Symbol(1, None, {(-k,): 1.0})
            pairs = [(ops.assemble_hankel(plus, (size,)), np.eye(size, k=k - size + 1)[::-1]),
                     (ops.flipped_dense(plus, (size,))[::-1], np.eye(size, k=-k)),
                     (ops.flipped_dense(minus, (size,))[::-1], np.eye(size, k=k)),
                     (ops.assemble_hankel(minus, (size,)), np.eye(size, k=-k - size + 1)[::-1]),
                     (ops.flipped_dense(plus, (n,)), np.eye(n, k=-k)[::-1])]
            for got, ref in pairs:
                assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_rejects_even_size(self):
        with pytest.raises(EvenSizeError):
            sp.odd_embedding_check(sym.laplace1d_symbol(), 8)

    def test_one_level_only(self):
        with pytest.raises(ParameterError):
            sp.odd_embedding_check(sym.ex1_symbol(), 5)


class TestFiniteSizeFacts:
    """Facts exact at every n, on every dense spectrum path shipped.

    S = T_n(f_R) is SPD for every shipped symbol, and with K = T_n(f) - S,
    Y S Y = S and Y K Y = -K.  In an orthonormal basis of Y's +-1
    eigenspaces Y T is [[S+, C], [C^T, -S-]] with S+ and S- SPD, a
    quasi-definite matrix.  Inertia: Y T has exactly ceil(d_n/2) positive
    and floor(d_n/2) negative eigenvalues, and so has every preconditioned
    W, congruent to Y T for SPD P (Sylvester).  Gap: for P = S every
    |lambda(W)| >= 1, so by Ostrowski min |lambda(Y T)| >= lambda_min(S).
    Inclusion: for P = T_n(h), h > 0, every |lambda(W)| lies in
    [ess inf f_R / h, ess sup |f| / h].
    """

    # the exchange-block split (ex1 20^2), Y T gathered whole, the half-size
    # toepfr split and W assembled from the levels
    CASES = [("ex1", (20, 20), "none"), ("ex1", (21, 20), "none"),
             ("ex2", (17, 23), "none"), ("ex2", (17, 23), "toepfr"), ("ex2", (17, 23), "p2beta"),
             ("ex2", (20, 20), "p22"), ("ex3", (7, 8, 9), "none"), ("ex3", (7, 8, 9), "circsum"),
             ("ex3", (7, 7, 7), "toepfr"), ("custom", (301,), "none"), ("custom", (301,), "toepfr")]

    @staticmethod
    def spectrum(exp, sizes, precond):
        cfg = ExperimentConfig(exp=exp, sizes=sizes, precond=precond)
        f = experiment_symbol(cfg, sizes)
        p, _ = build_preconditioner(cfg, f, sizes)
        return f, _flipped_spectrum(f, sizes) if p is None else preconditioned_spectrum(p, f)

    @pytest.mark.parametrize("exp,sizes,precond", CASES)
    def test_inertia(self, exp, sizes, precond):
        _, eigs = self.spectrum(exp, sizes, precond)
        d_n = int(np.prod(sizes))
        assert eigs.size == d_n
        assert np.count_nonzero(eigs > 0) == (d_n + 1) // 2
        assert np.count_nonzero(eigs < 0) == d_n // 2

    @pytest.mark.parametrize("exp,sizes", [c[:2] for c in CASES if c[2] == "none"])
    def test_gap(self, exp, sizes):
        # two eigensolves, each within d_n eps ||.|| (backward error, p(n) = n),
        # and ||S|| <= ||T|| = max |lambda(Y T)|: the slack is 2 d_n eps max |lambda|
        f, eigs = self.spectrum(exp, sizes, "none")
        s = kron_toeplitz_dense(dict(sym.real_part_symbol(f).pairs()), sizes)
        floor = np.linalg.eigvalsh(s)[0]
        slack = 2 * eigs.size * np.finfo(float).eps * np.abs(eigs).max()
        assert floor > 0.0
        assert np.abs(eigs).min() >= floor - slack

    @staticmethod
    def on_grid(g, m):
        # the separable g summed from its level vectors on the periodic grid
        # theta_l = -pi + 2 pi j / m, and its Lipschitz margin: every theta lies
        # within pi / m of a grid point on each level and |dg / dtheta_l| <=
        # sum_k |k_l| |t_k|, so g moves by at most sum_l (sum_k |k_l| |t_k|) pi / m
        theta = -np.pi + 2.0 * np.pi * np.arange(m) / m
        values, margin = [], 0.0
        for v in g.levels():
            k = np.arange(v.size) - v.size // 2
            values.append(np.exp(1j * np.outer(theta, k)) @ v)
            margin += np.abs(k) @ np.abs(v) * np.pi / m
        return functools.reduce(np.add.outer, values), margin

    @pytest.mark.parametrize("sizes,precond", [
        ((17, 23), "toepfr"), ((30, 30), "toepfr"), ((40, 20), "toepfr"), ((17, 23), "p22"),
        ((17, 23), "p2beta"), ((30, 30), "p22"), ((40, 20), "p2beta")])
    def test_inclusion(self, sizes, precond):
        """ess inf f_R / h <= |lambda(W)| <= ess sup |f| / h for ex2 and P = T_n(h).

        Y commutes with P, so the |lambda(W)| are the singular values of
        P^-1/2 T P^-1/2.  Upper end: |y^T T x| <= sup (|f| / h) ||x||_P ||y||_P
        (Cauchy-Schwarz on the symbol integral); lower end: T = T(f_R) + K with K
        skew, so ||P^-1/2 T x|| ||x||_P >= x^T T(f_R) x >= inf (f_R / h) ||x||_P^2.

        f and h are the trigonometric polynomials of the tables T_n and P read,
        both ends certified on a 1024^2 grid: with m_f, m_h the margins of
        ``on_grid`` and h - m_h > 0, f_R - m_f >= 0 at every grid point,
        inf f_R / h >= min (f_R - m_f) / (h + m_h) and sup |f| / h <=
        max (|f| + m_f) / (h - m_h).  eigvalsh returns the eigenvalues of W + E
        with ||E|| <= d_n eps ||W|| (p(n) = n, as for the gap) and the assembly
        of W rounds to that order again: the slack is 2 d_n eps max |lambda|.
        """
        cfg = ExperimentConfig(exp="ex2", sizes=sizes, precond=precond)
        f = experiment_symbol(cfg, sizes)
        p, h = build_preconditioner(cfg, f, sizes)
        eigs = np.abs(preconditioned_spectrum(p, f))
        for g in (f, h):  # T_n(g) reads every stored t_k
            assert all(q < nl for q, nl in zip(g.band, sizes))
        fv, mf = self.on_grid(f, 1024)
        hv, mh = self.on_grid(h, 1024)
        hv = hv.real  # h is even: its imaginary part is rounding
        assert (hv - mh).min() > 0.0 and (fv.real - mf).min() >= 0.0
        low = ((fv.real - mf) / (hv + mh)).min()
        high = ((np.abs(fv) + mf) / (hv - mh)).max()
        slack = 2 * eigs.size * np.finfo(float).eps * eigs.max()
        assert eigs.min() >= low - slack
        assert eigs.max() <= high + slack
