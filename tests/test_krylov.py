"""MINRES behavior: counts, stopping rule, guards, the flipped front end."""

import numpy as np
import pytest

from flipspec import krylov as kv
from flipspec import operators as ops
from flipspec import precond as pc
from flipspec import symbols as sym
from flipspec.errors import (NotSPDError, OperatorError, ParameterError,
                             ShapeError, SymmetryError)


def flip_dense(n):
    return np.eye(int(np.prod(n)))[ops.flip_map(n)]


class TestSolveConfig:
    def test_defaults(self):
        cfg = kv.SolveConfig()
        assert cfg.rel_tolerance == 1e-8
        assert cfg.max_iterations is None

    @pytest.mark.parametrize("tol", [0.0, 1.0, -0.5, 2.0])
    def test_tolerance_domain(self, tol):
        with pytest.raises(ParameterError):
            kv.SolveConfig(rel_tolerance=tol)

    def test_iteration_cap_domain(self):
        with pytest.raises(ParameterError):
            kv.SolveConfig(max_iterations=0)


class TestMinres:
    def test_identity_converges_in_one_step(self):
        b = np.arange(1.0, 7.0)
        r = kv.minres(lambda x: x, None, b)
        assert r.converged and r.iterations == 1
        np.testing.assert_allclose(r.solution, b, atol=1e-12)

    def test_two_eigenvalues_need_two_steps(self):
        y = flip_dense((4,))
        b = np.array([1.0, 2.0, -1.0, 0.5])
        r = kv.minres(lambda x: y @ x, None, b)
        assert r.converged and r.iterations == 2
        np.testing.assert_allclose(r.solution, y @ b, atol=1e-10)

    def test_exact_preconditioner_gives_flat_count(self):
        rng = np.random.default_rng(50)
        a = rng.standard_normal((12, 12))
        a = a @ a.T + 12.0 * np.eye(12)
        b = rng.standard_normal(12)
        r = kv.minres(lambda x: a @ x, lambda s: np.linalg.solve(a, s), b)
        assert r.converged and r.iterations <= 2

    def test_zero_rhs(self):
        r = kv.minres(lambda x: x, None, np.zeros(5))
        assert r.converged and r.iterations == 0
        np.testing.assert_array_equal(r.solution, np.zeros(5))

    def test_history_starts_at_one_and_ends_below_tol(self):
        y = flip_dense((6,))
        b = np.arange(1.0, 7.0)
        r = kv.minres(lambda x: y @ x, None, b)
        assert r.residual_history[0] == 1.0
        assert r.residual_history[-1] < r.config.rel_tolerance
        assert len(r.residual_history) == r.iterations + 1

    def test_iteration_cap_reports_unconverged(self):
        f = sym.Symbol(1, None, {(0,): 1.0, (1,): 0.25, (-1,): 0.25})
        r = kv.flipped_solve(f, (64,), np.ones(64),
                             cfg=kv.SolveConfig(max_iterations=2))
        assert not r.converged and r.iterations == 2

    def test_symmetry_probe(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(OperatorError, match="symmetry probe"):
            kv.minres(lambda x: a @ x, None, np.ones(2))

    def test_negative_preconditioner_is_rejected(self):
        with pytest.raises(NotSPDError):
            kv.minres(lambda x: x, lambda r: -r, np.ones(4))

    @pytest.mark.parametrize("apply_a, apply_pinv, error", [
        (lambda x: np.full_like(x, np.nan), None, OperatorError),
        (lambda x: x, lambda r: 0 * r, NotSPDError),
        (lambda x: x, lambda r: np.full_like(r, np.nan), NotSPDError),
    ], ids=["nan_operator", "zero_preconditioner", "nan_preconditioner"])
    def test_nan_or_zero_stops_before_the_first_iteration(self, apply_a, apply_pinv, error):
        # unchecked, each would run to the 10 d_n cap and return a NaN solution
        with pytest.raises(error):
            kv.minres(apply_a, apply_pinv, np.ones(4))

    @pytest.mark.parametrize("which", ["operator", "preconditioner"])
    def test_nan_inside_the_loop_is_raised(self, which):
        # finite until the first iteration's residual product (call 8, after
        # the six probe products and the Lanczos one) or its second apply
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        calls = []

        def nan_after(v, finite_calls):
            calls.append(None)
            return v if len(calls) <= finite_calls else np.full_like(v, np.nan)

        if which == "operator":
            with pytest.raises(OperatorError, match="relative residual"):
                kv.minres(lambda x: nan_after(a @ x, 7), None, np.ones(4))
        else:
            with pytest.raises(NotSPDError):
                kv.minres(lambda x: a @ x, lambda r: nan_after(r, 1), np.ones(4))

    def test_rhs_must_be_a_vector(self):
        with pytest.raises(ShapeError):
            kv.minres(lambda x: x, None, np.ones((2, 2)))
        # and a real one: a complex b is not cut to its real part
        with pytest.raises(ShapeError, match="complex"):
            kv.minres(lambda x: x, None, np.ones(4) + 1j * np.ones(4))

    def test_preconditioner_object_protocol(self):
        p = pc.build_circulant_kron_sum(sym.laplace1d_symbol(), (8,))
        f = sym.Symbol(1, None, {(0,): 2.5, (1,): -1.0, (-1,): -1.0})
        op = ops.ToeplitzOperator.from_symbol(f, (8,))
        b = np.ones(8)
        r = kv.minres(op.matvec, p.apply_inverse, b)
        assert r.converged
        np.testing.assert_allclose(op.matvec(r.solution), b, atol=1e-7)

    def test_rejects_unusable_preconditioner(self):
        with pytest.raises(ParameterError):
            kv.minres(lambda x: x, 3.5, np.ones(2))
        # P^-1 is a callable: the preconditioner object itself is refused
        p = pc.build_circulant_kron_sum(sym.laplace1d_symbol(), (2,))
        with pytest.raises(ParameterError):
            kv.minres(lambda x: x, p, np.ones(2))

def read_only(fn):
    """fn with its output copied and made read-only."""
    def wrapped(x):
        out = np.array(fn(x))
        out.setflags(write=False)
        return out
    return wrapped


class TestBuffers:
    def test_minres_writes_only_into_its_own_buffers(self):
        # a write into b or into an operator or preconditioner output raises
        rng = np.random.default_rng(52)
        a = rng.standard_normal((30, 30))
        a = a + a.T
        d = 1.0 + rng.random(30)
        b = rng.standard_normal(30)
        b.setflags(write=False)
        before = b.copy()
        first, second = (kv.minres(read_only(lambda x: a @ x), read_only(lambda r: r / d), b)
                         for _ in range(2))
        assert first.converged
        np.testing.assert_array_equal(b, before)
        np.testing.assert_array_equal(first.solution, second.solution)
        assert not np.shares_memory(first.solution, second.solution)

    def test_identity_preconditioner_returns_the_solver_buffer(self):
        # apply_pinv = None hands back r2 itself; the rotation must not clobber it early
        rng = np.random.default_rng(53)
        a = np.diag(np.linspace(-2.0, 3.0, 25)) + 0.1
        b = rng.standard_normal(25)
        r = kv.minres(lambda x: a @ x, None, b)
        want = kv.minres(lambda x: a @ x, lambda s: np.array(s), b)
        assert r.converged and r.iterations == want.iterations
        np.testing.assert_array_equal(r.solution, want.solution)

    def test_flipped_solve_reads_a_read_only_rhs(self):
        f = sym.convection_diffusion_symbol(5, 5, 5)
        p = pc.build_circulant_kron_sum(f, (5, 5, 5))
        b = np.linspace(1.0, 2.0, 125)
        writable = kv.flipped_solve(f, (5, 5, 5), b, preconditioner=p)
        b.setflags(write=False)
        frozen = kv.flipped_solve(f, (5, 5, 5), b, preconditioner=p)
        np.testing.assert_array_equal(b, np.linspace(1.0, 2.0, 125))
        assert frozen.iterations == writable.iterations
        np.testing.assert_array_equal(frozen.solution, writable.solution)


class TestStoppingRule:
    def test_count_is_invariant_under_rhs_scaling(self):
        f = sym.Symbol(1, None, {(0,): 1.0, (1,): 0.25, (-1,): 0.25})
        a = kv.flipped_solve(f, (64,), np.ones(64))
        b = kv.flipped_solve(f, (64,), 1000.0 * np.ones(64))
        assert a.converged and b.converged
        assert a.iterations == b.iterations == 13

    def test_converged_means_true_residual_below_tolerance(self):
        f = sym.Symbol(1, None, {(0,): 1.0, (1,): 0.25, (-1,): 0.25})
        n = (64,)
        b = np.ones(64)
        r = kv.flipped_solve(f, n, b)
        assert r.converged
        op = ops.ToeplitzOperator.from_symbol(f, n)
        lhs = ops.flip_apply(n, op.matvec(r.solution))
        relres = np.linalg.norm(ops.flip_apply(n, b) - lhs) / np.linalg.norm(b)
        assert relres < r.config.rel_tolerance


class TestFlippedSolve:
    def test_constant_symbol_flip_symmetric_rhs(self):
        r = kv.flipped_solve(sym.constant_symbol(1.0, 1), (8,), np.ones(8))
        assert r.converged and r.iterations == 1
        np.testing.assert_allclose(r.solution, np.ones(8), atol=1e-10)

    def test_solves_the_original_system(self):
        f = sym.ex1_symbol()
        n = (6, 6)
        rng = np.random.default_rng(51)
        b = rng.standard_normal(36)
        r = kv.flipped_solve(f, n, b)
        assert r.converged
        op = ops.ToeplitzOperator.from_symbol(f, n)
        err = np.linalg.norm(op.matvec(r.solution) - b) / np.linalg.norm(b)
        assert err <= 10.0 * r.config.rel_tolerance

    def test_fractional_system_with_symmetric_part_preconditioner(self):
        f = sym.fractional_symbol(1.8, 1.6, 10, 10, 10)
        p = pc.build_toepfr(f, (10, 10))
        hx = 1.0 / 11.0
        b = 2.0 * hx**1.8 * 10 * np.ones(100)
        r = kv.flipped_solve(f, (10, 10), b, preconditioner=p)
        assert r.converged and r.iterations == 12
        assert r.meta["preconditioner"] == "ToeplitzPreconditioner"

    def test_symmetry_probe_is_relative_to_the_operator_scale(self):
        # exactly symmetric, but |<Ax,y> - <x,Ay>| rounds to about 1e-8
        f = sym.Symbol(1, None, {(0,): 4e8, (1,): -1e8, (-1,): -1e8})
        r = kv.flipped_solve(f, (400,), np.ones(400))
        assert r.converged

    def test_complex_coefficients_are_rejected(self):
        with pytest.raises(SymmetryError):
            kv.flipped_solve(sym.Symbol(1, None, {(0,): 1.0, (1,): 1.0j}), (4,), np.ones(4))

    def test_complex_rhs_is_refused(self):
        # refused, not solved for its real part alone
        ones = np.ones(16)
        with pytest.raises(ShapeError, match="complex"):
            kv.flipped_solve(sym.ex1_symbol(), (4, 4), ones + 1j * ones)

    def test_rhs_length_check(self):
        with pytest.raises(ShapeError):
            kv.flipped_solve(sym.constant_symbol(1.0, 1), (4,), np.ones(5))

    def test_empty_symbol(self):
        with pytest.raises(ParameterError):
            kv.flipped_solve(sym.Symbol(1, None, {}), (4,), np.ones(4))

    def test_counters_in_meta(self):
        f = sym.convection_diffusion_symbol(5, 5, 5)
        p = pc.build_circulant_kron_sum(f, (5, 5, 5))
        r = kv.flipped_solve(f, (5, 5, 5), np.ones(125), preconditioner=p)
        assert r.converged and r.iterations == 61
        assert r.meta["matvecs"] == 2 * r.iterations + 6
        assert r.meta["preconditioner_applies"] == r.iterations + 1
        assert r.meta["matvec_s"] > 0.0
        assert 0.0 < r.meta["apply_s"] <= r.wall_time

    def test_meta_provenance(self):
        r = kv.flipped_solve(sym.ex1_symbol(), (4, 4), np.ones(16))
        assert r.meta["symbol"] == "ex1"
        assert r.meta["n"] == (4, 4)
        assert r.meta["preconditioner"] == "none"
