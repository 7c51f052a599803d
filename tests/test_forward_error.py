"""Forward error of MINRES solves against direct solves built from closed forms.

A solve stops on a residual computed with the ``ToeplitzOperator.matvec`` it
solves with, so a wrong table entry or kernel that MINRES solves consistently
still passes its own stopping rule.  Each test here compares the solution
with a direct solve that shares no code with the package (the oracles in
``conftest``) and bounds the relative forward error by

    ||x - x*|| / ||x*|| <= kappa_2(T) ||b - T x|| / ||b||,

with the solver's reported final residual on the right.  kappa comes from
the oracle's closed forms (ex3) or from Hager-Higham estimates made with
oracle solves (ex2), never from a fitted number.
"""

import numpy as np
import pytest

from flipspec import experiments as ex
from flipspec.krylov import flipped_solve

from conftest import (convection_diffusion_oracle, convection_diffusion_stencil,
                      fractional_oracle, grunwald_closed_form, kron_toeplitz_dense)


def relative(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


def table_solve(exp, sizes, precond):
    """The solve behind one row of the experiment's table."""
    cfg = ex.ExperimentConfig(exp=exp, sizes=sizes, precond=precond)
    f = ex.experiment_symbol(cfg, sizes)
    p, _ = ex.build_preconditioner(cfg, f, sizes)
    b = ex.rhs_vector(cfg, sizes)
    return b, flipped_solve(f, sizes, b, p)


def test_convection_diffusion_oracle_matches_a_dense_solve():
    sizes = (4, 5, 6)
    t = kron_toeplitz_dense(convection_diffusion_stencil(sizes), sizes)
    b = np.random.default_rng(0).standard_normal(t.shape[0])
    solve, kappa = convection_diffusion_oracle(sizes)
    assert relative(solve(b), np.linalg.solve(t, b)) < 1e-12
    assert np.linalg.cond(t) <= kappa


def test_fractional_oracle_matches_a_dense_solve():
    alpha, beta, sizes, m = 1.8, 1.6, (8, 6), 8
    hx, hy = 1.0 / 9, 1.0 / 7
    table = {(k, 0): grunwald_closed_form(alpha, k) for k in range(-1, 8)}
    table.update({(0, k): hx**alpha / hy**beta * grunwald_closed_form(beta, k)
                  for k in range(-1, 6) if k})
    table[0, 0] += hx**alpha / hy**beta * grunwald_closed_form(beta, 0) + 2.0 * hx**alpha * m
    t = kron_toeplitz_dense(table, sizes)
    b = np.random.default_rng(0).standard_normal(t.shape[0])
    solve, kappa = fractional_oracle(alpha, beta, sizes, m)
    assert relative(solve(b), np.linalg.solve(t, b)) < 1e-12
    assert relative(solve(b, transposed=True), np.linalg.solve(t.T, b)) < 1e-12
    assert np.linalg.cond(t) <= kappa


@pytest.mark.parametrize("sizes, precond", [((10,) * 3, "toepfr"), ((10,) * 3, "circsum"),
                                            ((20,) * 3, "toepfr"), ((20,) * 3, "circsum"),
                                            ((64,) * 3, "toepfr")])
def test_convection_diffusion_forward_error(sizes, precond):
    b, r = table_solve("ex3", sizes, precond)
    solve, kappa = convection_diffusion_oracle(sizes)
    assert r.converged
    assert relative(r.solution, solve(b)) <= kappa * r.meta["final_relres"]


@pytest.fixture(scope="module")
def fractional_exact():
    """(x*, kappa) for the ex2 256^2 table right-hand side, shared by the preconditioners."""
    sizes = (256, 256)
    cfg = ex.ExperimentConfig(exp="ex2", sizes=sizes)
    solve, kappa = fractional_oracle(cfg.alpha, cfg.beta, sizes, cfg.resolved_m(sizes))
    return solve(ex.rhs_vector(cfg, sizes)), kappa


@pytest.mark.parametrize("precond", ["toepfr", "p22", "p2beta"])
def test_fractional_forward_error(fractional_exact, precond):
    _, r = table_solve("ex2", (256, 256), precond)
    exact, kappa = fractional_exact
    assert r.converged
    assert relative(r.solution, exact) <= kappa * r.meta["final_relres"]
