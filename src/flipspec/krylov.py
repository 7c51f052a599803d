"""Preconditioned MINRES for the flip-symmetrized systems.

The solver runs the plain Lanczos three-term recurrence with Givens
rotations, no reorthogonalization, starting from x_0 = 0.  Stopping is
gated on the true unpreconditioned relative residual ||b - A x_k|| / ||b||,
recomputed from the iterate every step; the recurred quantity phibar (the
preconditioned residual norm estimate) is recorded alongside for
monotonicity diagnostics but never decides termination.  That rule is what
makes iteration counts comparable across preconditioners.

Contents
--------
SolveConfig      tolerance, iteration cap, history switch
SolveResult      solution, counts, histories, wall time, provenance
minres           operator-level solver
flipped_solve    Y T(f) x = Y b from a symbol, FFT matvec
write_residuals_csv
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSPDError, OperatorError, ParameterError, ShapeError, SymmetryError
from .symbols import Symbol, as_sizes, total_dim
from .operators import ToeplitzOperator, flip_apply

__all__ = [
    "SolveConfig",
    "SolveResult",
    "minres",
    "flipped_solve",
    "write_residuals_csv",
]

_BREAKDOWN = 1e-14


@dataclass(frozen=True)
class SolveConfig:
    """Stopping rule: relative residual below rel_tolerance.

    max_iterations defaults to 10 * d_n when left at None.
    """
    rel_tolerance: float = 1e-8
    max_iterations: int | None = None
    record_residuals: bool = True

    def __post_init__(self):
        if not (0.0 < self.rel_tolerance < 1.0):
            raise ParameterError(f"rel_tolerance must lie in (0, 1), got {self.rel_tolerance}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")


@dataclass
class SolveResult:
    solution: np.ndarray
    iterations: int
    residual_history: list
    converged: bool
    wall_time: float
    precond_history: list = field(default_factory=list)
    config: SolveConfig = None
    meta: dict = field(default_factory=dict)


def _as_applier(p):
    if p is None:
        return lambda r: r
    if callable(p):
        return p
    if hasattr(p, "apply_inverse"):
        return p.apply_inverse
    raise ParameterError(f"cannot use {type(p).__name__} as a preconditioner")


def _probe_symmetry(apply_a, dim: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        ax, ay = apply_a(x), apply_a(y)
        gap = abs(np.dot(ax, y) - np.dot(x, ay))
        scale = np.linalg.norm(ax) + np.linalg.norm(ay)
        if gap > 1e-8 * scale:
            raise OperatorError(f"operator fails the symmetry probe: |<Ax,y> - <x,Ay>| = "
                                f"{gap:.3e}, ||Ax|| + ||Ay|| = {scale:.3e}")


def minres(apply_a, apply_pinv, b, cfg: SolveConfig = None, seed: int = 0) -> SolveResult:
    """Preconditioned MINRES on a symmetric operator.

    ``apply_a`` is a callable on vectors; ``apply_pinv`` is a callable, an
    object with apply_inverse, or None for the identity.  The operator is
    probed for symmetry on three seeded random unit pairs x, y before the
    iteration starts: |<Ax, y> - <x, Ay>| must stay within
    1e-8 (||Ax|| + ||Ay||), a gap relative to the operator's scale.
    Breakdown of the Lanczos recurrence counts as convergence only if the
    recomputed residual passes the rule.
    """
    cfg = cfg or SolveConfig()
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ShapeError(f"right-hand side must be a vector, got shape {b.shape}")
    dim = b.size
    pinv = _as_applier(apply_pinv)
    _probe_symmetry(apply_a, dim, seed)
    maxit = cfg.max_iterations if cfg.max_iterations is not None else 10 * dim

    start = time.perf_counter()
    bnorm = np.linalg.norm(b)
    x = np.zeros(dim)
    history = [1.0] if cfg.record_residuals else []
    phist = []
    if bnorm == 0.0:
        return SolveResult(x, 0, history, True, time.perf_counter() - start,
                           phist, cfg, {"note": "zero right-hand side"})

    r1 = b.copy()
    y = np.asarray(pinv(r1), dtype=float)
    beta1sq = float(np.dot(r1, y))
    if beta1sq < 0.0:
        raise NotSPDError(f"preconditioner produced <r, P^-1 r> = {beta1sq:.3e} < 0")
    beta1 = np.sqrt(beta1sq)

    oldb, beta = 0.0, beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(dim)
    w2 = np.zeros(dim)
    r2 = r1

    converged = False
    itn = 0
    relres = 1.0
    while itn < maxit:
        itn += 1
        s = 1.0 / beta
        v = s * y
        y = np.asarray(apply_a(v), dtype=float)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(np.dot(v, y))
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = np.asarray(pinv(r2), dtype=float)
        oldb = beta
        betasq = float(np.dot(r2, y))
        if betasq < 0.0:
            raise NotSPDError(f"preconditioner produced <r, P^-1 r> = {betasq:.3e} < 0")
        beta = np.sqrt(betasq)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), 1e-300)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        relres = float(np.linalg.norm(b - np.asarray(apply_a(x), dtype=float)) / bnorm)
        if cfg.record_residuals:
            history.append(relres)
        phist.append(float(phibar) / beta1)
        if relres < cfg.rel_tolerance:
            converged = True
            break
        if beta < _BREAKDOWN * bnorm:
            # lucky breakdown: the Krylov space is exhausted
            if relres < cfg.rel_tolerance:
                converged = True
                break
            raise OperatorError(f"Lanczos breakdown at iteration {itn} with relative "
                                f"residual {relres:.3e} still above tolerance")

    elapsed = time.perf_counter() - start
    return SolveResult(x, itn, history, converged, elapsed, phist, cfg,
                       {"final_relres": relres})


def flipped_solve(f: Symbol, n, b, preconditioner=None, cfg: SolveConfig = None,
                  seed: int = 0) -> SolveResult:
    """Solve Y_n T_n(f) x = Y_n b with MINRES, matrix-free.

    The symbol must have real coefficients: that is what makes Y T real
    symmetric.  The matvec goes through the FFT embedding, the flip is an
    index map, and the right-hand side is flipped to keep the solution of
    the original system T_n(f) x = b.
    """
    sizes = as_sizes(n)
    if not f.coefficients:
        raise ParameterError("flipped solve needs a symbol with coefficients")
    if not f.has_real_coefficients:
        raise SymmetryError("flipped solve needs real coefficients (Y T is not symmetric otherwise)")
    d_n = total_dim(sizes)
    b = np.asarray(b, dtype=float)
    if b.shape != (d_n,):
        raise ShapeError(f"right-hand side must have length {d_n}, got shape {b.shape}")

    op = ToeplitzOperator.from_symbol(f, sizes)
    apply_a = lambda x: flip_apply(sizes, op.matvec(x))
    rhs = flip_apply(sizes, b)
    result = minres(apply_a, preconditioner, rhs, cfg, seed)
    pname = type(preconditioner).__name__ if preconditioner is not None else "none"
    result.meta.update({"symbol": f.name, "n": sizes, "preconditioner": pname})
    return result


def write_residuals_csv(result: SolveResult, path, header: str = "") -> None:
    """Rows: iter, rel_resid, starting from the initial residual at iter 0."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write("iter,rel_resid\n")
        for i, r in enumerate(result.residual_history):
            fh.write(f"{i},{float(r)!r}\n")
