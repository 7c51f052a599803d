"""Preconditioned MINRES for the flip-symmetrized systems.

The solver runs the plain Lanczos three-term recurrence with Givens
rotations, no reorthogonalization, starting from x_0 = 0.  Stopping is
gated on the true unpreconditioned relative residual ||b - A x_k|| / ||b||,
recomputed from the iterate every step; the recurred preconditioned
residual estimate phibar only scales the update of x and never decides
termination.  That rule is what makes iteration counts comparable across
preconditioners.  A complex right-hand side raises ShapeError.  Every solve
counts its operator products and preconditioner applies and times both
into SolveResult.meta.  The iteration works in fixed buffers allocated once
per solve and never writes into b or into an array the operator or the
preconditioner returned.

Contents
--------
SolveConfig      tolerance, iteration cap, history switch
SolveResult      solution, counts, residual history, wall time, provenance
minres           operator-level solver
flipped_solve    Y T(f) x = Y b from a symbol, matrix-free matvec
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSPDError, OperatorError, ParameterError, ShapeError
from .symbols import Symbol, as_sizes
from .operators import ToeplitzOperator, flip_apply

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
    config: SolveConfig = None
    meta: dict = field(default_factory=dict)


class _Counted:
    # wraps a one-vector callable, counting its calls and summing their wall time
    def __init__(self, fn):
        self.fn, self.calls, self.seconds = fn, 0, 0.0

    def __call__(self, v):
        tick = time.perf_counter()
        out = self.fn(v)
        self.seconds += time.perf_counter() - tick
        self.calls += 1
        return out


def _probe_symmetry(apply_a, dim: int, seed: int) -> None:
    # one draw of all six probes gives the numbers of six draws in turn, x then y per pair
    for x, y in np.random.default_rng(seed).standard_normal((3, 2, dim)):
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        ax, ay = apply_a(x), apply_a(y)
        gap = abs(ax.dot(y) - x.dot(ay))
        scale = np.linalg.norm(ax) + np.linalg.norm(ay)
        if not gap <= 1e-8 * scale:
            raise OperatorError(f"operator fails the symmetry probe: |<Ax,y> - <x,Ay>| = "
                                f"{gap:.3e}, ||Ax|| + ||Ay|| = {scale:.3e}")


def minres(apply_a, apply_pinv, b, cfg: SolveConfig = None, seed: int = 0) -> SolveResult:
    """Preconditioned MINRES on a symmetric operator.

    ``apply_a`` is a callable on vectors; ``apply_pinv`` is the callable
    r -> P^{-1} r, or None for the identity; b must be a real vector, and a
    complex one raises ShapeError.  The operator is probed for symmetry on
    three seeded random unit pairs x, y before the iteration starts:
    |<Ax, y> - <x, Ay>| must stay within 1e-8 (||Ax|| + ||Ay||), a gap
    relative to the operator's scale.  A Lanczos breakdown, beta below 1e-14
    times the largest |alpha| or beta so far (a rule unchanged by a constant
    factor on P^{-1}), raises OperatorError unless the recomputed residual
    passes the rule.  A NaN symmetry gap or a non-finite residual raises
    OperatorError, and a NaN or negative <r, P^-1 r> (or zero for r = b)
    raises NotSPDError, rather than iterating to the cap.

    ``meta`` records ``matvecs`` (the six symmetry-probe products included,
    so 2 its + 6 for a nonzero b), ``preconditioner_applies`` (its + 1),
    and ``matvec_s``/``apply_s``, the wall time spent in each callable.
    The iterate, the Lanczos pair, three directions and a scratch vector
    are fixed buffers; b and what the callables return are only read.
    """
    cfg = cfg or SolveConfig()
    b = np.asarray(b)
    if b.ndim != 1 or np.iscomplexobj(b):
        raise ShapeError(f"right-hand side must be a real vector, got {b.dtype} {b.shape}")
    b = b.astype(float, copy=False)
    if apply_pinv is None:
        apply_pinv = lambda r: r
    elif not callable(apply_pinv):
        raise ParameterError(f"cannot use {type(apply_pinv).__name__} as a preconditioner")
    dim = b.size
    apply_a = _Counted(apply_a)
    pinv = _Counted(apply_pinv)
    _probe_symmetry(apply_a, dim, seed)
    maxit = cfg.max_iterations if cfg.max_iterations is not None else 10 * dim

    start = time.perf_counter()
    bnorm = math.sqrt(b.dot(b))  # np.linalg.norm of a vector, bit for bit
    x = np.zeros(dim)
    history = [1.0] if cfg.record_residuals else []

    def counters():
        return {"matvecs": apply_a.calls, "preconditioner_applies": pinv.calls,
                "matvec_s": apply_a.seconds, "apply_s": pinv.seconds}

    if bnorm == 0.0:
        return SolveResult(x, 0, history, True, time.perf_counter() - start,
                           cfg, {"note": "zero right-hand side", **counters()})

    # fixed buffers; the pair r1/r2 and the triple w1/w2/w rotate by name.
    # r1 starts at zero, so the first Lanczos step subtracts nothing from A v.
    v, r1, w, w1, w2, tmp = (np.zeros(dim) for _ in range(6))
    r2 = b.copy()
    y = pinv(r2)
    beta1sq = float(r2.dot(y))
    if not beta1sq > 0.0:
        raise NotSPDError(f"preconditioner produced <b, P^-1 b> = {beta1sq:.3e} for b != 0")
    beta1 = math.sqrt(beta1sq)

    oldb = beta = beta1
    dbar = epsln = tnorm = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0

    converged = False
    itn = 0
    relres = 1.0
    while itn < maxit:
        itn += 1
        np.multiply(y, 1.0 / beta, out=v)
        y = apply_a(v)
        np.multiply(r1, beta / oldb, out=r1)
        np.subtract(y, r1, out=r1)
        alfa = float(v.dot(r1))
        np.multiply(r2, alfa / beta, out=tmp)
        np.subtract(r1, tmp, out=r1)
        r1, r2 = r2, r1
        y = pinv(r2)
        oldb = beta
        betasq = float(r2.dot(y))
        if not betasq >= 0.0:
            raise NotSPDError(f"preconditioner produced <r, P^-1 r> = {betasq:.3e}")
        beta = math.sqrt(betasq)
        tnorm = max(tnorm, abs(alfa), beta)

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

        # w = (v - oldeps w1 - delta w2) / gamma, x += phi w
        w1, w2, w = w2, w, w1
        np.multiply(w1, oldeps, out=w)
        np.subtract(v, w, out=w)
        np.multiply(w2, delta, out=tmp)
        np.subtract(w, tmp, out=w)
        np.divide(w, gamma, out=w)
        np.multiply(w, phi, out=tmp)
        np.add(x, tmp, out=x)

        np.subtract(b, apply_a(x), out=tmp)
        relres = math.sqrt(tmp.dot(tmp)) / bnorm
        if not math.isfinite(relres):
            raise OperatorError(f"relative residual is {relres} at iteration {itn}")
        if cfg.record_residuals:
            history.append(relres)
        if relres < cfg.rel_tolerance:
            converged = True
            break
        if beta < _BREAKDOWN * tnorm:
            # the Krylov space is exhausted short of the tolerance
            raise OperatorError(f"Lanczos breakdown at iteration {itn} with relative "
                                f"residual {relres:.3e} still above tolerance")

    elapsed = time.perf_counter() - start
    return SolveResult(x, itn, history, converged, elapsed, cfg,
                       {"final_relres": relres, **counters()})


def flipped_solve(f: Symbol, n, b, preconditioner=None, cfg: SolveConfig = None,
                  seed: int = 0) -> SolveResult:
    """Solve Y_n T_n(f) x = Y_n b with MINRES, matrix-free.

    The symbol's real table is what makes Y T real symmetric.  The matvec
    is ``ToeplitzOperator.matvec``, whose kernel the table fixes; the flip
    is a reversed view of its output, and the right-hand side is flipped to
    keep the solution of the original system T_n(f) x = b.  The
    preconditioner is an object with ``apply_inverse``, or None.
    """
    sizes = as_sizes(n)
    if next(f.pairs(), None) is None:
        raise ParameterError("flipped solve needs a symbol with coefficients")
    op = ToeplitzOperator(f, sizes)
    apply_a = lambda x: op.matvec(x)[::-1]
    rhs = flip_apply(sizes, b)
    pinv = None if preconditioner is None else preconditioner.apply_inverse
    result = minres(apply_a, pinv, rhs, cfg, seed)
    pname = type(preconditioner).__name__ if preconditioner is not None else "none"
    result.meta.update({"symbol": f.name, "n": sizes, "preconditioner": pname})
    return result
