"""Preconditioned MINRES for the flip-symmetrized systems.

``_lanczos`` runs the plain preconditioned Lanczos three-term recurrence,
no reorthogonalization, one step per ``next``; ``minres`` turns each step
into a Givens rotation and an update of x from x_0 = 0.  It stops when the
true relative residual ||b - A x_k|| / ||b||, recomputed from the iterate
every step, falls below REL_TOLERANCE = 1e-8; the recurred estimate phibar
never decides termination, which keeps iteration counts comparable across
preconditioners.  After CAP_PER_UNKNOWN * d_n = 10 d_n iterations the solve
returns unconverged.

Contents
--------
SolveConfig      the residual-history switch
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
REL_TOLERANCE = 1e-8
CAP_PER_UNKNOWN = 10


@dataclass(frozen=True)
class SolveConfig:
    record_residuals: bool = True


@dataclass
class SolveResult:
    solution: np.ndarray
    iterations: int
    residual_history: list
    converged: bool
    wall_time: float
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


def _lanczos(apply_a, apply_pinv, b):
    """The preconditioned Lanczos recurrence from b != 0, one step per ``next``.

    Yields beta_1 = sqrt(<b, P^-1 b>), then (v_k, alpha_k, beta_{k+1}, broken)
    per step, v_k overwritten by the next step.  ``broken`` is beta_{k+1} below
    1e-14 times the largest |alpha| or beta so far, a rule unchanged by a
    constant factor on P^-1; a NaN or negative <r, P^-1 r>, or zero for r = b,
    raises NotSPDError.
    """
    # r1 starts at zero, so the first step subtracts nothing from A v
    v, r1, tmp = (np.zeros(b.size) for _ in range(3))
    r2 = b.copy()
    y = apply_pinv(r2)
    betasq = float(r2.dot(y))
    if not betasq > 0.0:
        raise NotSPDError(f"preconditioner produced <b, P^-1 b> = {betasq:.3e} for b != 0")
    oldb = beta = math.sqrt(betasq)
    tnorm = 0.0
    yield beta
    while True:
        np.multiply(y, 1.0 / beta, out=v)
        y = apply_a(v)
        np.multiply(r1, beta / oldb, out=r1)
        np.subtract(y, r1, out=r1)
        alfa = float(v.dot(r1))
        np.multiply(r2, alfa / beta, out=tmp)
        np.subtract(r1, tmp, out=r1)
        r1, r2 = r2, r1
        y = apply_pinv(r2)
        oldb = beta
        betasq = float(r2.dot(y))
        if not betasq >= 0.0:
            raise NotSPDError(f"preconditioner produced <r, P^-1 r> = {betasq:.3e}")
        beta = math.sqrt(betasq)
        tnorm = max(tnorm, abs(alfa), beta)
        yield v, alfa, beta, beta < _BREAKDOWN * tnorm


def minres(apply_a, apply_pinv, b, cfg: SolveConfig = None, seed: int = 0) -> SolveResult:
    """Preconditioned MINRES on a symmetric operator (Paige & Saunders, 1975).

    ``apply_a`` is a callable on vectors; ``apply_pinv`` is the callable
    r -> P^{-1} r, or None for the identity; b must be a real vector, and a
    complex one raises ShapeError.  The operator is probed for symmetry on
    three seeded random unit pairs x, y before the iteration starts:
    |<Ax, y> - <x, Ay>| must stay within 1e-8 (||Ax|| + ||Ay||), a gap
    relative to the operator's scale.  Each ``_lanczos`` step adds one Givens
    rotation to the QR factorization of its tridiagonal and one update to x;
    the solve stops at a true relative residual below 1e-8 and returns
    unconverged after 10 d_n steps, drawing none past the cap.  A breakdown
    short of 1e-8, a NaN symmetry gap or a non-finite residual raises OperatorError.

    ``meta`` records ``matvecs`` (the six symmetry-probe products included,
    so 2 its + 6 for a nonzero b), ``preconditioner_applies`` (its + 1),
    and ``matvec_s``/``apply_s``, the wall time spent in each callable.
    The solve writes only into eight length-d_n buffers of its own: x and
    three directions here, the Lanczos pair, v and a scratch vector in
    ``_lanczos``; b and what the callables return are only read.
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

    start = time.perf_counter()
    bnorm = math.sqrt(b.dot(b))  # np.linalg.norm of a vector, bit for bit
    x = np.zeros(dim)
    history = [1.0] if cfg.record_residuals else []

    def counters():
        return {"matvecs": apply_a.calls, "preconditioner_applies": pinv.calls,
                "matvec_s": apply_a.seconds, "apply_s": pinv.seconds}

    if bnorm == 0.0:
        return SolveResult(x, 0, history, True, time.perf_counter() - start,
                           {"note": "zero right-hand side", **counters()})

    steps = _lanczos(apply_a, pinv, b)
    phibar = next(steps)
    w, w1, w2 = (np.zeros(dim) for _ in range(3))  # the directions, rotated by name
    dbar = epsln = 0.0
    cs, sn = -1.0, 0.0

    converged, itn, relres = False, 0, 1.0
    while itn < CAP_PER_UNKNOWN * dim:
        itn += 1
        v, alfa, beta, broken = next(steps)
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

        # w = (v - oldeps w1 - delta w2) / gamma, x += phi w; w1 is w_{k-2},
        # dead once read, so it is the scratch vector for the rest of the step
        w1, w2, w = w2, w, w1
        np.multiply(w1, oldeps, out=w)
        np.subtract(v, w, out=w)
        np.multiply(w2, delta, out=w1)
        np.subtract(w, w1, out=w)
        np.divide(w, gamma, out=w)
        np.multiply(w, phi, out=w1)
        np.add(x, w1, out=x)

        np.subtract(b, apply_a(x), out=w1)
        relres = math.sqrt(w1.dot(w1)) / bnorm
        if not math.isfinite(relres):
            raise OperatorError(f"relative residual is {relres} at iteration {itn}")
        if cfg.record_residuals:
            history.append(relres)
        if relres < REL_TOLERANCE:
            converged = True
            break
        if broken:
            # the Krylov space is exhausted short of the tolerance
            raise OperatorError(f"Lanczos breakdown at iteration {itn} with relative "
                                f"residual {relres:.3e} still above tolerance")

    return SolveResult(x, itn, history, converged, time.perf_counter() - start,
                       {"final_relres": relres, **counters()})


def flipped_solve(f: Symbol, n, b, preconditioner=None, cfg: SolveConfig = None,
                  seed: int = 0) -> SolveResult:
    """Solve Y_n T_n(f) x = Y_n b with MINRES, matrix-free.

    The symbol's real table is what makes Y T real symmetric.  The matvec
    is ``ToeplitzOperator.matvec``, whose kernel the table fixes; the flip
    is a reversed view of its output, and the right-hand side is flipped to
    keep the solution of the original system T_n(f) x = b.  The
    preconditioner is an object with ``apply_inverse``, or None.  At ex3
    24^3 ``toepfr`` the solve's tracemalloc peak is 19.2 length-d_n vectors:
    7.0 held by the DIA operator (whose build peaks at 7.1) and 12.2 in
    ``minres``, its buffers and what the callables return.
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
