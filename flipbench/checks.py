"""Checks of the benchmark's outputs, built apart from flipspec.

Every shipped experiment symbol is a Kronecker sum: one one-level
coefficient table per level plus a constant shift.  The models here rebuild
those tables from the paper's formulas (the binomial closed form of the
shifted Grunwald weights, the upwind 7-point stencil, the Laplacian) and
apply them with plain dense algebra or array slicing, never through
flipspec's FFT embedding, lookup assembly or Cholesky path.

What is checked, per operation:

solve      converged; iterations within the acceptance tolerance of the
           paper's Table 1 / Table 2 count (rows of the paper's ladders);
           true residual ||b - T x|| / ||b|| of the model, ex2 through
           T1 (x) I + I (x) T2 + shift, ex3 through the 7-point stencil
spectrum   no preconditioner: sum(lambda) = trace(Y T), sum(lambda^2) =
           ||T||_F^2, both from the coefficient table, and every |lambda|
           below a bound on sup|f|; with a preconditioner P:
           sum(lambda) = trace(P^-1 S), sum(lambda^2) = trace((P^-1 S)^2),
           and for ex2 with toepfr at least 90 % of the eigenvalues within
           0.3 of +-1
set-up     the preconditioner applied to the seeded probe vector r gives z
           with ||P z - r|| / ||r|| small, P from the model
per pass   circsum iteration counts grow by at least 2.5x per doubling of
           the level size and never fall as the size grows
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import toeplitz

# flipspec's MINRES stops once the true relative residual is below this.
SOLVE_TOL = 1e-8
# Bound on the absolute error of flipspec's FFT-quadrature Grunwald weights
# against the binomial closed form (2.3e-10 measured at gamma = 1.6).
QUAD_ERR = 1e-9
# Rounding allowance for residuals and traces computed in double precision.
ROUND = 1e-12
# Relative agreement of the preconditioned trace identities.
PRECOND_TRACE_RTOL = 1e-7

# Iteration counts of the paper's Table 1 (ex2) and Table 2 (ex3), by d_n.
TABLE1 = {
    100: {"toepfr": 12, "p22": 29, "p2beta": 22},
    400: {"toepfr": 13, "p22": 35, "p2beta": 26},
    1600: {"toepfr": 14, "p22": 41, "p2beta": 27},
    6400: {"toepfr": 14, "p22": 43, "p2beta": 29},
}
TABLE2 = {
    125: {"toepfr": 8, "circsum": 61},
    1000: {"toepfr": 9, "circsum": 198},
    8000: {"toepfr": 9, "circsum": 724},
}

ALPHA, BETA = 1.8, 1.6
LAPLACIAN = {-1: -1.0, 0: 2.0, 1: -1.0}


def table_count(exp: str, precond: str, d_n: int):
    """Paper iteration count and its acceptance tolerance, or None off the ladders."""
    ref = (TABLE1 if exp == "ex2" else TABLE2).get(d_n, {}).get(precond)
    if ref is None:
        return None
    return ref, (max(3.0, 0.2 * ref) if exp == "ex2" else 0.2 * ref)


# ---------------------------------------------------------------------------
# coefficient tables from the paper's formulas


def grunwald_weights(gamma: float, band: int) -> dict:
    """t_k = -[(2 - gamma)/2 c_k + gamma/2 c_{k+1}] for -1 <= k <= band.

    c_j = (-1)^j binom(gamma, j), by the recurrence c_j = c_{j-1}(j-1-gamma)/j.
    """
    c = np.empty(band + 2)
    c[0] = 1.0
    for j in range(1, band + 2):
        c[j] = c[j - 1] * (j - 1 - gamma) / j
    out = {-1: -gamma / 2.0 * c[0]}
    for k in range(band + 1):
        out[k] = -((2.0 - gamma) / 2.0 * c[k] + gamma / 2.0 * c[k + 1])
    return out


def real_part(table: dict) -> dict:
    """Coefficients of (p + conj p)/2 for a real one-level table."""
    keys = set(table) | {-k for k in table}
    return {k: (table.get(k, 0.0) + table.get(-k, 0.0)) / 2.0 for k in keys}


def scaled(table: dict, s: float) -> dict:
    return {k: s * v for k, v in table.items()}


def fractional_mesh(n1: int, n2: int):
    """(level-2 weight h_x^alpha / h_y^beta, shift 2 h_x^alpha M) with M = n1."""
    hx, hy = 1.0 / (n1 + 1), 1.0 / (n2 + 1)
    return hx**ALPHA / hy**BETA, 2.0 * hx**ALPHA * n1


def convection_diffusion(sizes):
    """Upwind 7-point stencil: (lower, upper) neighbour weight per level, centre."""
    h = [1.0 / (n + 1) for n in sizes]
    drift = (2.0, 1.0, 1.5)
    pairs = [(-1.0 - v * hl, -1.0) for v, hl in zip(drift, h)]
    centre = 6.0 + sum(v * hl for v, hl in zip(drift, h))
    return pairs, centre


def rhs(exp: str, sizes) -> np.ndarray:
    """The paper's right-hand sides: 2 h_x^alpha for ex2, ones for ex3."""
    ones = np.ones(int(np.prod(sizes)))
    return 2.0 * (1.0 / (sizes[0] + 1)) ** ALPHA * ones if exp == "ex2" else ones


# ---------------------------------------------------------------------------
# Kronecker-sum models


class KronSum:
    """sum_l I (x) .. (x) A_l (x) .. (x) I + shift I from dense level matrices.

    ``tables`` keeps the one-level coefficient tables the levels came from
    (None when the levels are not Toeplitz); ``coef_err`` bounds the
    2-norm gap between this model and flipspec's matrix that comes from
    flipspec's quadrature coefficients.
    """

    def __init__(self, levels, shift=0.0, tables=None, coef_err=0.0):
        self.levels = [np.asarray(a, dtype=float) for a in levels]
        self.sizes = tuple(a.shape[0] for a in self.levels)
        self.shift = float(shift)
        self.tables = tables
        self.coef_err = coef_err

    @classmethod
    def from_tables(cls, tables, sizes, shift=0.0, fractional_weights=None):
        levels = []
        for tab, n in zip(tables, sizes):
            col = [tab.get(k, 0.0) for k in range(n)]
            row = [tab.get(-k, 0.0) for k in range(n)]
            levels.append(toeplitz(col, row))
        err = sum(w * QUAD_ERR * (n + 1)
                  for w, n in zip(fractional_weights or (), sizes) if w)
        clipped = [{k: v for k, v in tab.items() if abs(k) < n}
                   for tab, n in zip(tables, sizes)]
        return cls(levels, shift, clipped, err)

    @property
    def dim(self) -> int:
        return int(np.prod(self.sizes))

    def apply(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float).reshape(self.sizes)
        y = self.shift * xs
        for axis, a in enumerate(self.levels):
            y = y + np.moveaxis(np.tensordot(a, xs, axes=(1, axis)), 0, axis)
        return y.ravel()

    def dense(self) -> np.ndarray:
        out = self.shift * np.eye(self.dim)
        for axis, a in enumerate(self.levels):
            term = np.ones((1, 1))
            for l, n in enumerate(self.sizes):
                term = np.kron(term, a if l == axis else np.eye(n))
            out += term
        return out

    def multilevel_table(self) -> dict:
        out = {(0,) * len(self.sizes): self.shift}
        for axis, tab in enumerate(self.tables):
            for k, v in tab.items():
                key = tuple(k if l == axis else 0 for l in range(len(self.sizes)))
                out[key] = out.get(key, 0.0) + v
        return out

    def sup_bound(self) -> float:
        """Upper bound on sup|f| for the trigonometric polynomial behind T_n.

        sup|f| <= sum_l sup|p_l| + |shift|.  Each level maximum is taken on
        m equispaced points and widened by Bernstein's inequality: a degree-N
        trigonometric polynomial exceeds its grid maximum by at most a factor
        1 / (1 - N pi / m).
        """
        m = 1 << 16
        total = abs(self.shift)
        for tab in self.tables:
            coeffs = np.zeros(m)
            for k, v in tab.items():
                coeffs[k % m] += v
            degree = max(abs(k) for k in tab)
            total += float(np.max(np.abs(np.fft.ifft(coeffs)) * m)) / (1.0 - degree * np.pi / m)
        return total


def circulant_abs_level(table: dict, n: int) -> np.ndarray:
    """(C^T C)^{1/2} for the Frobenius-optimal circulant C of a level table."""
    col = np.array([((n - j) * table.get(j, 0.0) + j * table.get(j - n, 0.0)) / n
                    for j in range(n)])
    c = col[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
    w, v = np.linalg.eigh(c.T @ c)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def system_model(exp: str, sizes) -> KronSum:
    """The experiment's matrix T_n(f) as a Kronecker sum."""
    sizes = tuple(sizes)
    if exp == "ex1":
        # f = 4 + e^{i t1} + e^{i t2}
        return KronSum.from_tables([{1: 1.0}, {1: 1.0}], sizes, shift=4.0)
    if exp == "ex2":
        weight, shift = fractional_mesh(*sizes)
        tables = [grunwald_weights(ALPHA, sizes[0] - 1),
                  scaled(grunwald_weights(BETA, sizes[1] - 1), weight)]
        return KronSum.from_tables(tables, sizes, shift, fractional_weights=(1.0, weight))
    pairs, centre = convection_diffusion(sizes)
    return KronSum.from_tables([{1: lo, -1: up} for lo, up in pairs], sizes, shift=centre)


def preconditioner_model(exp: str, precond: str, sizes) -> KronSum:
    sizes = tuple(sizes)
    system = system_model(exp, sizes)
    if precond == "toepfr":
        weights = (1.0, fractional_mesh(*sizes)[0]) if exp == "ex2" else None
        return KronSum.from_tables([real_part(t) for t in system.tables], sizes,
                                   system.shift, fractional_weights=weights)
    if precond in ("p22", "p2beta"):
        weight, shift = fractional_mesh(*sizes)
        level2 = LAPLACIAN
        if precond == "p2beta":
            full = grunwald_weights(BETA, 2)
            level2 = real_part({k: full[k] for k in (-1, 0, 1, 2)})
        quadrature = weight if precond == "p2beta" else 0.0
        return KronSum.from_tables([LAPLACIAN, scaled(level2, weight)], sizes, shift,
                                   fractional_weights=(0.0, quadrature))
    if precond == "circsum":
        tables = [dict(t) for t in system.tables]
        tables[0][0] = tables[0].get(0, 0.0) + system.shift
        return KronSum([circulant_abs_level(t, n) for t, n in zip(tables, sizes)])
    raise ValueError(f"no model for preconditioner {precond!r}")


def stencil_apply(sizes, x) -> np.ndarray:
    """T x for ex3 by the 7-point stencil on the n1 x n2 x n3 array."""
    sizes = tuple(sizes)
    pairs, centre = convection_diffusion(sizes)
    xs = np.asarray(x, dtype=float).reshape(sizes)
    y = centre * xs
    for axis, (lower, upper) in enumerate(pairs):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis], hi[axis] = slice(1, None), slice(None, -1)
        y[tuple(lo)] += lower * xs[tuple(hi)]   # t_{+1}: row i reads column i - 1
        y[tuple(hi)] += upper * xs[tuple(lo)]   # t_{-1}: row i reads column i + 1
    return y.ravel()


# ---------------------------------------------------------------------------
# the checks; each returns a list of failure messages


def flip_trace(table: dict, sizes) -> float:
    """trace(Y T): entry (flip(i), i) reads t_k with k_l = n_l - 1 - 2 i_l."""
    return sum(v for k, v in table.items()
               if all(abs(kl) < n and (n - 1 - kl) % 2 == 0 for kl, n in zip(k, sizes)))


def frobenius_sq(table: dict, sizes) -> float:
    """||T||_F^2: t_k appears prod_l (n_l - |k_l|) times."""
    return sum(v * v * np.prod([max(n - abs(kl), 0) for kl, n in zip(k, sizes)])
               for k, v in table.items())


def check_solution(exp, precond, sizes, x, converged, iterations) -> list:
    fails = []
    if not converged:
        fails.append("MINRES did not converge")
    b = rhs(exp, sizes)
    if exp == "ex3":
        tx, err = stencil_apply(sizes, x), 0.0
    else:
        model = system_model(exp, sizes)
        tx, err = model.apply(x), model.coef_err
    bnorm = np.linalg.norm(b)
    relres = np.linalg.norm(b - tx) / bnorm
    tol = SOLVE_TOL + ROUND + err * np.linalg.norm(x) / bnorm
    if not relres <= tol:
        fails.append(f"model residual {relres:.3e} above {tol:.3e}")
    ref = table_count(exp, precond, int(np.prod(sizes)))
    if ref is not None and abs(iterations - ref[0]) > ref[1]:
        fails.append(f"{iterations} iterations, paper {ref[0]} +- {ref[1]:g}")
    return fails


def check_probe(exp, precond, sizes, probe, image) -> list:
    model = preconditioner_model(exp, precond, sizes)
    rnorm = np.linalg.norm(probe)
    gap = np.linalg.norm(model.apply(image) - probe) / rnorm
    tol = 1e-10 + model.coef_err * np.linalg.norm(image) / rnorm
    return [] if gap <= tol else [f"P z differs from the probe by {gap:.3e} (tolerance {tol:.3e})"]


def spectrum_reference(exp, precond, sizes) -> dict:
    """The quantities a spectrum is checked against; costly for preconditioned ones."""
    system = system_model(exp, sizes)
    if precond == "none":
        table = system.multilevel_table()
        d = system.dim
        sup = system.sup_bound()
        return {"sum": flip_trace(table, sizes), "sum_sq": frobenius_sq(table, sizes),
                "sup": sup + system.coef_err,
                "sum_tol": d * (ROUND * sup + system.coef_err),
                "sum_sq_tol": d * (ROUND * sup + 2.0 * system.coef_err) * sup}
    s = system.dense()[::-1]            # Y reverses the row-major flat index
    z = np.linalg.solve(preconditioner_model(exp, precond, sizes).dense(), s)
    return {"sum": float(np.trace(z)), "sum_sq": float(np.sum(z * z.T))}


def spectrum_summary(eigs) -> dict:
    """The reductions of a spectrum that the spectrum checks read."""
    eigs = np.asarray(eigs, dtype=float)
    return {"count": int(eigs.size), "sum": float(np.sum(eigs)),
            "sum_sq": float(np.sum(eigs * eigs)), "sum_abs": float(np.sum(np.abs(eigs))),
            "max_abs": float(np.max(np.abs(eigs))),
            "clustered": float(np.mean(np.abs(np.abs(eigs) - 1.0) <= 0.3))}


def check_spectrum(exp, precond, sizes, summary, ref) -> list:
    d_n = int(np.prod(sizes))
    if summary["count"] != d_n:
        return [f"{summary['count']} eigenvalues for d_n = {d_n}"]
    fails = []
    total, total_sq = summary["sum"], summary["sum_sq"]
    if precond == "none":
        sum_tol, sq_tol = ref["sum_tol"], ref["sum_sq_tol"]
        if summary["max_abs"] > ref["sup"] * (1.0 + ROUND):
            fails.append(f"|lambda| reaches {summary['max_abs']:.9g} above "
                         f"sup|f| <= {ref['sup']:.9g}")
    else:
        sum_tol = PRECOND_TRACE_RTOL * summary["sum_abs"]
        sq_tol = PRECOND_TRACE_RTOL * total_sq
    if not abs(total - ref["sum"]) <= sum_tol:
        fails.append(f"sum of eigenvalues {total:.12g}, trace {ref['sum']:.12g}")
    if not abs(total_sq - ref["sum_sq"]) <= sq_tol:
        fails.append(f"sum of squares {total_sq:.12g}, reference {ref['sum_sq']:.12g}")
    if exp == "ex2" and precond == "toepfr" and summary["clustered"] < 0.9:
        fails.append(f"only {100 * summary['clustered']:.1f} % of eigenvalues within 0.3 of +-1")
    return fails


def check_growth(counts: dict) -> list:
    """circsum counts by level size: >= 2.5x per doubling, never falling."""
    fails = []
    sizes = sorted(counts)
    for a, b in zip(sizes, sizes[1:]):
        if counts[b] < counts[a]:
            fails.append(f"circsum iterations fall from {counts[a]} at {a} to {counts[b]} at {b}")
    for n in sizes:
        if 2 * n in counts and counts[2 * n] < 2.5 * counts[n]:
            fails.append(f"circsum iterations {counts[n]} -> {counts[2 * n]} grow less "
                         f"than 2.5x from {n} to {2 * n}")
    return fails
