"""Generating functions for multilevel Toeplitz matrices.

A symbol is a d-variate function f : [-pi, pi]^d -> C given by a closed-form
evaluator, a sparse table of real Fourier coefficients t_k (k in Z^d), or
both.  The coefficient table is what matrix assembly consumes, and a complex
t_k is refused as it enters; the evaluator is what grid sampling consumes.
Built-ins cover the experiments shipped with the package: a banded two-level
symbol, fractional diffusion symbols built from shifted Grunwald weights,
and a three-level upwind convection-diffusion stencil.

Contents
--------
as_sizes / total_dim      multi-index helpers (validated size tuples)
Symbol                    evaluator + coefficients + band, check_sizes(n),
                          levels() (one table per level of a Kronecker sum)
fourier_coefficients      coefficient extraction by tensor FFT
kron_sum_symbol           sum_l w_l f_l(theta_l) + shift from one-level symbols
constant_symbol, laplace1d_symbol, ex1_symbol
grunwald_symbol           one-level fractional symbol f_gamma, exact weights to a band
grunwald_coefficients     exact shifted Grunwald weights by recurrence
fractional_mesh           mesh ratio and time-step shift of the fractional problem
fractional_symbol         two-level fractional diffusion symbol (with shift)
convection_diffusion_symbol
real_part_symbol          (f + conj f)/2, symmetric coefficients (t_k + t_{-k})/2
p_beta_truncation         four-coefficient band truncation of f_beta
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingError, DomainError, ParameterError, ShapeError, SymmetryError

_DOMAIN_SLACK = 1e-12
_PRUNE_REL = 1e-14


def as_sizes(n) -> tuple[int, ...]:
    """Validate and normalize a multi-index of level sizes to a tuple."""
    if np.isscalar(n):
        n = (n,)
    sizes = tuple(int(v) for v in n)
    if len(sizes) < 1:
        raise ParameterError("multi-index needs at least one level")
    if any(v < 1 for v in sizes):
        raise ParameterError(f"level sizes must be >= 1, got {sizes}")
    return sizes


def total_dim(n) -> int:
    """Product of the level sizes, d_n = n_1 * ... * n_d."""
    return math.prod(as_sizes(n))


def _check_real_table(coefficients: dict) -> None:
    # SymmetryError at the first complex t_k, judged by type: 1 + 0j is refused too
    for k, t in coefficients.items():
        if isinstance(t, (complex, np.complexfloating)):
            raise SymmetryError(f"coefficient t_{k} = {t} is complex; tables hold real t_k")


def _separable_level(k) -> int:
    # l for an index k = k_l e_l (0 for k = 0); ParameterError if k couples two levels
    live = [l for l, kl in enumerate(k) if kl]
    if len(live) > 1:
        raise ParameterError(f"coefficient index {k} is not separable across levels")
    return live[0] if live else 0


@dataclass(frozen=True)
class Symbol:
    """A d-variate generating function.

    Parameters
    ----------
    dims : int
        Number of variables d.
    evaluator : callable or None
        Vectorized closed form, called as ``evaluator(theta_1, ..., theta_d)``
        with broadcastable arrays.  When None, evaluation falls back to the
        trigonometric sum of the coefficient table.
    coefficients : dict
        Sparse table mapping k tuples to real t_k; a complex t_k raises
        SymmetryError.  May be empty for evaluator-only symbols.
    name : str
        Identifier used in output headers.
    """

    dims: int
    evaluator: object = None
    coefficients: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if self.dims < 1:
            raise ParameterError("symbol needs dims >= 1")
        for k in self.coefficients:
            if len(k) != self.dims:
                raise ParameterError(f"coefficient index {k} does not have {self.dims} levels")
        _check_real_table(self.coefficients)

    @property
    def band(self) -> tuple[int, ...]:
        """Per-level half-bandwidth: largest |k_l| with t_k stored."""
        if not self.coefficients:
            return (0,) * self.dims
        return tuple(max(abs(k[l]) for k in self.coefficients) for l in range(self.dims))

    def eval(self, points):
        """Evaluate at one point (length-d sequence) or a batch (N, d) array.

        Coordinates must lie in [-pi, pi] componentwise.  Returns a complex
        scalar for a single point, a complex (N,) array for a batch.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.dims:
            raise DomainError(f"expected points with {self.dims} coordinates, got shape {pts.shape}")
        if np.any(np.abs(pts) > np.pi + _DOMAIN_SLACK):
            bad = pts[np.argmax(np.max(np.abs(pts), axis=1))]
            raise DomainError(f"point {tuple(bad)} outside [-pi, pi]^{self.dims}")
        coords = [pts[:, l] for l in range(self.dims)]
        if self.evaluator is not None:
            vals = np.asarray(self.evaluator(*coords), dtype=complex)
            vals = np.broadcast_to(vals, (pts.shape[0],)).copy()
        else:
            vals = np.zeros(pts.shape[0], dtype=complex)
            for k, t in self.coefficients.items():
                phase = np.zeros(pts.shape[0])
                for kl, c in zip(k, coords):
                    if kl:
                        phase = phase + kl * c
                vals += t * np.exp(1j * phase)
        return vals[0] if single else vals

    def check_sizes(self, n) -> tuple[int, ...]:
        """Validated level sizes; ShapeError unless there is one per level."""
        sizes = as_sizes(n)
        if self.dims != len(sizes):
            raise ShapeError(f"symbol has {self.dims} levels, sizes {sizes} have {len(sizes)}")
        return sizes

    def levels(self) -> list:
        """One table {k: t_k} per level of a Kronecker-sum coefficient table.

        The entry at k e_l goes to level l; t_0 is booked on level 1.
        Raises ParameterError if an index has two nonzero components.
        """
        tables = [{} for _ in range(self.dims)]
        for k, t in self.coefficients.items():
            level = _separable_level(k)
            tables[level][k[level]] = t
        return tables


def _next_pow2(v: int) -> int:
    return 1 << max(0, int(v - 1)).bit_length()


def fourier_coefficients(symbol: Symbol, band, m=None) -> dict:
    """Coefficient table of a symbol by tensor FFT of equispaced samples.

    Computes t_k = (2 pi)^-d integral of f(theta) exp(-i<k, theta>) over
    [-pi, pi]^d, for all |k_l| <= q_l, by sampling f on an m_1 x ... x m_d
    periodic lattice.  Exact to machine precision for trigonometric
    polynomials whose band fits inside the quadrature band.

    Parameters
    ----------
    symbol : Symbol
        Needs an evaluator (or a coefficient table to re-sum).
    band : int or tuple
        Per-level half-bandwidth q of the requested table.
    m : int or tuple, optional
        Samples per level.  Must satisfy m_l >= 2 q_l + 1.  Default: the
        next power of two >= 2 q_l + 2, at least 64, on every level.

    Returns
    -------
    dict mapping k tuples to complex t_k; entries whose magnitude falls
    below 1e-14 of the largest one are pruned.
    """
    d = symbol.dims
    q = (band,) * d if np.isscalar(band) else tuple(int(v) for v in band)
    if len(q) != d or any(v < 0 for v in q):
        raise ParameterError(f"invalid band {band} for a {d}-level symbol")
    if m is None:
        mm = tuple(_next_pow2(max(2 * ql + 2, 64)) for ql in q)
    else:
        mm = (m,) * d if np.isscalar(m) else tuple(int(v) for v in m)
    for ql, ml in zip(q, mm):
        if ml < 2 * ql + 1:
            raise AliasingError(f"m={ml} too small for band q={ql} (need m >= 2q+1)")

    axes = [2.0 * np.pi * np.arange(ml) / ml for ml in mm]
    mesh = np.meshgrid(*axes, indexing="ij")
    # wrap to [-pi, pi] so the evaluator's domain check stays happy
    pts = np.stack([np.where(a > np.pi, a - 2.0 * np.pi, a).ravel() for a in mesh], axis=1)
    samples = symbol.eval(pts).reshape(mm)
    that = np.fft.fftn(samples) / math.prod(mm)

    out = {}
    ranges = [range(-ql, ql + 1) for ql in q]
    idx = np.meshgrid(*ranges, indexing="ij")
    flat_ks = np.stack([a.ravel() for a in idx], axis=1)
    for krow in flat_ks:
        k = tuple(int(v) for v in krow)
        out[k] = complex(that[tuple(kl % ml for kl, ml in zip(k, mm))])
    peak = max(abs(v) for v in out.values()) if out else 0.0
    if peak > 0.0:
        out = {k: v for k, v in out.items() if abs(v) >= _PRUNE_REL * peak}
    return out


def kron_sum_symbol(levels, weights=None, shift=0.0, name="") -> Symbol:
    """f(theta) = sum_l w_l f_l(theta_l) + shift for one-level symbols f_l.

    The table holds w_l t_k of level l at the index k e_l, with the shift
    added at the origin; the evaluator sums the weighted level values, each
    level evaluated as its own ``eval`` does (closed form or table).
    Weights default to 1.
    """
    levels = tuple(levels)
    weights = (1.0,) * len(levels) if weights is None else tuple(weights)
    if not levels or len(weights) != len(levels) or any(f.dims != 1 for f in levels):
        raise ParameterError("a Kronecker sum needs one weight per one-level symbol")
    d = len(levels)
    coeffs = {}
    for l, (f, w) in enumerate(zip(levels, weights)):
        for (k,), t in f.coefficients.items():
            key = (0,) * l + (k,) + (0,) * (d - 1 - l)
            coeffs[key] = coeffs.get(key, 0.0) + w * t
    if shift:
        origin = (0,) * d
        coeffs[origin] = coeffs.get(origin, 0.0) + shift

    def evaluator(*theta):
        vals = (w * f.eval(np.reshape(th, (-1, 1))).reshape(np.shape(th))
                for f, w, th in zip(levels, weights, theta))
        return functools.reduce(np.add, vals) + shift

    return Symbol(d, evaluator, coeffs, name=name)


# ---------------------------------------------------------------------------
# built-in symbols


def constant_symbol(value, dims=1) -> Symbol:
    """f identically equal to the real ``value``."""
    return Symbol(dims, lambda *th: np.full_like(th[0], value, dtype=complex),
                  {(0,) * dims: value}, name=f"constant({value:g})")


def laplace1d_symbol() -> Symbol:
    """f(theta) = 2 - 2 cos(theta), the one-level Laplacian stencil."""
    return Symbol(1, lambda t: 2.0 - 2.0 * np.cos(t) + 0j,
                  {(0,): 2.0, (1,): -1.0, (-1,): -1.0}, name="laplace1d")


def ex1_symbol() -> Symbol:
    """Two-level banded example f(t1, t2) = 4 + e^{i t1} + e^{i t2}."""
    return Symbol(2, lambda t1, t2: 4.0 + np.exp(1j * t1) + np.exp(1j * t2),
                  {(0, 0): 4.0, (1, 0): 1.0, (0, 1): 1.0}, name="ex1")


def _check_order(name: str, value) -> float:
    value = float(value)
    if not (1.0 < value < 2.0):
        raise ParameterError(f"{name} must lie in (1, 2), got {value}")
    return value


def grunwald_symbol(gamma: float, band=None) -> Symbol:
    """One-level fractional symbol of order gamma in (1, 2).

    f_gamma(theta) = -[(2 - gamma (1 - e^{-i theta}))/2] * (1 + e^{i (theta + pi)})^gamma
    with the principal branch of the power; the removable zero at theta = 0
    is set to 0 directly.  Minus its Fourier coefficients are the shifted
    Grunwald weights, t_k = -w_{k+1}, supported on k >= -1; given a band,
    the symbol carries them for -1 <= k <= band (``grunwald_coefficients``).
    """
    g = _check_order("gamma", gamma)

    def evaluator(theta):
        theta = np.asarray(theta, dtype=float)
        z = 1.0 + np.exp(1j * (theta + np.pi))
        with np.errstate(divide="ignore", invalid="ignore"):
            power = np.exp(g * np.log(z))
        power = np.where(np.abs(z) == 0.0, 0.0, power)
        bracket = (2.0 - g * (1.0 - np.exp(-1j * theta))) / 2.0
        return -bracket * power

    table = {} if band is None else {(k,): t for k, t in grunwald_coefficients(g, band).items()}
    return Symbol(1, evaluator, table, name=f"grunwald({g:g})")


def grunwald_coefficients(gamma: float, band: int) -> dict:
    """Real coefficient table {k: t_k} of f_gamma for -1 <= k <= band.

    Exact shifted Grunwald weights: with c_0 = 1, c_j = c_{j-1} (j-1-gamma)/j
    (so c_j = (-1)^j binom(gamma, j)) and c_{-1} = 0,
    t_k = -[(2 - gamma)/2 c_k + gamma/2 c_{k+1}].  The band is at least 1.
    """
    g = _check_order("gamma", gamma)
    band = max(int(band), 1)
    c = [0.0, 1.0]  # c[j + 1] holds c_j, from c_{-1} = 0
    for j in range(1, band + 2):
        c.append(c[-1] * (j - 1 - g) / j)
    return {k: -((2.0 - g) / 2.0 * c[k + 1] + g / 2.0 * c[k + 2])
            for k in range(-1, band + 1)}


def fractional_mesh(alpha: float, beta: float, n1: int, n2: int, M: int,
                    include_shift: bool = True) -> tuple[float, float]:
    """Level-2 weight h_x^alpha / h_y^beta and identity shift 2 h_x^alpha / dt.

    h_x = 1/(n1+1), h_y = 1/(n2+1), dt = 1/M; the shift is 0 when
    ``include_shift`` is False.  Raises ParameterError unless alpha and beta
    lie in (1, 2) and n1, n2, M are positive.
    """
    _check_order("alpha", alpha)
    _check_order("beta", beta)
    if min(n1, n2, M) < 1:
        raise ParameterError("n1, n2, M must be positive")
    hx, hy, dt = 1.0 / (n1 + 1), 1.0 / (n2 + 1), 1.0 / M
    shift = 2.0 * hx**alpha / dt if include_shift else 0.0
    return hx**alpha / hy**beta, shift


def fractional_symbol(alpha: float, beta: float, n1: int, n2: int, M: int,
                      include_shift: bool = True) -> Symbol:
    """Two-level symbol of the fractional diffusion coefficient matrix.

    f(t1, t2) = f_alpha(t1) + (h_x^alpha / h_y^beta) f_beta(t2) + 2 h_x^alpha / dt
    with h_x = 1/(n1+1), h_y = 1/(n2+1), dt = 1/M.  The identity shift is
    folded into t_(0,0) so the matrix is exactly Toeplitz; pass
    ``include_shift=False`` to drop it from both evaluator and table.
    Coefficients are supported on the cross {(k,0)} union {(0,k)} with
    k >= -1 up to the level size minus one.
    """
    ratio, shift = fractional_mesh(alpha, beta, n1, n2, M, include_shift)
    tag = "on" if include_shift else "off"
    name = f"frac(alpha={alpha:g},beta={beta:g},n1={n1},n2={n2},M={M},shift={tag})"
    return kron_sum_symbol((grunwald_symbol(alpha, n1 - 1), grunwald_symbol(beta, n2 - 1)),
                           (1.0, ratio), shift, name)


def convection_diffusion_symbol(n1: int, n2: int, n3: int) -> Symbol:
    """Three-level upwind convection-diffusion symbol.

    Separable, f(t1, t2, t3) = f1(t1) + f2(t2) + f3(t3), with the seven
    stencil coefficients depending on the mesh widths h = 1/(n_l + 1):
    the diagonal a = 6 + 2 h_x + h_y + 1.5 h_z sits on level 1, and each
    level carries one weighted lower neighbor and one unit upper neighbor.
    """
    if min(n1, n2, n3) < 1:
        raise ParameterError("level sizes must be positive")
    hx, hy, hz = 1.0 / (n1 + 1), 1.0 / (n2 + 1), 1.0 / (n3 + 1)
    a = 6.0 + 2.0 * hx + hy + 1.5 * hz
    levels = (Symbol(1, None, {(0,): a, (1,): -1.0 - 2.0 * hx, (-1,): -1.0}),
              Symbol(1, None, {(1,): -1.0 - hy, (-1,): -1.0}),
              Symbol(1, None, {(1,): -1.0 - 1.5 * hz, (-1,): -1.0}))
    return kron_sum_symbol(levels, name=f"convdiff(n1={n1},n2={n2},n3={n3})")


def real_part_symbol(f: Symbol) -> Symbol:
    """The real part (f + conj f)/2 as a symbol.

    For the real table t_k its coefficients are t'_k = (t_k + t_{-k})/2,
    symmetric by construction (t'_{-k} = t'_k exactly), so the assembled
    Toeplitz matrix is real symmetric.
    """
    if not f.coefficients:
        raise ParameterError("real_part_symbol needs a coefficient table")
    out = {}
    for k, t in f.coefficients.items():
        mk = tuple(-v for v in k)
        out[k] = out[mk] = (t + f.coefficients.get(mk, 0.0)) / 2.0
    peak = max(abs(v) for v in out.values())
    out = {k: v for k, v in out.items() if abs(v) >= _PRUNE_REL * peak}

    evaluator = None
    if f.evaluator is not None:
        evaluator = lambda *th: (np.asarray(f.evaluator(*th), dtype=complex)
                                 + np.conj(f.evaluator(*th))) / 2.0
    return Symbol(f.dims, evaluator, out, name=f"Re[{f.name or 'f'}]")


def p_beta_truncation(beta: float) -> Symbol:
    """Band truncation of f_beta to the four coefficients k = -1, 0, 1, 2.

    The truncated symbol does not vanish at theta = 0 (the full f_beta
    does), which is what makes its real part usable as a preconditioner
    factor.
    """
    return Symbol(1, None, grunwald_symbol(beta, band=2).coefficients, name=f"p_beta({beta:g})")
