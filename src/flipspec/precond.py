"""Preconditioners for the flipped multilevel Toeplitz systems.

Every preconditioner here is a Kronecker sum P = sum_l I (x) A_l (x) I of
real symmetric level matrices A_l, one per level.  Structured Toeplitz
preconditioners take A_l = T_{n_l}(h_l) from a separable symbol h: the
symmetric part T(f_R), the two-level Laplacian variant built from
2 - 2 cos theta on both levels, and the tetra-diagonal band truncation
variant.  The circulant Kronecker sum takes A_l = |C_l|, the absolute value
of each level's Frobenius-optimal circulant; a symmetric circulant is a
symmetric Toeplitz matrix, so both families share one class.  Each level is
diagonalized once, and any power of P then costs one basis change per level
each way (the fast diagonalization method of Lynch, Rice & Thomas, 1964).

Contents
--------
optimal_circulant         first column of the Frobenius-closest circulant
circulant_abs             |eigenvalues| via length-n DFT
ToeplitzPreconditioner    Kronecker sum of symmetric levels, per-level eigh
CirculantKronSum          the same class, under the name the circulant used
build_circulant_kron_sum  sum of the levels |C_l| of a separable symbol
build_toepfr              T(f_R) for a given symbol
build_p22                 Laplacian-on-both-levels variant
build_p2beta              band-truncation variant
preconditioned_spectrum   eigenvalues of P^{-1} S via symmetric surrogate
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NotSPDError, ParameterError, ShapeError, SymmetryError
from .symbols import (Symbol, as_sizes, laplace1d_symbol, p_beta_truncation,
                      real_part_symbol)

__all__ = [
    "optimal_circulant",
    "circulant_abs",
    "ToeplitzPreconditioner",
    "build_circulant_kron_sum",
    "build_toepfr",
    "build_p22",
    "build_p2beta",
    "preconditioned_spectrum",
]


def optimal_circulant(coefficients: dict, n: int) -> np.ndarray:
    """First column of the circulant closest in Frobenius norm to T_n.

    c_j = ((n - j) t_j + j t_{j-n}) / n for j = 0..n-1, from a one-level
    coefficient table (dict k -> t_k or array-like pairs).
    """
    n = int(n)
    if n < 1:
        raise ParameterError("circulant size must be >= 1")
    table = {}
    for k, t in coefficients.items():
        k = int(k[0]) if isinstance(k, tuple) else int(k)
        if abs(k) <= n - 1:
            table[k] = complex(t)
    c = np.zeros(n, dtype=complex)
    for j in range(n):
        c[j] = ((n - j) * table.get(j, 0.0) + j * table.get(j - n, 0.0)) / n
    if all(v.imag == 0.0 for v in table.values()):
        return c.real
    return c


def circulant_abs(c) -> np.ndarray:
    """Eigenvalues of (C^T C)^{1/2} for the circulant with first column c.

    These are the moduli of the DFT of c, listed in DFT order (not sorted),
    which keeps them aligned with the Fourier modes.
    """
    return np.abs(np.fft.fft(np.asarray(c)))


def _cross_level_tables(f: Symbol, sizes):
    # split a Kronecker-sum coefficient table into one table per level; the
    # zero index is booked on level 1
    if f.dims != len(sizes):
        raise ShapeError(f"symbol has {f.dims} levels, sizes {sizes} have {len(sizes)}")
    tables = [dict() for _ in sizes]
    for k, t in f.coefficients.items():
        live = [l for l, kl in enumerate(k) if kl != 0]
        if len(live) > 1:
            raise ParameterError(f"coefficient index {k} is not separable across levels")
        level = live[0] if live else 0
        tables[level][k[level]] = tables[level].get(k[level], 0.0) + complex(t).real
    return tables


def _symmetric_toeplitz(col) -> np.ndarray:
    # T[i, j] = col[|i - j|]
    col = np.asarray(col, dtype=float)
    idx = np.arange(len(col))
    return col[np.abs(idx[:, None] - idx)]


def _abs_sum_symbol(tables, d: int) -> Symbol:
    pieces = [Symbol(1, None, {(k,): v for k, v in tab.items()}) for tab in tables]

    def evaluator(*coords):
        total = 0.0
        for l, piece in enumerate(pieces):
            vals = piece.eval(np.stack([np.ravel(coords[l])], axis=1))
            total = total + np.abs(vals).reshape(np.shape(coords[l]))
        return total + 0j

    return Symbol(d, evaluator, {}, name="sum_of_level_moduli")


class ToeplitzPreconditioner:
    """P = sum_l I (x) A_l (x) I for real symmetric n_l x n_l levels A_l.

    Each level is diagonalized once, A_l = Q_l diag(lambda_l) Q_l^T, so
    P = Q diag(Lambda) Q^T with Q the Kronecker product of the Q_l and the
    eigen-tensor Lambda(k_1, ..., k_d) = sum_l lambda_l[k_l].  Building
    raises NotSPDError unless Lambda is positive.  ``symbol`` is the symbol
    of the preconditioner sequence, the weight that divides |f| in the
    sample set.  The vector methods take a vector of length d_n or a
    (d_n, k) block; the instance is immutable and they are reentrant.
    """

    def __init__(self, levels, symbol: Symbol = None):
        self.levels = tuple(np.asarray(a, dtype=float) for a in levels)
        if not self.levels:
            raise ShapeError("a Kronecker sum needs at least one level")
        for a in self.levels:
            if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
                raise ShapeError(f"level matrix has shape {a.shape}, expected a square matrix")
            if not np.array_equal(a, a.T):
                raise SymmetryError("level matrix is not symmetric")
        self.sizes = tuple(a.shape[0] for a in self.levels)
        self.dim = math.prod(self.sizes)
        self.symbol = symbol
        eigs, self.bases = zip(*(np.linalg.eigh(a) for a in self.levels))
        tensor = functools.reduce(np.add.outer, eigs)
        low, peak = float(tensor.min()), float(tensor.max())
        if not low > 1e-14 * abs(peak):
            name = symbol.name if symbol is not None and symbol.name else "P"
            raise NotSPDError(f"preconditioner {name} is not positive definite: "
                              f"smallest eigenvalue {low:.6e} (largest {peak:.6e})")
        self.eigen_tensor = tensor
        self._inverse = 1.0 / tensor.reshape(-1, 1)

    @classmethod
    def from_symbol(cls, h: Symbol, n) -> "ToeplitzPreconditioner":
        """T_n(h) for a real, even symbol h that is a sum of one-level symbols.

        Raises SymmetryError unless the table is real with t_{-k} = t_k,
        and ParameterError if it is empty or couples two levels.
        """
        sizes = as_sizes(n)
        peak = max((abs(complex(v)) for v in h.coefficients.values()), default=0.0)
        if peak == 0.0:
            raise ParameterError("preconditioner symbol has no coefficients")
        for k, v in h.coefficients.items():
            v = complex(v)
            mirror = complex(h.coefficients.get(tuple(-x for x in k), 0.0))
            if abs(v.imag) > 1e-12 * peak or abs(v - mirror.conjugate()) > 1e-12 * peak:
                raise SymmetryError(f"symbol coefficient t_{k} breaks real symmetry")
        tables = _cross_level_tables(h, sizes)
        levels = [_symmetric_toeplitz([tab.get(j, 0.0) for j in range(nl)])
                  for tab, nl in zip(tables, sizes)]
        return cls(levels, h)

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ShapeError(f"expected a vector of length {self.dim} or a ({self.dim}, k) "
                             f"block, got shape {x.shape}")
        return x

    def _split(self, x, level: int) -> np.ndarray:
        # (prod of the sizes before `level`, n_level, the rest) view of x
        return x.reshape(math.prod(self.sizes[:level]), self.sizes[level], -1)

    def _eigen_apply(self, x, scale) -> np.ndarray:
        x = self._check(x)
        y = x
        for l, q in enumerate(self.bases):
            y = q.T @ self._split(y, l)
        y = y.reshape(self.dim, -1) * scale
        for l, q in enumerate(self.bases):
            y = q @ self._split(y, l)
        return y.reshape(x.shape)

    def apply(self, x):
        """P x, by the level matrices themselves rather than the eigenbasis."""
        x = self._check(x)
        return sum((a @ self._split(x, l)).reshape(x.shape)
                   for l, a in enumerate(self.levels))

    def apply_inverse(self, r):
        return self._eigen_apply(r, self._inverse)

    def apply_inverse_sqrt(self, r):
        return self._eigen_apply(r, np.sqrt(self._inverse))


# The benchmark's tracer looks the circulant preconditioner up by this name.
CirculantKronSum = ToeplitzPreconditioner


def build_circulant_kron_sum(f: Symbol, n) -> ToeplitzPreconditioner:
    """Sum over levels of |C_l|, for a symbol that is a sum of one-level symbols.

    C_l is the Frobenius-optimal circulant of the level's Toeplitz factor,
    and |C_l| = (C_l^T C_l)^{1/2} is a symmetric circulant.  The weight
    symbol is the sum of the level moduli.
    """
    sizes = as_sizes(n)
    tables = _cross_level_tables(f, sizes)
    # a symmetric circulant is the symmetric Toeplitz matrix of its first column
    levels = [_symmetric_toeplitz(np.fft.ifft(circulant_abs(optimal_circulant(tab, nl))).real)
              for tab, nl in zip(tables, sizes)]
    return ToeplitzPreconditioner(levels, _abs_sum_symbol(tables, len(sizes)))


def build_toepfr(f: Symbol, n) -> ToeplitzPreconditioner:
    """T(f_R), the Toeplitz matrix of the real part of f."""
    return ToeplitzPreconditioner.from_symbol(real_part_symbol(f), n)


def _two_level_laplacian_like(level2: Symbol, ratio: float, shift: float,
                              name: str) -> Symbol:
    # 2 - 2 cos theta_1 on level 1, `ratio` * level2 on level 2, plus shift
    lap = laplace1d_symbol()
    coeffs = {(k[0], 0): v for k, v in lap.coefficients.items()}
    for k, v in level2.coefficients.items():
        key = (0, k[0])
        coeffs[key] = coeffs.get(key, 0.0) + ratio * complex(v).real
    coeffs[(0, 0)] = coeffs.get((0, 0), 0.0) + shift

    def evaluator(t1, t2):
        v2 = Symbol(1, None, level2.coefficients).eval(np.stack([np.ravel(t2)], axis=1))
        v2 = v2.reshape(np.shape(t2)) if np.ndim(t2) else v2[0]
        return 2.0 - 2.0 * np.cos(t1) + ratio * np.real(v2) + shift

    return Symbol(2, evaluator, coeffs, name=name)


def _fractional_mesh(alpha, beta, n1, n2, M, include_shift):
    for nm, v in (("alpha", alpha), ("beta", beta)):
        if not (1.0 < float(v) < 2.0):
            raise ParameterError(f"{nm} must lie in (1, 2), got {v}")
    if min(int(n1), int(n2), int(M)) < 1:
        raise ParameterError("n1, n2, M must be positive")
    hx, hy = 1.0 / (n1 + 1), 1.0 / (n2 + 1)
    shift = 2.0 * hx**alpha * M if include_shift else 0.0
    return hx**alpha / hy**beta, shift


def build_p22(alpha, beta, n1, n2, M, include_shift: bool = True) -> ToeplitzPreconditioner:
    """Both fractional levels replaced by the discrete Laplacian symbol.

    h(t1, t2) = 2 - 2 cos t1 + (h_x^alpha / h_y^beta)(2 - 2 cos t2) plus the
    2 h_x^alpha / dt identity shift, so preconditioner and system matrix
    describe the same time-stepped problem.  The shift toggle must match the
    one used for the system symbol.
    """
    ratio, shift = _fractional_mesh(alpha, beta, n1, n2, M, include_shift)
    sym = _two_level_laplacian_like(laplace1d_symbol(), ratio, shift,
                                    name=f"p22(alpha={alpha:g},beta={beta:g})")
    return ToeplitzPreconditioner.from_symbol(sym, (n1, n2))


def build_p2beta(alpha, beta, n1, n2, M, include_shift: bool = True) -> ToeplitzPreconditioner:
    """Level 2 carries the real part of the tetra-diagonal truncation.

    The four retained coefficients k = -1..2 symmetrize to the band -2..2;
    unlike the full symbol the truncation does not vanish at t2 = 0, which
    keeps the factor well conditioned as the shift goes to zero.
    """
    ratio, shift = _fractional_mesh(alpha, beta, n1, n2, M, include_shift)
    level2 = real_part_symbol(p_beta_truncation(beta, n2))
    sym = _two_level_laplacian_like(level2, ratio, shift,
                                    name=f"p2beta(alpha={alpha:g},beta={beta:g})")
    return ToeplitzPreconditioner.from_symbol(sym, (n1, n2))


# ---------------------------------------------------------------------------
# preconditioned spectra


def preconditioned_spectrum(p, s) -> np.ndarray:
    """Eigenvalues of P^{-1} S for symmetric S and SPD P, ascending.

    Works on the symmetric similarity surrogate P^{-1/2} S P^{-1/2}, formed
    as P^{-1/2} (P^{-1/2} S)^T, so only a symmetric eigensolver is involved.
    """
    if not hasattr(p, "apply_inverse_sqrt"):
        raise ParameterError(f"unsupported preconditioner type {type(p).__name__}")
    s = np.asarray(s, dtype=float)
    w = p.apply_inverse_sqrt(p.apply_inverse_sqrt(s).T)
    w = (w + w.T) / 2.0
    return np.linalg.eigvalsh(w)
