"""Preconditioners for the flipped multilevel Toeplitz systems.

Every preconditioner here is a Kronecker sum P = sum_l I (x) A_l (x) I of
real symmetric matrices A_l, one per level table of a separable symbol
(``Symbol.levels``).  Structured Toeplitz preconditioners take
A_l = T_{n_l}(h_l): the symmetric part T(f_R), the two-level Laplacian
variant built from 2 - 2 cos theta on both levels, and the tetra-diagonal
band truncation variant.  The circulant Kronecker sum takes A_l = |C_l|, the
absolute value of each level's Frobenius-optimal circulant; a symmetric
circulant is a symmetric Toeplitz matrix, so both families share one class.
Each level is diagonalized once, and any power of P then costs one basis
change per level each way (the fast diagonalization method of Lynch, Rice &
Thomas, 1964).

Contents
--------
optimal_circulant         first column of the Frobenius-closest circulant
circulant_abs             |eigenvalues| via length-n DFT
ToeplitzPreconditioner    Kronecker sum of symmetric levels, per-level eigh
CirculantKronSum          the same class, under the name the circulant used
build_circulant_kron_sum  sum of the levels |C_l| of a separable symbol,
                          weight symbol sum_l |f_l|
build_toepfr              T(f_R) for a given symbol
build_p22                 Laplacian on both levels (kron_sum_symbol)
build_p2beta              Laplacian on level 1, band truncation on level 2
preconditioned_spectrum   eigenvalues of P^{-1} Y T(f) from the symbol, two in-place
                          panelled sweeps into the eigenbasis of one gathered array

Flip parity of the preconditioned spectrum
------------------------------------------
A symmetric Toeplitz level commutes with its flip J, so an eigenvector
q of a simple eigenvalue is even or odd, J q = +-q (Cantoni & Butler,
1976), and the columns of Q = Q_1 (x) ... (x) Q_d are even or odd under
Y = J (x) ... (x) J; write D = Q^T Y Q = diag(+-1), with m_e even and m_o
odd columns.  For P = T(f_R), the symmetric part of T = T(f), and S = Y T:
Y P Q = Q D Lambda, while the skew part K = T(i f_I) anticommutes with Y,
so Q^T Y K Q has no parity-diagonal entries.  Hence in the parity split
W = Lambda^{-1/2} Q^T S Q Lambda^{-1/2} = [[I, B], [B^T, -I]], whose square
is diag(I + B B^T, I + B^T B): the eigenvalues are +-sqrt(1 + sigma_j^2)
over the singular values of B, plus m_e - m_o eigenvalues +1 from the
null space of B^T (0 or 1 of them).  This is the finite-n form of the
paper's +-|f| / f_R = +-sqrt(1 + (f_I / f_R)^2).  ``preconditioned_spectrum``
checks both facts on the numbers (definite level parities, +I and -I
blocks) rather than on the builder's name, and solves at size d_n when
either fails.

One array per preconditioned spectrum
-------------------------------------
``preconditioned_spectrum`` takes the symbol f, not a dense S: it gathers
S = Y T from f's table into an array it owns and runs both eigenbasis
sweeps in place there, so W overwrites S and a spectrum holds one
d_n x d_n array besides LAPACK's copy.  No caller can pass an asymmetric
S; the averaging of W with W^T only evens out the sweeps' rounding.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NotSPDError, ParameterError, ShapeError, SymmetryError
from .operators import (_PANEL_ROWS, ToeplitzOperator, _panels, kron_sum_product,
                        toeplitz_level)
from .symbols import (Symbol, fractional_mesh, kron_sum_symbol,
                      laplace1d_symbol, p_beta_truncation, real_part_symbol)

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


def _symmetric_level(col) -> np.ndarray:
    # T[i, j] = col[|i - j|], from the real parts of col
    col = np.asarray(np.real(col), dtype=float)
    return toeplitz_level(np.concatenate((col[:0:-1], col)))


def _level_modulus(table: dict) -> Symbol:
    # |f_l| for one level's table {k: t_k}, summed from the table
    level = Symbol(1, None, {(k,): t for k, t in table.items()})
    return Symbol(1, lambda t: np.abs(level.eval(np.reshape(t, (-1, 1)))))


class ToeplitzPreconditioner:
    """P = sum_l I (x) A_l (x) I for real symmetric n_l x n_l levels A_l.

    Each level is diagonalized once, A_l = Q_l diag(lambda_l) Q_l^T, so
    P = Q diag(Lambda) Q^T with Q the Kronecker product of the Q_l and the
    eigen-tensor Lambda(k_1, ..., k_d) = sum_l lambda_l[k_l].  Building
    raises NotSPDError unless Lambda is positive.  ``symbol`` is the symbol
    of the preconditioner sequence, the weight that divides |f| in the
    sample set.  The vector methods take a vector of length d_n or a
    (d_n, k) block; the instance is immutable and they are reentrant.
    The eigenbasis is applied by a rotating sweep, one GEMM per level: the
    first pass takes the levels in order, applies Q_l^T along the leading
    level and moves it last, so a block ends as (k, n_1, ..., n_d); after
    the scale, the second pass takes them in reverse, applies Q_l along the
    trailing level and moves it first, back to (d_n, k).
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
        self._inverse = 1.0 / tensor.ravel()

    @classmethod
    def from_symbol(cls, h: Symbol, n) -> "ToeplitzPreconditioner":
        """T_n(h) for a real, even symbol h that is a sum of one-level symbols.

        Raises SymmetryError unless the table is real with t_{-k} = t_k,
        and ParameterError if it is empty or couples two levels.
        """
        sizes = h.check_sizes(n)
        peak = max((abs(complex(v)) for v in h.coefficients.values()), default=0.0)
        if peak == 0.0:
            raise ParameterError("preconditioner symbol has no coefficients")
        for k, v in h.coefficients.items():
            v = complex(v)
            mirror = complex(h.coefficients.get(tuple(-x for x in k), 0.0))
            if abs(v.imag) > 1e-12 * peak or abs(v - mirror.conjugate()) > 1e-12 * peak:
                raise SymmetryError(f"symbol coefficient t_{k} breaks real symmetry")
        levels = [_symmetric_level([tab.get(j, 0.0) for j in range(nl)])
                  for tab, nl in zip(h.levels(), sizes)]
        return cls(levels, h)

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ShapeError(f"expected a vector of length {self.dim} or a ({self.dim}, k) "
                             f"block, got shape {x.shape}")
        return x

    def _into(self, x) -> np.ndarray:
        # (Q^T x)^T, one GEMM per level: a (d_n, k) block comes out as (k, d_n)
        y = self._check(x)
        for q, n in zip(self.bases, self.sizes):
            y = y.reshape(n, -1).T @ q
        return y.reshape(-1, self.dim)

    def _out_of(self, y, scale, shape) -> np.ndarray:
        # Q diag(scale) y for the fresh (k, d_n) output of _into, scaled in place
        y *= scale
        for q, n in zip(reversed(self.bases), reversed(self.sizes)):
            y = q @ y.reshape(-1, n).T
        return y.reshape(shape)

    def apply(self, x):
        """P x, by the level matrices themselves rather than the eigenbasis.

        This is the level product of ``ToeplitzOperator.matvec``,
        ``operators.kron_sum_product``: one GEMM per level.
        """
        return kron_sum_product(self.levels, self._check(x))

    def apply_inverse(self, r):
        return self._out_of(self._into(r), self._inverse, np.shape(r))

    def apply_inverse_sqrt(self, r):
        return self._out_of(self._into(r), np.sqrt(self._inverse), np.shape(r))


# The benchmark's tracer looks the circulant preconditioner up by this name.
CirculantKronSum = ToeplitzPreconditioner


def build_circulant_kron_sum(f: Symbol, n) -> ToeplitzPreconditioner:
    """Sum over levels of |C_l|, for a symbol that is a sum of one-level symbols.

    C_l is the Frobenius-optimal circulant of the level's Toeplitz factor,
    and |C_l| = (C_l^T C_l)^{1/2} is a symmetric circulant.  The weight
    symbol is the sum of the level moduli.
    """
    sizes = f.check_sizes(n)
    tables = f.levels()
    # a symmetric circulant is the symmetric Toeplitz matrix of its first column
    levels = [_symmetric_level(np.fft.ifft(circulant_abs(optimal_circulant(tab, nl))).real)
              for tab, nl in zip(tables, sizes)]
    weight = kron_sum_symbol([_level_modulus(tab) for tab in tables], name="sum_of_level_moduli")
    return ToeplitzPreconditioner(levels, weight)


def build_toepfr(f: Symbol, n) -> ToeplitzPreconditioner:
    """T(f_R), the Toeplitz matrix of the real part of f."""
    return ToeplitzPreconditioner.from_symbol(real_part_symbol(f), n)


def build_p22(alpha, beta, n1, n2, M, include_shift: bool = True) -> ToeplitzPreconditioner:
    """Both fractional levels replaced by the discrete Laplacian symbol.

    h(t1, t2) = 2 - 2 cos t1 + (h_x^alpha / h_y^beta)(2 - 2 cos t2) plus the
    2 h_x^alpha / dt identity shift, so preconditioner and system matrix
    describe the same time-stepped problem.  The shift toggle must match the
    one used for the system symbol.
    """
    ratio, shift = fractional_mesh(alpha, beta, n1, n2, M, include_shift)
    sym = kron_sum_symbol((laplace1d_symbol(), laplace1d_symbol()), (1.0, ratio), shift,
                          name=f"p22(alpha={alpha:g},beta={beta:g})")
    return ToeplitzPreconditioner.from_symbol(sym, (n1, n2))


def build_p2beta(alpha, beta, n1, n2, M, include_shift: bool = True) -> ToeplitzPreconditioner:
    """Level 2 carries the real part of the tetra-diagonal truncation.

    The four retained coefficients k = -1..2 symmetrize to the band -2..2;
    unlike the full symbol the truncation does not vanish at t2 = 0, which
    keeps the factor well conditioned as the shift goes to zero.
    """
    ratio, shift = fractional_mesh(alpha, beta, n1, n2, M, include_shift)
    level2 = real_part_symbol(p_beta_truncation(beta))
    sym = kron_sum_symbol((laplace1d_symbol(), level2), (1.0, ratio), shift,
                          name=f"p2beta(alpha={alpha:g},beta={beta:g})")
    return ToeplitzPreconditioner.from_symbol(sym, (n1, n2))


# ---------------------------------------------------------------------------
# preconditioned spectra


def preconditioned_spectrum(p, f: Symbol) -> np.ndarray:
    """Eigenvalues of P^{-1} S for S = Y T_n(f) and SPD P, ascending; takes the symbol.

    With P = Q Lambda Q^T, P^{-1} S is similar to the symmetric
    W = Lambda^{-1/2} Q^T S Q Lambda^{-1/2}.  S is gathered from f's table
    at P's sizes (``ToeplitzOperator.flipped_dense``) into an array this
    function owns, and the two panelled sweeps into the eigenbasis (rows,
    then columns) run in place there, so it holds one d_n x d_n array, then
    that array and LAPACK's copy.  Raises ShapeError when f has another
    level count or is an array (a dense S, which this function no longer
    takes) and SymmetryError for a complex table, whose Y T is not real
    symmetric.

    W is then averaged with W^T in both triangles.  For ``build_toepfr``'s
    P = T(f_R), ``_parity_spectrum`` solves W at size m_o <= d_n / 2 in the
    flip parity split of the module notes; any other P (``p22``,
    ``p2beta``, ``circsum``) fails one of its two checks and goes to
    eigvalsh at size d_n, unchanged.
    """
    if not isinstance(p, ToeplitzPreconditioner):
        raise ParameterError(f"unsupported preconditioner type {type(p).__name__}")
    if isinstance(f, np.ndarray):
        raise ShapeError(f"expected the symbol f, got an array of shape {f.shape}; "
                         "S = Y T_n(f) is gathered here from f's table")
    t = ToeplitzOperator.from_symbol(f, p.sizes)
    if not t.is_real:
        raise SymmetryError("Y T of a complex coefficient table is not real symmetric")
    w = t.flipped_dense()
    scale = np.sqrt(p._inverse)
    for rows in _panels(p.dim):
        np.multiply(p._into(w[rows].T), scale, out=w[rows])
    for cols in _panels(p.dim):
        np.multiply(p._into(w[:, cols]), scale, out=w[:, cols].T)
    # average W and W^T into both triangles; eigvalsh reads the lower one
    for r in _panels(p.dim):
        mean = (w[r.start:, r] + w[r, r.start:].T) / 2.0
        w[r.start:, r] = mean
        w[r, r.start:] = mean.T
    eigs = _parity_spectrum(p, w)
    if eigs is not None:
        return eigs
    return np.linalg.eigvalsh(w, UPLO="L")


# |q . q[::-1]| of a level basis column may miss 1 by this much, and the
# parity-diagonal blocks of W may miss +I and -I by this much times max|W|
# (measured for toepfr: 2.5e-14 at ex2 50^2, 5.3e-14 at 70^2, 2.1e-14 at
# ex3 16^3; a P scaled by 1.01 misses by 1e-2)
_PARITY_TOL = 1e-12


def _even_columns(p: ToeplitzPreconditioner):
    # the Y-even columns of Q as a mask over d_n, or None when some level
    # basis column has no definite parity under the level flip
    signs = []
    for q in p.bases:
        parity = np.einsum("ij,ij->j", q, q[::-1])
        if np.abs(np.abs(parity) - 1.0).max() > _PARITY_TOL:
            return None
        signs.append(np.sign(parity))
    return functools.reduce(np.multiply.outer, signs).ravel() > 0.0


def _parity_spectrum(p: ToeplitzPreconditioner, w):
    """Eigenvalues of W in the flip parity split of the module notes, or None.

    None, with W untouched, unless every level basis column has definite
    Y-parity and the parity-diagonal blocks of W are +I and -I to within
    _PARITY_TOL max|W|.  Otherwise B and the lower triangle of I + B^T B
    are written over the head of W's buffer.  B^T B is the smaller side: a
    centrosymmetric level has ceil(n_l / 2) even and floor(n_l / 2) odd
    eigenvectors, so m_e - m_o = prod_l (n_l mod 2).
    """
    even = _even_columns(p)
    if even is None:
        return None
    # W + D W D is twice the parity-diagonal blocks of W, D = diag(+-1) the
    # parity of each column: formed one row panel at a time in one buffer
    sign = np.where(even, 1.0, -1.0)
    buf = np.empty((min(_PANEL_ROWS, p.dim), p.dim))
    deviation = peak = 0.0
    for r in _panels(p.dim):
        panel, twice = w[r], buf[:r.stop - r.start]
        np.multiply(panel, sign, out=twice)
        twice *= sign[r, None]
        twice += panel
        twice[np.arange(len(twice)), np.arange(r.start, r.stop)] -= 2.0 * sign[r]
        deviation = max(deviation, twice.max() / 2.0, -twice.min() / 2.0)
        peak = max(peak, panel.max(), -panel.min())
    if not deviation <= _PARITY_TOL * peak:
        return None
    rows, cols = np.flatnonzero(even), np.flatnonzero(~even)
    m_e, m_o = len(rows), len(cols)
    # row a of B lands before row rows[a] >= a of W, which is read first
    flat = w.reshape(-1)
    b = flat[:m_e * m_o].reshape(m_e, m_o)
    for r in _panels(m_e):
        b[r] = w[np.ix_(rows[r], cols)]
    # the lower triangle of B^T B by column panels: one product of the whole
    # of B would grow BLAS's packing buffers for the rest of the process
    gram = flat[m_e * m_o:m_e * m_o + m_o * m_o].reshape(m_o, m_o)
    for c in _panels(m_o):
        np.matmul(b[:, c.start:].T, b[:, c], out=gram[c.start:, c])
    gram.reshape(-1)[::m_o + 1] += 1.0
    root = np.sqrt(np.linalg.eigvalsh(gram))
    return np.sort(np.concatenate((-root, np.ones(m_e - m_o), root)))
