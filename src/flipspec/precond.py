"""Preconditioners for the flipped multilevel Toeplitz systems.

Every preconditioner here is a Kronecker sum P = sum_l I (x) A_l (x) I of
real symmetric matrices A_l, one per level vector of a separable symbol
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
ToeplitzPreconditioner    Kronecker sum of centrosymmetric levels, parity eigenbases
CirculantKronSum          the same class, under the name the circulant used
build_circulant_kron_sum  sum of the levels |C_l| of a separable symbol,
                          weight symbol sum_l |f_l|
build_toepfr              T(f_R) for a given symbol
build_p22                 Laplacian on both levels (kron_sum_symbol)
build_p2beta              Laplacian on level 1, band truncation on level 2
preconditioned_spectrum   eigenvalues of P^{-1} Y T(f), assembled from the levels

Flip parity and the preconditioned spectrum
-------------------------------------------
A symmetric Toeplitz level, a symmetric circulant included, is
centrosymmetric, J A J = A for the flip J.  Its even half A11 + A12 J and
odd half A11 - A12 J (the middle row and column folded into the even half
by sqrt 2 for odd n) give an eigenbasis of vectors [u; +-J u] / sqrt 2, so
J_l Q_l = Q_l D_l with D_l = diag(+-1), exactly and even at repeated
eigenvalues (Cantoni & Butler, 1976).  For a separable f,
T = T_n(f) = sum_l I (x) T_l (x) I (t_0 on level 1) and Y = J_1 (x) ... (x) J_d, so

    W = Lambda^{-1/2} Q^T Y T Q Lambda^{-1/2}
      = Lambda^{-1/2} (sum_l D_1 (x) ... (x) G_l (x) ... (x) D_d) Lambda^{-1/2}
      = Lambda^{-1/2} D K Lambda^{-1/2},   K = sum_l I (x) D_l G_l (x) I,

with G_l = Q_l^T J_l T_l Q_l of size n_l x n_l and D = D_1 (x) ... (x) D_d, as
D_l^2 = I: about d_n sum_l n_l nonzeros, built once by ``_level_form``.  For
P = T(f_R), T_l is P's level A_l plus a skew Toeplitz part that anticommutes
with J_l, so the entries of G_l between columns of equal parity are
D_l diag(lambda_l), and in the parity split of Q's m_e even and m_o odd columns
W = [[I, B], [B^T, -I]], whose square is diag(I + B B^T, I + B^T B): the
eigenvalues are +-sqrt(1 + sigma_j^2) over the singular values of B, plus
m_e - m_o (0 or 1) eigenvalues +1, the finite-n form of the paper's
+-|f| / f_R = +-sqrt(1 + (f_I / f_R)^2).  That part of G_l is D_l diag(lambda_l)
if and only if (T_l + T_l^T) / 2 = A_l, so ``preconditioned_spectrum`` solves at
half size exactly when that holds bit for bit on every level, with no tolerance,
from B and then I + B^T B alone; a P equal to T(f_R) only up to rounding solves at d_n.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NotSPDError, ParameterError, ShapeError, SymmetryError
from .operators import (_check_length, _guard_capacity, kron_sum_product, level_matrices,
                        toeplitz_level)
from .symbols import (Symbol, fractional_mesh, kron_sum_symbol,
                      laplace1d_symbol, p_beta_truncation, real_part_symbol)


def optimal_circulant(v, n: int) -> np.ndarray:
    """First column of the circulant closest in Frobenius norm to T_n.

    c_j = ((n - j) t_j + j t_{j-n}) / n for j = 0..n-1, from a level vector
    v[q + k] = t_k as ``Symbol.levels`` gives; no t_k with |k| >= n is read.
    """
    n = int(n)
    if n < 1:
        raise ParameterError("circulant size must be >= 1")
    q, m = len(v) // 2, min(len(v) // 2, n - 1)
    t = np.zeros(2 * n)  # t[n + k] = t_k for |k| <= n - 1, and t_{-n} = 0
    t[n - m:n + m + 1] = v[q - m:q + m + 1]
    return ((n - np.arange(n)) * t[n:] + np.arange(n) * t[:n]) / n


def circulant_abs(c) -> np.ndarray:
    """Eigenvalues of (C^T C)^{1/2} for the circulant with first column c.

    These are the moduli of the DFT of c, listed in DFT order (not sorted),
    which keeps them aligned with the Fourier modes.
    """
    return np.abs(np.fft.fft(np.asarray(c)))


def _parity_eigh(a):
    # (lambda, Q, parity) per level of a stack of centrosymmetric levels of one
    # size, from their even and odd halves (module notes), even columns first;
    # the bottom rows are the top ones reversed and multiplied by the parity,
    # so J Q = Q diag(parity) holds bit for bit
    k, n = a.shape[:2]
    m, even = n // 2, (n + 1) // 2
    a11, a12j = a[:, :m, :m], a[:, :m, ::-1][:, :, :m]
    half = np.empty((k, even, even))
    np.add(a11, a12j, out=half[:, :m, :m])
    if n % 2:
        half[:, m, :m] = half[:, :m, m] = math.sqrt(2.0) * a[:, m, :m]
        half[:, m, m] = a[:, m, m]
    lam, q = np.empty((k, n)), np.empty((k, n, n))
    lam[:, :even], u = np.linalg.eigh(half)
    lam[:, even:], v = np.linalg.eigh(a11 - a12j)
    np.divide(u[:, :m], math.sqrt(2.0), out=q[:, :m, :even])
    np.divide(v, math.sqrt(2.0), out=q[:, :m, even:])
    parity = np.where(np.arange(n) < even, 1.0, -1.0)
    np.multiply(q[:, :m][:, ::-1], parity, out=q[:, n - m:])
    if n % 2:
        q[:, m, :even], q[:, m, even:] = u[:, m], 0.0
    return [(lam[i], q[i], parity) for i in range(k)]


class ToeplitzPreconditioner:
    """P = sum_l I (x) A_l (x) I for real symmetric, centrosymmetric levels A_l.

    Each level is diagonalized once, A_l = Q_l diag(lambda_l) Q_l^T, from
    its even and odd halves (module notes), so J_l Q_l = Q_l D_l exactly
    with D_l = diag(``parities[l]``), entries +-1, and ``eigenvalues[l]``
    = lambda_l.  Then P = Q diag(Lambda) Q^T with Q the Kronecker product
    of the Q_l and the eigen-tensor Lambda(k_1, ..., k_d) =
    sum_l lambda_l[k_l].  Building raises SymmetryError unless every level
    is real and equals its transpose and its flip J A_l J exactly, and
    NotSPDError unless Lambda is positive.  ``symbol`` is the symbol of the
    preconditioner sequence, the weight that divides |f| in the sample set.
    The vector methods take one vector of length d_n (ShapeError otherwise);
    the instance is immutable and they are reentrant.
    The eigenbasis is applied by a rotating sweep, one GEMM per level: the
    first pass takes the levels in order, applies Q_l^T along the leading
    level and moves it last; after the scale, the second pass takes them in
    reverse, applies Q_l along the trailing level and moves it first.
    """

    def __init__(self, levels, symbol: Symbol = None):
        levels = tuple(map(np.asarray, levels))
        if not levels:
            raise ShapeError("a Kronecker sum needs at least one level")
        if any(map(np.iscomplexobj, levels)):
            raise SymmetryError("level matrix is complex, not real symmetric")
        self.levels = tuple(a.astype(float, copy=False) for a in levels)
        for a in self.levels:
            if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
                raise ShapeError(f"level matrix has shape {a.shape}, expected a square matrix")
        self.sizes = tuple(a.shape[0] for a in self.levels)
        self.dim = math.prod(self.sizes)
        self.symbol = symbol
        # the levels of one size are checked and diagonalized as one stack,
        # taken back in level order
        stacks = {n: np.stack([a for a in self.levels if len(a) == n])
                  for n in dict.fromkeys(self.sizes)}
        for st in stacks.values():
            if not (st == st.transpose(0, 2, 1)).all():
                raise SymmetryError("level matrix is not symmetric")
            if not (st == st[:, ::-1, ::-1]).all():
                raise SymmetryError("level matrix is not centrosymmetric")
        bases = {n: iter(_parity_eigh(st)) for n, st in stacks.items()}
        self.eigenvalues, self.bases, self.parities = zip(*(next(bases[n]) for n in self.sizes))
        tensor = functools.reduce(np.add.outer, self.eigenvalues)
        low, peak = float(tensor.min()), float(tensor.max())
        if not low > 1e-14 * abs(peak):
            name = symbol.name if symbol is not None and symbol.name else "P"
            raise NotSPDError(f"preconditioner {name} is not positive definite: "
                              f"smallest eigenvalue {low:.6e} (largest {peak:.6e})")
        self._inverse = 1.0 / tensor.ravel()

    @classmethod
    def from_symbol(cls, h: Symbol, n) -> "ToeplitzPreconditioner":
        """T_n(h) for a real, even symbol h that is a sum of one-level symbols.

        The levels are ``operators.level_matrices(h, n)``.  Raises
        SymmetryError if t_{-k} != t_k in any bit, through the class's exact
        A_l == A_l^T, and ParameterError if every level is zero or the table couples levels.
        """
        levels = level_matrices(h, n)
        if not any(a.any() for a in levels):
            raise ParameterError("preconditioner symbol has no coefficients")
        return cls(levels, h)

    def _sweep(self, r, scale) -> np.ndarray:
        # Q diag(scale) Q^T r by the rotating sweep of the class notes
        y = _check_length(r, self.dim)
        for q, n in zip(self.bases, self.sizes):
            y = y.reshape(n, -1).T @ q
        y = y.reshape(-1)
        y *= scale
        for q, n in zip(reversed(self.bases), reversed(self.sizes)):
            y = q @ y.reshape(-1, n).T
        return y.reshape(-1)

    def apply(self, x):
        """P x, by the level matrices themselves rather than the eigenbasis.

        This is the level product of ``ToeplitzOperator.matvec``,
        ``operators.kron_sum_product``: one GEMM per level.
        """
        return kron_sum_product(self.levels, x)

    def apply_inverse(self, r):
        return self._sweep(r, self._inverse)

    def apply_inverse_sqrt(self, r):
        return self._sweep(r, np.sqrt(self._inverse))


# The benchmark's tracer looks the circulant preconditioner up by this name.
CirculantKronSum = ToeplitzPreconditioner


def build_circulant_kron_sum(f: Symbol, n) -> ToeplitzPreconditioner:
    """Sum over levels of |C_l|, for a symbol that is a sum of one-level symbols.

    C_l is the Frobenius-optimal circulant of the level's Toeplitz factor,
    and |C_l| = (C_l^T C_l)^{1/2} is a symmetric circulant.  The weight
    symbol is sum_l |f_l(theta_l)|, each f_l summed from its level vector.
    """
    sizes = f.check_sizes(n)
    vectors = f.levels()
    # a symmetric circulant is the symmetric Toeplitz matrix of its first column c
    cols = (np.fft.ifft(circulant_abs(optimal_circulant(v, nl))).real
            for v, nl in zip(vectors, sizes))
    levels = [toeplitz_level(np.concatenate((c[:0:-1], c))) for c in cols]
    tables = [Symbol(1, None, [v]) for v in vectors]
    level_abs = lambda t, th: np.abs(t.eval(np.reshape(th, (-1, 1)))).reshape(np.shape(th))
    moduli = lambda *theta: functools.reduce(np.add, map(level_abs, tables, theta))
    return ToeplitzPreconditioner(levels, Symbol(f.dims, moduli, name="sum_of_level_moduli"))


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
    return _laplacian_variant("p22", laplace1d_symbol(), alpha, beta, n1, n2, M, include_shift)


def build_p2beta(alpha, beta, n1, n2, M, include_shift: bool = True) -> ToeplitzPreconditioner:
    """Level 2 carries the real part of the tetra-diagonal truncation.

    The four retained coefficients k = -1..2 symmetrize to the band -2..2;
    unlike the full symbol the truncation does not vanish at t2 = 0, which
    keeps the factor well conditioned as the shift goes to zero.
    """
    return _laplacian_variant("p2beta", real_part_symbol(p_beta_truncation(beta)),
                              alpha, beta, n1, n2, M, include_shift)


def _laplacian_variant(name, level2: Symbol, alpha, beta, n1, n2, M, include_shift):
    ratio, shift = fractional_mesh(alpha, beta, n1, n2, M, include_shift)
    sym = kron_sum_symbol((laplace1d_symbol(), level2), (1.0, ratio), shift,
                          name=f"{name}(alpha={alpha:g},beta={beta:g})")
    return ToeplitzPreconditioner.from_symbol(sym, (n1, n2))


# ---------------------------------------------------------------------------
# preconditioned spectra


def preconditioned_spectrum(p, f: Symbol) -> np.ndarray:
    """Eigenvalues of P^{-1} S for S = Y T_n(f) and SPD P, ascending; takes the symbol.

    P^{-1} S is similar to the symmetric W of the module notes, built by ``_level_form``
    from T_l = ``level_matrices(f, P.sizes)``.  If (T_l + T_l^T) / 2 == A_l bit for bit
    on every level, as for P = T(f_R), ``_parity_spectrum`` solves at size m_o <= d_n / 2
    from B = W[even, odd] alone; any other P (``p22``, ``p2beta``, ``circsum``, a T(f_R)
    off by rounding) builds W for eigvalsh at size d_n.  Raises ShapeError for an array
    or another level count, ParameterError for a non-separable f, CapacityError above 20000.
    """
    if not isinstance(p, ToeplitzPreconditioner):
        raise ParameterError(f"unsupported preconditioner type {type(p).__name__}")
    if isinstance(f, np.ndarray):
        raise ShapeError(f"expected the symbol f, got an array of shape {f.shape}; "
                         "Y T_n(f) is assembled here from f's table")
    _guard_capacity(p.dim, "preconditioned spectrum")
    levels = level_matrices(f, p.sizes)
    split = all(np.array_equal((t_l + t_l.T) / 2.0, a) for t_l, a in zip(levels, p.levels))
    form = _level_form(p, levels)
    if split:
        return _parity_spectrum(_level_block(p.sizes, form, form[2] > 0.0, form[2] < 0.0))
    every = np.ones(p.dim, bool)
    return np.linalg.eigvalsh(_level_block(p.sizes, form, every, every), UPLO="L")


def _level_form(p, levels):
    # W = Lambda^{-1/2} D K Lambda^{-1/2} (module notes): D_l G_l, Lambda^{-1/2}, Lambda^{-1/2} D;
    # empties the list levels of the T_l, each let go once Q_l^T J_l T_l is formed
    dg = [q.T @ levels.pop(0)[::-1] @ q for q in p.bases]
    for g, par in zip(dg, p.parities):
        np.add(g, g.T, out=g)
        g *= 0.5 * par[:, None]
    scale = np.sqrt(p._inverse)
    return dg, scale, scale * functools.reduce(np.multiply.outer, p.parities).ravel()


def _level_block(sizes, form, rows, cols) -> np.ndarray:
    # W[rows][:, cols] for masks over the flat index, added into one zeroed array level by
    # level and fiber by fiber (the indices off level l fixed): term l joins a fiber's i and j,
    # valued ((D_l G_l)[i_l, j_l] (Lambda^{-1/2} D)(i)) Lambda^{-1/2}(j), from _level_form
    dg, scale, left = form
    at_row, at_col = np.cumsum(rows) - 1, np.cumsum(cols) - 1
    block = np.zeros((np.count_nonzero(rows), np.count_nonzero(cols)))
    for l, g in enumerate(dg):
        fibers = (np.moveaxis(a.reshape(sizes), l, -1).reshape(-1, len(g))
                  for a in (rows, cols, left, scale, at_row, at_col))
        for r, c, lf, sc, ar, ac in zip(*fibers):
            block[np.ix_(ar[r], ac[c])] += (g[np.ix_(r, c)] * lf[r, None]) * sc[c]
    return block


def _parity_spectrum(b) -> np.ndarray:
    """Eigenvalues of W = [[I, B], [B^T, -I]] from B = W[even, odd] alone.

    I + B^T B gets its own array and B is let go before the eigensolve: about
    half of one d_n x d_n array is held.  B^T B is the smaller side, as m_e >= m_o:
    a centrosymmetric level has ceil(n_l / 2) even, floor(n_l / 2) odd eigenvectors.
    """
    m_e, m_o = b.shape
    # the lower triangle of B^T B by 128 columns: one whole product grows BLAS's
    # packing buffers for the rest of the process (4.4 MB against 1 MB at ex2 50^2)
    gram = np.zeros((m_o, m_o))
    for c in range(0, m_o, 128):
        np.matmul(b[:, c:].T, b[:, c:c + 128], out=gram[c:, c:c + 128])
    del b
    gram.reshape(-1)[::m_o + 1] += 1.0
    root = np.sqrt(np.linalg.eigvalsh(gram))
    return np.sort(np.concatenate((-root, np.ones(m_e - m_o), root)))
