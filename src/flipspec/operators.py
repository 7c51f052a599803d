"""Structured matrices and index-map operators.

Multilevel Toeplitz matrices are represented by their sparse table of real
coefficients t_k and assembled densely only behind an explicit size guard.
Every matrix and vector here is real: a complex t_k is refused where the
table enters (``Symbol`` or ``ToeplitzOperator``), a complex x by matvec.
A matvec takes one of three kernels, fixed by the table at construction:

- the flat diagonals, through scipy's DIA matvec, whenever the table stores
  at most log2 M coefficients, M the size of the circulant embedding below;
  kept as one length-d_n vector per stored coefficient;
- the level product, for a dense table on two or more levels that is
  separable (every index has at most one nonzero component) while
  sum_l n_l < 4096: T_n(f) = sum_l I (x) T_{n_l}(f_l) (x) I with one
  GEMM per level, on dense n_l x n_l level matrices;
- otherwise the circulant embedding of each level at the least 5-smooth
  length >= n_l + q_l, through a real FFT pair.

Each kernel is built on the first matvec.  The flip, shuffle and half-flip
operators are never materialized: they act as per-level index permutations
composed through the row-major flat layout (level 1 slowest).

Contents
--------
ToeplitzOperator          coefficient table + sizes, dense(), matvec(),
                          flipped_dense() and flipped_blocks() for Y T
toeplitz_level            dense one-level Toeplitz matrix from t_{1-n}..t_{n-1}
level_matrices            T_{n_l}(f_l) per level of a separable table, t_0 on level 1
kron_sum_product          sum_l (I (x) A_l (x) I) x, one GEMM per level
flip_apply                reversed copy of the vector (Y_n x)
u_apply                   reverse the leading half of each level (U_n x)
pi_apply                  even-size shuffle permutation (Pi_n x, Pi_n^T x)
flip_map / u_map / pi_map flat index maps behind the appliers
assemble_block_g          2x2-block Toeplitz of g = [[0, f], [f*, 0]]
interleaved_block_g       per-level interleaved form of the same symbol
assemble_hankel           dense multilevel Hankel, plus/minus orientation
structure_residual        D = Pi U Y T(f) U Pi^T - T(g) with rank/norm split
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, EvenSizeError, ShapeError
from .symbols import Symbol, _check_real_table, _separable_level, as_sizes, total_dim

__all__ = [
    "DENSE_CAPACITY",
    "ToeplitzOperator",
    "toeplitz_level",
    "level_matrices",
    "kron_sum_product",
    "flip_map",
    "u_map",
    "pi_map",
    "flat_map",
    "flip_apply",
    "u_apply",
    "pi_apply",
    "assemble_block_g",
    "interleaved_block_g",
    "assemble_hankel",
    "structure_residual",
]

# A spectrum holds two d_n x d_n arrays, one of them LAPACK's: 6.4 GB at the cap.
DENSE_CAPACITY = 20000
# Row or column panel height of the dense passes that need no d_n x d_n temporary.
_PANEL_ROWS = 32


def _guard_capacity(dim: int, what: str) -> None:
    if dim > DENSE_CAPACITY:
        raise CapacityError(f"{what} needs size {dim} > {DENSE_CAPACITY}")


def _panels(n: int):
    # consecutive slices of at most _PANEL_ROWS indices covering range(n)
    return (slice(i, min(i + _PANEL_ROWS, n)) for i in range(0, n, _PANEL_ROWS))


def _check_length(x, d_n: int):
    x = np.asarray(x)
    if x.shape != (d_n,):
        raise ShapeError(f"expected a vector of length {d_n}, got shape {x.shape}")
    return x


# ---------------------------------------------------------------------------
# index-map operators


def flat_map(per_level, sizes) -> np.ndarray:
    """Compose per-level index maps into one flat map on the row-major layout."""
    sizes = as_sizes(sizes)
    grids = np.ix_(*per_level)
    return np.ravel_multi_index(grids, sizes).ravel()


def flip_map(n) -> np.ndarray:
    """Flat map of the flip Y_n: every level index reversed."""
    sizes = as_sizes(n)
    return flat_map([np.arange(m)[::-1] for m in sizes], sizes)


def u_map(n) -> np.ndarray:
    """Flat map of U_n: per level, reverse the first ceil(n_l/2) indices."""
    sizes = as_sizes(n)
    maps = []
    for m in sizes:
        h = (m + 1) // 2
        maps.append(np.r_[np.arange(h)[::-1], np.arange(h, m)])
    return flat_map(maps, sizes)


def pi_map(n, transposed: bool = False) -> np.ndarray:
    """Flat map of the shuffle Pi_n (or its transpose).  Even sizes only.

    Per level, x -> Pi x interleaves the two halves: output slots 0,2,4,...
    take the first half, slots 1,3,5,... the second.  The transpose undoes
    that, gathering even and odd slots back into contiguous halves.
    """
    sizes = as_sizes(n)
    maps = []
    for m in sizes:
        if m % 2:
            raise EvenSizeError(f"shuffle permutation needs even level sizes, got {m}")
        half = m // 2
        if transposed:
            maps.append(np.r_[np.arange(0, m, 2), np.arange(1, m, 2)])
        else:
            fwd = np.empty(m, dtype=int)
            fwd[0::2] = np.arange(half)
            fwd[1::2] = half + np.arange(half)
            maps.append(fwd)
    return flat_map(maps, sizes)


def flip_apply(n, x):
    """y = Y_n x as a reversed copy of x.

    Reversing every level index maps flat index i to d_n - 1 - i on the
    row-major layout, so Y_n reverses the whole vector; no index map is built.
    """
    sizes = as_sizes(n)
    return _check_length(x, math.prod(sizes))[::-1].copy()


def u_apply(n, x):
    """y = U_n x: reverse the leading half of each level, fix the rest."""
    sizes = as_sizes(n)
    return _check_length(x, math.prod(sizes))[u_map(sizes)]


def pi_apply(n, x, transposed: bool = False):
    """y = Pi_n x (or Pi_n^T x when transposed).  Raises on odd level sizes."""
    sizes = as_sizes(n)
    return _check_length(x, math.prod(sizes))[pi_map(sizes, transposed)]


# ---------------------------------------------------------------------------
# multilevel Toeplitz


def _smooth_len(v: int) -> int:
    # least 2^a 3^b 5^c >= v, the lengths numpy.fft transforms fastest
    best = 1 << max(v - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < v:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _sums_directly(nterms: int, lengths) -> bool:
    # the diagonals make one pass over d_n per stored coefficient,
    # the real FFT pair about log2 M passes over the M-point embedding
    return nterms <= math.log2(math.prod(lengths))


# Level sizes summing to this or more go to the FFT: the level GEMMs make
# 2 sum_l n_l flops per entry, the FFT pair a few log2 M passes.  Measured
# on a 2-core Xeon with one BLAS thread, ms per ex2 matvec, FFT -> levels:
# 10^2 0.058 -> 0.010, 40^2 0.164 -> 0.017, 80^2 0.47 -> 0.057,
# 256^2 10.9 -> 1.7, 512^2 46 -> 12.6, 1024^2 156 -> 83; near parity at
# 2048^2 (551 vs 633 and 731 vs 625 in two readings), and the FFT ahead at
# 64 x 4096 and 4096 x 64 (47-52 vs 57-68).
_LEVEL_CROSSOVER = 4096


def _multiplies_by_levels(indices, sizes) -> bool:
    # a separable table, every index with at most one nonzero component, is
    # a sum of one-level tables, T_n(f) = sum_l I (x) T_{n_l}(f_l) (x) I; on
    # one level the product would be a memory-bound GEMV
    return (len(sizes) > 1 and sum(sizes) < _LEVEL_CROSSOVER
            and all(sum(map(bool, k)) <= 1 for k in indices))


def _lookup_keys(table, sizes) -> np.ndarray:
    # the mixed-radix code sum_l stride_l i_l of every flat index i, on the
    # strides of a table of shape (2 n_l - 1)_l; the code of per-level sums
    # and differences is separable (digits never carry), so the outer sum of
    # two key vectors indexes the table levelwise
    strides = np.cumprod((1,) + table.shape[::-1][:-1])[::-1]
    levels = np.unravel_index(np.arange(total_dim(sizes)), sizes)
    return sum(s * il for s, il in zip(strides, levels))


def _dense_lookup(table, sizes, sign: int) -> np.ndarray:
    # entry (i, j) = table[i - j + n - 1] (sign -1, Toeplitz) or table[i + j]
    # (sign +1, Hankel), level by level, gathered one row panel at a time
    # into the output; the last key is the code of n - 1
    key = _lookup_keys(table, sizes)
    rowkey = key if sign > 0 else key + key[-1]
    colkey = sign * key
    flat = table.ravel()
    out = np.empty((key.size, key.size), dtype=table.dtype)
    for rows in _panels(key.size):  # keys are in range; "clip" lets take write out unbuffered
        np.take(flat, rowkey[rows, None] + colkey, out=out[rows], mode="clip")
    return out


def _exchange_block(flat, key, partner, combine, weight) -> np.ndarray:
    # D combine(A[R, R], A[R, S R]) D for the Hankel lookup A[i, j] =
    # flat[key_i + key_j] and combine np.add or np.subtract, given key over
    # R, partner = the keys of S R and D = diag(weight); both gathers and
    # the combination run one row panel at a time
    size = key.size
    out = np.empty((size, size), dtype=flat.dtype)
    buf = np.empty((min(_PANEL_ROWS, size), size), dtype=flat.dtype)
    for rows in _panels(size):
        panel, part = out[rows], buf[:rows.stop - rows.start]
        np.take(flat, key[rows, None] + key, out=panel, mode="clip")
        np.take(flat, key[rows, None] + partner, out=part, mode="clip")
        combine(panel, part, out=panel)
        panel *= weight[rows, None]
        panel *= weight
    return out


def toeplitz_level(t) -> np.ndarray:
    """Dense n x n Toeplitz matrix with entry (i, j) = t_{i-j}.

    ``t`` is the length 2n - 1 vector t_{1-n}, ..., t_{n-1}, so t_k sits at
    index k + n - 1; the matrix takes its dtype.
    """
    t = np.ascontiguousarray(t)
    if t.ndim != 1 or t.size % 2 == 0:
        raise ShapeError(f"expected a vector of odd length 2n - 1, got shape {t.shape}")
    n, step = (t.size + 1) // 2, t.itemsize
    # entry (i, j) is t[n - 1 + i - j]: a view whose rows step forward from
    # t_0 and whose columns step back, copied out
    return np.ndarray((n, n), t.dtype, t, (n - 1) * step, (step, -step)).copy()


def level_matrices(f: Symbol, sizes) -> list:
    """T_{n_l}(f_l) for each level table (``Symbol.levels``) of a separable f.

    Only coefficients with every |k_l| < n_l are read.  Raises ShapeError
    unless there is one size per level, ParameterError when an in-band index
    has two nonzero components.
    """
    sizes = f.check_sizes(sizes)
    cols = [np.zeros(2 * nl - 1) for nl in sizes]
    for k, t in f.coefficients.items():
        if all(abs(kl) < nl for kl, nl in zip(k, sizes)):
            l = _separable_level(k)
            cols[l][k[l] + sizes[l] - 1] = t
    return [toeplitz_level(col) for col in cols]


def kron_sum_product(levels, x) -> np.ndarray:
    """sum_l (I (x) A_l (x) I) x for square level matrices A_l, level 1 slowest.

    x is a vector of length d_n = prod n_l or a (d_n, k) block, and the
    result has its shape.  The work runs on the (k, d_n) rows of x, a copy
    only for a block: level l < d is one matmul of A_l into the
    (k prod n_<l, n_l, prod n_>l) view, and the last level is the single
    GEMM of the (k d_n / n_d, n_d) view with A_d^T, not a batched GEMV.
    """
    sizes = [a.shape[0] for a in levels]
    rows = np.ascontiguousarray(np.reshape(x, (math.prod(sizes), -1)).T)
    *first, last = levels
    y = rows.reshape(-1, sizes[-1]) @ last.T
    for l, a in enumerate(first):
        y += (a @ rows.reshape(-1, sizes[l], math.prod(sizes[l + 1:]))).reshape(y.shape)
    return y.reshape(rows.shape).T.reshape(np.shape(x))


class ToeplitzOperator:
    """Multilevel Toeplitz matrix T_n(f), entry (i, j) = t_{i-j}.

    Holds the real coefficient table clipped to the representable band
    |k_l| <= n_l - 1 (coefficients outside it cannot touch any entry), and
    fixes at construction which of the three kernels in the module notes
    matvec uses, built on the first matvec.  Immutable after construction;
    matvec is reentrant.
    """

    def __init__(self, coefficients: dict, n):
        self.sizes = as_sizes(n)
        self.dim = math.prod(self.sizes)
        d = len(self.sizes)
        _check_real_table(coefficients)
        clipped = {}
        for k, t in coefficients.items():
            k = tuple(int(v) for v in k)
            if len(k) != d:
                raise ShapeError(f"coefficient index {k} does not match {d} levels")
            if all(abs(kl) <= nl - 1 for kl, nl in zip(k, self.sizes)):
                clipped[k] = t
        self.coefficients = clipped
        # per-level circulant length m_l >= n_l + q_l keeps the wrap-around
        # of every |k_l| <= q_l off the leading n_l x n_l block
        self._lengths = tuple(_smooth_len(nl + ql) for nl, ql in zip(self.sizes, self.band))
        if _sums_directly(len(clipped), self._lengths):
            self._kernel = "diagonals"
        elif _multiplies_by_levels(clipped, self.sizes):
            self._kernel = "levels"
        else:
            self._kernel = "fft"
        self._diagonals = None
        self._levels = None
        self._kernel_hat = None

    @classmethod
    def from_symbol(cls, symbol: Symbol, n) -> "ToeplitzOperator":
        return cls(symbol.coefficients, symbol.check_sizes(n))

    @property
    def band(self) -> tuple[int, ...]:
        if not self.coefficients:
            return (0,) * len(self.sizes)
        return tuple(max(abs(k[l]) for k in self.coefficients)
                     for l in range(len(self.sizes)))

    def _table(self) -> np.ndarray:
        # t_k at position k + n - 1, an array of shape (2 n_l - 1)_l
        table = np.zeros(tuple(2 * nl - 1 for nl in self.sizes))
        for k, t in self.coefficients.items():
            table[tuple(kl + nl - 1 for kl, nl in zip(k, self.sizes))] = t
        return table

    def dense(self) -> np.ndarray:
        """Materialize the d_n x d_n matrix.  Guarded at d_n <= 20000.

        Gathered by row panels, so it is the one d_n x d_n array built; a
        spectrum of it adds one more, LAPACK's copy inside eigvalsh.
        """
        _guard_capacity(self.dim, "dense Toeplitz assembly")
        return _dense_lookup(self._table(), self.sizes, -1)

    def _flipped_table(self) -> np.ndarray:
        # t_{n-1-m} at position m: Y T has entry (i, j) = t_{n-1-i-j} levelwise
        _guard_capacity(self.dim, "dense flipped assembly")
        return self._table()[(slice(None, None, -1),) * len(self.sizes)]

    def flipped_dense(self) -> np.ndarray:
        """Y_n T_n(f), gathered as a Hankel lookup of the table reversed on every level.

        Entry (i, j) is t_{n-1-i-j} levelwise, the row d_n - 1 - i of
        ``dense()``; gathered by row panels straight into the one d_n x d_n
        array built.  Guarded at d_n <= 20000.
        """
        return _dense_lookup(self._flipped_table(), self.sizes, 1)

    def flipped_blocks(self):
        """Y_n T_n(f) as the blocks that hold its spectrum, yielded one at a time.

        With no exchange symmetry the one block is ``flipped_dense()``.  A
        level pair (l, m) with n_l = n_m whose table is exactly invariant
        under exchanging k_l and k_m (checked by equality, first such pair)
        makes the level exchange S commute with T and with Y, so Y T is
        orthogonally similar to diag(B+, B-), gathered from the same lookup
        A[i, j] = t_{n-1-i-j}:

            B+ = D (A[R+, R+] + A[R+, S R+]) D,  R+ = {i : i_l <= i_m},
            B- = A[R-, R-] - A[R-, S R-],        R- = {i : i_l < i_m},

        with D = 1/sqrt(2) where i_l = i_m and 1 elsewhere: the symmetric-
        and antisymmetric-tensor blocks, of sizes d_n (n_l + 1) / 2 n_l and
        d_n (n_l - 1) / 2 n_l.  Guarded at d_n <= 20000.
        """
        table = self._flipped_table()
        pair = next(((l, m) for l in range(table.ndim) for m in range(l + 1, table.ndim)
                     if self.sizes[l] == self.sizes[m]
                     and np.array_equal(table, table.swapaxes(l, m))), None)
        if pair is None:
            yield _dense_lookup(table, self.sizes, 1)
            return
        l, m = pair
        flat, key = table.ravel(), _lookup_keys(table, self.sizes)
        partner = key.reshape(self.sizes).swapaxes(l, m).ravel()
        levels = np.unravel_index(np.arange(self.dim), self.sizes)
        il, im = levels[l], levels[m]
        for combine, rows in ((np.add, np.flatnonzero(il <= im)),
                              (np.subtract, np.flatnonzero(il < im))):
            weight = np.where(il[rows] == im[rows], np.sqrt(0.5), 1.0)
            yield _exchange_block(flat, key[rows], partner[rows], combine, weight)

    def _diagonal_matrix(self):
        # y_i collects t_k x_{i-s_k}, s_k = sum_l k_l stride_l on the flat
        # layout, so coefficient k is the diagonal at offset -s_k; scipy
        # stores it by column j, t_k where j_l + k_l stays inside every level
        # and 0 where a level would wrap.  Two coefficients share an offset
        # only if they differ by n_l or more on some level; a column then
        # reads at most one of them, so they share one diagonal.
        if self._diagonals is None:
            from scipy.sparse import dia_matrix

            strides = np.cumprod((1,) + self.sizes[:0:-1])[::-1]
            rows = {}
            for k, t in self.coefficients.items():
                offset = -int(np.dot(k, strides))
                row = rows.setdefault(offset, np.zeros(self.sizes))
                src = tuple(slice(max(-kl, 0), nl - max(kl, 0)) for kl, nl in zip(k, self.sizes))
                row[src] = t
            data = np.array([row.ravel() for row in rows.values()]).reshape(len(rows), self.dim)
            self._diagonals = dia_matrix((data, list(rows)), shape=(self.dim, self.dim))
        return self._diagonals

    def _embedding(self):
        if self._kernel_hat is None:
            mm = self._lengths
            kernel = np.zeros(mm)
            for k, t in self.coefficients.items():
                kernel[tuple(kl % ml for kl, ml in zip(k, mm))] = t
            axes = tuple(range(len(mm)))
            self._kernel_hat = (mm, axes, np.fft.rfftn(kernel, mm, axes))
        return self._kernel_hat

    def matvec(self, x) -> np.ndarray:
        """y = T_n(f) x for a real x; a complex x raises ShapeError.

        A sparse table is applied as flat diagonals through scipy's DIA
        matvec, built on first use: coefficient k is the diagonal at offset
        -sum_l k_l stride_l, zero on the rows where a level would wrap, and
        the diagonals are added in the table's order, O(nnz d_n).
        A dense separable table on two or more levels with sum_l n_l < 4096
        is applied as sum_l (I (x) T_{n_l}(f_l) (x) I) x on the levels of
        ``level_matrices``, O(d_n sum_l n_l).  Any other dense table goes
        through the per-level circulant embedding and a real FFT pair,
        O(d_n log d_n).
        """
        x = _check_length(x, self.dim)
        if np.iscomplexobj(x):
            raise ShapeError("T_n(f) multiplies real vectors, got a complex one")
        x = x.reshape(self.sizes)
        if self._kernel == "diagonals":
            return self._shifted_sum(x)
        if self._kernel == "levels":
            return self._level_product(x)
        return self._product(x)

    def _shifted_sum(self, x) -> np.ndarray:
        return self._diagonal_matrix() @ x.ravel()

    def _level_product(self, x) -> np.ndarray:
        if self._levels is None:
            self._levels = level_matrices(Symbol(len(self.sizes), None, self.coefficients),
                                          self.sizes)
        return kron_sum_product(self._levels, x).ravel()

    def _product(self, x) -> np.ndarray:
        mm, axes, khat = self._embedding()
        keep = tuple(slice(0, nl) for nl in self.sizes)
        full = np.fft.irfftn(np.fft.rfftn(x, mm, axes) * khat, mm, axes)
        return full[keep].ravel()


# ---------------------------------------------------------------------------
# block symbols and Hankel


def assemble_block_g(f: Symbol, n) -> np.ndarray:
    """Dense 2x2-block Toeplitz of g = [[0, f], [f*, 0]] at block counts n.

    Output size is 2 d_n with d_n = prod(n); the 2x2 block sits at the
    innermost (fastest) level, so block (I, J) occupies rows 2I, 2I+1 and
    columns 2J, 2J+1 and carries [[0, t_{I-J}], [t_{J-I}, 0]], real
    symmetric by construction.
    """
    sizes = as_sizes(n)
    d_n = total_dim(sizes)
    _guard_capacity(2 * d_n, "2x2-block Toeplitz assembly")
    t1 = ToeplitzOperator(f.coefficients, sizes).dense()
    out = np.zeros((2 * d_n, 2 * d_n))
    out[0::2, 1::2] = t1
    out[1::2, 0::2] = t1.T
    return out


def _block_level(k: int, n: int) -> np.ndarray:
    # one level of the interleaved block form: even size n = 2m, the
    # monomial e^{ik theta} lands on the two off-parity diagonals
    m = n // 2
    out = np.zeros((n, n))
    out[0::2, 1::2] = np.eye(m, k=-k)
    out[1::2, 0::2] = np.eye(m, k=k)
    return out


def interleaved_block_g(f: Symbol, n) -> np.ndarray:
    """The block symbol g assembled in per-level interleaved layout, size d_n.

    Each level is split into even/odd slots in place instead of stacking the
    two branches last, which is the layout the shuffle conjugation
    Pi U Y T(f) U Pi^T actually produces.  For one level this is the plain
    2x2-block form of ``assemble_block_g`` at block count n/2.  All level
    sizes must be even.
    """
    sizes = as_sizes(n)
    d_n = total_dim(sizes)
    _guard_capacity(d_n, "interleaved block assembly")
    if any(m % 2 for m in sizes):
        raise EvenSizeError(f"interleaved block form needs even level sizes, got {sizes}")
    out = np.zeros((d_n, d_n))
    for k, t in f.coefficients.items():
        term = _block_level(k[0], sizes[0])
        for kl, nl in zip(k[1:], sizes[1:]):
            term = np.kron(term, _block_level(kl, nl))
        out += t * term
    return out


def assemble_hankel(f: Symbol, n, orientation: str = "plus") -> np.ndarray:
    """Dense multilevel Hankel with entry t_{i+j} (plus) or t_{-(i+j)} (minus).

    Indices are 0-based per level, so the top-left entry is t_0 and the
    anti-diagonals are constant in the multi-index sum i + j.
    """
    sizes = as_sizes(n)
    d_n = total_dim(sizes)
    _guard_capacity(d_n, "dense Hankel assembly")
    if orientation not in ("plus", "minus"):
        raise ShapeError(f"orientation must be 'plus' or 'minus', got {orientation!r}")
    sign = 1 if orientation == "plus" else -1
    table = np.zeros(tuple(2 * nl - 1 for nl in sizes))
    for k, t in f.coefficients.items():
        pos = tuple(sign * kl for kl in k)
        if all(0 <= p <= 2 * (nl - 1) for p, nl in zip(pos, sizes)):
            table[pos] = t
    return _dense_lookup(table, sizes, 1)


def _singular_split(svals, rel: float):
    # (largest, how many lie above rel * largest, largest at or under that
    # cut) for singular values in descending order
    top = float(svals[0]) if svals.size else 0.0
    count = int(np.count_nonzero(svals > rel * top))
    tail = float(svals[count]) if count < svals.size else 0.0
    return top, count, tail


def _shuffle_conjugate(a, sizes) -> np.ndarray:
    # Pi U Y a U Pi^T for a dense d_n x d_n matrix a, by row and column gathers
    fu, fp = u_map(sizes), pi_map(sizes)
    return a[flip_map(sizes), :][fu][:, fu][fp][:, fp]


def structure_residual(f: Symbol, n):
    """Residual D = Pi_n U_n Y_n T_n(f) U_n Pi_n^T - T_n(g) and its split.

    Returns ``(D, rank_fraction, spectral_norm_tail)`` where rank_fraction
    counts the singular values of D above 1e-8 * ||D||_2, normalized by
    2 d_n, and the tail is the largest singular value under that cut.  The
    count isolates the low-rank part of the residual, the tail the
    small-norm part; both shrink as the sizes grow.  Even sizes only.
    """
    sizes = as_sizes(n)
    if any(m % 2 for m in sizes):
        raise EvenSizeError(f"structure residual needs even level sizes, got {sizes}")
    d_n = total_dim(sizes)
    _guard_capacity(d_n, "structure residual")

    a = ToeplitzOperator(f.coefficients, sizes).dense()
    d = _shuffle_conjugate(a, sizes) - interleaved_block_g(f, sizes)

    _, count, tail = _singular_split(np.linalg.svd(d, compute_uv=False), 1e-8)
    return d, count / (2.0 * d_n), tail
