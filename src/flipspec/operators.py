"""Structured matrices and index-map operators.

Multilevel Toeplitz matrices are represented by their sparse table of real
coefficients t_k and assembled densely only behind an explicit size guard.
Every matrix and vector here is real: a complex t_k is refused where the
table enters a ``Symbol``, a complex x by matvec.
A matvec takes one of three kernels, which one rule (``_kernel``) picks
from the stored table at construction:

- the flat diagonals, through scipy's DIA matvec, whenever the table stores
  at most log2 M coefficients, M the size of the circulant embedding below;
  kept as the length-d_n rows of one array, one per offset, added in
  ``Symbol.pairs`` order, O(nnz d_n);
- the level product, for a dense table on two or more levels that is
  separable (every index has at most one nonzero component) while
  sum_l n_l < 4096: T_n(f) = sum_l I (x) T_{n_l}(f_l) (x) I with one
  GEMM per level, on dense n_l x n_l level matrices, O(d_n sum_l n_l);
- otherwise the circulant embedding of each level at the least 5-smooth
  length >= n_l + q_l, through a real FFT pair, O(d_n log d_n).

The operator builds its one kernel with it.  Spectra build no operator:
every dense form (Y T, its exchange blocks, T, T(g) plain or interleaved,
the shuffled Pi U Y T U Pi^T) is copied from the table by the one lookup
``_gather`` into its own array.
The flip, shuffle and half-flip operators are never materialized: they act
as per-level index permutations composed through the row-major flat layout
(level 1 slowest).

Contents
--------
ToeplitzOperator          Symbol + sizes, kernel, matvec(), dense()
flipped_dense / _blocks   Y T gathered from a symbol, whole or as exchange blocks
toeplitz_level            dense one-level Toeplitz matrix from t_{1-n}..t_{n-1}
level_matrices            T_{n_l}(f_l) per level of a separable table, t_0 on level 1
kron_sum_product          sum_l (I (x) A_l (x) I) x, one GEMM per level
flip_apply                reversed copy of the vector (Y_n x)
flip_map / u_map / pi_map flat index maps of Y_n, U_n and the shuffle Pi_n (x[map])
assemble_block_g          2x2-block Toeplitz of g = [[0, f], [f*, 0]]
interleaved_block_g       the same symbol per level interleaved: Y T at half size, folded
assemble_hankel           dense multilevel Hankel t_{i+j}: Y T of the table shifted by n - 1
structure_residual        D = Pi U Y T(f) U Pi^T - T(g), one gather under Pi U, |eigvalsh(D)| split
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, EvenSizeError, ParameterError, ShapeError
from .symbols import Symbol, as_sizes, total_dim

# A spectrum holds two d_n x d_n arrays, one LAPACK's: 6.4 GB at the cap.  The toepfr split
# holds 1.6 GB on two or more levels but 7.2 GB on one, where it forms the whole T_1 and G_1.
DENSE_CAPACITY = 20000
# Row or column panel height of the dense passes that need no d_n x d_n temporary.
_PANEL_ROWS = 32


def _guard_capacity(dim: int, what: str) -> None:
    if dim > DENSE_CAPACITY:
        raise CapacityError(f"{what} needs size {dim} > {DENSE_CAPACITY}")


def _panels(n: int, width: int = 1):
    # slices covering range(n) of <= _PANEL_ROWS rows (one index at least), ``width`` rows per index
    step = max(1, _PANEL_ROWS // width)
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


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
    """Flat map of the flip Y_n: every level index reversed, so the whole flat layout."""
    return np.arange(total_dim(n))[::-1]


def u_map(n) -> np.ndarray:
    """Flat map of U_n: per level, reverse the first ceil(n_l/2) indices."""
    sizes = as_sizes(n)
    maps = []
    for m in sizes:
        h = (m + 1) // 2
        maps.append(np.r_[np.arange(h)[::-1], np.arange(h, m)])
    return flat_map(maps, sizes)


def pi_map(n) -> np.ndarray:
    """Flat map of the shuffle Pi_n.  Even sizes only.

    Per level, x -> Pi x interleaves the two halves: output slots 0,2,4,...
    take the first half, slots 1,3,5,... the second.  Pi^T, which gathers
    even and odd slots back into contiguous halves, is the inverse
    permutation ``np.argsort(pi_map(n))``.
    """
    sizes = as_sizes(n)
    if any(m % 2 for m in sizes):
        raise EvenSizeError(f"shuffle permutation needs even level sizes, got {sizes}")
    # slot 2i reads i, slot 2i + 1 reads m/2 + i
    return flat_map([np.arange(m).reshape(2, -1).T.ravel() for m in sizes], sizes)


def flip_apply(n, x):
    """y = Y_n x as a reversed copy of x.

    Reversing every level index maps flat index i to d_n - 1 - i on the
    row-major layout, so Y_n reverses the whole vector; no index map is built.
    """
    sizes = as_sizes(n)
    return _check_length(x, math.prod(sizes))[::-1].copy()


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


def _embedding_lengths(f: Symbol, sizes) -> tuple:
    # per-level circulant length m_l >= n_l + q_l keeps the wrap-around
    # of every |k_l| <= q_l off the leading n_l x n_l block
    return tuple(_smooth_len(nl + ql) for nl, ql in zip(sizes, f.band))


# Level sizes summing to this or more go to the FFT: the level GEMMs make
# 2 sum_l n_l flops per entry, the FFT pair a few log2 M passes.  Measured
# on a 2-core Xeon with one BLAS thread, ms per ex2 matvec, FFT -> levels:
# 10^2 0.058 -> 0.010, 40^2 0.164 -> 0.017, 80^2 0.47 -> 0.057,
# 256^2 10.9 -> 1.7, 512^2 46 -> 12.6, 1024^2 156 -> 83; near parity at
# 2048^2 (551 vs 633 and 731 vs 625 in two readings), and the FFT ahead at
# 64 x 4096 and 4096 x 64 (47-52 vs 57-68).
_LEVEL_CROSSOVER = 4096


def _kernel(f: Symbol, sizes):
    # (name, builder) of the one matvec kernel the table picks (module notes).
    # The diagonals make one pass over d_n per stored coefficient, the real
    # FFT pair about log2 M passes over the M-point embedding; a separable
    # table is a sum of one-level tables, and on one level its product would
    # be a memory-bound GEMV.
    coupled = isinstance(f.table, dict)
    stored = len(f.table) if coupled else sum(map(np.count_nonzero, f.table))
    if stored <= math.log2(math.prod(_embedding_lengths(f, sizes))):
        return "diagonals", _diagonal_kernel
    if len(sizes) > 1 and sum(sizes) < _LEVEL_CROSSOVER and not coupled:
        return "levels", _level_kernel
    return "fft", _fft_kernel


def _gather(out, table, rowkey, colkey):
    # out[i..., j...] = table[rowkey_i + colkey_j] on the flat table (np.take reads it
    # flattened) for keys of any shape, one row panel of the leading key axis at a time,
    # into any array or strided view of shape rowkey.shape + colkey.shape; returns out
    for rows in _panels(len(rowkey), math.prod(rowkey.shape[1:])):
        # keys are in range; "clip" lets take write out unbuffered
        np.take(table, np.add.outer(rowkey[rows], colkey), out=out[rows], mode="clip")
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
    """T_{n_l}(f_l) for each level vector (``Symbol.levels``) of a separable f.

    Only coefficients with every |k_l| < n_l are read.  Raises ShapeError
    unless there is one size per level, ParameterError when an in-band index
    has two nonzero components.
    """
    sizes, f = _in_band(f, sizes)
    cols = [np.zeros(2 * nl - 1) for nl in sizes]
    for col, v, nl in zip(cols, f.levels(), sizes):
        col[nl - 1 - v.size // 2:nl + v.size // 2] = v
    return [toeplitz_level(col) for col in cols]


def kron_sum_product(levels, x) -> np.ndarray:
    """sum_l (I (x) A_l (x) I) x for square level matrices A_l, level 1 slowest.

    x is a vector of length d_n = prod n_l (ShapeError otherwise), read
    through views: level l < d is one matmul of A_l into the
    (prod n_<l, n_l, prod n_>l) view, and the last level is the single
    GEMM of the (d_n / n_d, n_d) view with A_d^T, not a batched GEMV.
    """
    sizes = [a.shape[0] for a in levels]
    x = _check_length(x, math.prod(sizes))
    *first, last = levels
    y = x.reshape(-1, sizes[-1]) @ last.T
    for l, a in enumerate(first):
        y += (a @ x.reshape(-1, sizes[l], math.prod(sizes[l + 1:]))).reshape(y.shape)
    return y.reshape(-1)


def _in_band(f: Symbol, n):
    # the checked sizes and f, or f clipped to |k_l| <= n_l - 1 if it reaches past (a
    # coefficient there touches no entry); any f but a Symbol raises ParameterError
    if not isinstance(f, Symbol):
        raise ParameterError(f"T_n(f) takes a Symbol f, got {type(f).__name__}")
    sizes = f.check_sizes(n)
    if all(b < nl for b, nl in zip(f.band, sizes)):
        return sizes, f
    return sizes, Symbol(f.dims, None, {k: t for k, t in f.pairs()
                                        if all(abs(kl) < nl for kl, nl in zip(k, sizes))})


def _flipped_lookup(f: Symbol, n):
    # the checked sizes, the in-band table of f reversed on every level (Y T has entry
    # (i, j) = t_{n-1-i-j} levelwise) and the flat table index of every index of size n;
    # per-level sums never carry, so key_i + key_j indexes the table levelwise
    sizes, f = _in_band(f, n)
    _guard_capacity(math.prod(sizes), "dense Toeplitz assembly")
    table = np.zeros(tuple(2 * nl - 1 for nl in sizes))
    for k, t in f.pairs():
        table[tuple(nl - 1 - kl for kl, nl in zip(k, sizes))] = t
    return sizes, table, flat_map([np.arange(nl) for nl in sizes], table.shape)


def flipped_dense(f: Symbol, n) -> np.ndarray:
    """Y_n T_n(f), gathered as a Hankel lookup of the table reversed on every level.

    Entry (i, j) is t_{n-1-i-j} levelwise, the row d_n - 1 - i of
    T_n(f), gathered by row panels into the one d_n x d_n array built.
    f and n as for ``ToeplitzOperator``.  Guarded at d_n <= 20000.
    """
    _, table, key = _flipped_lookup(f, n)
    return _gather(np.empty((key.size, key.size)), table, key, key)


def flipped_blocks(f: Symbol, n):
    """Y_n T_n(f) as the blocks that hold its spectrum, yielded one at a time.

    With no exchange symmetry the one block is ``flipped_dense(f, n)``.  A
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
    sizes, table, key = _flipped_lookup(f, n)
    pair = next(((l, m) for l in range(table.ndim) for m in range(l + 1, table.ndim)
                 if sizes[l] == sizes[m] and np.array_equal(table, table.swapaxes(l, m))), None)
    if pair is None:
        yield _gather(np.empty((key.size, key.size)), table, key, key)
        return
    l, m = pair
    partner = key.reshape(sizes).swapaxes(l, m).ravel()
    il, im = np.indices(sizes).reshape(len(sizes), -1)[[l, m]]
    for combine, rows in ((np.add, np.flatnonzero(il <= im)),
                          (np.subtract, np.flatnonzero(il < im))):
        # A[R, R], then A[R, S R] gathered into buf, combined in and D applied by row panels
        keys, partners = key[rows], partner[rows]
        weight = np.where(il[rows] == im[rows], np.sqrt(0.5), 1.0)
        block = _gather(np.empty((rows.size, rows.size)), table, keys, keys)
        buf = np.empty((min(_PANEL_ROWS, rows.size), rows.size))
        for r in _panels(rows.size):
            panel = block[r]
            combine(panel, _gather(buf[:len(panel)], table, keys[r], partners), out=panel)
            panel *= weight[r, None]
            panel *= weight
        yield block
        block = panel = None  # let go before the next block is gathered


def _diagonal_kernel(f: Symbol, sizes):
    # y_i collects t_k x_{i-s_k}, s_k = sum_l k_l stride_l on the flat
    # layout, so coefficient k is the diagonal at offset -s_k; scipy
    # stores it by column j, t_k where j_l + k_l stays inside every level
    # and 0 where a level would wrap.  Two coefficients share an offset
    # only if they differ by n_l or more on some level; a column then
    # reads at most one of them, so they share one diagonal.
    from scipy.sparse import dia_matrix

    dim = math.prod(sizes)
    strides = np.cumprod((1,) + sizes[:0:-1])[::-1]
    offsets = [-int(np.dot(k, strides)) for k, _ in f.pairs()]
    rows = {o: r for r, o in enumerate(dict.fromkeys(offsets))}  # in first-reached order
    data = np.zeros((len(rows), *sizes))
    for (k, t), o in zip(f.pairs(), offsets):
        data[rows[o]][tuple(slice(max(-kl, 0), nl - max(kl, 0)) for kl, nl in zip(k, sizes))] = t
    return dia_matrix((data.reshape(len(rows), dim), list(rows)), shape=(dim, dim)).dot


def _level_kernel(f: Symbol, sizes):
    levels = level_matrices(f, sizes)
    return lambda x: kron_sum_product(levels, x)


def _fft_kernel(f: Symbol, sizes):
    mm = _embedding_lengths(f, sizes)
    kernel = np.zeros(mm)
    for k, t in f.pairs():
        kernel[tuple(kl % ml for kl, ml in zip(k, mm))] = t
    axes = tuple(range(len(mm)))
    khat = np.fft.rfftn(kernel, mm, axes)
    keep = tuple(slice(0, nl) for nl in sizes)
    return lambda x: np.fft.irfftn(np.fft.rfftn(x.reshape(sizes), mm, axes) * khat,
                                   mm, axes)[keep].ravel()


class ToeplitzOperator:
    """Multilevel Toeplitz matrix T_n(f), entry (i, j) = t_{i-j}, as a matvec.

    Takes a ``Symbol`` f and one size per level of f (ShapeError otherwise);
    any other f raises ParameterError.  Holds as ``symbol`` f clipped to
    |k_l| <= n_l - 1, and builds at construction the one kernel of the
    module notes that the table picks, named by ``kernel``: "diagonals",
    "levels" or "fft".  Immutable; matvec is reentrant.
    """

    def __init__(self, f: Symbol, n):
        self.sizes, self.symbol = _in_band(f, n)
        self.dim = math.prod(self.sizes)
        self.kernel, build = _kernel(self.symbol, self.sizes)
        self._apply = build(self.symbol, self.sizes)

    def dense(self) -> np.ndarray:
        """Materialize the d_n x d_n matrix.  Guarded at d_n <= 20000.

        T = Y (Y T): the Hankel lookup of ``flipped_dense`` with the row
        keys reversed, gathered by row panels into the one array built.
        """
        _, table, key = _flipped_lookup(self.symbol, self.sizes)
        return _gather(np.empty((self.dim, self.dim)), table, key[::-1], key)

    def matvec(self, x) -> np.ndarray:
        """y = T_n(f) x for a real x by the one kernel built; a complex x raises ShapeError."""
        x = _check_length(x, self.dim)
        if np.iscomplexobj(x):
            raise ShapeError("T_n(f) multiplies real vectors, got a complex one")
        return self._apply(x)


# ---------------------------------------------------------------------------
# block symbols and Hankel


def assemble_block_g(f: Symbol, n) -> np.ndarray:
    """Dense 2x2-block Toeplitz of g = [[0, f], [f*, 0]] at block counts n.

    Output size is 2 d_n with d_n = prod(n); the 2x2 block sits at the
    innermost (fastest) level, so block (I, J) occupies rows 2I, 2I+1 and
    columns 2J, 2J+1 and carries [[0, t_{I-J}], [t_{J-I}, 0]], real
    symmetric by construction.
    """
    d_n = total_dim(n)
    _guard_capacity(2 * d_n, "2x2-block Toeplitz assembly")
    _, table, key = _flipped_lookup(f, n)
    out = np.zeros((2 * d_n, 2 * d_n))
    _gather(out[0::2, 1::2], table, key[::-1], key)  # T = Y (Y T)
    _gather(out[1::2, 0::2], table, key, key[::-1])  # and T^T
    return out


def interleaved_block_g(f: Symbol, n) -> np.ndarray:
    """The block symbol g assembled in per-level interleaved layout, size d_n.

    Each level is split into even/odd slots in place instead of stacking the
    two branches last, the layout the shuffle conjugation Pi U Y T(f) U Pi^T
    produces; on one level this is ``assemble_block_g`` at block count n/2.
    Slot 2i + p of a level reads index h_l - 1 - i (p = 0) or i (p = 1) of
    Y T at the half sizes h_l = n_l / 2, so an entry whose slots differ in
    parity on every level is t_{i-j} or t_{j-i} there; every other entry is
    zero.  f as for ``ToeplitzOperator``; all level sizes must be even.
    """
    sizes = as_sizes(n)
    d_n = total_dim(sizes)
    _guard_capacity(d_n, "interleaved block assembly")
    if any(m % 2 for m in sizes):
        raise EvenSizeError(f"interleaved block form needs even level sizes, got {sizes}")
    halves, table, key = _flipped_lookup(f, [m // 2 for m in sizes])
    key = key[flat_map([np.c_[np.arange(h)[::-1], np.arange(h)].ravel() for h in halves], halves)]
    key, out = key.reshape(sizes), np.zeros((d_n, d_n))
    # row slots of parity p_l on every level l pair with column slots of parity 1 - p_l:
    # one strided block of the (n_1, ..., n_d, n_1, ..., n_d) view of out per class p
    for p in np.ndindex(*(2,) * len(sizes)):
        rows, cols = (tuple(slice(q, None, 2) for q in c) for c in (p, np.subtract(1, p)))
        _gather(out.reshape(sizes + sizes)[rows + cols], table, key[rows], key[cols])
    return out


def assemble_hankel(f: Symbol, n) -> np.ndarray:
    """Dense multilevel Hankel with entry t_{i+j}.

    Indices are 0-based per level, so the top-left entry is t_0 and the
    anti-diagonals are constant in i + j.  The t_{-(i+j)} Hankel is this
    one of the reflected table t'_k = t_{-k}.  Built as ``flipped_dense`` of
    t'_m = t_{n-1-m} levelwise, whose band |m_l| < n_l is 0 <= k_l <= 2(n_l - 1).
    """
    if not isinstance(f, Symbol):
        raise ParameterError(f"a Hankel matrix takes a Symbol f, got {type(f).__name__}")
    sizes = f.check_sizes(n)
    shifted = {tuple(nl - 1 - kl for kl, nl in zip(k, sizes)): t for k, t in f.pairs()}
    return flipped_dense(Symbol(f.dims, None, shifted), sizes)


def _singular_split(eigs, rel: float):
    # (largest, how many lie above rel * largest, largest at or under that
    # cut) of the singular values |lambda| of a symmetric matrix, from its
    # eigenvalues in any order
    svals = np.sort(np.abs(eigs))[::-1]
    top = float(svals[0]) if svals.size else 0.0
    count = int(np.count_nonzero(svals > rel * top))
    tail = float(svals[count]) if count < svals.size else 0.0
    return top, count, tail


def structure_residual(f: Symbol, n):
    """Residual D = Pi_n U_n Y_n T_n(f) U_n Pi_n^T - T_n(g) and its split.

    Returns ``(D, rank_fraction, spectral_norm_tail)`` where rank_fraction
    counts the singular values of D above 1e-8 * ||D||_2, normalized by
    2 d_n, and the tail is the largest singular value under that cut.  The
    shuffled Y T is the lookup of ``flipped_dense`` with both keys permuted
    by Pi U, gathered into the one array D is formed in, so D is exactly
    symmetric (two same-key Hankel lookups) and they are its |eigvalsh|.
    The count isolates the low-rank part of the residual, the tail the
    small-norm part; both shrink as the sizes grow.  Even sizes only.
    """
    if any(m % 2 for m in as_sizes(n)):
        raise EvenSizeError(f"structure residual needs even level sizes, got {n}")
    _, table, key = _flipped_lookup(f, n)
    key = key[u_map(n)[pi_map(n)]]  # Pi U x = x[u_map][pi_map]
    d = _gather(np.empty((key.size, key.size)), table, key, key)
    d -= interleaved_block_g(f, n)
    _, count, tail = _singular_split(np.linalg.eigvalsh(d), 1e-8)
    return d, count / (2.0 * len(d)), tail
