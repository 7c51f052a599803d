"""Structured matrices and index-map operators.

Multilevel Toeplitz matrices are represented by their sparse coefficient
table and assembled densely only behind an explicit size guard; products
use circulant FFT embedding.  The flip, shuffle and half-flip operators
are never materialized: they act as per-level index permutations composed
through the row-major flat layout (level 1 slowest).

Contents
--------
ToeplitzOperator          coefficient table + sizes, dense(), matvec()
flip_apply                per-level index reversal (Y_n x)
u_apply                   reverse the leading half of each level (U_n x)
pi_apply                  even-size shuffle permutation (Pi_n x, Pi_n^T x)
flip_map / u_map / pi_map flat index maps behind the appliers
assemble_block_g          2x2-block Toeplitz of g = [[0, f], [f*, 0]]
interleaved_block_g       per-level interleaved form of the same symbol
assemble_hankel           dense multilevel Hankel, plus/minus orientation
structure_residual        D = Pi U Y T(f) U Pi^T - T(g) with rank/norm split
write_matrix_csv, write_matrix_binary, read_matrix_binary
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import CapacityError, EvenSizeError, ShapeError
from .symbols import Symbol, as_sizes, total_dim

__all__ = [
    "DENSE_CAPACITY",
    "ToeplitzOperator",
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
    "write_matrix_csv",
    "write_matrix_binary",
    "read_matrix_binary",
]

DENSE_CAPACITY = 20000

_BINARY_MAGIC = b"FLSP"
_FLAG_COMPLEX = 1


def _guard_capacity(dim: int, what: str) -> None:
    if dim > DENSE_CAPACITY:
        raise CapacityError(f"{what} needs size {dim} > {DENSE_CAPACITY}")


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
    """y = Y_n x by index reversal per level."""
    sizes = as_sizes(n)
    return _check_length(x, total_dim(sizes))[flip_map(sizes)]


def u_apply(n, x):
    """y = U_n x: reverse the leading half of each level, fix the rest."""
    sizes = as_sizes(n)
    return _check_length(x, total_dim(sizes))[u_map(sizes)]


def pi_apply(n, x, transposed: bool = False):
    """y = Pi_n x (or Pi_n^T x when transposed).  Raises on odd level sizes."""
    sizes = as_sizes(n)
    return _check_length(x, total_dim(sizes))[pi_map(sizes, transposed)]


# ---------------------------------------------------------------------------
# multilevel Toeplitz


def _next_pow2(v: int) -> int:
    return 1 << max(0, int(v - 1)).bit_length()


class ToeplitzOperator:
    """Multilevel Toeplitz matrix T_n(f), entry (i, j) = t_{i-j}.

    Holds the coefficient table clipped to the representable band
    |k_l| <= n_l - 1 (coefficients outside it cannot touch any entry).
    Immutable after construction; matvec is reentrant.
    """

    def __init__(self, coefficients: dict, n):
        self.sizes = as_sizes(n)
        d = len(self.sizes)
        clipped = {}
        for k, t in coefficients.items():
            k = tuple(int(v) for v in k)
            if len(k) != d:
                raise ShapeError(f"coefficient index {k} does not match {d} levels")
            if all(abs(kl) <= nl - 1 for kl, nl in zip(k, self.sizes)):
                clipped[k] = complex(t)
        self.coefficients = clipped
        self.is_real = all(v.imag == 0.0 for v in clipped.values())
        self._kernel_hat = None

    @classmethod
    def from_symbol(cls, symbol: Symbol, n) -> "ToeplitzOperator":
        sizes = as_sizes(n)
        if symbol.dims != len(sizes):
            raise ShapeError(f"symbol has {symbol.dims} levels, sizes {sizes} have {len(sizes)}")
        return cls(symbol.coefficients, sizes)

    @property
    def dim(self) -> int:
        return total_dim(self.sizes)

    @property
    def band(self) -> tuple[int, ...]:
        if not self.coefficients:
            return (0,) * len(self.sizes)
        return tuple(max(abs(k[l]) for k in self.coefficients)
                     for l in range(len(self.sizes)))

    def dense(self) -> np.ndarray:
        """Materialize the d_n x d_n matrix.  Guarded at d_n <= 20000.

        Entry lookup runs through a flattened coefficient array indexed by
        the per-level differences i_l - j_l; the mixed-radix difference code
        is separable (digits never carry), so one outer subtraction of two
        length-d_n key vectors indexes the whole matrix at once.
        """
        _guard_capacity(self.dim, "dense Toeplitz assembly")
        sizes = self.sizes
        radii = tuple(2 * nl - 1 for nl in sizes)
        table = np.zeros(radii, dtype=float if self.is_real else complex)
        for k, t in self.coefficients.items():
            pos = tuple(kl + nl - 1 for kl, nl in zip(k, sizes))
            table[pos] = t.real if self.is_real else t
        strides = np.cumprod((1,) + radii[::-1][:-1])[::-1]
        levels = np.unravel_index(np.arange(self.dim), sizes)
        rowkey = sum(s * (il + nl - 1) for s, il, nl in zip(strides, levels, sizes))
        colkey = sum(s * il for s, il in zip(strides, levels))
        if table.size < 2**31:  # halve the index-matrix footprint at large d_n
            rowkey = rowkey.astype(np.int32)
            colkey = colkey.astype(np.int32)
        return table.ravel()[rowkey[:, None] - colkey[None, :]]

    def _embedding(self):
        if self._kernel_hat is None:
            mm = tuple(_next_pow2(nl + ql + 1)
                       for nl, ql in zip(self.sizes, self.band))
            kernel = np.zeros(mm, dtype=complex)
            for k, t in self.coefficients.items():
                kernel[tuple(kl % ml for kl, ml in zip(k, mm))] = t
            self._kernel_hat = (mm, np.fft.fftn(kernel))
        return self._kernel_hat

    def matvec(self, x) -> np.ndarray:
        """y = T_n(f) x through per-level circulant embedding, O(d_n log d_n)."""
        x = _check_length(x, self.dim)
        mm, khat = self._embedding()
        pad = np.zeros(mm, dtype=complex)
        pad[tuple(slice(0, nl) for nl in self.sizes)] = x.reshape(self.sizes)
        full = np.fft.ifftn(np.fft.fftn(pad) * khat)
        y = full[tuple(slice(0, nl) for nl in self.sizes)].ravel()
        if self.is_real and not np.iscomplexobj(x):
            return y.real
        return y


# ---------------------------------------------------------------------------
# block symbols and Hankel


def assemble_block_g(f: Symbol, n) -> np.ndarray:
    """Dense 2x2-block Toeplitz of g = [[0, f], [f*, 0]] at block counts n.

    Output size is 2 d_n with d_n = prod(n); the 2x2 block sits at the
    innermost (fastest) level, so block (I, J) occupies rows 2I, 2I+1 and
    columns 2J, 2J+1 and carries [[0, t_{I-J}], [conj(t_{J-I}), 0]].
    Hermitian by construction, real symmetric for real coefficient tables.
    """
    sizes = as_sizes(n)
    d_n = total_dim(sizes)
    _guard_capacity(2 * d_n, "2x2-block Toeplitz assembly")
    t1 = ToeplitzOperator(f.coefficients, sizes).dense()
    out = np.zeros((2 * d_n, 2 * d_n), dtype=t1.dtype)
    out[0::2, 1::2] = t1
    out[1::2, 0::2] = np.conj(t1).T
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
    out = np.zeros((d_n, d_n), dtype=complex)
    for k, t in f.coefficients.items():
        term = _block_level(k[0], sizes[0])
        for kl, nl in zip(k[1:], sizes[1:]):
            term = np.kron(term, _block_level(kl, nl))
        out += t * term
    if f.has_real_coefficients:
        out = out.real
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
    real = f.has_real_coefficients
    radii = tuple(2 * nl - 1 for nl in sizes)
    table = np.zeros(radii, dtype=float if real else complex)
    for k, t in f.coefficients.items():
        pos = tuple(sign * kl for kl in k)
        if all(0 <= p <= 2 * (nl - 1) for p, nl in zip(pos, sizes)):
            table[pos] = complex(t).real if real else t
    strides = np.cumprod((1,) + radii[::-1][:-1])[::-1]
    levels = np.unravel_index(np.arange(d_n), sizes)
    key = sum(s * il for s, il in zip(strides, levels))
    return table.ravel()[key[:, None] + key[None, :]]


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
    fy = flip_map(sizes)
    fu = u_map(sizes)
    fp = pi_map(sizes)
    conj = a[fy, :]
    conj = conj[fu][:, fu]
    conj = conj[fp][:, fp]
    d = conj - interleaved_block_g(f, sizes)

    svals = np.linalg.svd(d, compute_uv=False)
    top = float(svals[0]) if svals.size else 0.0
    cut = 1e-8 * top
    count = int(np.count_nonzero(svals > cut))
    tail = float(svals[count]) if count < svals.size else 0.0
    return d, count / (2.0 * d_n), tail


# ---------------------------------------------------------------------------
# matrix export


def write_matrix_csv(a, path) -> None:
    """Row-major CSV dump; complex entries as re+imj strings."""
    a = np.asarray(a)
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            if np.iscomplexobj(a):
                fh.write(",".join(f"{float(v.real)!r}{float(v.imag):+}j" for v in row) + "\n")
            else:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_matrix_binary(a, path, sizes) -> None:
    """Binary dump: magic, d, n_1..n_d, flags header, then little-endian f64.

    Header fields are unsigned little-endian 32-bit.  Flag bit 0 marks a
    complex matrix, stored as interleaved re, im pairs; the payload is the
    row-major d_n x d_n matrix.
    """
    a = np.asarray(a)
    sizes = as_sizes(sizes)
    d_n = total_dim(sizes)
    if a.shape != (d_n, d_n):
        raise ShapeError(f"matrix shape {a.shape} does not match sizes {sizes}")
    flags = _FLAG_COMPLEX if np.iscomplexobj(a) else 0
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack(f"<{1 + len(sizes) + 1}I", len(sizes), *sizes, flags))
        if flags & _FLAG_COMPLEX:
            payload = np.empty(a.shape + (2,))
            payload[..., 0], payload[..., 1] = a.real, a.imag
            fh.write(payload.astype("<f8").tobytes())
        else:
            fh.write(a.astype("<f8").tobytes())


def read_matrix_binary(path):
    """Round-trip reader for ``write_matrix_binary``; returns (matrix, sizes)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ShapeError(f"bad magic {magic!r}")
        (d,) = struct.unpack("<I", fh.read(4))
        sizes = struct.unpack(f"<{d}I", fh.read(4 * d))
        (flags,) = struct.unpack("<I", fh.read(4))
        d_n = math.prod(sizes)
        raw = np.frombuffer(fh.read(), dtype="<f8")
    if flags & _FLAG_COMPLEX:
        raw = raw.reshape(d_n, d_n, 2)
        return raw[..., 0] + 1j * raw[..., 1], sizes
    return raw.reshape(d_n, d_n).copy(), sizes
