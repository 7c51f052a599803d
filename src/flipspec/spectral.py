"""Spectra, sampling grids, eigenvalue matching and distribution checks.

The flipped matrices Y_n T_n(f) are real symmetric, so everything here goes
through a dense symmetric eigensolver.  Their eigenvalues are compared
against samples of the two branches -|f|/h and +|f|/h of the block symbol,
taken on the equispaced grids Gamma (on [0, pi]^d) and Delta (on
[-pi, pi]^2), and against the limiting integral through compactly
supported test functions.

Contents
--------
sym_eigenvalues, singular_values
GridGamma / build_gamma       half-open first coordinate, |Gamma| = floor(n1/2) n2...nd
GridDelta / build_delta       full two-level lattice including the endpoints
LambdaSet / build_lambda      sorted branch samples with provenance
match_eigenvalues             nearest-sample assignment, deterministic ties
MatchReport                   assignment arrays + summary statistics
tent                          compactly supported hat test function
distribution_discrepancy      sample mean vs. quadrature of the limit integral
zero_distribution_verdict     rank/norm trend over growing sizes
odd_embedding_check           odd-size embedding identity, one level
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CapacityError, ParameterError, PoleError, ShapeError,
                     SymmetryError)
from .symbols import Symbol, as_sizes
from .operators import (DENSE_CAPACITY, ToeplitzOperator, _panels, _singular_split,
                        assemble_hankel, flip_map, u_map)

__all__ = [
    "sym_eigenvalues",
    "singular_values",
    "GridGamma",
    "GridDelta",
    "build_gamma",
    "build_delta",
    "LambdaSet",
    "build_lambda",
    "MatchReport",
    "match_eigenvalues",
    "tent",
    "DiscrepancyRow",
    "distribution_discrepancy",
    "zero_distribution_verdict",
    "OddEmbeddingReport",
    "odd_embedding_check",
]


def sym_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a dense symmetric real matrix, ascending.

    The input must be symmetric within 1e-10 of its Frobenius norm and no
    larger than the dense capacity guard.  The norms are summed by row
    panels and an exactly symmetric input goes to eigvalsh as it is, so
    the footprint is two d_n x d_n arrays, the input and LAPACK's copy.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > DENSE_CAPACITY:
        raise CapacityError(f"matrix size {a.shape[0]} > {DENSE_CAPACITY}")
    scale = math.hypot(*(np.linalg.norm(a[r]) for r in _panels(len(a))))
    skew = math.hypot(*(np.linalg.norm(a[r] - a[:, r].conj().T) for r in _panels(len(a))))
    if skew > 1e-10 * max(scale, 1e-300):
        raise SymmetryError(f"matrix is not symmetric: ||A - A^T|| = {skew:.3e}, ||A|| = {scale:.3e}")
    return np.linalg.eigvalsh(a if skew == 0.0 else (a + a.conj().T) / 2.0)


def singular_values(a) -> np.ndarray:
    """Singular values, descending."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {a.shape}")
    if max(a.shape) > DENSE_CAPACITY:
        raise CapacityError(f"matrix size {max(a.shape)} > {DENSE_CAPACITY}")
    return np.linalg.svd(a, compute_uv=False)


# ---------------------------------------------------------------------------
# grids and the sample set


@dataclass(frozen=True)
class GridGamma:
    """Tensor grid on [0, pi]^d; points row-major over the index lattice."""
    sizes: tuple
    points: np.ndarray  # (N, d)


@dataclass(frozen=True)
class GridDelta:
    """Full n1 x n2 tensor grid on [-pi, pi]^2 including the endpoints."""
    sizes: tuple
    points: np.ndarray


def build_gamma(n) -> GridGamma:
    """Grid with theta_1 = pi k / (floor(n1/2) - 1) and theta_j = pi k / (n_j - 1).

    The first coordinate takes floor(n1/2) values, the rest n_j values, so
    the point count is floor(n1/2) * n2 * ... * nd.  Needs floor(n1/2) >= 2
    and n_j >= 2 elsewhere.
    """
    sizes = as_sizes(n)
    m1 = sizes[0] // 2
    if m1 < 2:
        raise ParameterError(f"first level size {sizes[0]} too small (needs floor(n1/2) >= 2)")
    if any(nj < 2 for nj in sizes[1:]):
        raise ParameterError(f"level sizes {sizes} too small for the grid (need n_j >= 2)")
    axes = [np.pi * np.arange(m1) / (m1 - 1)]
    axes += [np.pi * np.arange(nj) / (nj - 1) for nj in sizes[1:]]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return GridGamma(sizes, pts)


def build_delta(n) -> GridDelta:
    """Two-level lattice theta_j = -pi + 2 pi k / (n_j - 1), k = 0..n_j-1."""
    sizes = as_sizes(n)
    if len(sizes) != 2:
        raise ParameterError(f"delta grid is two-level, got sizes {sizes}")
    if any(nj < 2 for nj in sizes):
        raise ParameterError(f"level sizes {sizes} too small for the grid")
    axes = [-np.pi + 2.0 * np.pi * np.arange(nj) / (nj - 1) for nj in sizes]
    mesh = np.meshgrid(*axes, indexing="ij")
    return GridDelta(sizes, np.stack([m.ravel() for m in mesh], axis=1))


@dataclass(frozen=True)
class LambdaSet:
    """Sorted samples of the two symbol branches with their provenance.

    values[i] came from branch[i] (1 for -|f|/h, 2 for +|f|/h) evaluated at
    points[point_index[i]].  Sorted ascending by value; equal values are
    ordered by branch then by grid index, which pins down tie-breaking in
    the matcher.  ``dropped`` holds the indices of the grid points that
    carry no sample because |f| and h both vanish there.
    """
    values: np.ndarray
    branch: np.ndarray
    point_index: np.ndarray
    points: np.ndarray
    dropped: tuple = ()

    def __len__(self):
        return len(self.values)


def _vanishes(v) -> np.ndarray:
    # |v| below 1e-13 of the largest |v| on the grid, whatever its scale; 0 always vanishes
    v = np.abs(v)
    return (v < 1e-13 * np.max(v)) | (v == 0.0)


def _modulus_ratio(f: Symbol, h, pts):
    # (|f|/h at the kept points, mask of the kept points), |f| when h is
    # None; a point where |f| and h both vanish (0/0) carries no sample and
    # is left out, while a complex h or a point where h alone vanishes
    # raises a pole error naming the point
    fv = np.abs(np.asarray(f.eval(pts), dtype=complex))
    if h is None:
        return fv, np.ones(len(pts), dtype=bool)
    hv = np.asarray(h.eval(pts), dtype=complex)
    if np.max(np.abs(hv.imag)) > 1e-10 * np.max(np.abs(hv)):
        raise PoleError("weight symbol h must be real on the grid")
    hv = hv.real
    pole = _vanishes(hv)
    keep = ~(pole & _vanishes(fv))
    bad = pole & keep
    if np.any(bad):
        theta = pts[int(np.argmax(bad))]
        raise PoleError(f"weight symbol vanishes at theta = {tuple(float(t) for t in theta)}")
    return fv[keep] / hv[keep], keep


def build_lambda(f: Symbol, h, grid) -> LambdaSet:
    """Branch samples {-|f|/h, +|f|/h} over a grid, sorted with provenance.

    ``h`` may be None (taken as 1).  A grid point where |f| and h both
    vanish is 0/0, carries no sample (the distribution results hold almost
    everywhere) and is listed in ``dropped``; a point where h alone
    vanishes has no finite sample and raises a pole error naming it.
    """
    pts = grid.points
    ratio, keep = _modulus_ratio(f, h, pts)
    kept = np.flatnonzero(keep)
    values = np.r_[-ratio, ratio]
    branch = np.r_[np.ones(len(kept), dtype=int), np.full(len(kept), 2, dtype=int)]
    pidx = np.r_[kept, kept]
    order = np.lexsort((pidx, branch, values))
    dropped = tuple(int(i) for i in np.flatnonzero(~keep))
    return LambdaSet(values[order], branch[order], pidx[order], pts, dropped)


# ---------------------------------------------------------------------------
# matching


@dataclass(frozen=True)
class MatchReport:
    """Nearest-sample assignment for one spectrum."""
    eigenvalues: np.ndarray
    matched_value: np.ndarray
    branch: np.ndarray
    point_index: np.ndarray
    distance: np.ndarray
    points: np.ndarray

    @property
    def mean_distance(self) -> float:
        return float(np.mean(self.distance))

    @property
    def max_distance(self) -> float:
        return float(np.max(self.distance))


def match_eigenvalues(eigs, lam: LambdaSet) -> MatchReport:
    """Assign every eigenvalue to its nearest sample in the Lambda set.

    Distance is plain absolute difference.  An eigenvalue equidistant from
    two samples takes the smaller one; a sample value present several times
    resolves to its first occurrence in the sorted set (lowest branch, then
    lowest grid index).
    """
    if len(lam) == 0:
        raise ParameterError("empty sample set")
    eigs = np.sort(np.asarray(eigs, dtype=float))
    vals = lam.values
    pos = np.searchsorted(vals, eigs)
    left = np.clip(pos - 1, 0, len(vals) - 1)
    right = np.clip(pos, 0, len(vals) - 1)
    dl = np.abs(eigs - vals[left])
    dr = np.abs(eigs - vals[right])
    take_left = dl <= dr  # tie goes to the smaller sample
    idx = np.where(take_left, left, right)
    # collapse duplicated values onto their first sorted occurrence
    idx = np.searchsorted(vals, vals[idx], side="left")
    dist = np.abs(eigs - vals[idx])
    return MatchReport(eigs, vals[idx], lam.branch[idx], lam.point_index[idx],
                       dist, lam.points)


# ---------------------------------------------------------------------------
# distribution functionals


def tent(center: float, halfwidth: float):
    """Hat function F(x) = max(0, 1 - |x - center| / halfwidth)."""
    if halfwidth <= 0:
        raise ParameterError("tent halfwidth must be positive")

    def fn(x):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(x, dtype=float) - center) / halfwidth)

    fn.label = f"tent({center:g},{halfwidth:g})"
    return fn


@dataclass(frozen=True)
class DiscrepancyRow:
    label: str
    sample_mean: float
    integral: float
    discrepancy: float
    quadrature_points: int


def _quad_lattice(d: int):
    p = 128 if d <= 2 else 48
    axis = np.linspace(-np.pi, np.pi, p)
    step = 2.0 * np.pi / (p - 1)
    w1 = np.full(p, step)
    w1[0] = w1[-1] = step / 2.0
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    weights = w1
    for _ in range(d - 1):
        weights = np.multiply.outer(weights, w1)
    return pts, weights.ravel(), p


def distribution_discrepancy(eigs, f: Symbol, h, testfns) -> list:
    """Gap between the spectral average and the limit integral, per test function.

    For each F computes |mean_j F(eig_j) - (2 pi)^-d integral of
    [F(-|f|/h) + F(+|f|/h)] / 2| with a tensor trapezoidal rule on the
    periodic cube (128 points per axis up to two levels, 48 for three).
    Accepts bare callables or (label, callable) pairs.  A lattice point
    where |f| and h both vanish drops out of the rule, as it drops out of
    the sample set.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size == 0:
        raise ParameterError("empty spectrum")
    pts, weights, p = _quad_lattice(f.dims)
    ratio, keep = _modulus_ratio(f, h, pts)
    weights = weights[keep]
    norm = (2.0 * np.pi) ** (-f.dims)

    rows = []
    for i, item in enumerate(testfns):
        if isinstance(item, tuple):
            label, fn = item
        else:
            fn = item
            label = getattr(fn, "label", f"F{i}")
        mean = float(np.mean(fn(eigs)))
        integral = float(norm * np.sum(weights * (fn(-ratio) + fn(ratio)) / 2.0))
        rows.append(DiscrepancyRow(label, mean, integral, abs(mean - integral), p))
    return rows


def zero_distribution_verdict(matrices, tau: float = 1e-6):
    """Trend report for a family expected to be singular-value distributed as 0.

    For each matrix: fraction of singular values above tau * sigma_max and
    the value at the cut.  PASS means the fractions never increase and the
    last one improved on the first (or hit zero outright).
    """
    mats = list(matrices)
    if len(mats) < 2:
        raise ParameterError("need at least two sizes for a trend")
    rows = []
    for a in mats:
        a = np.asarray(a)
        _, count, at_cut = _singular_split(singular_values(a), tau)
        rows.append((count / a.shape[0], at_cut))
    fracs = [r[0] for r in rows]
    monotone = all(b <= a + 1e-15 for a, b in zip(fracs, fracs[1:]))
    verdict = monotone and (fracs[-1] < fracs[0] or fracs[-1] == 0.0)
    return {"rows": rows, "fractions": fracs, "pass": bool(verdict)}


# ---------------------------------------------------------------------------
# odd-size embedding (one level)


@dataclass(frozen=True)
class OddEmbeddingReport:
    n: int
    term_deviation: dict
    correction_sigma_max: float
    correction_rank_fraction: float
    correction_tail: float

    @property
    def exact(self) -> bool:
        return all(v == 0.0 for v in self.term_deviation.values())


def _monomial_blocks(k: int, m: int):
    # the four (m+1) x (m+1) blocks of the even-size embedding of e^{ik theta}
    one = Symbol(1, None, {(k,): 1.0})
    mone = Symbol(1, None, {(-k,): 1.0})
    tp = ToeplitzOperator(one.coefficients, (m + 1,)).dense()
    tm = ToeplitzOperator(mone.coefficients, (m + 1,)).dense()
    hp = assemble_hankel(one, (m + 1,), "plus")
    hm = assemble_hankel(mone, (m + 1,), "plus")
    return hp, tp, tm, hm


def odd_embedding_check(f: Symbol, n: int) -> OddEmbeddingReport:
    """Check the even-size embedding of U Y T U at one odd size.

    For each band term e^{ik theta} of a one-level symbol, U_n Y_n T_n U_n
    embeds exactly into a size n+1 matrix [[H_+, T_+], [T_-, H_-]] with the
    middle row and column deleted; the deviation is reported per term and
    is zero in exact arithmetic.  The Hankel corner blocks built from the
    full coefficient table are the correction the identity leaves behind;
    the report carries their singular-value split (a handful of
    anti-diagonal hits and a zero tail for banded symbols).
    """
    if f.dims != 1:
        raise ParameterError("odd embedding check is one-level only")
    n = int(n)
    if n % 2 == 0:
        raise ParameterError(f"odd embedding check needs an odd size, got {n}")
    if not f.coefficients:
        raise ParameterError("needs a coefficient table")
    m = n // 2
    keep = np.r_[np.arange(m + 1), np.arange(m + 2, 2 * m + 2)]
    fy = flip_map((n,))
    fu = u_map((n,))

    deviations = {}
    for k in sorted(kk[0] for kk in f.coefficients):
        t = ToeplitzOperator({(k,): 1.0}, (n,)).dense()
        lhs = t[fy, :]
        lhs = lhs[fu][:, fu]
        hp, tp, tm, hm = _monomial_blocks(k, m)
        big = np.block([[hp, tp], [tm, hm]])
        rhs = big[np.ix_(keep, keep)]
        deviations[k] = float(np.max(np.abs(lhs - rhs)))

    hank = np.zeros((2 * m + 2, 2 * m + 2))
    for kk, t in f.coefficients.items():
        hp, _, _, hm = _monomial_blocks(kk[0], m)
        hank[: m + 1, : m + 1] += t * hp
        hank[m + 1 :, m + 1 :] += t * hm
    top, count, tail = _singular_split(singular_values(hank), 1e-8)
    return OddEmbeddingReport(n, deviations, top, count / (2.0 * m + 2.0), tail)
