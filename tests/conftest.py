"""Shared oracles for the test suite.

Every helper recomputes a quantity by the most direct formula available,
deliberately independent of the library's fast paths (lookup assembly, FFT
products, averaging formulas), so a test compares two genuinely different
computations.
"""

import functools
import tracemalloc

import numpy as np


def kron_toeplitz_dense(coefficients, sizes):
    """Direct Kronecker assembly: sum over k of t_k prod_l J^(k_l).

    J^(k) is the square matrix with ones on the k-th subdiagonal, so the
    (i, j) entry of the product is 1 exactly when i - j = k levelwise.
    """
    sizes = tuple(int(v) for v in sizes)
    d_n = int(np.prod(sizes))
    out = np.zeros((d_n, d_n), dtype=complex)
    for k, t in coefficients.items():
        term = np.eye(sizes[0], k=-k[0])
        for kl, nl in zip(k[1:], sizes[1:]):
            term = np.kron(term, np.eye(nl, k=-kl))
        out = out + complex(t) * term
    if np.max(np.abs(out.imag)) == 0.0:
        return out.real
    return out


def interleaved_block_dense(coefficients, sizes):
    """Direct Kronecker assembly of the interleaved block form of g = [[0, f], [f*, 0]].

    Per level of even size n = 2m, the monomial e^{i k theta} is the 0/1
    matrix B^(k) with ones at (2i, 2j + 1) for i - j = k and at (2i + 1, 2j)
    for j - i = k; the form is sum over k of t_k prod_l B^(k_l).
    """
    def block(k, n):
        m = n // 2
        out = np.zeros((n, n))
        out[0::2, 1::2] = np.eye(m, k=-k)
        out[1::2, 0::2] = np.eye(m, k=k)
        return out

    sizes = tuple(int(v) for v in sizes)
    d_n = int(np.prod(sizes))
    out = np.zeros((d_n, d_n))
    for k, t in coefficients.items():
        term = block(k[0], sizes[0])
        for kl, nl in zip(k[1:], sizes[1:]):
            term = np.kron(term, block(kl, nl))
        out += t * term
    return out


def traced_peak(fn, *args, **kwargs):
    """Peak bytes tracemalloc traces while fn(*args, **kwargs) runs.

    tracemalloc sees numpy's arrays but not LAPACK's work arrays.
    """
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def shifted_sum(coefficients, sizes, x):
    """y = T_n x for a real table by one slice update y[dst] += t_k x[src] per coefficient.

    On level l, rows k_l.. of y read rows 0.. of x for k_l >= 0, and rows
    0.. read rows -k_l.. for k_l < 0; coefficients outside the band
    |k_l| <= n_l - 1 touch no entry and are skipped.
    """
    sizes = tuple(int(v) for v in sizes)
    x = np.asarray(x, dtype=float).reshape(sizes)
    y = np.zeros(sizes)
    for k, t in coefficients.items():
        if any(abs(kl) > nl - 1 for kl, nl in zip(k, sizes)):
            continue
        dst = tuple(slice(max(kl, 0), nl + min(kl, 0)) for kl, nl in zip(k, sizes))
        src = tuple(slice(max(-kl, 0), nl - max(kl, 0)) for kl, nl in zip(k, sizes))
        y[dst] += t * x[src]
    return y.ravel()


def dense_circulant(c):
    """C[i, j] = c[(i - j) mod n]."""
    c = np.asarray(c)
    n = len(c)
    return c[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]


def brute_frobenius_circulant(table, n):
    """Least-squares argmin of ||C - T||_F over circulant first columns.

    Each entry of a circulant reads exactly one c_j, so the design matrix
    is 0/1 and plain lstsq solves the minimization exactly.
    """
    t = kron_toeplitz_dense({(k,): v for k, v in table.items() if abs(k) <= n - 1}, (n,))
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    design = np.zeros((n * n, n))
    design[np.arange(n * n), idx.ravel()] = 1.0
    sol, *_ = np.linalg.lstsq(design, np.asarray(t, dtype=float).ravel(), rcond=None)
    return sol


def direct_fourier_coefficient(fun, k, m=4096):
    """Plain Riemann sum for t_k on m equispaced nodes, no FFT."""
    theta = 2.0 * np.pi * np.arange(m) / m
    return complex(np.sum(fun(theta) * np.exp(-1j * k * theta)) / m)


def fft_fourier_coefficients(fun, m, d=1):
    """t_k of fun by a plain numpy FFT of its samples on an m^d lattice.

    fun takes (N, d) points in [-pi, pi]; t_k sits at index k mod m on
    every level of the returned array.
    """
    theta = 2.0 * np.pi * np.arange(m) / m
    theta = np.where(theta > np.pi, theta - 2.0 * np.pi, theta)
    mesh = np.meshgrid(*(theta,) * d, indexing="ij")
    samples = fun(np.stack([a.ravel() for a in mesh], axis=1)).reshape((m,) * d)
    return np.fft.fftn(samples) / m**d


def trig_sum(coefficients, points):
    """Plain trigonometric sum sum_k t_k exp(i <k, theta>) at (N, d) points."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros(len(pts), dtype=complex)
    for k, t in coefficients.items():
        out += complex(t) * np.exp(1j * (pts @ np.asarray(k, dtype=float)))
    return out


def random_banded_table(rng, d, max_size=9, max_band=None):
    """Random real coefficient table plus compatible sizes, full band."""
    sizes = tuple(int(rng.integers(2, max_size)) for _ in range(d))
    band = tuple(int(rng.integers(0, nl if max_band is None else max_band + 1))
                 for nl in sizes)
    coeffs = {}
    for k in np.ndindex(*(2 * q + 1 for q in band)):
        key = tuple(int(ki - qi) for ki, qi in zip(k, band))
        coeffs[key] = float(rng.standard_normal())
    return coeffs, sizes


def grunwald_closed_form(gamma, k):
    """Fourier coefficient of the shifted difference symbol via binomials.

    Expanding -[(2 - gamma)/2 + (gamma/2) e^{-i theta}] * (1 - e^{i theta})^gamma
    termwise gives t_k = -[(2 - gamma)/2 * c_k + gamma/2 * c_{k+1}] with
    c_j = (-1)^j binom(gamma, j) and c_j = 0 for j < 0.
    """
    from scipy.special import binom

    def c(j):
        return 0.0 if j < 0 else (-1.0) ** j * binom(gamma, j)

    return -((2.0 - gamma) / 2.0 * c(k) + (gamma / 2.0) * c(k + 1))


def tridiag_laplacian_eigs(n):
    """Closed form for eig(tridiag(-1, 2, -1)) at size n."""
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))


def eigenbasis_w(bases, eigenvalues, s):
    """Symmetric W = Lambda^{-1/2} Q^T S Q Lambda^{-1/2} for Q = Q_1 (x) ... (x) Q_d.

    Lambda = sum_l lambda_l on the index lattice.  Each Q_l is contracted with
    its row axis and its column axis of the (n_1, ..., n_d, n_1, ..., n_d)
    view of S by np.tensordot, so no dense Kronecker Q is formed.
    """
    sizes = tuple(len(q) for q in bases)
    w = np.asarray(s, dtype=float).reshape(sizes + sizes)
    for l, q in enumerate(bases):
        for axis in (l, len(sizes) + l):
            w = np.moveaxis(np.tensordot(w, q, axes=(axis, 0)), -1, axis)
    scale = 1.0 / np.sqrt(functools.reduce(np.add.outer, eigenvalues).ravel())
    w = scale[:, None] * w.reshape(len(scale), -1) * scale
    return (w + w.T) / 2.0


def convection_diffusion_stencil(sizes):
    """ex3's t_k from the closed forms in the convection_diffusion_symbol docstring.

    With h_l = 1/(n_l + 1): t_0 = 6 + 2 h_1 + h_2 + 1.5 h_3; level l has the
    unit upper neighbor t_{-e_l} = -1 and the weighted lower neighbor
    t_{e_l} = -1 - w_l h_l, w = (2, 1, 1.5).
    """
    h = [1.0 / (n + 1) for n in sizes]
    w = (2.0, 1.0, 1.5)
    out = {(0, 0, 0): 6.0 + 2.0 * h[0] + h[1] + 1.5 * h[2]}
    for l in range(3):
        e = tuple(int(i == l) for i in range(3))
        out[e] = -1.0 - w[l] * h[l]
        out[tuple(-v for v in e)] = -1.0
    return out


def _along(x, l, m):
    """The matrix m applied to axis l of the array x."""
    return np.moveaxis(np.tensordot(m, x, axes=(1, l)), 0, l)


def convection_diffusion_oracle(sizes):
    """(solve, kappa) for ex3's T_n(f), numpy only: solve(b) = T^{-1} b, kappa >= kappa_2(T).

    Level l is tridiagonal Toeplitz with c_l = t_{e_l} below and u_l = t_{-e_l}
    above the diagonal, c_l u_l > 0, so T_l = D_l S_l D_l^{-1} with
    D_l = diag(r_l^i), r_l = sqrt(c_l/u_l), and S_l symmetric tridiagonal with
    s_l = c_l/r_l off the diagonal: T = 𝒟 (sum_l I⊗S_l⊗I) 𝒟^{-1}.  The
    orthogonal sine matrix U_l[i, j] = sqrt(2/(n_l+1)) sin((i+1)(j+1) pi/(n_l+1))
    diagonalizes S_l, eigenvalues 2 s_l cos(j pi/(n_l+1)), j = 1..n_l
    (Noschese, Pasquini & Reichel, NLAA 2013), so the eigenvalues of the sum
    are t_0 plus their sum on the lattice, and solve is one sweep of
    U_l D_l^{-1} per level in, a division, and one of D_l U_l out.
    kappa = kappa(S) kappa(𝒟)^2, kappa(S) the ratio of the extreme
    |eigenvalues| and kappa(𝒟) = prod_l max(r_l, 1/r_l)^(n_l - 1).
    """
    sizes = tuple(sizes)
    t = convection_diffusion_stencil(sizes)
    ins, outs, eigs, kappa_d = [], [], [], 1.0
    for l, n in enumerate(sizes):
        e = tuple(int(i == l) for i in range(3))
        c, u = t[e], t[tuple(-v for v in e)]
        r, j = np.sqrt(c / u), np.arange(1, n + 1)
        sine = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))
        d = r ** np.arange(n)
        ins.append(sine / d)
        outs.append(d[:, None] * sine)
        eigs.append(2.0 * (c / r) * np.cos(j * np.pi / (n + 1)))
        kappa_d *= max(r, 1.0 / r) ** (n - 1)
    lam = functools.reduce(np.add.outer, eigs) + t[(0, 0, 0)]

    def solve(b):
        x = np.reshape(b, sizes)
        for l, m in enumerate(ins):
            x = _along(x, l, m)
        x = x / lam
        for l, m in enumerate(outs):
            x = _along(x, l, m)
        return x.ravel()

    return solve, np.abs(lam).max() / np.abs(lam).min() * kappa_d**2


def hager_higham_norm1(apply, apply_t, dim):
    """Estimate of ||A||_1 from x -> A x and x -> A^T x (Higham, Accuracy and Stability, Alg. 15.1).

    It is attained by a column of A, so it never exceeds ||A||_1.
    """
    x = np.full(dim, 1.0 / dim)
    for _ in range(5):
        y = apply(x)
        z = apply_t(np.where(y >= 0.0, 1.0, -1.0))
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= z @ x:
            break
        x = np.zeros(dim)
        x[j] = 1.0
    return np.abs(y).sum()


def fractional_stencil(gamma, n):
    """T_n(f_gamma) as a dense matrix, entry (i, j) = grunwald_closed_form(gamma, i - j)."""
    t = np.array([grunwald_closed_form(gamma, k) for k in range(1 - n, n)])
    return t[np.subtract.outer(np.arange(n), np.arange(n)) + n - 1]


def fractional_oracle(alpha, beta, sizes, M):
    """(solve, kappa) for ex2's T_n(f) by Bartels-Stewart; kappa estimates kappa_2(T).

    T = A⊗I + I⊗B with A = T_{n_1}(f_alpha) + 2 h_1^alpha M I and
    B = (h_1^alpha / h_2^beta) T_{n_2}(f_beta), h_l = 1/(n_l + 1), the mesh
    weights of the fractional problem.  On the row-major (n_1, n_2) view,
    T x = b is the Sylvester equation A X + X B^T = b, solved by
    scipy.linalg.solve_sylvester (Bartels & Stewart, CACM 1972), and T^T x = b
    is A^T X + X B = b.  kappa = sqrt(||T||_1 ||T||_inf ||T^-1||_1 ||T^-1||_inf)
    bounds kappa_2(T) with ||T||_p <= ||A||_p + ||B||_p and the two inverse
    norms taken from Hager-Higham estimates made with oracle solves.
    """
    from scipy.linalg import solve_sylvester

    n1, n2 = sizes
    hx, hy = 1.0 / (n1 + 1), 1.0 / (n2 + 1)
    a = fractional_stencil(alpha, n1) + 2.0 * hx**alpha * M * np.eye(n1)
    b = hx**alpha / hy**beta * fractional_stencil(beta, n2)

    def solve(rhs, transposed=False):
        lhs = (a.T, b) if transposed else (a, b.T)
        return solve_sylvester(*lhs, np.reshape(rhs, sizes)).ravel()

    solve_t = functools.partial(solve, transposed=True)
    inv1 = hager_higham_norm1(solve, solve_t, n1 * n2)
    inv_inf = hager_higham_norm1(solve_t, solve, n1 * n2)
    norm1 = np.linalg.norm(a, 1) + np.linalg.norm(b, 1)
    norm_inf = np.linalg.norm(a, np.inf) + np.linalg.norm(b, np.inf)
    return solve, np.sqrt(norm1 * norm_inf * inv1 * inv_inf)
