"""Shared oracles for the test suite.

Every helper recomputes a quantity by the most direct formula available,
deliberately independent of the library's fast paths (lookup assembly, FFT
products, averaging formulas), so a test compares two genuinely different
computations.
"""

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
