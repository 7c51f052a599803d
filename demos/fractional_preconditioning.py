"""
Preconditioning the flipped fractional diffusion system
=======================================================

MINRES on Y A x = Y b for the two-dimensional fractional diffusion matrix,
with and without preconditioning.  T(f_R), built from the real part of the
symbol, keeps the preconditioned eigenvalues clustered at -1 and +1, so the
iteration count barely moves as the mesh grows.
"""

import numpy as np

from flipspec.krylov import SolveConfig, flipped_solve
from flipspec.precond import build_p22, build_p2beta, build_toepfr, \
    preconditioned_spectrum
from flipspec.symbols import fractional_symbol

alpha, beta = 1.8, 1.6

for n in (10, 20, 40):
    f = fractional_symbol(alpha, beta, n, n, M=n)
    h_x = 1.0 / (n + 1)
    b = 2.0 * h_x**alpha * np.ones(n * n)
    counts = {}
    for name, p in (("none", None),
                    ("toepfr", build_toepfr(f, (n, n))),
                    ("p22", build_p22(alpha, beta, n, n, M=n)),
                    ("p2beta", build_p2beta(alpha, beta, n, n, M=n))):
        res = flipped_solve(f, (n, n), b, p, SolveConfig(record_residuals=False))
        counts[name] = res.iterations if res.converged else "-"
    print(f"d_n = {n * n:5d}: " + "  ".join(f"{k}={v}" for k, v in counts.items()))

# where the clustering comes from: the preconditioned spectrum at +-1
n = 20
f = fractional_symbol(alpha, beta, n, n, M=n)
eigs = preconditioned_spectrum(build_toepfr(f, (n, n)), f)
inside = np.mean(np.abs(np.abs(eigs) - 1.0) <= 0.3)
print(f"preconditioned eigenvalues within 0.3 of +-1: {100 * inside:.1f}%"
      f" (range {eigs.min():.3f} .. {eigs.max():.3f})")
