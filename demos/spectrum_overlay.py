"""
Flipped spectrum against the two symbol branches
================================================

The eigenvalues of Y_n T_n(f), sorted, land on samples of -|f| and +|f|.
This prints the overlay for the two-level symbol used throughout and shows
the index-wise gap shrinking as the sizes grow.
"""

import numpy as np

from flipspec.operators import flipped_dense
from flipspec.spectral import (build_gamma, build_lambda, build_delta,
                               match_eigenvalues, sym_eigenvalues)
from flipspec.symbols import ex1_symbol

f = ex1_symbol()

for sizes in ((10, 10), (20, 20), (30, 30)):
    eigs = sym_eigenvalues(flipped_dense(f, sizes))
    lam = build_lambda(f, None, build_gamma(sizes))
    gaps = np.abs(eigs - lam.values)
    print(f"n={sizes}: d_n={eigs.size}, max gap {gaps.max():.4f}, "
          f"mean gap {gaps.mean():.4f}")

# a few sample pairs from the finest run, low end and high end
for i in (0, 1, 2, eigs.size - 2, eigs.size - 1):
    print(f"  eig[{i:3d}] = {eigs[i]:+.5f}   sample = {lam.values[i]:+.5f}")

# nearest-sample matching over the full lattice instead of sorted pairing
sizes = (20, 40)
eigs = sym_eigenvalues(flipped_dense(f, sizes))
report = match_eigenvalues(eigs, build_lambda(f, None, build_delta(sizes)))
print(f"match at n={sizes}: mean distance {report.mean_distance:.4f}, "
      f"max {report.max_distance:.4f}")
