"""Spectra and preconditioned solves for flip-symmetrized multilevel Toeplitz systems.

Multiplying a real multilevel Toeplitz matrix T_n(f) by the flip
(anti-identity) Y_n yields a symmetric matrix whose eigenvalues follow the
two branches of [[0, f], [f*, 0]], i.e. minus and plus |f|; preconditioning
by an SPD Toeplitz matrix T_n(h) moves the branches to plus/minus |f|/h.
This package builds the matrices, samples the branches on the reference
grids, quantifies the agreement, and solves the symmetrized systems with
preconditioned MINRES.  The ``flipspec`` command line exposes the shipped
experiments; the submodules are the library surface:

symbols      generating functions and their Fourier coefficients
operators    Toeplitz/Hankel assembly, flip/shuffle index maps, residuals
spectral     grids, sample sets, matching, distribution discrepancies
precond      Kronecker-sum preconditioners (Toeplitz and circulant levels)
krylov       preconditioned MINRES with the true-residual stopping rule
experiments  the ex1/ex2/ex3 drivers behind the CLI
"""

__version__ = "0.1.0"

from .errors import (FlipspecError, DomainError, ParameterError, AliasingError,
                     ShapeError, CapacityError, EvenSizeError, SymmetryError,
                     PoleError, NotSPDError, OperatorError)
from .symbols import (Symbol, fourier_coefficients, constant_symbol,
                      laplace1d_symbol, ex1_symbol, grunwald_symbol,
                      grunwald_coefficients, fractional_symbol,
                      convection_diffusion_symbol, real_part_symbol,
                      p_beta_truncation, named_symbol, coefficients_to_csv)
from .operators import (ToeplitzOperator, flip_apply, u_apply, pi_apply,
                        flip_map, u_map, pi_map, assemble_block_g,
                        interleaved_block_g, assemble_hankel,
                        structure_residual, write_matrix_csv,
                        write_matrix_binary, read_matrix_binary)
from .spectral import (sym_eigenvalues, singular_values, build_gamma,
                       build_delta, build_lambda, match_eigenvalues, tent,
                       distribution_discrepancy, zero_distribution_verdict,
                       odd_embedding_check, write_spectral_report_csv,
                       write_discrepancy_csv)
from .precond import (optimal_circulant, circulant_abs, ToeplitzPreconditioner,
                      build_circulant_kron_sum, build_toepfr, build_p22,
                      build_p2beta, preconditioned_spectrum)
from .krylov import SolveConfig, SolveResult, minres, flipped_solve, write_residuals_csv
from .experiments import (ExperimentConfig, run_spectrum, run_match, run_table,
                          run_verify)
