"""Experiment drivers behind the command-line front end.

Three named experiments plus a one-level custom family:

ex1     two-level banded symbol 4 + e^{i t1} + e^{i t2}
ex2     two-level fractional diffusion, parameters alpha, beta, M
ex3     three-level upwind convection-diffusion
custom  one-level fractional symbol f_alpha

Each driver writes plot-ready CSV into the chosen output directory through
one writer, ``_write_csv``: a header comment carrying the tool version and
the full configuration, any note comments, the column line, then the rows,
floats as ``repr``.  Identical configurations therefore reproduce identical
bytes (the recorded wall times being the one honest exception).
``spectrum`` and ``match`` share one pipeline (``_spectrum``) and differ
only in the sampling grid and the files they write.

Exchange symmetry of the unpreconditioned spectrum
--------------------------------------------------
Every dense spectrum gathers Y T straight from the symbol with
``operators.flipped_blocks``, a Hankel lookup of the table reversed on
every level, into the arrays it is solved in.  When two levels l, m have
n_l = n_m and the table is exactly invariant under exchanging k_l and k_m
(ex1's 4 + e^{i t1} + e^{i t2} at n_1 = n_2, ex2 at alpha = beta), the
level exchange S commutes with T and with Y, so Y T splits into a
symmetric-tensor and an antisymmetric-tensor block of sizes
d_n (n_l + 1) / 2 n_l and d_n (n_l - 1) / 2 n_l (Fässler & Stiefel, 1992).
The check is exact equality of the table and its transposed levels, with
no tolerance; without such a pair the one block is the whole Y T.
``_flipped_spectrum`` solves the blocks one at a time, each through the
symmetry gate of ``sym_eigenvalues``, and it has no option: ``spectrum``,
``match`` and ``verify``'s distribution rows all take it.
Preconditioned spectra are assembled from the levels (``preconditioned_spectrum``).

Contents
--------
ExperimentConfig, VALID_PRECONDITIONERS
experiment_symbol, build_preconditioner, rhs_vector, size_ladder
run_spectrum    eigs.csv, lambda.csv, overlay.csv (branch-wise pairing)
run_match       surface.csv, report.csv (nearest-sample assignment)
run_table       table.csv (MINRES iteration counts over the size ladder)
run_verify      verify.csv (invariant suites)
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .errors import ParameterError
from .symbols import (Symbol, as_sizes, constant_symbol,
                      convection_diffusion_symbol, ex1_symbol,
                      fractional_symbol, grunwald_symbol,
                      real_part_symbol, total_dim)
from .operators import (ToeplitzOperator, _fft_kernel, _guard_capacity, _shuffle_conjugate,
                        assemble_block_g, assemble_hankel, flip_apply, flipped_blocks,
                        flipped_dense, interleaved_block_g, pi_map, structure_residual,
                        toeplitz_level, u_map)
from .spectral import (build_delta, build_gamma, build_lambda,
                       distribution_discrepancy, match_eigenvalues,
                       sym_eigenvalues, tent, zero_distribution_verdict)
from .precond import (build_circulant_kron_sum, build_p22, build_p2beta, build_toepfr,
                      optimal_circulant, preconditioned_spectrum)
from .krylov import SolveConfig, flipped_solve

VALID_PRECONDITIONERS = {
    "ex1": ("none",),
    "ex2": ("none", "toepfr", "p22", "p2beta"),
    "ex3": ("none", "toepfr", "circsum"),
    "custom": ("none", "toepfr"),
}

_LEVELS = {"ex1": 2, "ex2": 2, "ex3": 3, "custom": 1}

_LADDERS = {
    "ex2": ((10, 10), (20, 20), (40, 40), (80, 80)),
    "ex3": ((5, 5, 5), (10, 10, 10), (20, 20, 20)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment invocation: what to build and where to write."""
    exp: str
    sizes: tuple = None
    alpha: float = 1.8
    beta: float = 1.6
    M: int = None  # None: use n_1 of each size
    precond: str = None  # None: command-dependent default
    out: str = "flipspec_out"
    seed: int = 0
    include_shift: bool = True

    def __post_init__(self):
        if self.exp not in VALID_PRECONDITIONERS:
            raise ParameterError(f"unknown experiment {self.exp!r}")
        if self.sizes is not None:
            sizes = as_sizes(self.sizes)
            if len(sizes) != _LEVELS[self.exp]:
                raise ParameterError(f"experiment {self.exp} needs {_LEVELS[self.exp]} "
                                     f"level sizes, got {sizes}")
            object.__setattr__(self, "sizes", sizes)
        if self.precond is not None and self.precond not in VALID_PRECONDITIONERS[self.exp]:
            raise ParameterError(f"preconditioner {self.precond!r} is not valid for "
                                 f"{self.exp} (choose from {VALID_PRECONDITIONERS[self.exp]})")

    def resolved_m(self, sizes) -> int:
        return int(self.M) if self.M is not None else int(sizes[0])

    def header(self, cmd: str) -> str:
        nrep = ",".join(str(v) for v in self.sizes) if self.sizes else "-"
        mrep = str(self.M) if self.M is not None else "n1"
        return (f"flipspec {__version__} | cmd={cmd} exp={self.exp} n={nrep} "
                f"alpha={self.alpha:g} beta={self.beta:g} M={mrep} "
                f"precond={self.precond or 'none'} seed={self.seed} "
                f"shift={'on' if self.include_shift else 'off'}")


def experiment_symbol(cfg: ExperimentConfig, sizes) -> Symbol:
    sizes = as_sizes(sizes)
    if cfg.exp == "ex1":
        return ex1_symbol()
    if cfg.exp == "ex2":
        return fractional_symbol(cfg.alpha, cfg.beta, sizes[0], sizes[1],
                                 cfg.resolved_m(sizes), cfg.include_shift)
    if cfg.exp == "ex3":
        return convection_diffusion_symbol(*sizes)
    # custom: one-level fractional
    return grunwald_symbol(cfg.alpha, sizes[0] - 1)


def build_preconditioner(cfg: ExperimentConfig, f: Symbol, sizes):
    """Build the configured preconditioner; returns (P, weight_symbol).

    The weight symbol is what divides |f| in the sample set: the symbol of
    the preconditioner sequence.  Identity gives (None, None).
    """
    sizes = as_sizes(sizes)
    which = cfg.precond or "none"
    if which == "none":
        return None, None
    if which == "toepfr":
        p = build_toepfr(f, sizes)
    elif which == "p22":
        p = build_p22(cfg.alpha, cfg.beta, sizes[0], sizes[1],
                      cfg.resolved_m(sizes), cfg.include_shift)
    elif which == "p2beta":
        p = build_p2beta(cfg.alpha, cfg.beta, sizes[0], sizes[1],
                         cfg.resolved_m(sizes), cfg.include_shift)
    elif which == "circsum":
        p = build_circulant_kron_sum(f, sizes)
    else:
        raise ParameterError(f"unknown preconditioner {which!r}")
    return p, p.symbol


def rhs_vector(cfg: ExperimentConfig, sizes) -> np.ndarray:
    sizes = as_sizes(sizes)
    ones = np.ones(total_dim(sizes))
    if cfg.exp == "ex2":
        hx = 1.0 / (sizes[0] + 1)
        return 2.0 * hx**cfg.alpha * ones
    return ones


def size_ladder(cfg: ExperimentConfig):
    if cfg.sizes is not None:
        return [cfg.sizes]
    if cfg.exp in _LADDERS:
        return [as_sizes(s) for s in _LADDERS[cfg.exp]]
    raise ParameterError(f"experiment {cfg.exp} has no default size ladder; pass sizes")


def _flipped_spectrum(f: Symbol, sizes) -> np.ndarray:
    # eigenvalues of Y_n T_n(f), ascending: each block that
    # operators.flipped_blocks gathers goes through the symmetry gate and
    # eigvalsh, and is let go before the next one is gathered
    eigs = []
    for block in flipped_blocks(f, sizes):
        eigs.append(sym_eigenvalues(block))
        del block
    return np.sort(np.concatenate(eigs))


def _dropped_note(lam) -> str:
    # names the grid points left without a sample, where |f| and h both vanish
    thetas = ", ".join(str(tuple(float(t) for t in lam.points[i])) for i in lam.dropped)
    return f"no sample where |f| and h both vanish: theta = {thetas}"


def _ensure_out(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path, header: str, columns, rows, notes=()) -> None:
    """The one CSV writer: ``# header``, ``# note`` lines, columns, then rows.

    Cells are written as repr(float(v)) for floats, lower case for
    booleans and through str otherwise; the caller formats anything else
    (the table's wall times, the verify values) into a string first.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for comment in (header, *notes):
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


# ---------------------------------------------------------------------------
# commands


def _spectrum(cfg: ExperimentConfig, build_grid):
    # dense cap -> grid points -> symbol -> preconditioner (levels up to d_n x d_n) ->
    # flipped dense -> eigenvalues, and the branch samples |f|/h at the points, h P's symbol
    _guard_capacity(total_dim(cfg.sizes), "spectrum")
    points = build_grid(cfg.sizes)
    f = experiment_symbol(cfg, cfg.sizes)
    p, weight = build_preconditioner(cfg, f, cfg.sizes)
    eigs = _flipped_spectrum(f, cfg.sizes) if p is None else preconditioned_spectrum(p, f)
    return eigs, build_lambda(f, weight, points)


def run_spectrum(cfg: ExperimentConfig) -> dict:
    """Sorted spectrum vs. sorted sample set; writes eigs/lambda/overlay CSV.

    With unequal counts the lower half of the samples (the -|f|/h branch)
    is paired with the lowest eigenvalues and the upper half with the
    highest, so the middle of the longer list stays unpaired.
    """
    if cfg.sizes is None:
        raise ParameterError("spectrum needs explicit sizes")
    out = _ensure_out(cfg)
    eigs, lam = _spectrum(cfg, build_gamma)
    header = cfg.header("spectrum")
    _write_csv(os.path.join(out, "eigs.csv"), header, ("index", "eigenvalue"),
               enumerate(eigs.tolist()))
    _write_csv(os.path.join(out, "lambda.csv"), header, ("index", "value", "branch"),
               zip(range(len(lam)), lam.values.tolist(), lam.branch.tolist()))

    n_eig, n_lam = len(eigs), len(lam)
    pairs = min(n_eig, n_lam)
    low, high = pairs // 2, pairs - pairs // 2
    paired_eigs = np.r_[eigs[:low], eigs[n_eig - high:]]
    paired_lam = np.r_[lam.values[:low], lam.values[n_lam - high:]]
    gaps = np.abs(paired_eigs - paired_lam)
    max_gap, mean_gap = float(np.max(gaps)), float(np.mean(gaps))
    notes = [_dropped_note(lam)] if lam.dropped else []
    if n_eig != n_lam:
        notes.append(f"unequal counts ({n_eig} eigenvalues, {n_lam} samples): lowest {low} "
                     f"and highest {high} of each paired, the middle ones unpaired")
    notes.append(f"max_gap={max_gap!r} mean_gap={mean_gap!r}")
    _write_csv(os.path.join(out, "overlay.csv"), header, ("index", "eig", "lambda"),
               zip(range(pairs), paired_eigs.tolist(), paired_lam.tolist()), notes)
    return {"eigenvalues": eigs, "lambda": lam, "max_gap": max_gap, "mean_gap": mean_gap}


def run_match(cfg: ExperimentConfig) -> dict:
    """Nearest-sample assignment over the two-level lattice; writes surface CSV."""
    if cfg.sizes is None:
        raise ParameterError("match needs explicit sizes")
    if len(cfg.sizes) != 2:
        raise ParameterError("matching runs on two-level experiments only")
    out = _ensure_out(cfg)
    eigs, lam = _spectrum(cfg, build_delta)
    report = match_eigenvalues(eigs, lam)
    header = cfg.header("match")
    theta = report.points[report.point_index].T.tolist()
    eig, value, branch = (report.eigenvalues.tolist(), report.matched_value.tolist(),
                          report.branch.tolist())
    _write_csv(os.path.join(out, "surface.csv"), header,
               ("theta_1", "theta_2", "branch", "eigenvalue", "symbol_value"),
               zip(*theta, branch, eig, value))
    if lam.dropped:
        header = f"{header} | {_dropped_note(lam)}"
    _write_csv(os.path.join(out, "report.csv"), header,
               ("index", "eigenvalue", "matched_value", "branch",
                *(f"theta_{j + 1}" for j in range(len(theta))), "distance"),
               zip(range(len(eig)), eig, value, branch, *theta, report.distance.tolist()))
    return {"report": report, "mean_distance": report.mean_distance,
            "max_distance": report.max_distance}


def _table_job(cfg: ExperimentConfig, which: str, sizes):
    sizes = as_sizes(sizes)
    job = replace(cfg, precond=which, sizes=sizes)
    f = experiment_symbol(job, sizes)
    p, _ = build_preconditioner(job, f, sizes)
    b = rhs_vector(job, sizes)
    res = flipped_solve(f, sizes, b, p, SolveConfig(record_residuals=False), seed=cfg.seed)
    return {"d_n": total_dim(sizes), "preconditioner": which,
            "iterations": res.iterations, "converged": res.converged,
            "wall_time": res.wall_time}


def run_table(cfg: ExperimentConfig) -> list:
    """Iteration-count table over the experiment's size ladder."""
    if cfg.exp not in ("ex2", "ex3"):
        raise ParameterError("tables are defined for ex2 and ex3")
    out = _ensure_out(cfg)
    ladder = size_ladder(cfg)
    if cfg.precond is not None:
        columns = (cfg.precond,)
    else:
        columns = tuple(p for p in VALID_PRECONDITIONERS[cfg.exp] if p != "none")
    rows = [_table_job(cfg, which, sizes) for sizes in ladder for which in columns]
    _write_csv(os.path.join(out, "table.csv"), cfg.header("table"),
               ("d_n", "preconditioner", "iterations", "converged", "wall_time"),
               ((r["d_n"], r["preconditioner"], r["iterations"], r["converged"],
                 f"{r['wall_time']:.3f}") for r in rows))
    return rows


# ---------------------------------------------------------------------------
# verification suites


def _suite_ops(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg.seed)
    rows = []
    sizes = (4, 6)
    d_n = total_dim(sizes)
    x = rng.standard_normal(d_n)

    gap = float(np.max(np.abs(flip_apply(sizes, flip_apply(sizes, x)) - x)))
    rows.append(("ops", "flip_involution", gap == 0.0, f"{gap:g}"))
    fu = u_map((5,))
    gap = float(np.max(np.abs(np.arange(5.0)[fu][fu] - np.arange(5.0))))
    rows.append(("ops", "u_involution", gap == 0.0, f"{gap:g}"))
    gap = float(np.max(np.abs(x[pi_map(sizes)][np.argsort(pi_map(sizes))] - x)))
    rows.append(("ops", "pi_orthogonal", gap == 0.0, f"{gap:g}"))

    conj = _shuffle_conjugate(np.eye(d_n)[::-1], sizes)  # Y T(1) = Y
    target = interleaved_block_g(constant_symbol(1.0, 2), sizes)
    gap = float(np.max(np.abs(conj - target)))
    rows.append(("ops", "shuffle_identity_f1", gap == 0.0, f"{gap:g}"))

    one_shift = Symbol(1, None, {(1,): 1.0})
    gap = float(np.max(np.abs(interleaved_block_g(one_shift, (8,))
                              - assemble_block_g(one_shift, (4,)))))
    rows.append(("ops", "block_forms_agree_1level", gap == 0.0, f"{gap:g}"))

    h = real_part_symbol(ex1_symbol())
    t = flipped_dense(h, sizes)[::-1]  # T = Y (Y T)
    fp = pi_map(sizes)
    gap = float(np.max(np.abs(np.sort(np.linalg.eigvalsh(t[fp][:, fp]))
                              - np.sort(np.linalg.eigvalsh(t)))))
    rows.append(("ops", "permuted_similarity", gap <= 1e-11, f"{gap:.3e}"))

    s = flipped_dense(ex1_symbol(), (6, 6))
    gap = float(np.max(np.abs(s - s.T)))
    rows.append(("ops", "flipped_symmetry", gap == 0.0, f"{gap:g}"))
    return rows


def _suite_structure(sizes):
    small, big = int(sizes[0]), int(sizes[1])
    rows = []
    shift = Symbol(1, None, {(1,): 1.0})
    _, fr_small, _ = structure_residual(shift, (small,))
    _, fr_big, _ = structure_residual(shift, (big,))
    rows.append(("structure", "shift_rank_fraction_decreases", fr_big < fr_small,
                 f"{fr_small:.4f}->{fr_big:.4f}"))
    _, fr_small, _ = structure_residual(ex1_symbol(), (small, small))
    _, fr_big, _ = structure_residual(ex1_symbol(), (big, big))
    rows.append(("structure", "ex1_rank_fraction_decreases", fr_big < fr_small,
                 f"{fr_small:.4f}->{fr_big:.4f}"))
    d, _, _ = structure_residual(constant_symbol(1.0, 2), (small, small))
    gap = float(np.max(np.abs(d)))
    rows.append(("structure", "f1_residual_zero", gap == 0.0, f"{gap:g}"))
    return rows


def _suite_hankel(sizes):
    rows = []
    shift = Symbol(1, None, {(1,): 1.0})
    mats = [assemble_hankel(shift, (n,)) for n in sizes]
    rep = zero_distribution_verdict(mats)
    rows.append(("hankel", "shift_sigma_zero", rep["pass"],
                 "fractions=" + "/".join(f"{v:.4f}" for v in rep["fractions"])))
    mats = [assemble_hankel(ex1_symbol(), (n, n)) for n in sizes]
    rep = zero_distribution_verdict(mats)
    rows.append(("hankel", "ex1_sigma_zero", rep["pass"],
                 "fractions=" + "/".join(f"{v:.4f}" for v in rep["fractions"])))
    return rows


def _suite_distribution():
    f = ex1_symbol()
    fns = [tent(0.0, 8.0), tent(4.0, 4.0), tent(-4.0, 4.0)]
    small = distribution_discrepancy(_flipped_spectrum(f, (10, 10)), f, None, fns)
    big = distribution_discrepancy(_flipped_spectrum(f, (30, 30)), f, None, fns)
    rows = []
    for a, b in zip(small, big):
        ok = b.discrepancy < a.discrepancy and b.discrepancy < 0.05
        rows.append(("distribution", a.label, ok,
                     f"{a.discrepancy:.5f}->{b.discrepancy:.5f}"))
    return rows


def _brute_frobenius_circulant(v, n: int) -> np.ndarray:
    # least-squares argmin over first columns for v = t_{1-n}..t_{n-1}; design
    # matrix is 0/1 since each matrix entry reads exactly one c_j
    t = toeplitz_level(v)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    design = np.zeros((n * n, n))
    design[np.arange(n * n), idx.ravel()] = 1.0
    sol, *_ = np.linalg.lstsq(design, t.ravel(), rcond=None)
    return sol


def _suite_oracles(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg.seed)
    rows = []

    def matvec_row(check, draw, product, kernel=None):
        # worst error of product(op, x) over ten drawn tables, each on the kernel given
        worst, took = 0.0, True
        for _ in range(10):
            op = ToeplitzOperator(*draw())
            took = took and kernel in (None, op.kernel)
            x = rng.standard_normal(op.dim)
            ref = op.dense() @ x
            err = np.linalg.norm(product(op, x) - ref) / max(np.linalg.norm(ref), 1e-300)
            worst = max(worst, float(err))
        rows.append(("oracles", check, took and worst <= 1e-12, f"{worst:.3e}"))

    def full_band():
        d = int(rng.integers(1, 4))
        sizes = tuple(int(rng.integers(2, 9)) for _ in range(d))
        band = tuple(int(rng.integers(0, nl)) for nl in sizes)
        return Symbol(d, None, {tuple(ki - qi for ki, qi in zip(k, band)): rng.standard_normal()
                                for k in np.ndindex(*(2 * q + 1 for q in band))}), sizes

    # the embedding product itself: matvec would send a sparse draw to the
    # flat diagonals, which direct_matvec_vs_dense checks
    matvec_row("fft_matvec_vs_dense", full_band,
               lambda op, x: _fft_kernel(op.symbol, op.sizes)(x))

    worst = 0.0
    for n in range(2, 7):
        v = np.array([rng.standard_normal() for _ in range(2 * n - 1)])
        gap = np.max(np.abs(optimal_circulant(v, n) - _brute_frobenius_circulant(v, n)))
        worst = max(worst, float(gap))
    rows.append(("oracles", "optimal_circulant_frobenius", worst <= 1e-10, f"{worst:.3e}"))

    f2 = fractional_symbol(cfg.alpha, cfg.beta, 8, 8, 8)
    p = build_toepfr(f2, (8, 8))
    r = rng.standard_normal(64)
    err = np.linalg.norm(p.apply(p.apply_inverse(r)) - r) / np.linalg.norm(r)
    worst = float(err)
    f3 = convection_diffusion_symbol(5, 5, 5)
    c = build_circulant_kron_sum(f3, (5, 5, 5))
    r = rng.standard_normal(125)
    err = np.linalg.norm(c.apply(c.apply_inverse(r)) - r) / np.linalg.norm(r)
    worst = max(worst, float(err))
    rows.append(("oracles", "preconditioner_round_trip", worst <= 1e-10, f"{worst:.3e}"))

    a = rng.standard_normal((50, 50))
    a = (a + a.T) / 2.0
    vals, vecs = np.linalg.eigh(a)
    err = np.linalg.norm(a - vecs @ np.diag(vals) @ vecs.T) / np.linalg.norm(a)
    rows.append(("oracles", "eigensolver_reconstruction", err <= 1e-10, f"{err:.3e}"))

    # sparse coupled tables: at most log2(prod n_l) <= log2 M coefficients,
    # drawn anywhere in the band, so the operator takes the flat diagonals
    def sparse():
        d = int(rng.integers(1, 4))
        sizes = tuple(int(rng.integers(3, 9)) for _ in range(d))
        nnz = int(rng.integers(1, int(np.log2(total_dim(sizes))) + 1))
        return Symbol(d, None, {tuple(int(rng.integers(1 - nl, nl)) for nl in sizes):
                                rng.standard_normal() for _ in range(nnz)}), sizes

    matvec_row("direct_matvec_vs_dense", sparse, lambda op, x: op.matvec(x), "diagonals")

    # separable tables, t_0 plus a full band on each level alone: dense, so the
    # operator takes the level product
    def separable():
        d = int(rng.integers(2, 4))
        sizes = tuple(int(rng.integers(3, 9)) for _ in range(d))
        coeffs = {(0,) * d: rng.standard_normal()}
        for l, nl in enumerate(sizes):
            for k in range(1, nl):
                for s in (-k, k):
                    coeffs[tuple(s if m == l else 0 for m in range(d))] = rng.standard_normal()
        return Symbol(d, None, coeffs), sizes

    matvec_row("level_matvec_vs_dense", separable, lambda op, x: op.matvec(x), "levels")

    # preconditioned spectra assembled from the levels, against eigvalsh of
    # W = Lambda^{-1/2} Q^T Y T Q Lambda^{-1/2} from the whole gathered Y T and
    # the dense Kronecker basis Q: toepfr in the flip parity split (all-odd
    # sizes give m_e > m_o), then p2beta and circsum at size d_n
    for check, cases in (("parity_spectrum_vs_dense", (("ex2", "toepfr", (9, 7)),
                                                       ("ex3", "toepfr", (5, 4, 3)))),
                         ("level_spectrum_vs_dense", (("ex2", "p2beta", (9, 7)),
                                                      ("ex3", "circsum", (5, 4, 3))))):
        worst = 0.0
        for exp, precond, sizes in cases:
            case = replace(cfg, exp=exp, precond=precond, sizes=sizes)
            f = experiment_symbol(case, sizes)
            p, _ = build_preconditioner(case, f, sizes)
            q, scale = functools.reduce(np.kron, p.bases), np.sqrt(p._inverse)
            w = scale[:, None] * (q.T @ flipped_dense(f, sizes) @ q) * scale
            full = np.linalg.eigvalsh((w + w.T) / 2.0)
            got = preconditioned_spectrum(p, f)
            worst = max(worst, float(np.max(np.abs(got - full)) / np.max(np.abs(full))))
        rows.append(("oracles", check, worst <= 1e-12, f"{worst:.3e}"))

    # Y T solved as its two exchange blocks, against eigvalsh of the whole
    # gathered Y T: ex1 at odd and even n, and a random 3-level table
    # exchange-symmetric in levels 2 and 3
    table = {}
    for k in np.ndindex(3, 5, 5):
        k = (k[0] - 1, k[1] - 2, k[2] - 2)
        swapped = (k[0], k[2], k[1])
        table[k] = table[swapped] if swapped in table else rng.standard_normal()
    worst, split = 0.0, True
    for f, sizes in ((ex1_symbol(), (9, 9)), (ex1_symbol(), (10, 10)),
                     (Symbol(3, None, table), (3, 5, 5))):
        full = np.linalg.eigvalsh(flipped_dense(f, sizes))
        got = _flipped_spectrum(f, sizes)
        if len(list(flipped_blocks(f, sizes))) != 2 or got.shape != full.shape:
            split = False
            continue
        worst = max(worst, float(np.max(np.abs(got - full)) / np.max(np.abs(full))))
    rows.append(("oracles", "swap_spectrum_vs_dense", split and worst <= 1e-12, f"{worst:.3e}"))
    return rows


def run_verify(cfg: ExperimentConfig, suites=None, sizes=None) -> dict:
    """Run the invariant suites; returns rows and writes verify.csv.

    suites: subset of {ops, structure, hankel, distribution, oracles} (default
    all).  sizes: two comma-separated sizes for structure (default 8,16) and
    the Hankel ladder (default 8,16,32).
    """
    all_suites = ("ops", "structure", "hankel", "distribution", "oracles")
    chosen = tuple(suites) if suites else all_suites
    for s in chosen:
        if s not in all_suites:
            raise ParameterError(f"unknown verify suite {s!r}")
    pair = tuple(sizes) if sizes else (8, 16)
    if len(pair) < 2:
        raise ParameterError("verify sizes need at least two entries")
    hankel_sizes = tuple(sizes) if sizes else (8, 16, 32)

    runners = {
        "ops": lambda: _suite_ops(cfg),
        "structure": lambda: _suite_structure(pair),
        "hankel": lambda: _suite_hankel(hankel_sizes),
        "distribution": lambda: _suite_distribution(),
        "oracles": lambda: _suite_oracles(cfg),
    }
    rows = [r for s in chosen for r in runners[s]()]

    _write_csv(os.path.join(_ensure_out(cfg), "verify.csv"), cfg.header("verify"),
               ("suite", "check", "pass", "value"), rows)
    return {"rows": rows, "pass": all(ok for _, _, ok, _ in rows)}
