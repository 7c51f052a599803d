"""Experiment drivers behind the command-line front end.

Three named experiments plus a one-level custom family:

ex1     two-level banded symbol 4 + e^{i t1} + e^{i t2}
ex2     two-level fractional diffusion, parameters alpha, beta, M
ex3     three-level upwind convection-diffusion
custom  one-level fractional symbol f_alpha

Each driver writes plot-ready CSV into the chosen output directory.  Every
file starts with one header comment carrying the tool version and the full
configuration, so identical configurations reproduce identical bytes (the
recorded wall times being the one honest exception).

Contents
--------
ExperimentConfig, VALID_PRECONDITIONERS
experiment_symbol, build_preconditioner, rhs_vector, size_ladder
run_spectrum, run_match, run_table, run_verify
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .errors import ParameterError
from .symbols import (Symbol, as_sizes, constant_symbol,
                      convection_diffusion_symbol, ex1_symbol,
                      fractional_symbol, grunwald_coefficients,
                      grunwald_symbol, real_part_symbol, total_dim)
from .operators import (ToeplitzOperator, assemble_block_g, assemble_hankel,
                        flip_apply, flip_map, interleaved_block_g, pi_apply,
                        pi_map, structure_residual, u_apply, u_map)
from .spectral import (build_delta, build_gamma, build_lambda,
                       distribution_discrepancy, match_eigenvalues,
                       sym_eigenvalues, tent, write_discrepancy_csv,
                       write_spectral_report_csv, zero_distribution_verdict)
from .precond import (build_circulant_kron_sum, build_p22, build_p2beta,
                      build_toepfr, optimal_circulant, preconditioned_spectrum)
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

    def header(self, cmd: str, sizes=None) -> str:
        sizes = sizes if sizes is not None else self.sizes
        nrep = ",".join(str(v) for v in sizes) if sizes else "-"
        mrep = str(self.M) if self.M is not None else "n1"
        return (f"flipspec {__version__} | cmd={cmd} exp={self.exp} n={nrep} "
                f"alpha={self.alpha:g} beta={self.beta:g} M={mrep} "
                f"precond={self.precond or 'none'} seed={self.seed} "
                f"shift={'on' if self.include_shift else 'off'}")


def _workers() -> int:
    try:
        return max(1, int(os.environ.get("FLIPSPEC_THREADS", "1")))
    except ValueError:
        return 1


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
    table = {(k,): v for k, v in grunwald_coefficients(cfg.alpha, max(sizes[0] - 1, 1)).items()}
    return Symbol(1, grunwald_symbol(cfg.alpha).evaluator, table,
                  name=f"frac1d(alpha={cfg.alpha:g})")


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


def _flipped_dense(f: Symbol, sizes) -> np.ndarray:
    a = ToeplitzOperator.from_symbol(f, sizes).dense()
    return a[flip_map(sizes), :]


def _ensure_out(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


# ---------------------------------------------------------------------------
# commands


def run_spectrum(cfg: ExperimentConfig) -> dict:
    """Sorted spectrum vs. sorted sample set; writes eigs/lambda/overlay CSV."""
    if cfg.sizes is None:
        raise ParameterError("spectrum needs explicit sizes")
    out = _ensure_out(cfg)
    sizes = cfg.sizes
    f = experiment_symbol(cfg, sizes)
    p, weight = build_preconditioner(cfg, f, sizes)
    s = _flipped_dense(f, sizes)
    eigs = sym_eigenvalues(s) if p is None else preconditioned_spectrum(p, s)
    lam = build_lambda(f, weight, build_gamma(sizes))
    header = cfg.header("spectrum")

    with open(os.path.join(out, "eigs.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\nindex,eigenvalue\n")
        for i, v in enumerate(eigs):
            fh.write(f"{i},{float(v)!r}\n")
    with open(os.path.join(out, "lambda.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\nindex,value,branch\n")
        for i in range(len(lam)):
            fh.write(f"{i},{float(lam.values[i])!r},{lam.branch[i]}\n")

    pairs = min(len(eigs), len(lam))
    gaps = np.abs(eigs[:pairs] - lam.values[:pairs])
    with open(os.path.join(out, "overlay.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        if pairs < max(len(eigs), len(lam)):
            fh.write(f"# unequal counts ({len(eigs)} eigenvalues, {len(lam)} samples): "
                     f"first {pairs} of each paired\n")
        fh.write(f"# max_gap={float(np.max(gaps))!r} mean_gap={float(np.mean(gaps))!r}\n")
        fh.write("index,eig,lambda\n")
        for i in range(pairs):
            fh.write(f"{i},{float(eigs[i])!r},{float(lam.values[i])!r}\n")
    return {"eigenvalues": eigs, "lambda": lam,
            "max_gap": float(np.max(gaps)), "mean_gap": float(np.mean(gaps))}


def run_match(cfg: ExperimentConfig) -> dict:
    """Nearest-sample assignment over the two-level lattice; writes surface CSV."""
    if cfg.sizes is None:
        raise ParameterError("match needs explicit sizes")
    sizes = cfg.sizes
    if len(sizes) != 2:
        raise ParameterError("matching runs on two-level experiments only")
    out = _ensure_out(cfg)
    f = experiment_symbol(cfg, sizes)
    p, weight = build_preconditioner(cfg, f, sizes)
    s = _flipped_dense(f, sizes)
    eigs = sym_eigenvalues(s) if p is None else preconditioned_spectrum(p, s)
    lam = build_lambda(f, weight, build_delta(sizes))
    report = match_eigenvalues(eigs, lam)
    header = cfg.header("match")

    with open(os.path.join(out, "surface.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\ntheta_1,theta_2,branch,eigenvalue,symbol_value\n")
        for i in range(len(report.eigenvalues)):
            th = report.points[report.point_index[i]]
            fh.write(f"{float(th[0])!r},{float(th[1])!r},{report.branch[i]},"
                     f"{float(report.eigenvalues[i])!r},{float(report.matched_value[i])!r}\n")
    write_spectral_report_csv(report, os.path.join(out, "report.csv"), header)
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
    jobs = [(which, sizes) for sizes in ladder for which in columns]

    workers = _workers()
    if workers == 1:
        rows = [_table_job(cfg, which, sizes) for which, sizes in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda j: _table_job(cfg, *j), jobs))

    with open(os.path.join(out, "table.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# {cfg.header('table', sizes=None)}\n")
        fh.write("d_n,preconditioner,iterations,converged,wall_time\n")
        for r in rows:
            fh.write(f"{r['d_n']},{r['preconditioner']},{r['iterations']},"
                     f"{str(r['converged']).lower()},{r['wall_time']:.3f}\n")
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
    gap = float(np.max(np.abs(u_apply((5,), u_apply((5,), np.arange(5.0))) - np.arange(5.0))))
    rows.append(("ops", "u_involution", gap == 0.0, f"{gap:g}"))
    gap = float(np.max(np.abs(pi_apply(sizes, pi_apply(sizes, x), transposed=True) - x)))
    rows.append(("ops", "pi_orthogonal", gap == 0.0, f"{gap:g}"))

    fy, fu, fp = flip_map(sizes), u_map(sizes), pi_map(sizes)
    eye = np.eye(d_n)
    conj = eye[fy, :][fu][:, fu][fp][:, fp]
    target = interleaved_block_g(constant_symbol(1.0, 2), sizes)
    gap = float(np.max(np.abs(conj - target)))
    rows.append(("ops", "shuffle_identity_f1", gap == 0.0, f"{gap:g}"))

    one_shift = Symbol(1, None, {(1,): 1.0})
    gap = float(np.max(np.abs(interleaved_block_g(one_shift, (8,))
                              - assemble_block_g(one_shift, (4,)))))
    rows.append(("ops", "block_forms_agree_1level", gap == 0.0, f"{gap:g}"))

    h = real_part_symbol(ex1_symbol())
    t = ToeplitzOperator.from_symbol(h, sizes).dense()
    fp = pi_map(sizes)
    gap = float(np.max(np.abs(np.sort(np.linalg.eigvalsh(t[fp][:, fp]))
                              - np.sort(np.linalg.eigvalsh(t)))))
    rows.append(("ops", "permuted_similarity", gap <= 1e-11, f"{gap:.3e}"))

    s = _flipped_dense(ex1_symbol(), (6, 6))
    gap = float(np.max(np.abs(s - s.T)))
    rows.append(("ops", "flipped_symmetry", gap == 0.0, f"{gap:g}"))
    return rows


def _suite_structure(cfg: ExperimentConfig, sizes):
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


def _suite_hankel(cfg: ExperimentConfig, sizes):
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


def _suite_distribution(cfg: ExperimentConfig):
    f = ex1_symbol()
    fns = [tent(0.0, 8.0), tent(4.0, 4.0), tent(-4.0, 4.0)]
    small = distribution_discrepancy(sym_eigenvalues(_flipped_dense(f, (10, 10))), f, None, fns)
    big = distribution_discrepancy(sym_eigenvalues(_flipped_dense(f, (30, 30))), f, None, fns)
    rows = []
    for a, b in zip(small, big):
        ok = b.discrepancy < a.discrepancy and b.discrepancy < 0.05
        rows.append(("distribution", a.label, ok,
                     f"{a.discrepancy:.5f}->{b.discrepancy:.5f}"))
    return rows


def _brute_frobenius_circulant(table: dict, n: int) -> np.ndarray:
    # least-squares argmin over first columns; design matrix is 0/1 since
    # each matrix entry reads exactly one c_j
    t = ToeplitzOperator({(k,): v for k, v in table.items()}, (n,)).dense()
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    design = np.zeros((n * n, n))
    design[np.arange(n * n), idx.ravel()] = 1.0
    sol, *_ = np.linalg.lstsq(design, t.ravel(), rcond=None)
    return sol


def _suite_oracles(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg.seed)
    rows = []

    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 4))
        sizes = tuple(int(rng.integers(2, 9)) for _ in range(d))
        band = tuple(int(rng.integers(0, nl)) for nl in sizes)
        coeffs = {}
        for k in np.ndindex(*(2 * q + 1 for q in band)):
            coeffs[tuple(ki - qi for ki, qi in zip(k, band))] = rng.standard_normal()
        op = ToeplitzOperator(coeffs, sizes)
        x = rng.standard_normal(op.dim)
        ref = op.dense() @ x
        err = np.linalg.norm(op.matvec(x) - ref) / max(np.linalg.norm(ref), 1e-300)
        worst = max(worst, float(err))
    rows.append(("oracles", "fft_matvec_vs_dense", worst <= 1e-12, f"{worst:.3e}"))

    worst = 0.0
    for n in range(2, 7):
        table = {k: float(rng.standard_normal()) for k in range(-(n - 1), n)}
        gap = np.max(np.abs(optimal_circulant(table, n) - _brute_frobenius_circulant(table, n)))
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
        "structure": lambda: _suite_structure(cfg, pair),
        "hankel": lambda: _suite_hankel(cfg, hankel_sizes),
        "distribution": lambda: _suite_distribution(cfg),
        "oracles": lambda: _suite_oracles(cfg),
    }
    workers = _workers()
    if workers == 1:
        results = [runners[s]() for s in chosen]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda s: runners[s](), chosen))
    rows = [r for chunk in results for r in chunk]

    out = _ensure_out(cfg)
    with open(os.path.join(out, "verify.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# {cfg.header('verify', sizes=None)}\nsuite,check,pass,value\n")
        for suite, check, ok, value in rows:
            fh.write(f"{suite},{check},{str(ok).lower()},{value}\n")
    return {"rows": rows, "pass": all(ok for _, _, ok, _ in rows)}
