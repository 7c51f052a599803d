"""The benchmark's workloads and how one operation is run and timed.

An operation is one table row (one ``flipped_solve``) or one
``run_spectrum`` / ``run_match`` call.  Each goes through the public
functions the ``flipspec`` commands use, called as module attributes so the
traced run sees them: ``experiment_symbol``, ``build_preconditioner``,
``rhs_vector``, ``flipped_solve``, ``run_spectrum`` and ``run_match``.

Set-up is symbol construction, preconditioner construction and one
``apply_inverse`` on a probe vector, so a factorization counts as set-up
whether the preconditioner does it eagerly or on first use.  A table row's
wall time includes its set-up.  ``run_spectrum`` and ``run_match`` build
their own symbol and preconditioner, so for them the set-up is measured by
making the same calls just before, and their wall time is the call alone.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from flipspec import experiments, krylov

import checks


@dataclass(frozen=True)
class Op:
    command: str    # "solve", "spectrum" or "match"
    exp: str
    precond: str    # "none" for no preconditioner
    sizes: tuple

    @property
    def dim(self) -> int:
        return int(np.prod(self.sizes))

    @property
    def label(self) -> str:
        return f"{self.command}:{self.exp}:{self.precond}:{'x'.join(map(str, self.sizes))}"

    def config(self, seed: int, out: str):
        return experiments.ExperimentConfig(
            exp=self.exp, sizes=self.sizes, precond=self.precond, seed=seed,
            out=os.path.join(out, self.label.replace(":", "_")))

    def set_up(self, cfg, probe):
        """(seconds, symbol, preconditioner, preconditioner applied to probe)."""
        start = time.perf_counter()
        f = experiments.experiment_symbol(cfg, self.sizes)
        p, _ = experiments.build_preconditioner(cfg, f, self.sizes)
        image = None if p is None else p.apply_inverse(probe)
        return time.perf_counter() - start, f, p, image

    def run(self, seed: int, out: str) -> "Outcome":
        cfg = self.config(seed, out)
        probe = probe_vector(seed, self.dim)
        setup, f, p, image = self.set_up(cfg, probe)
        start = time.perf_counter()
        if self.command == "solve":
            b = experiments.rhs_vector(cfg, self.sizes)
            res = krylov.flipped_solve(f, self.sizes, b, p,
                                       krylov.SolveConfig(record_residuals=False), seed=seed)
            wall = setup + time.perf_counter() - start
            return Outcome(wall, setup, probe, image, res.solution, res.iterations,
                           res.converged)
        if self.command == "spectrum":
            eigs = experiments.run_spectrum(cfg)["eigenvalues"]
        else:
            eigs = experiments.run_match(cfg)["report"].eigenvalues
        return Outcome(time.perf_counter() - start, setup, probe, image, eigs)


@dataclass
class Outcome:
    wall: float
    setup: float
    probe: np.ndarray
    image: np.ndarray       # P^-1 probe, None without a preconditioner
    values: np.ndarray      # solution of a solve, eigenvalues of a spectrum
    iterations: int = None
    converged: bool = None


def probe_vector(seed: int, dim: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(dim)


def set_up_round(ops, seed: int, out: str) -> float:
    """Seconds to set up every operation once."""
    return sum(op.set_up(op.config(seed, out), probe_vector(seed, op.dim))[0] for op in ops)


def _solves(exp, preconds, ladder):
    return tuple(Op("solve", exp, p, tuple(n)) for n in ladder for p in preconds)


# Table 1 (ex2) and Table 2 (ex3) rows with an SPD Toeplitz preconditioner,
# up to d_n = 1600 and 1000.  The 80^2 and 20^3 rows take about 97 of the
# ladders' 100 s per pass, more than one run of the benchmark may last.
TOEPLITZ_TABLES = (_solves("ex2", ("toepfr", "p22", "p2beta"), ((10, 10), (20, 20), (40, 40)))
                   + _solves("ex3", ("toepfr",), ((5, 5, 5), (10, 10, 10))))

# Table 2's circsum column plus 24^3, the largest size whose matvec still
# embeds at 32^3.
CIRCSUM_TABLE = _solves("ex3", ("circsum",), ((5, 5, 5), (10, 10, 10), (20, 20, 20),
                                              (24, 24, 24)))

# The figure data: spectra with and without preconditioning and the
# two-level match at n1 != n2.  No MINRES runs here.
SPECTRAL_FIGURES = (
    Op("spectrum", "ex1", "none", (50, 50)),
    Op("spectrum", "ex2", "toepfr", (50, 50)),
    Op("spectrum", "ex2", "p2beta", (40, 40)),
    Op("spectrum", "ex3", "circsum", (12, 12, 12)),
    Op("match", "ex2", "none", (30, 60)),
)

WORKLOADS = {
    "toeplitz_tables": TOEPLITZ_TABLES,
    "circsum_table": CIRCSUM_TABLE,
    "spectral_figures": SPECTRAL_FIGURES,
}


class Checker:
    """Checks outcomes against the models in ``checks``.

    Solves and probe applies are checked at once.  A spectrum is reduced
    to a few sums at once and checked in ``finish``, whose references for
    preconditioned spectra need dense d_n x d_n solves: the run reads its
    peak memory before that, and keeps no outcome arrays between passes.
    """

    def __init__(self):
        self._spectra = []

    def check(self, op: Op, outcome: Outcome) -> list:
        fails = []
        if op.precond != "none":
            fails += checks.check_probe(op.exp, op.precond, op.sizes, outcome.probe,
                                        outcome.image)
        if op.command == "solve":
            fails += checks.check_solution(op.exp, op.precond, op.sizes, outcome.values,
                                           outcome.converged, outcome.iterations)
        else:
            self._spectra.append((op, checks.spectrum_summary(outcome.values)))
        return [f"{op.label}: {msg}" for msg in fails]

    def check_pass(self, results) -> list:
        """Checks across one pass's (op, outcome) pairs."""
        counts = {op.sizes[0]: out.iterations for op, out in results
                  if op.command == "solve" and op.precond == "circsum"}
        return checks.check_growth(counts)

    def finish(self) -> list:
        fails, refs = [], {}
        for op, summary in self._spectra:
            if op not in refs:
                refs[op] = checks.spectrum_reference(op.exp, op.precond, op.sizes)
            fails += [f"{op.label}: {msg}"
                      for msg in checks.check_spectrum(op.exp, op.precond, op.sizes, summary,
                                                       refs[op])]
        self._spectra = []
        return fails
