"""Span tracing around the calls into each flipspec layer, and the per-layer metrics.

``Tracer.installed()`` replaces the public functions and methods of the
flipspec modules with wrappers that record a span per call: name, start,
end, parent span and a few counters (vector length, iterations, whether a
preconditioner was applied for the first time).  Spans stay in memory, one
list per traced pass, and are written out once the run ends.  The CSV
writers are left unwrapped, so their time is the experiments layer's own.

A layer's self time is its spans' durations minus the time their direct
child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import weakref

import flipspec
from flipspec import experiments, krylov, operators, precond, spectral, symbols

MODULES = (flipspec, symbols, operators, spectral, precond, krylov, experiments)

SYMBOL_BUILDERS = ("fourier_coefficients", "constant_symbol", "laplace1d_symbol",
                   "ex1_symbol", "grunwald_symbol", "grunwald_coefficients",
                   "fractional_symbol", "convection_diffusion_symbol", "real_part_symbol",
                   "p_beta_truncation")
PRECOND_BUILDERS = ("build_toepfr", "build_p22", "build_p2beta", "build_circulant_kron_sum")
FUNCTIONS = {
    symbols: SYMBOL_BUILDERS,
    operators: ("flip_map", "flip_apply"),
    spectral: ("sym_eigenvalues", "singular_values", "build_gamma", "build_delta",
               "build_lambda", "match_eigenvalues"),
    precond: PRECOND_BUILDERS + ("preconditioned_spectrum",),
    krylov: ("minres", "flipped_solve"),
    experiments: ("experiment_symbol", "build_preconditioner", "rhs_vector",
                  "run_spectrum", "run_match"),
}
METHODS = {
    operators.ToeplitzOperator: ("dense", "matvec"),
    precond.ToeplitzPreconditioner: ("dense", "cholesky", "apply_inverse"),
    precond.CirculantKronSum: ("apply_inverse", "apply_inverse_sqrt"),
}
APPLIES = ("precond.ToeplitzPreconditioner.apply_inverse",
           "precond.CirculantKronSum.apply_inverse",
           "precond.CirculantKronSum.apply_inverse_sqrt")
MATVEC = "operators.ToeplitzOperator.matvec"

# Per-layer metric name -> unit.
UNITS = {
    "symbols.build_s": "s",
    "precond.build_s": "s",
    "precond.first_apply_s": "s",
    "precond.apply_s": "s",
    "precond.applies": "count",
    "precond.apply_ms": "ms",
    "precond.spectrum_s": "s",
    "operators.matvec_s": "s",
    "operators.matvecs": "count",
    "operators.matvec_ms": "ms",
    "operators.flip_s": "s",
    "operators.dense_s": "s",
    "krylov.solve_s": "s",
    "krylov.self_s": "s",
    "krylov.iterations": "count",
    "krylov.matvecs_per_iteration": "matvec/it",
    "spectral.eig_s": "s",
    "spectral.samples_s": "s",
    "spectral.match_s": "s",
    "experiments.self_s": "s",
    "trace.overhead_s": "s",
}

NAME, START, END, PARENT, NOTE = range(5)


def _note_dim(tracer, args, result):
    return {"dim": args[0].dim}


def _note_apply(tracer, args, result):
    p = args[0]
    first = p not in tracer.applied
    tracer.applied.add(p)
    return {"dim": p.dim, "first": first}


def _note_solve(tracer, args, result):
    return {"iterations": result.iterations}


NOTES = {MATVEC: _note_dim, "krylov.minres": _note_solve}
NOTES.update((name, _note_apply) for name in APPLIES)


class Tracer:
    def __init__(self):
        self.passes = []
        self.spans = []
        self.applied = weakref.WeakSet()
        self._open = []

    def wrap(self, name, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._open.pop()
            if note is not None:
                span[NOTE] = note(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed function wherever a flipspec module imported it."""
        patched = []
        for module, names in FUNCTIONS.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for owner in MODULES:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            patched.append((owner, attr, original))
                            setattr(owner, attr, wrapper)
        for cls, names in METHODS.items():
            layer = cls.__module__.rsplit(".", 1)[-1]
            for name in names:
                original = cls.__dict__[name]
                patched.append((cls, name, original))
                setattr(cls, name, self.wrap(f"{layer}.{cls.__name__}.{name}", original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def end_pass(self) -> dict:
        """Close the current pass and return its per-layer metrics."""
        spans, self.spans = self.spans, []
        self.passes.append(spans)
        return layer_metrics(spans)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "note"],
                       "passes": self.passes}, fh)


def layer_metrics(spans) -> dict:
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d

    def within(i, names):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in names:
                return True
            p = spans[p][PARENT]
        return False

    def outer(names):
        names = set(names)
        return sum(d for i, (s, d) in enumerate(zip(spans, dur))
                   if s[NAME] in names and not within(i, names))

    def self_time(prefix):
        return sum(d - c for s, d, c in zip(spans, dur, child) if s[NAME].startswith(prefix))

    def median_ms_at_largest(idx):
        if not idx:
            return 0.0
        top = max(spans[i][NOTE]["dim"] for i in idx)
        return 1e3 * statistics.median(dur[i] for i in idx if spans[i][NOTE]["dim"] == top)

    applies = [i for i, s in enumerate(spans) if s[NAME] in APPLIES]
    later = [i for i in applies if not spans[i][NOTE]["first"]]
    matvecs = [i for i, s in enumerate(spans) if s[NAME] == MATVEC]
    iterations = sum(s[NOTE]["iterations"] for s in spans if s[NAME] == "krylov.minres")
    solve_matvecs = sum(1 for i in matvecs if within(i, {"krylov.minres"}))
    return {
        "symbols.build_s": outer(f"symbols.{n}" for n in SYMBOL_BUILDERS),
        "precond.build_s": outer(f"precond.{n}" for n in PRECOND_BUILDERS),
        "precond.first_apply_s": sum(dur[i] for i in applies if spans[i][NOTE]["first"]),
        "precond.apply_s": sum(dur[i] for i in later),
        "precond.applies": len(applies),
        "precond.apply_ms": median_ms_at_largest(later),
        "precond.spectrum_s": outer({"precond.preconditioned_spectrum"}),
        "operators.matvec_s": outer({MATVEC}),
        "operators.matvecs": len(matvecs),
        "operators.matvec_ms": median_ms_at_largest(matvecs),
        "operators.flip_s": outer({"operators.flip_map", "operators.flip_apply"}),
        "operators.dense_s": outer({"operators.ToeplitzOperator.dense"}),
        "krylov.solve_s": outer({"krylov.minres", "krylov.flipped_solve"}),
        "krylov.self_s": self_time("krylov."),
        "krylov.iterations": iterations,
        "krylov.matvecs_per_iteration": solve_matvecs / iterations if iterations else 0.0,
        "spectral.eig_s": outer({"spectral.sym_eigenvalues", "spectral.singular_values"}),
        "spectral.samples_s": outer({"spectral.build_gamma", "spectral.build_delta",
                                     "spectral.build_lambda"}),
        "spectral.match_s": outer({"spectral.match_eigenvalues"}),
        "experiments.self_s": self_time("experiments."),
    }
