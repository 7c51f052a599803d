"""The benchmark's checks accept flipspec's answers and reject wrong ones.

    python3 -m pytest flipbench/test_checks.py -q

Each test runs one operation at a small size, checks that its outcome
passes, then perturbs the outcome (solution, iteration count, probe image,
spectrum) and checks that the matching check reports it.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from flipspec import experiments  # noqa: E402
from workloads import Op  # noqa: E402


def outcome_of(op, tmp_path):
    return op.run(seed=7, out=str(tmp_path))


def failures(op, outcome):
    checker = workloads.Checker()
    return checker.check(op, outcome) + checker.finish()


SOLVES = [Op("solve", "ex2", "toepfr", (10, 10)), Op("solve", "ex2", "p22", (10, 10)),
          Op("solve", "ex2", "p2beta", (10, 10)), Op("solve", "ex3", "toepfr", (5, 5, 5)),
          Op("solve", "ex3", "circsum", (5, 5, 5))]


@pytest.mark.parametrize("op", SOLVES, ids=lambda op: op.label)
def test_solve_checks_reject_wrong_answers(op, tmp_path):
    out = outcome_of(op, tmp_path)
    assert failures(op, out) == []

    perturbed = dataclasses.replace(out, values=out.values * (1.0 + 1e-5))
    assert any("model residual" in m for m in failures(op, perturbed))

    miscounted = dataclasses.replace(out, iterations=out.iterations + 20)
    assert any("paper" in m for m in failures(op, miscounted))

    stalled = dataclasses.replace(out, converged=False)
    assert any("did not converge" in m for m in failures(op, stalled))

    wrong_apply = dataclasses.replace(out, image=out.image * (1.0 + 1e-4))
    assert any("probe" in m for m in failures(op, wrong_apply))


def test_residual_tolerance_absorbs_quadrature_but_not_more():
    # the ex2 model uses closed-form weights; flipspec's come from quadrature
    err = checks.system_model("ex2", (40, 40)).coef_err
    assert 0.0 < err < 1e-6
    assert checks.system_model("ex3", (10, 10, 10)).coef_err == 0.0


def test_growth_check():
    assert checks.check_growth({5: 61, 10: 198, 20: 722, 24: 999}) == []
    assert checks.check_growth({5: 61, 10: 120})
    assert checks.check_growth({20: 722, 24: 700})


FIGURES = [Op("spectrum", "ex1", "none", (10, 10)), Op("match", "ex2", "none", (10, 20)),
           Op("spectrum", "ex2", "toepfr", (20, 20)), Op("spectrum", "ex2", "p2beta", (10, 10)),
           Op("spectrum", "ex3", "circsum", (6, 6, 6))]


@pytest.mark.parametrize("op", FIGURES, ids=lambda op: op.label)
def test_spectrum_checks_reject_wrong_spectra(op, tmp_path):
    out = outcome_of(op, tmp_path)
    assert failures(op, out) == []

    shifted = dataclasses.replace(out, values=out.values + 1e-3)
    assert any("sum of eigenvalues" in m for m in failures(op, shifted))

    stretched = dataclasses.replace(out, values=out.values * 1.01)
    assert any("sum of squares" in m for m in failures(op, stretched))

    assert failures(op, dataclasses.replace(out, values=out.values[1:]))


def test_sup_bound_rejects_an_eigenvalue_beyond_sup_f(tmp_path):
    op = Op("spectrum", "ex1", "none", (10, 10))
    out = outcome_of(op, tmp_path)
    # keep both sums, push the extreme pair past sup|f| = 6
    eigs = np.sort(out.values)
    eigs[0], eigs[1] = eigs[0] - 0.5, eigs[1] + 0.5
    assert any("sup|f|" in m for m in failures(op, dataclasses.replace(out, values=eigs)))


def test_clustering_check_rejects_unclustered_spectrum():
    summary = checks.spectrum_summary(np.linspace(-3.0, 3.0, 400))
    ref = {"sum": summary["sum"], "sum_sq": summary["sum_sq"]}
    fails = checks.check_spectrum("ex2", "toepfr", (20, 20), summary, ref)
    assert any("within 0.3" in m for m in fails)


def test_tracer_counts_one_solve_and_restores_the_program(tmp_path):
    op = Op("solve", "ex3", "circsum", (5, 5, 5))
    original = experiments.build_preconditioner
    tracer = tracing.Tracer()
    with tracer.installed():
        assert experiments.build_preconditioner is not original
        out = outcome_of(op, tmp_path)
    assert experiments.build_preconditioner is original
    m = tracer.end_pass()
    assert set(m) == set(tracing.UNITS) - {"trace.overhead_s"}
    its = out.iterations
    assert m["krylov.iterations"] == its
    # two matvecs per iteration plus six for the symmetry probe
    assert m["operators.matvecs"] == 2 * its + 6
    assert m["krylov.matvecs_per_iteration"] == (2 * its + 6) / its
    # the set-up probe, the initial residual and one per iteration
    assert m["precond.applies"] == its + 2
    assert m["krylov.self_s"] > 0.0 and m["operators.flip_s"] > 0.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
