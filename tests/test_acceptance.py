"""Acceptance runs for the eight headline checks.

Each test exercises one end-to-end claim at its stated tolerance and prints
a single summary line; run ``pytest tests/test_acceptance.py -s`` to see the
checklist.  These are intentionally heavier than the unit tests (the two
iteration tables run their full size ladders) but stay inside the budgets
asserted at the bottom of each test.
"""

import time

import numpy as np

from flipspec import operators as ops
from flipspec import symbols as sym
from flipspec.experiments import ExperimentConfig, run_spectrum, run_table
from flipspec.precond import (build_circulant_kron_sum, build_toepfr,
                              optimal_circulant, preconditioned_spectrum)
from flipspec.spectral import (distribution_discrepancy, sym_eigenvalues,
                               tent, zero_distribution_verdict)

from conftest import brute_frobenius_circulant


def _report(num, label, ok, detail):
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _flipped_dense(f, sizes):
    t = ops.ToeplitzOperator(f, sizes).dense()
    return t[ops.flip_map(sizes)]


# reference iteration counts for the two experiment ladders
TABLE1 = {
    100: {"toepfr": 12, "p22": 29, "p2beta": 22},
    400: {"toepfr": 13, "p22": 35, "p2beta": 26},
    1600: {"toepfr": 14, "p22": 41, "p2beta": 27},
    6400: {"toepfr": 14, "p22": 43, "p2beta": 29},
}
TABLE2 = {
    125: {"toepfr": 8, "circsum": 61},
    1000: {"toepfr": 9, "circsum": 198},
    8000: {"toepfr": 9, "circsum": 724},
}


def test_acceptance_1_fractional_iteration_table(tmp_path):
    start = time.perf_counter()
    rows = run_table(ExperimentConfig(exp="ex2", out=str(tmp_path)))
    elapsed = time.perf_counter() - start

    got = {}
    for r in rows:
        got.setdefault(r["d_n"], {})[r["preconditioner"]] = r["iterations"]
    dims = sorted(TABLE1)
    names = ("toepfr", "p22", "p2beta")

    within = all(abs(got[d][p] - TABLE1[d][p]) <= max(3, 0.2 * TABLE1[d][p])
                 for d in dims for p in names)
    nondecreasing = all(
        got[a][p] <= got[b][p] for p in names for a, b in zip(dims, dims[1:]))
    toepfr_col = [got[d]["toepfr"] for d in dims]
    flat = max(toepfr_col) - min(toepfr_col) <= 2
    converged = all(r["converged"] for r in rows)

    ok = within and nondecreasing and flat and converged and elapsed < 300
    _report(1, "fractional iteration table",
            ok, ", ".join(f"{p}={[got[d][p] for d in dims]}" for p in names)
            + f", {elapsed:.0f}s")
    assert within
    assert nondecreasing
    assert flat
    assert converged
    assert elapsed < 300


def test_acceptance_2_convection_diffusion_table(tmp_path):
    start = time.perf_counter()
    rows = run_table(ExperimentConfig(exp="ex3", out=str(tmp_path)))
    elapsed = time.perf_counter() - start

    got = {}
    for r in rows:
        got.setdefault(r["d_n"], {})[r["preconditioner"]] = r["iterations"]
    dims = sorted(TABLE2)

    within = all(abs(got[d][p] - TABLE2[d][p]) <= 0.2 * TABLE2[d][p]
                 for d in dims for p in ("toepfr", "circsum"))
    toepfr_bounded = all(got[d]["toepfr"] <= 10 for d in dims)
    circ = [got[d]["circsum"] for d in dims]
    circ_grows = all(b / a >= 2.5 for a, b in zip(circ, circ[1:]))

    ok = within and toepfr_bounded and circ_grows and elapsed < 600
    _report(2, "convection-diffusion table", ok,
            f"toepfr={[got[d]['toepfr'] for d in dims]}, circsum={circ}, "
            f"{elapsed:.0f}s")
    assert within
    assert toepfr_bounded
    assert circ_grows
    assert elapsed < 600


def test_acceptance_3_distribution_convergence():
    start = time.perf_counter()
    f = sym.ex1_symbol()
    fns = [tent(0.0, 8.0), tent(4.0, 4.0), tent(-4.0, 4.0)]
    small = distribution_discrepancy(
        sym_eigenvalues(_flipped_dense(f, (10, 10))), f, None, fns)
    big = distribution_discrepancy(
        sym_eigenvalues(_flipped_dense(f, (30, 30))), f, None, fns)
    elapsed = time.perf_counter() - start

    shrinks = all(b.discrepancy < a.discrepancy for a, b in zip(small, big))
    below = all(b.discrepancy < 0.05 for b in big)

    ok = shrinks and below and elapsed < 120
    _report(3, "distribution convergence", ok, ", ".join(
        f"{a.label} {a.discrepancy:.4f}->{b.discrepancy:.4f}"
        for a, b in zip(small, big)) + f", {elapsed:.0f}s")
    assert shrinks
    assert below
    assert elapsed < 120


def test_acceptance_4_eigenvalue_overlay(tmp_path):
    coarse = run_spectrum(ExperimentConfig(exp="ex1", sizes=(10, 10),
                                           out=str(tmp_path / "a")))
    fine = run_spectrum(ExperimentConfig(exp="ex1", sizes=(30, 30),
                                         out=str(tmp_path / "b")))

    f = sym.ex1_symbol()
    axis = np.linspace(-np.pi, np.pi, 201)
    t1, t2 = np.meshgrid(axis, axis, indexing="ij")
    max_abs = float(np.max(np.abs(
        f.eval(np.column_stack([t1.ravel(), t2.ravel()])))))

    decreases = fine["max_gap"] < coarse["max_gap"]
    mean_small = fine["mean_gap"] < 0.1 * max_abs

    ok = decreases and mean_small
    _report(4, "eigenvalue overlay", ok,
            f"max gap {coarse['max_gap']:.4f}->{fine['max_gap']:.4f}, "
            f"mean gap {fine['mean_gap']:.4f} vs 0.1*|f|max={0.1 * max_abs:.2f}")
    assert decreases
    assert mean_small


def test_acceptance_5_structure_residual():
    start = time.perf_counter()
    shift = sym.Symbol(1, None, {(1,): 1.0})
    _, frac_a8, _ = ops.structure_residual(shift, (8,))
    _, frac_a16, _ = ops.structure_residual(shift, (16,))
    _, frac_b8, _ = ops.structure_residual(sym.ex1_symbol(), (8, 8))
    _, frac_b16, _ = ops.structure_residual(sym.ex1_symbol(), (16, 16))
    d_const, _, _ = ops.structure_residual(sym.constant_symbol(1.0), (8,))
    elapsed = time.perf_counter() - start

    shrinking = frac_a16 < frac_a8 and frac_b16 < frac_b8
    constant_exact = bool(np.all(d_const == 0.0))

    ok = shrinking and constant_exact and elapsed < 60
    _report(5, "structure residual", ok,
            f"shift {frac_a8:.4f}->{frac_a16:.4f}, "
            f"two-level {frac_b8:.4f}->{frac_b16:.4f}, constant residual "
            f"{'0' if constant_exact else 'nonzero'}, {elapsed:.0f}s")
    assert shrinking
    assert constant_exact
    assert elapsed < 60


def test_acceptance_6_hankel_zero_distribution():
    shift = sym.Symbol(1, None, {(1,): 1.0})
    one_level = [ops.assemble_hankel(shift, (n,)) for n in (8, 16, 32)]
    two_level = [ops.assemble_hankel(sym.ex1_symbol(), (n, n))
                 for n in (8, 16, 32)]
    verdict_a = zero_distribution_verdict(one_level)
    verdict_b = zero_distribution_verdict(two_level)

    ok = verdict_a["pass"] and verdict_b["pass"]
    _report(6, "hankel zero distribution", ok,
            f"shift fractions {[round(v, 4) for v in verdict_a['fractions']]}, "
            f"two-level {[round(v, 4) for v in verdict_b['fractions']]}")
    assert verdict_a["pass"]
    assert verdict_b["pass"]


def test_acceptance_7_oracle_equivalences():
    rng = np.random.default_rng(0)
    worst_mv = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        sizes = tuple(int(rng.integers(2, 9)) for _ in range(d))
        band = tuple(int(rng.integers(0, m)) for m in sizes)
        coeffs = {tuple(int(ki) - qi for ki, qi in zip(k, band)):
                  float(rng.standard_normal())
                  for k in np.ndindex(*(2 * q + 1 for q in band))}
        op = ops.ToeplitzOperator(sym.Symbol(d, None, coeffs), sizes)
        x = rng.standard_normal(op.dim)
        ref = op.dense() @ x
        err = np.linalg.norm(op.matvec(x) - ref) / max(np.linalg.norm(ref), 1e-300)
        worst_mv = max(worst_mv, float(err))

    worst_circ = 0.0
    for n in range(2, 7):
        table = {k: float(rng.standard_normal()) for k in range(-(n - 1), n)}
        gap = np.max(np.abs(optimal_circulant(np.array(list(table.values())), n)
                            - brute_frobenius_circulant(table, n)))
        worst_circ = max(worst_circ, float(gap))

    f2 = sym.fractional_symbol(1.8, 1.6, 8, 8, 8)
    p = build_toepfr(f2, (8, 8))
    r = rng.standard_normal(64)
    worst_rt = float(np.linalg.norm(p.apply(p.apply_inverse(r)) - r)
                     / np.linalg.norm(r))
    f3 = sym.convection_diffusion_symbol(5, 5, 5)
    c = build_circulant_kron_sum(f3, (5, 5, 5))
    r = rng.standard_normal(125)
    worst_rt = max(worst_rt, float(
        np.linalg.norm(c.apply(c.apply_inverse(r)) - r) / np.linalg.norm(r)))

    a = rng.standard_normal((60, 60))
    a = (a + a.T) / 2.0
    w = sym_eigenvalues(a)
    _, vecs = np.linalg.eigh(a)
    recon = float(np.linalg.norm(vecs @ np.diag(w) @ vecs.T - a)
                  / np.linalg.norm(a))

    ok = (worst_mv <= 1e-12 and worst_circ <= 1e-10
          and worst_rt <= 1e-10 and recon <= 1e-10)
    _report(7, "oracle equivalences", ok,
            f"matvec {worst_mv:.2e}, circulant {worst_circ:.2e}, "
            f"round trip {worst_rt:.2e}, eig reconstruction {recon:.2e}")
    assert worst_mv <= 1e-12
    assert worst_circ <= 1e-10
    assert worst_rt <= 1e-10
    assert recon <= 1e-10


def test_acceptance_8_preconditioned_clustering():
    f = sym.fractional_symbol(1.8, 1.6, 30, 34, 30)
    p = build_toepfr(f, (30, 34))
    eigs = preconditioned_spectrum(p, f)
    inside = float(np.mean(np.abs(np.abs(eigs) - 1.0) <= 0.3))

    ok = inside >= 0.9
    _report(8, "preconditioned clustering", ok,
            f"{100 * inside:.1f}% of {eigs.size} eigenvalues within 0.3 of +-1")
    assert inside >= 0.9
