"""Exact iteration counts of the cheap Table 1 and Table 2 rows.

The acceptance tables allow each count to drift by 20 %; these pins do
not.  A change in FFT or preconditioner-apply rounding can move a long
MINRES run by an iteration without touching any tolerance, and this is
where it shows.
"""

import pytest

from flipspec.experiments import ExperimentConfig, run_table

PINNED = [
    ("ex2", (10, 10), {"toepfr": 12, "p22": 29, "p2beta": 22}),
    ("ex2", (20, 20), {"toepfr": 13, "p22": 35, "p2beta": 26}),
    ("ex2", (40, 40), {"toepfr": 14, "p22": 41, "p2beta": 27}),
    ("ex2", (80, 80), {"toepfr": 14, "p22": 43, "p2beta": 29}),
    ("ex3", (5, 5, 5), {"toepfr": 8, "circsum": 61}),
    ("ex3", (10, 10, 10), {"toepfr": 9, "circsum": 198}),
    ("ex3", (20, 20, 20), {"toepfr": 9, "circsum": 722}),
    ("ex3", (24, 24, 24), {"toepfr": 9, "circsum": 999}),
]


@pytest.mark.parametrize("exp,sizes,counts", PINNED,
                         ids=[f"{e}-{'x'.join(map(str, n))}" for e, n, _ in PINNED])
def test_table_row_counts_are_pinned(tmp_path, exp, sizes, counts):
    rows = run_table(ExperimentConfig(exp=exp, sizes=sizes, out=str(tmp_path)))
    assert {r["preconditioner"]: r["iterations"] for r in rows} == counts
    assert all(r["converged"] for r in rows)
