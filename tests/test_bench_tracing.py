"""The benchmark's tracer still finds and wraps the preconditioner methods.

flipbench/tracing.py looks the preconditioner classes up by name and wraps
methods from each class's own namespace; a refactor of flipspec.precond
that moves or renames them would break the benchmark's traced mode without
failing any other test.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "flipbench"))

import tracing  # noqa: E402
from flipspec import precond, symbols  # noqa: E402


def test_traced_preconditioners_record_apply_spans():
    tracer = tracing.Tracer()
    with tracer.installed():
        f3 = symbols.convection_diffusion_symbol(4, 4, 4)
        f2 = symbols.fractional_symbol(1.8, 1.6, 6, 6, 6)
        for p in (precond.build_toepfr(f2, (6, 6)),
                  precond.build_circulant_kron_sum(f3, (4, 4, 4))):
            p.apply_inverse(np.ones(p.dim))
    names = {span[tracing.NAME] for span in tracer.spans}
    assert names & set(tracing.APPLIES)
    assert "precond.build_circulant_kron_sum" in names
    assert tracer.end_pass()["precond.applies"] == 2
    assert "__wrapped__" not in vars(precond.ToeplitzPreconditioner.apply_inverse)
