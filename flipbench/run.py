"""Benchmark for flipspec: one workload per process, checked, one JSON line out.

    python3 flipbench/run.py --workload toeplitz_tables --seed 1 --seconds 30 --trace 0

Run from the repository root; flipspec is imported from ./src.  With
``--trace 0`` the run repeats passes over the workload's operations until
``--seconds`` have passed, with whole set-up rounds (symbols,
preconditioners, one probe apply per operation) taking a tenth of the time
between them, and reports the median pass wall time, the median set-up
round and the process's peak resident memory.  With ``--trace 1`` it
alternates untraced and traced passes for ``--seconds`` and reports the
per-layer metrics of the traced passes, medians over passes, plus the
tracing overhead; the spans go to flipbench/runs/.  Every outcome is
checked (see checks.py) right after its pass.  The last line of standard
output is the result object; the exit code is 0 whenever it is printed.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads; numpy.fft has no thread pool.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "runs"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_SETUP_ROUNDS = 3
SETUP_SHARE = 0.1


def import_flipspec():
    """Import flipspec from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flipspec
    except ImportError as exc:
        sys.exit(f"flipbench: cannot import flipspec from {src}: {exc}")
    if Path(flipspec.__file__).resolve().parent != src / "flipspec":
        sys.exit(f"flipbench: flipspec was imported from {flipspec.__file__}, not {src}")


def run_pass(ops, seed, out, tally, checker):
    """One pass over the operations, checked at once; returns its wall seconds.

    Outcomes are dropped after their checks: arrays kept across passes
    fragment the heap and make the peak memory depend on the pass count.
    """
    wall, results = 0.0, []
    for op in ops:
        tally["attempted"] += 1
        try:
            outcome = op.run(seed, out)
        except Exception:  # a failed operation is counted and reported, the run goes on
            tally["failed"] += 1
            print(f"flipbench: {op.label} failed", file=sys.stderr)
            traceback.print_exc()
            continue
        wall += outcome.wall
        results.append((op, outcome))
    tally["problems"] += checker.check_pass(results)
    for op, outcome in results:
        tally["problems"] += checker.check(op, outcome)
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_flipspec()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    ops = workloads.WORKLOADS[args.workload]
    out = str(OUT / args.workload)
    tally = {"attempted": 0, "failed": 0, "problems": []}
    checker = workloads.Checker()
    metrics = {}

    if args.trace:
        tracer = tracing.Tracer()
        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            plain.append(run_pass(ops, args.seed, out, tally, checker))
            with tracer.installed():
                traced.append(run_pass(ops, args.seed, out, tally, checker))
            layers.append(tracer.end_pass())
        for name in tracing.UNITS:
            if name != "trace.overhead_s":
                metrics[name] = statistics.median(m[name] for m in layers)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
        units = tracing.UNITS
    else:
        # set-up rounds take a tenth of the run, interleaved with the passes so
        # both medians sample the same stretch of host speed
        walls, rounds, in_rounds = [], [], 0.0
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            while (len(rounds) < MIN_SETUP_ROUNDS
                   or in_rounds < SETUP_SHARE * (time.perf_counter() - start)):
                tick = time.perf_counter()
                rounds.append(workloads.set_up_round(ops, args.seed, out))
                in_rounds += time.perf_counter() - tick
            walls.append(run_pass(ops, args.seed, out, tally, checker))
        metrics["setup_s"] = statistics.median(rounds)
        metrics["wall_s"] = statistics.median(walls)
        # ru_maxrss is in KiB on Linux; read before the checks allocate their models
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = E2E_UNITS

    problems = tally["problems"] + checker.finish()
    for msg in dict.fromkeys(problems):
        print(f"flipbench: check failed: {msg}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
