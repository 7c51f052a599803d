"""Command-line front end.

Four subcommands over the experiment drivers:

    flipspec spectrum --exp ex2 --n 10,10 [--precond toepfr]
    flipspec match    --exp ex2 --n 20,40 --alpha 1.8 --beta 1.6
    flipspec table    --exp ex2 [--n 10,10] [--precond toepfr]
    flipspec verify   [--suite ops,oracles] [--sizes 8,16]

Everything lands as CSV in --out (default ./flipspec_out).  Exit code 0 on
success, 1 on usage or runtime errors, 2 when a verify suite reports
failures.
"""

from __future__ import annotations

import argparse
import sys

from .errors import FlipspecError
from .experiments import (ExperimentConfig, VALID_PRECONDITIONERS, run_match,
                          run_spectrum, run_table, run_verify)


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1 in this tool, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sizes_arg(text: str):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flipspec",
                     description="Spectra and preconditioned MINRES solves for "
                                 "flip-symmetrized multilevel Toeplitz systems.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("--exp", choices=sorted(VALID_PRECONDITIONERS), default=None,
                        help="experiment id")
    common.add_argument("--n", type=_sizes_arg, default=None, metavar="n1,n2[,n3]",
                        help="level sizes")
    common.add_argument("--alpha", type=float, default=1.8)
    common.add_argument("--beta", type=float, default=1.6)
    common.add_argument("--M", type=int, default=None,
                        help="time steps (default: n1)")
    common.add_argument("--precond", default=None,
                        choices=list(dict.fromkeys(p for ps in VALID_PRECONDITIONERS.values()
                                                   for p in ps)),
                        help="preconditioner id")
    common.add_argument("--out", default="flipspec_out", help="output directory")
    common.add_argument("--seed", type=int, default=0, help="seed for random probes")
    common.add_argument("--shift", choices=["on", "off"], default="on",
                        help="include the 2 h_x^alpha / dt identity shift")

    sub.add_parser("spectrum", parents=[common],
                   help="sorted eigenvalues vs. sorted symbol samples")
    sub.add_parser("match", parents=[common],
                   help="assign each eigenvalue to a grid sample (two-level)")
    sub.add_parser("table", parents=[common],
                   help="MINRES iteration counts over the size ladder")
    verify = sub.add_parser("verify", parents=[common],
                            help="run the invariant suites")
    verify.add_argument("--suite", action="append", default=None,
                        help="suite name(s), comma-separated, repeatable")
    verify.add_argument("--sizes", type=_sizes_arg, default=None,
                        help="sizes for the structure/hankel suites")
    return parser


def _config(args, default_exp=None) -> ExperimentConfig:
    exp = args.exp or default_exp
    if exp is None:
        raise FlipspecError("--exp is required for this command")
    return ExperimentConfig(exp=exp, sizes=args.n, alpha=args.alpha, beta=args.beta,
                            M=args.M, precond=args.precond, out=args.out,
                            seed=args.seed, include_shift=(args.shift == "on"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "spectrum":
            cfg = _config(args)
            res = run_spectrum(cfg)
            print(f"spectrum: {len(res['eigenvalues'])} eigenvalues, "
                  f"{len(res['lambda'])} samples, max gap {res['max_gap']:.6f}, "
                  f"mean gap {res['mean_gap']:.6f}")
            print(f"wrote eigs.csv, lambda.csv, overlay.csv to {cfg.out}")
        elif args.command == "match":
            cfg = _config(args)
            res = run_match(cfg)
            print(f"match: {len(res['report'].eigenvalues)} rows, "
                  f"mean distance {res['mean_distance']:.6f}, "
                  f"max distance {res['max_distance']:.6f}")
            print(f"wrote surface.csv, report.csv to {cfg.out}")
        elif args.command == "table":
            cfg = _config(args)
            rows = run_table(cfg)
            print(f"{'d_n':>8}  {'preconditioner':<14} {'iterations':>10}  "
                  f"{'converged':<9} {'wall_time':>9}")
            for r in rows:
                print(f"{r['d_n']:>8}  {r['preconditioner']:<14} {r['iterations']:>10}  "
                      f"{str(r['converged']).lower():<9} {r['wall_time']:>9.3f}")
            print(f"wrote table.csv to {cfg.out}")
            if not all(r["converged"] for r in rows):
                print("warning: some rows did not converge", file=sys.stderr)
        else:
            cfg = _config(args, default_exp="ex1")
            suites = None
            if args.suite:
                suites = [s for chunk in args.suite for s in chunk.split(",") if s]
            res = run_verify(cfg, suites=suites, sizes=args.sizes)
            for suite, check, ok, value in res["rows"]:
                print(f"{'PASS' if ok else 'FAIL'}  {suite}/{check}  {value}")
            print(f"wrote verify.csv to {cfg.out}")
            if not res["pass"]:
                return 2
        return 0
    except FlipspecError as exc:
        print(f"flipspec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
