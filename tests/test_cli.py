"""Command-line behavior: exit codes, file layout, headers, reproducibility."""

import csv
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import traced_peak
from flipspec import experiments, operators, precond
from flipspec.cli import _config, build_parser, main
from flipspec.errors import CapacityError, ParameterError
from flipspec.experiments import ExperimentConfig
from flipspec.krylov import flipped_solve
from flipspec.operators import _PANEL_ROWS


def read_rows(path):
    lines = path.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    return list(csv.DictReader(body))


class TestSpectrum:
    def test_writes_three_files_with_headers(self, tmp_path, capsys):
        rc = main(["spectrum", "--exp", "ex1", "--n", "10,10", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("eigs.csv", "lambda.csv", "overlay.csv"):
            first = (tmp_path / name).read_text().splitlines()[0]
            assert first.startswith("# flipspec 0.1.0 | cmd=spectrum exp=ex1 n=10,10 ")
        assert "max gap" in capsys.readouterr().out

    def test_row_counts(self, tmp_path):
        main(["spectrum", "--exp", "ex1", "--n", "10,10", "--out", str(tmp_path)])
        assert len(read_rows(tmp_path / "eigs.csv")) == 100
        assert len(read_rows(tmp_path / "lambda.csv")) == 100
        assert len(read_rows(tmp_path / "overlay.csv")) == 100

    def test_identical_runs_are_byte_identical(self, tmp_path):
        # the plain spectrum, the parity split and the whole-W eigensolve
        for case, args in enumerate((["--exp", "ex1"], ["--exp", "ex2", "--precond", "toepfr"],
                                     ["--exp", "ex2", "--precond", "p2beta"])):
            a, b = tmp_path / f"{case}a", tmp_path / f"{case}b"
            for out in (a, b):
                rc = main(["spectrum", *args, "--n", "8,8", "--out", str(out)])
                assert rc == 0
            for name in ("eigs.csv", "lambda.csv", "overlay.csv"):
                assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_one_level_custom_experiment(self, tmp_path):
        rc = main(["spectrum", "--exp", "custom", "--n", "32", "--alpha", "1.5",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert len(read_rows(tmp_path / "eigs.csv")) == 32

    def test_dense_cap_is_checked_before_the_preconditioner(self, tmp_path, monkeypatch):
        # built first, the one-level toepfr at 20001 would form a 3.2 GB level
        # and two eigensolves of size 10^4 before the cap refused the spectrum
        def unreachable(*args):
            raise AssertionError("preconditioner levels built above the dense cap")

        monkeypatch.setattr(precond, "level_matrices", unreachable)
        cfg = ExperimentConfig(exp="custom", precond="toepfr", sizes=(20001,),
                               out=str(tmp_path))
        with pytest.raises(CapacityError):
            experiments.run_spectrum(cfg)

    @pytest.mark.parametrize("cmd,exp,which,sizes", [("spectrum", "ex3", "toepfr", (3, 4, 4)),
                                                      ("spectrum", "custom", None, (3,)),
                                                      ("spectrum", "ex2", "p2beta", (3, 8)),
                                                      ("match", "ex2", None, (1, 8))])
    def test_grid_is_checked_before_the_eigensolve(self, tmp_path, monkeypatch,
                                                   cmd, exp, which, sizes):
        # a level too small for the sampling grid is refused before either eigensolve
        def unreachable(*args):
            raise AssertionError("eigensolve run before the grid was checked")

        monkeypatch.setattr(experiments, "_flipped_spectrum", unreachable)
        monkeypatch.setattr(experiments, "preconditioned_spectrum", unreachable)
        cfg = ExperimentConfig(exp=exp, precond=which, sizes=sizes, out=str(tmp_path))
        with pytest.raises(ParameterError, match="too small"):
            (experiments.run_spectrum if cmd == "spectrum" else experiments.run_match)(cfg)

    def test_missing_sizes_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["spectrum", "--exp", "ex1", "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_missing_exp_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["spectrum", "--n", "8,8", "--out", str(tmp_path)])
        assert rc == 1
        assert "--exp" in capsys.readouterr().err


class TestDenseFootprint:
    """Traced peak of one spectrum or match, in units of one d_n x d_n array.

    tracemalloc sees numpy's arrays but not LAPACK's copy inside eigvalsh.
    A spectrum with a preconditioner gathers Y T into the one array that
    both sweeps overwrite.  ex1 at n_1 = n_2 is exchange-symmetric, so its
    spectrum gathers and solves two blocks of about 0.28 and 0.23 d_n^2,
    one at a time; the other spectra solve one block.  The row and column
    panels add about 0.2 at d_n = 400, 12.5 panels, and the bounds leave a
    further 0.2.  ``held`` bounds what each eigvalsh call finds held when
    it starts: measured 0.31 and 0.26 for ex1's blocks, about 1.0-1.13 for
    the others, plus that margin.  Sweeping out of a second array peaks at
    about 2.2 with a preconditioner; solving ex1 whole holds 1.0 when
    eigvalsh starts.
    """

    @pytest.mark.parametrize("command,exp,precond,sizes,arrays,held", [
        ("spectrum", "ex1", "none", (20, 20), 0.28, (0.5, 0.5)),
        ("spectrum", "ex2", "toepfr", (20, 20), 1, (1.4,)),
        ("spectrum", "ex3", "circsum", (8, 8, 8), 1, (1.4,)),
        ("match", "ex2", "none", (16, 25), 1, (1.4,)),
    ], ids=["spectrum-ex1", "spectrum-ex2-toepfr", "spectrum-ex3-circsum", "match-ex2"])
    def test_traced_peak(self, tmp_path, monkeypatch, command, exp, precond, sizes, arrays,
                         held):
        d_n = int(np.prod(sizes))
        assert d_n >= 4 * _PANEL_ROWS
        found, eigvalsh = [], np.linalg.eigvalsh

        def traced_eigvalsh(a, *args, **kwargs):
            found.append(tracemalloc.get_traced_memory()[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", traced_eigvalsh)
        cfg = ExperimentConfig(exp=exp, precond=precond, sizes=sizes, out=str(tmp_path))
        run = experiments.run_spectrum if command == "spectrum" else experiments.run_match
        peak = traced_peak(run, cfg)
        unit = 8.0 * d_n * d_n
        assert peak / unit <= arrays + 0.4
        assert len(found) == len(held)
        assert all(got / unit <= bound for got, bound in zip(found, held))


class TestCommonZeros:
    """Grids through theta = 0, where f and the weight h both vanish (0/0)."""

    @pytest.mark.parametrize("args,theta", [
        (["--exp", "ex3", "--n", "6,6,6", "--precond", "toepfr"], "(0.0, 0.0, 0.0)"),
        (["--exp", "custom", "--n", "30", "--precond", "toepfr"], "(0.0,)"),
        (["--exp", "ex2", "--n", "16,8", "--shift", "off", "--precond", "toepfr"], "(0.0, 0.0)"),
        (["--exp", "ex2", "--n", "16,8", "--shift", "off", "--precond", "p22"], "(0.0, 0.0)"),
    ])
    def test_spectrum_drops_the_common_zero(self, tmp_path, args, theta):
        rc = main(["spectrum", *args, "--out", str(tmp_path)])
        assert rc == 0
        comments = [ln for ln in (tmp_path / "overlay.csv").read_text().splitlines()
                    if ln.startswith("#")]
        assert comments[1] == f"# no sample where |f| and h both vanish: theta = {theta}"
        eigs = read_rows(tmp_path / "eigs.csv")
        assert len(read_rows(tmp_path / "lambda.csv")) == len(eigs) - 2
        assert len(read_rows(tmp_path / "overlay.csv")) == len(eigs) - 2

    @pytest.mark.parametrize("args", [
        ["--exp", "ex3", "--n", "6,6,6", "--precond", "toepfr"],
        ["--exp", "custom", "--n", "31", "--precond", "toepfr"],
        ["--exp", "ex1", "--n", "11,10"],
    ])
    def test_unequal_counts_pair_branch_with_branch(self, tmp_path, args):
        # the -|f|/h samples meet the lowest eigenvalues and the +|f|/h samples
        # the highest; pairing index by index crossed the branch boundary
        rc = main(["spectrum", *args, "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "overlay.csv").read_text()
        n_eig = len(read_rows(tmp_path / "eigs.csv"))
        n_lam = len(read_rows(tmp_path / "lambda.csv"))
        half = n_lam // 2
        assert (f"# unequal counts ({n_eig} eigenvalues, {n_lam} samples): lowest {half} "
                f"and highest {half} of each paired, the middle ones unpaired") in text
        pairs = read_rows(tmp_path / "overlay.csv")
        assert len(pairs) == n_lam
        assert all(float(r["lambda"]) <= 0.0 for r in pairs[:half])
        assert all(float(r["lambda"]) >= 0.0 for r in pairs[half:])
        gap = float(re.search(r"max_gap=(\S+)", text).group(1))
        assert gap < (1.0 if args[1] == "ex1" else 0.1)

    def test_match_names_the_dropped_point(self, tmp_path):
        # odd sizes put theta = 0 on the two-level lattice
        rc = main(["match", "--exp", "ex2", "--n", "17,9", "--shift", "off",
                   "--precond", "p22", "--out", str(tmp_path)])
        assert rc == 0
        first = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert first.endswith("shift=off | no sample where |f| and h both vanish: "
                              "theta = (0.0, 0.0)")
        assert len(read_rows(tmp_path / "report.csv")) == 17 * 9


class TestMatch:
    def test_surface_rows_cover_the_spectrum(self, tmp_path):
        rc = main(["match", "--exp", "ex1", "--n", "20,40", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "surface.csv")
        assert len(rows) == 800
        assert set(rows[0]) == {"theta_1", "theta_2", "branch", "eigenvalue",
                                "symbol_value"}
        report = read_rows(tmp_path / "report.csv")
        assert len(report) == 800

    def test_needs_two_levels(self, tmp_path, capsys):
        rc = main(["match", "--exp", "ex3", "--n", "5,5,5", "--out", str(tmp_path)])
        assert rc == 1
        assert "two-level" in capsys.readouterr().err


class TestTable:
    def test_fractional_row_counts(self, tmp_path):
        rc = main(["table", "--exp", "ex2", "--n", "10,10", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "table.csv")
        got = {r["preconditioner"]: int(r["iterations"]) for r in rows}
        assert got == {"toepfr": 12, "p22": 29, "p2beta": 22}
        assert all(r["converged"] == "true" for r in rows)
        assert all(r["d_n"] == "100" for r in rows)

    def test_single_preconditioner_column(self, tmp_path):
        rc = main(["table", "--exp", "ex2", "--n", "10,10", "--precond", "p2beta",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "table.csv")
        assert len(rows) == 1
        assert rows[0]["preconditioner"] == "p2beta"
        assert int(rows[0]["iterations"]) == 22

    def test_unpreconditioned_column(self, tmp_path):
        # --precond none solves Y T x = Y b with no preconditioner, as flipped_solve(f, n, b)
        rc = main(["table", "--exp", "ex2", "--n", "10,10", "--precond", "none",
                   "--out", str(tmp_path)])
        assert rc == 0
        cfg = ExperimentConfig(exp="ex2")
        f = experiments.experiment_symbol(cfg, (10, 10))
        res = flipped_solve(f, (10, 10), experiments.rhs_vector(cfg, (10, 10)))
        assert res.converged and res.iterations == 75
        rows = read_rows(tmp_path / "table.csv")
        assert [(r["preconditioner"], int(r["iterations"]), r["converged"]) for r in rows] == [
            ("none", res.iterations, "true")]

    def test_level_beyond_the_old_quadrature_band(self, tmp_path):
        # 2100 > 2048 used to raise AliasingError in the Grunwald weights
        rc = main(["table", "--exp", "ex2", "--n", "2100,8", "--precond", "toepfr",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "table.csv")
        assert [(r["d_n"], r["converged"]) for r in rows] == [("16800", "true")]

    def test_experiment_without_a_table(self, tmp_path, capsys):
        rc = main(["table", "--exp", "ex1", "--n", "8,8", "--out", str(tmp_path)])
        assert rc == 1
        assert "ex2" in capsys.readouterr().err

    def test_invalid_preconditioner_combo(self, tmp_path, capsys):
        rc = main(["table", "--exp", "ex3", "--n", "5,5,5", "--precond", "p22",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "p22" in capsys.readouterr().err

    def test_config_refuses_an_invalid_preconditioner(self):
        # build_preconditioner has no branch for an unknown name: the config refuses it,
        # also when it is set through dataclasses.replace
        with pytest.raises(ParameterError, match="p22"):
            ExperimentConfig(exp="ex3", precond="p22")
        with pytest.raises(ParameterError, match="bogus"):
            replace(ExperimentConfig(exp="ex2"), precond="bogus")


class TestVerify:
    def test_single_suite_passes(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "ops", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS  ops/flip_involution" in out
        rows = read_rows(tmp_path / "verify.csv")
        assert rows and all(r["pass"] == "true" for r in rows)

    def test_comma_separated_and_repeated_suites(self, tmp_path):
        rc = main(["verify", "--suite", "ops,structure", "--suite", "hankel",
                   "--sizes", "8,16", "--out", str(tmp_path)])
        assert rc == 0
        suites = {r["suite"] for r in read_rows(tmp_path / "verify.csv")}
        assert suites == {"ops", "structure", "hankel"}

    def test_failing_suite_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "_suite_ops",
                            lambda cfg: [("ops", "forced_failure", False, "0")])
        rc = main(["verify", "--suite", "ops", "--out", str(tmp_path)])
        assert rc == 2
        assert "FAIL  ops/forced_failure" in capsys.readouterr().out

    def test_fft_oracle_checks_the_fft_on_every_table(self, tmp_path, monkeypatch):
        # a broken diagonal matvec must fail only the direct oracle
        monkeypatch.setattr(operators, "_diagonal_kernel",
                            lambda f, sizes: lambda x: np.zeros(x.size))
        res = experiments.run_verify(ExperimentConfig(exp="ex1", out=str(tmp_path)),
                                     suites=["oracles"])
        verdict = {check: ok for _, check, ok, _ in res["rows"]}
        assert verdict["fft_matvec_vs_dense"]
        assert not verdict["direct_matvec_vs_dense"]

    def test_level_oracle_checks_the_level_product(self, tmp_path, monkeypatch):
        # a broken level product must fail only the level oracle
        monkeypatch.setattr(operators, "_level_kernel",
                            lambda f, sizes: lambda x: np.zeros(x.size))
        res = experiments.run_verify(ExperimentConfig(exp="ex1", out=str(tmp_path)),
                                     suites=["oracles"])
        verdict = {check: ok for _, check, ok, _ in res["rows"]}
        assert verdict["fft_matvec_vs_dense"] and verdict["direct_matvec_vs_dense"]
        assert not verdict["level_matvec_vs_dense"]

    def test_unknown_suite_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "bogus", "--out", str(tmp_path)])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err


class TestCsvFormat:
    """Every command's CSV: one header line, today's columns, repr floats."""

    @staticmethod
    def lines(path, cmd):
        lines = path.read_text().splitlines()
        assert lines[0].startswith(f"# flipspec 0.1.0 | cmd={cmd} ")
        assert sum(ln.startswith("# flipspec") for ln in lines) == 1
        body = [ln for ln in lines if not ln.startswith("#")]
        return body[0], [ln.split(",") for ln in body[1:]]

    def test_spectrum(self, tmp_path):
        res = experiments.run_spectrum(ExperimentConfig(exp="ex1", sizes=(6, 8),
                                                        out=str(tmp_path)))
        eigs, lam = res["eigenvalues"], res["lambda"]
        columns, rows = self.lines(tmp_path / "eigs.csv", "spectrum")
        assert columns == "index,eigenvalue"
        assert rows == [[str(i), repr(float(v))] for i, v in enumerate(eigs)]
        columns, rows = self.lines(tmp_path / "lambda.csv", "spectrum")
        assert columns == "index,value,branch"
        assert rows == [[str(i), repr(float(v)), str(int(b))]
                        for i, (v, b) in enumerate(zip(lam.values, lam.branch))]
        columns, rows = self.lines(tmp_path / "overlay.csv", "spectrum")
        assert columns == "index,eig,lambda"
        assert rows == [[str(i), repr(float(e)), repr(float(v))]
                        for i, (e, v) in enumerate(zip(eigs, lam.values))]
        assert (f"# max_gap={res['max_gap']!r} mean_gap={res['mean_gap']!r}"
                in (tmp_path / "overlay.csv").read_text().splitlines())

    def test_match(self, tmp_path):
        res = experiments.run_match(ExperimentConfig(exp="ex1", sizes=(6, 8),
                                                     out=str(tmp_path)))
        rep = res["report"]
        theta = rep.points[rep.point_index]
        columns, rows = self.lines(tmp_path / "surface.csv", "match")
        assert columns == "theta_1,theta_2,branch,eigenvalue,symbol_value"
        assert rows == [[repr(float(t[0])), repr(float(t[1])), str(int(b)), repr(float(e)),
                         repr(float(v))]
                        for t, b, e, v in zip(theta, rep.branch, rep.eigenvalues,
                                              rep.matched_value)]
        columns, rows = self.lines(tmp_path / "report.csv", "match")
        assert columns == "index,eigenvalue,matched_value,branch,theta_1,theta_2,distance"
        assert rows == [[str(i), repr(float(e)), repr(float(v)), str(int(b)),
                         repr(float(t[0])), repr(float(t[1])), repr(float(d))]
                        for i, (e, v, b, t, d) in enumerate(zip(
                            rep.eigenvalues, rep.matched_value, rep.branch, theta,
                            rep.distance))]

    def test_table(self, tmp_path):
        got = experiments.run_table(ExperimentConfig(exp="ex3", sizes=(5, 5, 5),
                                                     out=str(tmp_path)))
        columns, rows = self.lines(tmp_path / "table.csv", "table")
        assert columns == "d_n,preconditioner,iterations,converged,wall_time"
        assert [r[:4] for r in rows] == [
            [str(r["d_n"]), r["preconditioner"], str(r["iterations"]),
             "true" if r["converged"] else "false"] for r in got]
        assert all(re.fullmatch(r"\d+\.\d{3}", r[4]) for r in rows)

    def test_verify(self, tmp_path):
        res = experiments.run_verify(ExperimentConfig(exp="ex1", out=str(tmp_path)),
                                     suites=["ops", "structure"])
        columns, rows = self.lines(tmp_path / "verify.csv", "verify")
        assert columns == "suite,check,pass,value"
        assert rows == [[suite, check, "true" if ok else "false", value]
                        for suite, check, ok, value in res["rows"]]


class TestParser:
    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_bad_precond_choice_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--exp", "ex2", "--precond", "nope"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_precond_choices_are_the_experiments_union(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "--help"])
        listed = re.search(r"--precond \{([^}]*)\}", capsys.readouterr().out).group(1)
        union = {p for ps in experiments.VALID_PRECONDITIONERS.values() for p in ps}
        assert sorted(listed.split(",")) == sorted(union)

    def test_bare_command_takes_the_config_defaults(self):
        # alpha, beta, out and seed default to ExperimentConfig's own values
        args = build_parser().parse_args(["table", "--exp", "ex2"])
        assert _config(args) == ExperimentConfig(exp="ex2")

    def test_malformed_sizes_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--exp", "ex1", "--n", "8,x"])
        assert exc.value.code == 1
        capsys.readouterr()


def test_installed_entry_point(tmp_path):
    script = shutil.which("flipspec")
    cmd = [script] if script else [sys.executable, "-m", "flipspec.cli"]
    proc = subprocess.run(
        cmd + ["verify", "--suite", "ops", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "verify.csv").exists()
