import cProfile
import csv
import dataclasses
import io
import pstats
from pathlib import Path

import numpy as np
import pytest

from quadspline import coeffs_closed_form, registry, spline
from quadspline.cli import build_parser, main

from test_imports import run_fresh


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv):
    """The error line argparse prints when it refuses argv; it must exit 2
    and write nothing to stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err.splitlines()[-1]


def listed_choices(line):
    """The values an `invalid choice` line offers, however argparse quotes them."""
    offered = line.split("(choose from ", 1)[1].removesuffix(")")
    return [c.strip("'") for c in offered.split(", ")]


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestInterpolate:
    def test_emits_single_metric_row(self, capsys):
        code, out, _ = run_cli(capsys, "interpolate", "-p", "abs", "--n", "20")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["id", "n", "metric", "value", "published", "ratio"]
        assert len(rows) == 1
        assert rows[0][:3] == ["abs", "20", "squared_l2_error"]
        value = float(rows[0][3])
        assert 0.5 * 6.6e-4 <= value <= 2 * 6.6e-4

    def test_linear_exact(self, capsys):
        code, out, _ = run_cli(capsys, "interpolate", "-p", "linear", "--n", "9")
        assert float(parse_csv(out)[1][0][3]) <= 1e-20

    def test_unknown_id_is_usage_error(self, capsys):
        line = usage_error(capsys, "interpolate", "-p", "zzz", "--n", "4")
        assert "error: argument --problem/-p: invalid choice: 'zzz'" in line
        assert listed_choices(line) == sorted(registry.FUNCTIONS)

    def test_collapsed_grid_is_usage_error(self, capsys):
        # 4 pieces of a one-ulp interval have nodes that round onto each other
        code, _, err = run_cli(capsys, "interpolate", "-p", "abs", "--n", "4",
                               "--a", "1", "--b", "1.0000000000000002")
        assert code == 2
        assert "do not strictly increase" in err

    def test_plot_files(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "interpolate", "-p", "abs", "--n", "4",
                             "--plot-dir", str(tmp_path))
        assert code == 0
        spline_file = tmp_path / "abs_n4_spline.txt"
        exact_file = tmp_path / "abs_n4_exact.txt"
        assert spline_file.exists() and exact_file.exists()
        data = np.loadtxt(spline_file)
        assert data.shape == (81, 2)
        assert data[0, 0] == pytest.approx(-1.0)
        assert data[-1, 0] == pytest.approx(1.0)

    def test_plot_dir_builds_the_spline_once(self, capsys, tmp_path, monkeypatch):
        builds = []

        def counting(deltas, n):
            builds.append(n)
            return coeffs_closed_form(deltas, n)

        monkeypatch.setattr(spline, "coeffs_closed_form", counting)
        code, _, _ = run_cli(capsys, "interpolate", "-p", "abs", "--n", "4",
                             "--plot-dir", str(tmp_path))
        assert code == 0
        assert builds == [4]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "r.csv"
        code, out, _ = run_cli(capsys, "interpolate", "-p", "abs", "--n", "4",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("id,n,metric")


class TestLagrange:
    def test_moderate_degree(self, capsys):
        _, out, _ = run_cli(capsys, "lagrange", "-p", "abs", "--n", "10")
        value = float(parse_csv(out)[1][0][3])
        assert 0.5 * 8.2e-2 <= value <= 2 * 8.2e-2

    def test_blowup_reproduced(self, capsys):
        _, out, _ = run_cli(capsys, "lagrange", "-p", "abs", "--n", "20")
        assert float(parse_csv(out)[1][0][3]) >= 1e2

    def test_linear_exact(self, capsys):
        _, out, _ = run_cli(capsys, "lagrange", "-p", "linear", "--n", "3")
        assert float(parse_csv(out)[1][0][3]) <= 1e-20

    def test_degree_beyond_double_weights_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "lagrange", "-p", "abs", "--n", "1030")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_non_finite_interpolant_is_usage_error(self, capsys):
        # at n = 1029 the barycentric sums overflow
        code, out, err = run_cli(capsys, "lagrange", "-p", "abs", "--n", "1029")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "the barycentric sums at x=" in err

    @pytest.mark.filterwarnings("error")
    def test_finite_blowup_printed_unchanged(self, capsys):
        # the exact value over the same doubles is 5.007383e+28 (see
        # tests/test_lagrange.py): the rounding that remains is pinned too
        _, out, _ = run_cli(capsys, "lagrange", "-p", "abs", "--n", "100")
        value = parse_csv(out)[1][0][3]
        assert value == "5.232289e+30"
        assert 5.007383e+25 <= float(value) <= 5.007383e+31

    def test_quad_order_is_usage_error(self, capsys):
        # the error integral has a fixed rule; the option would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["lagrange", "-p", "abs", "--n", "10", "--quad-order", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --quad-order 2" in captured.err


class TestSolve:
    def test_volterra_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "-p", "krasnov3", "--n", "5")
        assert code == 0
        _, rows = parse_csv(out)
        metrics = {r[2]: float(r[3]) for r in rows}
        assert 0.5 * 9.3e-4 <= metrics["l2_norm_error"] <= 2 * 9.3e-4
        assert 0.5 * 6.1e-5 <= metrics["max_error"] <= 2 * 6.1e-5

    def test_eigen_lists_every_value(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "-p", "krasnov2", "--n", "5")
        assert code == 0
        _, rows = parse_csv(out)
        values = [float(r[3]) for r in rows if r[2] == "eigenvalue"]
        assert len(values) == 2
        assert abs(min(values) + 3.21785) < 5e-5

    def test_bracket_flag(self, capsys):
        # '=' form: a leading '-' would otherwise read as an option
        code, out, _ = run_cli(capsys, "solve", "-p", "krasnov2", "--n", "5",
                               "--bracket=-3.0,-2.5")
        _, rows = parse_csv(out)
        values = [float(r[3]) for r in rows if r[2] == "eigenvalue" and r[3]]
        assert len(values) == 1
        assert -3.0 < values[0] < -2.5

    def test_bracket_refused_for_other_kinds(self, capsys):
        code, out, err = run_cli(capsys, "solve", "-p", "krasnov1", "--n", "5",
                                 "--bracket=0,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "'fredholm2'" in err

    def test_infinite_bracket_is_a_usage_error(self, capsys):
        # it passes the parser's lo < hi; the problem refuses it, exit 2
        code, out, err = run_cli(capsys, "solve", "-p", "krasnov2", "--n", "5",
                                 "--bracket=-inf,inf")
        assert code == 2
        assert out == ""
        assert err == "error: bracket end lo = -inf is not finite\n"

    def test_identity_passthrough(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "-p", "identity", "--n", "6")
        _, rows = parse_csv(out)
        metrics = {r[2]: float(r[3]) for r in rows}
        assert metrics["max_error"] <= 1e-12

    def test_unknown_problem(self, capsys):
        line = usage_error(capsys, "solve", "-p", "zzz", "--n", "4")
        assert "error: argument --problem/-p: invalid choice: 'zzz'" in line
        assert listed_choices(line) == sorted(registry.PROBLEMS)

    def test_empty_bracket_prints_one_blank_eigenvalue(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "-p", "krasnov2", "--n", "5",
                               "--bracket=5,10")
        assert code == 0
        assert parse_csv(out)[1] == [["krasnov2", "5", "eigenvalue", "", "", ""]]


class TestReproduce:
    def test_single_table(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--table", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert 0.5 <= float(row[5]) <= 2.0

    def test_table_three_marks_external_rows(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--table", "3")
        assert code == 0
        _, rows = parse_csv(out)
        external = [r for r in rows if "external" in r[2]]
        assert len(external) == 6
        assert all(r[3] == "" for r in external)
        reproduced = [r for r in rows if "external" not in r[2]]
        assert len(reproduced) == 3
        assert all(r[3] != "" for r in reproduced)

    def test_invalid_table(self, capsys):
        line = usage_error(capsys, "reproduce", "--table", "9")
        assert "error: argument --table: invalid choice: '9'" in line
        assert listed_choices(line) == ["all", *map(str, sorted(registry.TABLES))]

    def test_all_tables_solve_each_entry_once(self, capsys, monkeypatch):
        solve_entry, compute_cell = registry.solve_entry, registry.compute_cell
        calls = []

        def counting(pid, n, *args, **kwargs):
            calls.append((pid, n))
            return solve_entry(pid, n, *args, **kwargs)

        monkeypatch.setattr(registry, "solve_entry", counting)
        code, shared, _ = run_cli(capsys, "reproduce", "--table", "all")
        assert code == 0
        assert len(calls) == len(set(calls)) == 11
        # a fresh solve for every cell gives the same bytes
        calls.clear()
        monkeypatch.setattr(registry, "compute_cell",
                            lambda cell, rule, solve: compute_cell(cell, rule))
        code, per_cell, _ = run_cli(capsys, "reproduce", "--table", "all")
        assert code == 0
        assert len(calls) == 25
        assert per_cell == shared

    def test_tables_path_calls_no_numpy_convenience_wrappers(self, capsys):
        # at table sizes a wrapper's fixed cost is a few times the ufunc or
        # array method it wraps, so none of these may be called from the
        # package's own frames on this path, directly or through an array
        # method (ndarray.mean runs _methods._mean); names, not counts
        wrappers = {"linspace", "diff", "split", "sum", "max", "argmax", "where", "full",
                    "cumsum", "atleast_1d"}
        profile = cProfile.Profile()
        profile.enable()
        try:
            code, _, _ = run_cli(capsys, "reproduce", "--table", "all")
        finally:
            profile.disable()
        assert code == 0
        package = str(Path(spline.__file__).parent)
        stats = pstats.Stats(profile).stats

        def package_callers(key):
            for caller in stats[key][4]:
                if caller[0] == "~":  # a C method: look through it to its caller
                    yield from package_callers(caller)
                elif caller[0].startswith(package):
                    yield caller

        called = sorted(
            (Path(key[0]).name, key[2], caller[2])
            for key in stats
            if "numpy" in key[0] and (key[2] in wrappers
                                      or (Path(key[0]).name, key[2]) == ("_methods.py", "_mean"))
            for caller in package_callers(key))
        assert called == []

    def test_all_tables_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["reproduce", "--table", "all", "--out", str(f1)]) == 0
        assert main(["reproduce", "--table", "all", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestConverge:
    def test_sine_rows(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "-p", "sin2pix",
                               "--ns", "10,20,40,80")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "h", "max_deviation", "bound", "within_bound",
                          "empirical_order"]
        assert len(rows) == 4
        assert all(r[4] == "1" for r in rows)
        # order column present wherever 2n is also in the list
        assert all(rows[i][5] != "" for i in range(3))
        assert rows[3][5] == ""

    @pytest.mark.filterwarnings("error")
    def test_order_three_up_to_large_n(self, capsys):
        # the sup-norm error falls as h^3 all the way to n = 1280: rounding
        # in the evaluation stays far below it
        code, out, _ = run_cli(capsys, "converge", "-p", "sin2pix",
                               "--ns", "40,80,160,320,640,1280")
        assert code == 0
        orders = [float(r[5]) for r in parse_csv(out)[1] if r[5]]
        assert len(orders) == 5
        assert all(2.95 <= p <= 3.05 for p in orders), orders

    def test_linear_zero_rows(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "-p", "linear",
                               "--ns", "4,8")
        _, rows = parse_csv(out)
        assert all(float(r[2]) < 1e-12 for r in rows)

    def test_linear_within_bound_at_every_n(self, capsys):
        # M = 0 makes the analytic bound 0; the deviation, 8.9e-16 to 8.0e-15,
        # is rounding alone, and the bound's rounding allowance covers it
        code, out, _ = run_cli(capsys, "converge", "-p", "linear",
                               "--ns", "4,8,16,100,1000")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["4", "8", "16", "100", "1000"]
        assert all(r[4] == "1" and 0 < float(r[2]) <= float(r[3]) for r in rows)

    def test_target_failing_at_a_node_is_not_a_usage_error(self, monkeypatch):
        # a NaN sample is a fault of the target, not of the command line
        entry = registry.FUNCTIONS["linear"]
        monkeypatch.setitem(registry.FUNCTIONS, "linear", registry.FunctionEntry(
            lambda x: np.where(x > 0.5, np.nan, x), entry.a, entry.b, entry.fpp_bound))
        with pytest.raises(ValueError, match="is not finite"):
            main(["converge", "-p", "linear", "--ns", "4"])

    def test_requires_bound(self, capsys):
        code, _, err = run_cli(capsys, "converge", "-p", "abs", "--ns", "4,8")
        assert code == 2
        assert "fpp-bound" in err

    def test_explicit_bound_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "-p", "abs", "--ns", "10,20",
                               "--fpp-bound", "100.0")
        assert code == 0

    @pytest.mark.parametrize("bound", ["nan", "inf", "-1"])
    def test_rejects_unusable_bound(self, capsys, bound):
        code, out, err = run_cli(capsys, "converge", "-p", "sin2pix", "--ns", "10,20",
                                 f"--fpp-bound={bound}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "fpp_bound" in err

    def test_rejects_unsorted(self, capsys):
        line = usage_error(capsys, "converge", "-p", "sin2pix", "--ns", "20,10")
        assert "error: argument --ns: n values must be ascending" in line


class TestFailureExitCodes:
    def test_solver_error_exits_one(self, capsys, monkeypatch):
        from quadspline import SingularMatrixError

        def boom(*a, **k):
            raise SingularMatrixError("pivot underflow")

        monkeypatch.setattr(registry, "solve_entry", boom)
        code, _, err = run_cli(capsys, "solve", "-p", "krasnov1", "--n", "5")
        assert code == 1
        assert "pivot underflow" in err

    def test_array_too_large_for_memory_exits_one(self, capsys, monkeypatch):
        # numpy refuses an array beyond memory, such as the operator's at
        # n = 1e11, with MemoryError; the command fails with one line, not a
        # traceback. Nothing is allocated: a smaller n could pass the
        # allocator's check and then exhaust the machine
        def boom(*a, **k):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(registry, "solve_entry", boom)
        code, out, err = run_cli(capsys, "solve", "-p", "krasnov1", "--n", "100000000000")
        assert code == 1
        assert out == ""
        assert err == "error: Unable to allocate 745. GiB for an array\n"

    @pytest.mark.parametrize("pid,table", [("krasnov1", 4), ("krasnov2", 5), ("krasnov3", 6),
                                           ("malek1", 7), ("krasnov4", 8)])
    def test_broken_reference_fails_its_table(self, capsys, monkeypatch, pid, table):
        # a reference shifted by 1e-3 is caught by the table's own
        # tolerances: exit 1 and a line on stderr, not an exception
        entry = registry.PROBLEMS[pid]
        exact = entry.reference
        monkeypatch.setitem(registry.PROBLEMS, pid, dataclasses.replace(
            entry, reference=lambda x: exact(x) + 1e-3))
        code, _, err = run_cli(capsys, "reproduce", "--table", str(table))
        assert code == 1
        assert "cell(s) missed tolerance" in err

    def test_missed_tolerance_exits_one(self, capsys, monkeypatch):
        bogus = registry.TableCell("krasnov1", 5, "l2_norm_error", 1e6)
        monkeypatch.setitem(registry.TABLES, 4, (bogus,))
        code, out, err = run_cli(capsys, "reproduce", "--table", "4")
        assert code == 1
        assert "missed tolerance" in err


class TestPretty:
    def test_pretty_is_aligned_not_csv(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "-p", "krasnov3", "--n", "5",
                            "--pretty")
        assert "," not in out.splitlines()[0]
        assert out.splitlines()[0].startswith("id")


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bracket", [["--bracket", "oops"], ["--bracket=0,-10"]],
                             ids=["oops", "reversed"])
    def test_bad_bracket_format(self, capsys, bracket):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-p", "krasnov2", "--n", "5", *bracket])
        assert exc.value.code == 2
        assert "error: argument --bracket" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["0", "33"])
    @pytest.mark.parametrize("command", [["solve", "-p", "krasnov1", "--n", "5"],
                                         ["interpolate", "-p", "abs", "--n", "5"],
                                         ["reproduce"]], ids=lambda c: c[0])
    def test_quad_order_out_of_range(self, capsys, command, order):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--quad-order", order])
        assert exc.value.code == 2
        assert "error: argument --quad-order" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["interpolate", "--n", "4"],
                                         ["lagrange", "--n", "4"],
                                         ["solve", "--n", "4"],
                                         ["converge", "--ns", "4,8"]],
                             ids=lambda c: c[0])
    def test_unknown_id_on_every_subcommand(self, capsys, command):
        line = usage_error(capsys, command[0], "-p", "zzz", *command[1:])
        assert "error: argument --problem/-p: invalid choice: 'zzz'" in line

    @pytest.mark.parametrize("option,value,refusal", [
        ("--table", "9", "invalid choice: '9'"),
        ("--table", "x", "invalid choice: 'x'"),
        ("--quad-order", "0", "invalid choice: 0"),
        ("--quad-order", "33", "invalid choice: 33"),
        ("--quad-order", "x", "invalid int value: 'x'"),
        ("--ns", "20,10", "n values must be ascending, got '20,10'"),
        ("--ns", "10,10", "n values must be ascending, got '10,10'"),
        ("--ns", "10,x", "expected comma-separated integers, got '10,x'"),
    ], ids=["table-9", "table-x", "quad-order-0", "quad-order-33", "quad-order-x",
            "ns-descending", "ns-repeated", "ns-not-int"])
    def test_malformed_argument_refused_by_the_parser(self, capsys, option, value,
                                                      refusal):
        command = ["converge", "-p", "sin2pix"] if option == "--ns" else ["reproduce"]
        line = usage_error(capsys, *command, option, value)
        assert f"error: argument {option}: {refusal}" in line


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,cause", [
        # h*h underflows to 0 (the second differences divided by it: nan)
        ("interpolate -p sin2pix --n 4 --a=0 --b=1e-310", "whose square"),
        # h*h overflows (inf, a traceback, or a blame on barycentric sums)
        ("interpolate -p abs --n 2 --a=-5e307 --b=5e307", "whose square"),
        ("interpolate -p abs --n 4 --a=-1.7e308 --b=-1e307", "whose square"),
        ("interpolate -p linear --n 4 --a=1e307 --b=1.7e308", "whose square"),
        ("lagrange -p linear --n 4 --a=1e307 --b=1.7e308", "whose square"),
        # h*h is normal, but the squared deviation's integral overflows
        ("interpolate -p abs --n 64 --a=-4e155 --b=4e155", "integral"),
        ("interpolate -p linear --n 64 --a=-4e155 --b=4e155", "integral"),
    ])
    def test_extreme_interval_is_usage_error(self, capsys, argv, cause):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert cause in err


class TestHelp:
    # argparse formats help text only when --help asks for it
    @pytest.mark.parametrize("command", ["interpolate", "lagrange", "solve",
                                         "reproduce", "converge"])
    def test_every_subcommand_help_renders(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: quadspline {command}")
        assert "output path (default stdout)" in out
        assert "aligned text table instead of CSV" in out

    @pytest.mark.parametrize("command,values", [
        ("interpolate", sorted(registry.FUNCTIONS)),
        ("solve", sorted(registry.PROBLEMS)),
        ("reproduce", ["all", *map(str, sorted(registry.TABLES))]),
    ], ids=["interpolate", "solve", "reproduce"])
    def test_help_lists_the_registered_values(self, capsys, command, values):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert ", ".join(values) in out or "{" + ",".join(values) + "}" in out


class TestParserReuse:
    """main parses with one parser built once per process; no call may leak
    into the next, so each output equals a fresh interpreter's."""

    @staticmethod
    def fresh(*argv):
        return run_fresh("import sys; from quadspline.cli import main; "
                         f"sys.exit(main({list(argv)!r}))")

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_bracket_does_not_stick(self, capsys):
        # [-3, -2.5] holds one of the two default roots, so a leaked
        # bracket would drop a row
        command = ["solve", "-p", "krasnov2", "--n", "5"]
        code, bracketed, _ = run_cli(capsys, *command, "--bracket=-3,-2.5")
        assert code == 0
        code, out, _ = run_cli(capsys, *command)
        assert code == 0
        assert out.strip() == self.fresh(*command)
        assert out != bracketed

    def test_quad_order_does_not_stick(self, capsys):
        command = ["solve", "-p", "krasnov1", "--n", "5"]
        # order 4 already prints the default's digits at n = 5; order 2 does not
        for order in ("4", "2"):
            code, low_order, _ = run_cli(capsys, *command, "--quad-order", order)
            assert code == 0
        code, out, _ = run_cli(capsys, *command)
        assert code == 0
        assert out.strip() == self.fresh(*command)
        assert out != low_order

    def test_valid_call_after_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-p", "krasnov3", "--n", "five"])
        assert exc.value.code == 2
        capsys.readouterr()
        command = ["solve", "-p", "krasnov3", "--n", "5"]
        code, out, _ = run_cli(capsys, *command)
        assert code == 0
        assert out.strip() == self.fresh(*command)
