"""Command-line harness: table reproduction, single solves, convergence runs.

Output is CSV (stdout or --out) with one metric per row so runs diff
cleanly in CI; --pretty renders an aligned text table instead. Exit codes:
0 success, 1 tolerance/solver failure or an array too large for memory,
2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import registry
from .core import InvalidDomainError, eval_many
from .linsolve import SingularMatrixError
from .quadrature import MAX_ORDER, gauss_legendre
from .spline import convergence_study

CSV_HEADER = ("id", "n", "metric", "value", "published", "ratio")


def _fmt(x) -> str:
    if type(x) is float:  # most cells: one type test, not five isinstance calls
        return f"{x:.6e}"
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.6e}"


def _emit(rows, header, args) -> None:
    if args.pretty:
        widths = [max(len(str(header[i])),
                      max((len(_fmt(r[i])) for r in rows), default=0))
                  for i in range(len(header))]
        lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
        for r in rows:
            lines.append("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
        text = "\n".join(lines) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            writer.writerow([_fmt(v) for v in r])
        text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_bracket(text):
    try:
        lo, hi = (float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bracket must be 'lo,hi', got {text!r}") from None
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"bracket needs lo < hi, got {text!r}")
    return lo, hi


def _parse_int_list(text):
    try:
        ns = [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if any(m >= n for m, n in zip(ns, ns[1:])):
        raise argparse.ArgumentTypeError(f"n values must be ascending, got {text!r}")
    return ns


def cmd_interpolate(args) -> int:
    model, err = registry.spline_interpolant(args.problem, args.n, args.a, args.b,
                                             gauss_legendre(args.quad_order))
    if args.plot_dir:
        plot_dir = Path(args.plot_dir)
        plot_dir.mkdir(parents=True, exist_ok=True)
        fn = registry.get_function(args.problem).fn
        xs = np.linspace(model.grid.a, model.grid.b, 20 * args.n + 1)
        for tag, values in (("spline", model(xs)), ("exact", eval_many(fn, xs))):
            path = plot_dir / f"{args.problem}_n{args.n}_{tag}.txt"
            path.write_text("".join(f"{x:.10e} {v:.10e}\n" for x, v in zip(xs, values)))
    _emit([(args.problem, args.n, "squared_l2_error", err, None, None)],
          CSV_HEADER, args)
    return 0


def cmd_lagrange(args) -> int:
    err = registry.lagrange_error(args.problem, args.n, args.a, args.b)
    _emit([(args.problem, args.n, "squared_l2_error(lagrange)", err, None, None)],
          CSV_HEADER, args)
    return 0


def cmd_solve(args) -> int:
    rule = gauss_legendre(args.quad_order)
    report = registry.solve_entry(args.problem, args.n, rule, args.bracket)
    _emit([(args.problem, args.n, metric, value, None, None)
           for metric, value in registry.solve_metrics(report)], CSV_HEADER, args)
    return 0


def cmd_reproduce(args) -> int:
    tables = sorted(registry.TABLES) if args.table == "all" else [int(args.table)]
    rule = gauss_legendre(args.quad_order)

    # Several metrics of tables 4-8 read the same solve: run each (id, n)
    # once per call, with this call's rule.
    @functools.cache
    def solve(pid, n):
        return registry.solve_entry(pid, n, rule=rule)

    rows = []
    failures = 0
    for t in tables:
        for cell in registry.TABLES[t]:
            computed = registry.compute_cell(cell, rule, solve)
            ok = registry.cell_passes(cell, computed)
            failures += 0 if ok else 1
            metric = cell.metric
            if cell.check == "external":
                metric += " (external; not reproduced)"
            ratio = None
            if computed is not None and cell.published != 0.0:
                ratio = computed / cell.published
            rows.append((cell.entry_id, cell.n, metric, computed,
                         cell.published, ratio))
    _emit(rows, CSV_HEADER, args)
    if failures:
        print(f"{failures} cell(s) missed tolerance", file=sys.stderr)
        return 1
    return 0


def cmd_converge(args) -> int:
    entry = registry.get_function(args.problem)
    fpp = args.fpp_bound if args.fpp_bound is not None else entry.fpp_bound
    if fpp is None:
        raise InvalidDomainError(f"no certified second-derivative bound for "
                                 f"{args.problem!r}; pass --fpp-bound")
    report = convergence_study(entry.fn, fpp, entry.a, entry.b, args.ns)
    by_n = {r.n: r for r in report.records}
    rows = []
    for rec in report.records:
        order = None
        if 2 * rec.n in by_n and by_n[2 * rec.n].max_deviation > 0:
            order = math.log2(rec.max_deviation / by_n[2 * rec.n].max_deviation)
        rows.append((rec.n, rec.h, rec.max_deviation, rec.bound,
                     rec.within_bound, order))
    _emit(rows, ("n", "h", "max_deviation", "bound", "within_bound",
                 "empirical_order"), args)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it.

    parse_args keeps nothing between calls: each returns a fresh Namespace.
    """
    parser = argparse.ArgumentParser(
        prog="quadspline",
        description="Variational quadratic splines and integral-equation "
                    "benchmarks (CSV output).")
    sub = parser.add_subparsers(dest="command", required=True)

    # each shared option is declared once, on the parent parser of its group;
    # every value the registry fixes is a choice, so argparse refuses the rest
    function, problem, n, interval, output, quad = (argparse.ArgumentParser(add_help=False)
                                                    for _ in range(6))
    for parent, ids in ((function, sorted(registry.FUNCTIONS)),
                        (problem, sorted(registry.PROBLEMS))):
        parent.add_argument("--problem", "-p", required=True, choices=ids, metavar="ID",
                            help="registry id: " + ", ".join(ids))
    n.add_argument("--n", type=int, required=True, help="number of subintervals")
    interval.add_argument("--a", type=float, default=None, help="override left endpoint")
    interval.add_argument("--b", type=float, default=None, help="override right endpoint")
    output.add_argument("--out", default=None, help="output path (default stdout)")
    output.add_argument("--pretty", action="store_true",
                        help="aligned text table instead of CSV")
    quad.add_argument("--quad-order", type=int, choices=range(1, MAX_ORDER + 1),
                      default=8, metavar=f"1..{MAX_ORDER}",
                      help="Gauss-Legendre order (default 8)")

    p = sub.add_parser("interpolate", parents=[function, n, output, quad, interval],
                       help="spline interpolation error of a registered function")
    p.add_argument("--plot-dir", default=None,
                   help="also write two-column (x, value) series files here")
    p.set_defaults(func=cmd_interpolate)

    # lagrange_error has a fixed composite rule, so lagrange takes no --quad-order
    p = sub.add_parser("lagrange", parents=[function, n, output, interval],
                       help="error of the single global Lagrange interpolant, "
                            "for comparison")
    p.set_defaults(func=cmd_lagrange)

    p = sub.add_parser("solve", parents=[problem, n, output, quad],
                       help="run the solver for a registered integral equation")
    p.add_argument("--bracket", type=_parse_bracket, default=None,
                   help="eigenvalue search bracket 'lo,hi' (default: entry's)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reproduce", parents=[output, quad],
                       help="recompute published benchmark tables and compare")
    p.add_argument("--table", default="all",
                   choices=["all", *map(str, sorted(registry.TABLES))],
                   help="a table number or 'all' (default)")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("converge", parents=[function, output],
                       help="measured max deviation vs the analytic bound "
                            "over a list of n")
    p.add_argument("--ns", type=_parse_int_list, required=True,
                   help="strictly ascending comma-separated n values")
    p.add_argument("--fpp-bound", type=float, default=None,
                   help="certified bound on |f''| (default: entry's, if any)")
    p.set_defaults(func=cmd_converge)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrixError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
