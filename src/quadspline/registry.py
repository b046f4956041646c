"""Built-in benchmark problems and the published values they reproduce.

Every cell of benchmark tables 1-8 maps to one entry here plus an n. The
published numbers are embedded as a static manifest (with the tolerance
each reproduction is held to) so the checks never depend on external data.

Metric conventions, matching the source tables (the test suite pins them):

* interpolation tables (1-3): ``squared_l2_error`` is the integral of the
  squared deviation itself;
* equation tables (4-8): ``l2_norm_error`` is the square root of that
  integral and ``max_error`` is the nodal max, except for the eigenvalue
  table (5) where the max is taken over the whole interval and the
  eigenfunction is first rescaled to match the reference at the first
  interior node. ``eigenvalue`` rows compare the smallest value found in
  the entry's bracket.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import Grid, ScalarFunction, eval_many, make_grid, sample
from .integral_eq import IntegralProblem, SolveReport, solve
from .lagrange import lagrange_interpolant
from .quadrature import QuadratureRule, gauss_legendre, l2_error, panel_points
from .spline import SplineModel, build_spline


class UnknownProblemError(KeyError):
    """No registry entry under the requested id."""


@dataclass(frozen=True)
class FunctionEntry:
    """An interpolation target with its natural interval."""

    fn: ScalarFunction
    a: float
    b: float
    fpp_bound: Optional[float] = None  # certified sup |f''|, when finite


FUNCTIONS: dict[str, FunctionEntry] = {
    "abs": FunctionEntry(np.abs, -1.0, 1.0),
    "sin2pix": FunctionEntry(lambda x: np.sin(2.0 * np.pi * x), -1.0, 1.0, 4.0 * np.pi**2),
    "linear": FunctionEntry(lambda x: 5.0 * x - 2.0, -1.0, 1.0, 0.0),
}

# Integral equations with closed-form reference solutions; every entry has one.
PROBLEMS: dict[str, IntegralProblem] = {
    # y(x) + 2 int_0^1 e^{x-s} y(s) ds = 2x e^x, i.e. lam = -2 in the
    # y - lam*int = f convention; solution e^x (2x - 2/3).
    "krasnov1": IntegralProblem(
        "fredholm2",
        kernel=lambda x, s: np.exp(x - s),
        interval=(0.0, 1.0),
        forcing=lambda x: 2.0 * x * np.exp(x),
        lam=-2.0,
        reference=lambda x: np.exp(x) * (2.0 * x - 2.0 / 3.0),
    ),
    # Homogeneous kernel 2xs - 4x^2 on [0,1]: continuum characteristic
    # value -3 (double, see EXPECTED_EIGENVALUE), eigenfunction x(1 - 2x).
    "krasnov2": IntegralProblem(
        "fredholm_eigen",
        kernel=lambda x, s: 2.0 * x * s - 4.0 * x**2,
        interval=(0.0, 1.0),
        reference=lambda x: x * (1.0 - 2.0 * x),
        bracket=(-10.0, 0.0),
    ),
    # y = f + int(x+s) y over [0,1] with lam = +1; solution cos x.
    "wang": IntegralProblem(
        "fredholm2",
        kernel=lambda x, s: x + s,
        interval=(0.0, 1.0),
        forcing=lambda x: 1.0 + np.cos(x) - (1.0 + x) * np.sin(1.0) - np.cos(1.0),
        lam=1.0,
        reference=np.cos,
    ),
    # Trivial sanity entry: lam = 0 makes the solution the forcing itself.
    "identity": IntegralProblem(
        "fredholm2",
        kernel=lambda x, s: np.exp(x) * np.cos(s),
        interval=(0.0, 1.0),
        forcing=np.sin,
        lam=0.0,
        reference=np.sin,
    ),
    # y = 1/(1+x^2) - int_0^x s/(1+x^2) y ds; solution (1+x^2)^{-3/2}.
    "krasnov3": IntegralProblem(
        "volterra2",
        kernel=lambda x, s: s / (1.0 + x**2),
        interval=(0.0, 1.0),
        forcing=lambda x: 1.0 / (1.0 + x**2),
        lam=-1.0,
        reference=lambda x: (1.0 + x**2) ** (-1.5),
    ),
    # exp(-x^2) + (x/2)(1 - exp(-x^2)) = y + int_0^x xs y ds, written
    # here as y = f + lam*int with lam = -1; solution exp(-x^2).
    "malek1": IntegralProblem(
        "volterra2",
        kernel=lambda x, s: x * s,
        interval=(0.0, 1.0),
        forcing=lambda x: np.exp(-(x**2)) + 0.5 * x * (1.0 - np.exp(-(x**2))),
        lam=-1.0,
        reference=lambda x: np.exp(-(x**2)),
    ),
    # x^3 = int_0^x (x-s)^2 y(s) ds; solution y = 3.
    "krasnov4": IntegralProblem(
        "volterra1",
        kernel=lambda x, s: (x - s) ** 2,
        interval=(0.0, 1.0),
        forcing=lambda x: x**3,
        reference=lambda x: 3.0 * np.ones_like(np.asarray(x, dtype=float)),
    ),
}

# The continuum characteristic value of each fredholm_eigen entry, the lam
# its reference eigenfunction satisfies in the self-check.
EXPECTED_EIGENVALUE: dict[str, float] = {"krasnov2": -3.0}


def _lookup(table: dict, what: str, key: str):
    try:
        return table[key]
    except KeyError:
        raise UnknownProblemError(f"unknown {what} id {key!r}; "
                                  f"known: {sorted(table)}") from None


def get_function(fid: str) -> FunctionEntry:
    return _lookup(FUNCTIONS, "function", fid)


def get_problem(pid: str) -> IntegralProblem:
    return _lookup(PROBLEMS, "problem", pid)


# --------------------------------------------------------------------------
# computations behind each table cell


def _function_grid(fid: str, n: int, a: Optional[float],
                   b: Optional[float]) -> tuple[FunctionEntry, Grid]:
    """A registered function and n pieces of [a, b]; an end left None is the entry's."""
    entry = get_function(fid)
    return entry, make_grid(entry.a if a is None else a, entry.b if b is None else b, n)


def spline_interpolant(fid: str, n: int, a: Optional[float] = None,
                       b: Optional[float] = None,
                       rule: Optional[QuadratureRule] = None) -> tuple[SplineModel, float]:
    """The spline interpolant of a registered function, with its squared_l2_error."""
    entry, grid = _function_grid(fid, n, a, b)
    model = build_spline(grid, sample(entry.fn, grid))
    return model, l2_error(model, entry.fn, grid.a, grid.b, n, rule or gauss_legendre(8))


def interpolation_error(fid: str, n: int, rule: Optional[QuadratureRule] = None) -> float:
    """squared_l2_error of the spline interpolant of a registered function on its interval."""
    return spline_interpolant(fid, n, rule=rule)[1]


def lagrange_error(fid: str, n: int, a: Optional[float] = None,
                   b: Optional[float] = None) -> float:
    """squared_l2_error of the single global Lagrange interpolant.

    The integrand is a degree-2n polynomial (minus the target), so this uses
    a deliberately fine composite rule; the blow-up rows are genuine, not
    quadrature noise.
    """
    entry, grid = _function_grid(fid, n, a, b)
    interp = lagrange_interpolant(grid, sample(entry.fn, grid))
    return l2_error(interp, entry.fn, grid.a, grid.b, 16 * n, gauss_legendre(12))


def solve_entry(pid: str, n: int, rule: Optional[QuadratureRule] = None,
                bracket: Optional[tuple[float, float]] = None) -> SolveReport:
    """solve() of a registered problem; a bracket replaces a fredholm_eigen
    entry's own, and IntegralProblem refuses one for the other kinds."""
    problem = get_problem(pid)
    return solve(problem if bracket is None else replace(problem, bracket=bracket), n, rule)


def solve_metrics(report: SolveReport) -> list[tuple[str, Optional[float]]]:
    """The (metric, value) rows of a solve: every eigenvalue, smallest first,
    or one empty eigenvalue row when the bracket holds none, then
    l2_norm_error and max_error when the problem has a reference. An eigen
    report's errors are those of its smallest value."""
    rows = []
    if report.eigen is not None:
        rows += [("eigenvalue", value) for value, _sub in report.eigen] or [("eigenvalue", None)]
    for metric, value in (("l2_norm_error", report.error_l2), ("max_error", report.error_max)):
        if value is not None:
            rows.append((metric, value))
    return rows


# --------------------------------------------------------------------------
# published tables


def round_sigfigs(x: float, sig: int) -> float:
    if x == 0.0:
        return 0.0
    exponent = math.floor(math.log10(abs(x)))
    return round(x, sig - 1 - exponent)


# each check kind's test of a computed value against the published one
_CHECKS: dict[str, Callable[[float, float], bool]] = {
    "factor2": lambda c, p: 0.5 <= c / p <= 2.0,
    "order": lambda c, p: 0.1 <= c / p <= 10.0,
    # where our solve sits at the double-precision noise floor, far below
    # the published figure
    "order_upper": lambda c, p: c <= 10.0 * p,
    # agreement after rounding both to 4 significant figures
    "sigfigs4": lambda c, p: round_sigfigs(c, 4) == round_sigfigs(p, 4),
    # a third-party routine's figure: listed, not reproduced
    "external": lambda c, p: True,
}


@dataclass(frozen=True)
class TableCell:
    """One published number with the tolerance its reproduction is held to.

    check is a key of _CHECKS; any other value raises ValueError here.
    """

    entry_id: str
    n: int
    metric: str
    published: float
    check: str = "factor2"

    def __post_init__(self):
        if self.check not in _CHECKS:
            raise ValueError(f"unknown check kind {self.check!r}")


# Tables 1-3: interpolation benchmarks on [-1, 1].
TABLES: dict[int, tuple[TableCell, ...]] = {
    1: (
        TableCell("abs", 10, "squared_l2_error(lagrange)", 8.2e-2),
        TableCell("abs", 15, "squared_l2_error(lagrange)", 2.8e-2),
        TableCell("abs", 20, "squared_l2_error(lagrange)", 7.2e2),
    ),
    2: (
        TableCell("abs", 10, "squared_l2_error", 2.6e-3),
        TableCell("abs", 20, "squared_l2_error", 6.6e-4),
        TableCell("abs", 50, "squared_l2_error", 1.0e-4),
        TableCell("abs", 100, "squared_l2_error", 2.6e-5),
    ),
    3: (
        TableCell("sin2pix", 10, "squared_l2_error(Q)", 2.0e-3, "external"),
        TableCell("sin2pix", 50, "squared_l2_error(Q)", 9.8e-7, "external"),
        TableCell("sin2pix", 100, "squared_l2_error(Q)", 1.9e-8, "external"),
        TableCell("sin2pix", 10, "squared_l2_error(M)", 1.0e-3, "external"),
        TableCell("sin2pix", 50, "squared_l2_error(M)", 8.2e-11, "external"),
        TableCell("sin2pix", 100, "squared_l2_error(M)", 1.8e-13, "external"),
        TableCell("sin2pix", 10, "squared_l2_error", 4.0e-4, "order"),
        TableCell("sin2pix", 50, "squared_l2_error", 9.0e-9, "order"),
        TableCell("sin2pix", 100, "squared_l2_error", 1.0e-10, "order"),
    ),
    4: (
        TableCell("krasnov1", 5, "l2_norm_error", 6.4e-3),
        TableCell("krasnov1", 5, "max_error", 1.6e-3),
        TableCell("krasnov1", 10, "l2_norm_error", 5.1e-4),
        TableCell("krasnov1", 10, "max_error", 1.9e-5),
    ),
    5: (
        TableCell("krasnov2", 5, "eigenvalue", -3.21785, "sigfigs4"),
        TableCell("krasnov2", 5, "l2_norm_error", 2.5e-2),
        TableCell("krasnov2", 5, "max_error", 6.0e-2),
        TableCell("krasnov2", 9, "eigenvalue", -3.065060, "sigfigs4"),
        TableCell("krasnov2", 9, "l2_norm_error", 7.0e-3),
        TableCell("krasnov2", 9, "max_error", 1.6e-2),
        TableCell("krasnov2", 11, "eigenvalue", -3.04336, "sigfigs4"),
        TableCell("krasnov2", 11, "l2_norm_error", 4.6e-3),
        TableCell("krasnov2", 11, "max_error", 8.6e-3),
    ),
    6: (
        TableCell("krasnov3", 5, "l2_norm_error", 9.3e-4),
        TableCell("krasnov3", 5, "max_error", 6.1e-5),
        TableCell("krasnov3", 10, "l2_norm_error", 1.8e-4),
        TableCell("krasnov3", 10, "max_error", 5.1e-6),
    ),
    7: (
        TableCell("malek1", 5, "l2_norm_error", 4.8e-4),
        TableCell("malek1", 5, "max_error", 5.0e-5),
        TableCell("malek1", 10, "l2_norm_error", 1.3e-4),
        TableCell("malek1", 10, "max_error", 5.1e-6),
    ),
    8: (
        TableCell("krasnov4", 5, "l2_norm_error", 1.4e-9, "order_upper"),
        TableCell("krasnov4", 5, "max_error", 6.3e-9, "order_upper"),
        TableCell("krasnov4", 10, "l2_norm_error", 4.8e-8, "order_upper"),
        TableCell("krasnov4", 10, "max_error", 2.5e-7, "order_upper"),
    ),
}

# Comparison figures quoted alongside the tables (no table number): the
# least-squares fit reaches 1.49e-3 where the spline reaches the values
# below at n = 5 and 10.
WANG_PUBLISHED = {"lsq_bound": 1.49e-3, 5: 1.17e-3, 10: 1.79e-5}


def cell_passes(cell: TableCell, computed: Optional[float]) -> bool:
    if computed is None:
        return cell.check == "external"
    return _CHECKS[cell.check](computed, cell.published)


def compute_cell(cell: TableCell,
                 rule: Optional[QuadratureRule] = None,
                 solve: Optional[Callable[[str, int], SolveReport]] = None) -> Optional[float]:
    """Recompute the quantity a table cell publishes (None for external rows).

    solve(entry_id, n) defaults to solve_entry with this rule; a cached one
    lets cells sharing an equation solve share one report.
    """
    if cell.check == "external":
        return None
    if cell.metric == "squared_l2_error(lagrange)":
        return lagrange_error(cell.entry_id, cell.n)
    if cell.metric == "squared_l2_error":
        return interpolation_error(cell.entry_id, cell.n, rule=rule)
    if cell.metric not in ("eigenvalue", "l2_norm_error", "max_error"):
        raise ValueError(f"unknown metric {cell.metric!r}")
    report = (solve or functools.partial(solve_entry, rule=rule))(cell.entry_id, cell.n)
    return next((v for m, v in solve_metrics(report) if m == cell.metric), None)


# --------------------------------------------------------------------------
# registry self-check

# the largest residual a reference solution may leave in its own equation
_REFERENCE_TOL = 1e-8


def verify_reference_solutions() -> None:
    """Check every reference solution satisfies its own equation, to within
    _REFERENCE_TOL.

    Run before any table reproduction; a failure means the registry itself
    is wrong, not the solver. Each equation is checked at 9 equispaced
    points x, its integral taken over [a, b] (Fredholm) or [a, x]
    (Volterra) with 64 Gauss-Legendre panels of order 12, all 9 integrals
    of an entry in one kernel call. A NaN residual fails the check, and so
    does an entry with no reference.
    """
    rule = gauss_legendre(12)
    for pid, entry in PROBLEMS.items():
        if entry.reference is None:
            raise AssertionError(f"registry entry {pid!r}: no reference solution")
        a, b = entry.interval
        xs = np.linspace(a, b, 9)
        upper = xs if entry.causal else b
        s, half = panel_points(a, upper, 64, rule)
        ky = eval_many(entry.kernel, xs[:, None, None], s) * eval_many(entry.reference, s)
        integral = np.sum(half * (ky @ rule.weights), axis=-1)
        forcing = 0.0 if entry.forcing is None else eval_many(entry.forcing, xs)
        if entry.kind == "volterra1":
            residuals = integral - forcing
        else:
            lam = EXPECTED_EIGENVALUE[pid] if entry.kind == "fredholm_eigen" else entry.lam
            residuals = eval_many(entry.reference, xs) - lam * integral - forcing
        for x, r in zip(xs, residuals):
            if not abs(r) <= _REFERENCE_TOL:
                raise AssertionError(
                    f"registry entry {pid!r}: reference violates its "
                    f"equation at x={x} (residual {r:.3e})")
