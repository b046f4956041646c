"""Spline-collocation solvers for Fredholm and Volterra integral equations.

The unknown is replaced by the interpolating quadratic spline and the
equation is enforced at the grid nodes. All four solvers get their rows
from one integral operator, int_a^upper K(x, s) S(s) ds as a linear map of
the node samples; Fredholm rows integrate up to b, Volterra rows up to
their own point. Because every piece's quadratic coefficient is a linear
functional of ALL node samples (through the coefficient matrix), the
collocation systems are dense even for Volterra problems; they stay
small, so that costs nothing. `kernel_piece_weights` is the per-piece
form of the same integral, kept as the oracle the operator is tested
against.

Sign conventions of the built-in problems: Fredholm second kind is
y(x) - lam * int_a^b K(x,s) y(s) ds = f(x); Volterra second kind is
y(x) = f(x) + lam * int_a^x K(x,s) y(s) ds; Volterra first kind is
f(x) = int_0^x K(x,s) y(s) ds (no lam).

Reported error metrics follow the published benchmark tables these solvers
reproduce: `error_l2` is the L2 NORM of (spline - reference), i.e. the
square root of quadrature.l2_error, and `error_max` is the max deviation
at the collocation nodes (for eigenfunctions: over 2001 equispaced points,
after rescaling to match the reference at the first interior node).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import Grid, ScalarFunction, eval_many, make_grid, sample
from .linsolve import find_real_eigenvalues, solve_dense
from .quadrature import (QuadratureRule, gauss_legendre, integrate_panels, l2_error,
                         panel_points)
from .spline import CoeffMatrix, SplineModel, build_spline, coefficient_matrix

Kernel = Callable[[float, float], float]

KINDS = ("fredholm2", "fredholm_eigen", "volterra2", "volterra1")
_NEEDS_FORCING = {"fredholm2": True, "fredholm_eigen": False,
                  "volterra2": True, "volterra1": True}
_NEEDS_LAMBDA = {"fredholm2": True, "fredholm_eigen": False,
                 "volterra2": True, "volterra1": False}


class DegenerateProblemError(ArithmeticError):
    """The free parameter of a first-kind solve is not determined by the data."""


@dataclass(frozen=True)
class IntegralProblem:
    """One integral equation instance on [a, b] with n collocation pieces."""

    kind: str
    kernel: Kernel
    interval: tuple[float, float]
    n: int
    forcing: Optional[ScalarFunction] = None
    lam: Optional[float] = None
    reference: Optional[ScalarFunction] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        make_grid(*self.interval, self.n)
        if _NEEDS_FORCING[self.kind] != (self.forcing is not None):
            raise ValueError(f"kind {self.kind!r}: forcing "
                             f"{'required' if _NEEDS_FORCING[self.kind] else 'not allowed'}")
        if _NEEDS_LAMBDA[self.kind] != (self.lam is not None):
            raise ValueError(f"kind {self.kind!r}: lam "
                             f"{'required' if _NEEDS_LAMBDA[self.kind] else 'not allowed'}")
        if self.lam is not None and not math.isfinite(self.lam):
            raise ValueError(f"need a finite lam, got {self.lam!r}")
        if self.kind == "volterra1" and self.interval[0] != 0.0:
            raise ValueError("first-kind Volterra problems must start at x = 0")

    def grid(self) -> Grid:
        a, b = self.interval
        return make_grid(a, b, self.n)


@dataclass(frozen=True)
class SolveReport:
    """Solution samples, the reconstructed spline, and error metrics.

    error_l2/error_max are present iff the problem carries a reference
    solution (conventions in the module docstring). For eigenvalue problems
    `eigen` lists (value, sub-report) pairs sorted by value, and the
    top-level samples/spline mirror the first pair.
    """

    problem: IntegralProblem
    samples: Optional[np.ndarray] = field(default=None, repr=False)
    spline: Optional[SplineModel] = None
    error_l2: Optional[float] = None
    error_max: Optional[float] = None
    eigen: Optional[tuple[tuple[float, "SolveReport"], ...]] = None


def _kernel_values(kernel: Kernel, x, s) -> np.ndarray:
    """K on the broadcast of x and s: one vectorised call, else point by point.

    A vectorised result that broadcasts to the full shape (a constant kernel
    returning a scalar, say) is broadcast.
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    shape = np.broadcast_shapes(x.shape, s.shape)
    try:
        v = np.asarray(kernel(x, s), dtype=float)
        if np.broadcast_shapes(v.shape, shape) == shape:
            return np.broadcast_to(v, shape)
    except Exception:
        pass
    xs, ss = np.broadcast_arrays(x, s)
    return np.array([float(kernel(xi, si)) for xi, si in zip(xs.flat, ss.flat)]).reshape(shape)


def kernel_piece_weights(
    kernel: Kernel,
    x_eval: float,
    grid: Grid,
    k: int,
    coeffs: CoeffMatrix,
    rule: QuadratureRule,
    upper: Optional[float] = None,
) -> np.ndarray:
    """Node weights w with sum_i w_i y_i = int over piece k of K(x_eval, s) S(s) ds.

    Works for ANY sample vector y: the chord part of piece k contributes
    only to nodes k-1 and k, while the quadratic correction spreads across
    all nodes through row k of the coefficient matrix. `upper` truncates
    the integration to [x_{k-1}, upper]. The solvers use _integral_operator;
    this per-piece form is the oracle it is tested against, `upper` serving
    the truncated rows.
    """
    if not 1 <= k <= grid.n:
        raise ValueError(f"piece index {k} outside 1..{grid.n}")
    h = grid.h
    xk1 = grid.nodes[k - 1]
    xk = grid.nodes[k]
    hi = xk if upper is None else upper
    mid = 0.5 * (xk1 + hi)
    half = 0.5 * (hi - xk1)
    s = mid + half * rule.nodes
    kv = _kernel_values(kernel, x_eval, s)
    left = half * np.sum(rule.weights * kv * (s - xk1))
    right = half * np.sum(rule.weights * kv * (s - xk))
    quad = half * np.sum(rule.weights * kv * (s - xk1) * (s - xk))
    w = coeffs.entries[k - 1] * quad
    w[k] += left / h
    w[k - 1] -= right / h
    return w


def _integral_operator(kernel: Kernel, grid: Grid, rule: QuadratureRule,
                       xs: np.ndarray, upper) -> np.ndarray:
    """Matrix W with W[i] @ y = int_a^{upper_i} K(xs_i, s) S(s) ds.

    S is the spline through any samples y. Every piece is integrated with
    `rule` over [x_{k-1}, clip(upper_i, x_{k-1}, x_k)], so pieces beyond
    upper_i have zero width. The kernel is evaluated once per quadrature
    node, on the len(xs) x n grid of (row, piece) pairs, and the moments
    are accumulated as in kernel_piece_weights.
    """
    xs = np.asarray(xs, dtype=float)[:, None]
    upper = np.broadcast_to(np.reshape(upper, (-1, 1)), xs.shape)
    h = grid.h
    starts = grid.nodes[:-1]
    half = 0.5 * (np.clip(upper, starts, grid.nodes[1:]) - starts)
    left = np.zeros_like(half)
    right = np.zeros_like(half)
    quad = np.zeros_like(half)
    for t, weight in zip(rule.nodes, rule.weights):
        dl = half * (1.0 + t)  # s - x_{k-1}
        kw = weight * half * _kernel_values(kernel, xs, starts + dl)
        left += kw * dl
        right += kw * (dl - h)
        quad += kw * dl * (dl - h)
    W = quad @ coefficient_matrix(grid.n, h).entries
    W[:, 1:] += left / h
    W[:, :-1] -= right / h
    return W


def assemble_fredholm(
    problem: IntegralProblem, rule: Optional[QuadratureRule] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Collocation system for a Fredholm problem.

    Second kind: returns (I - lam*alpha, f at nodes). Eigenvalue case:
    returns (alpha, zeros); the characteristic values are the roots of
    det(I - lam*alpha).
    """
    if problem.kind not in ("fredholm2", "fredholm_eigen"):
        raise ValueError(f"not a Fredholm problem: {problem.kind!r}")
    rule = rule or gauss_legendre(8)
    grid = problem.grid()
    alpha = _integral_operator(problem.kernel, grid, rule, grid.nodes, grid.b)
    if problem.kind == "fredholm_eigen":
        return alpha, np.zeros(grid.n + 1)
    return np.eye(grid.n + 1) - problem.lam * alpha, sample(problem.forcing, grid)


def _metrics(problem: IntegralProblem, spline: SplineModel,
             samples: np.ndarray, grid: Grid) -> tuple[Optional[float], Optional[float]]:
    if problem.reference is None:
        return None, None
    a, b = problem.interval
    e2 = l2_error(spline, problem.reference, a, b, grid.n, gauss_legendre(8))
    nodal = float(np.max(np.abs(samples - eval_many(problem.reference, grid.nodes))))
    return math.sqrt(max(e2, 0.0)), nodal


def solve_fredholm(
    problem: IntegralProblem, rule: Optional[QuadratureRule] = None
) -> SolveReport:
    """Solve a second-kind Fredholm problem; singular system means lam sits
    at or near a characteristic value."""
    if problem.kind != "fredholm2":
        raise ValueError(f"expected kind 'fredholm2', got {problem.kind!r}")
    A, rhs = assemble_fredholm(problem, rule)
    y = solve_dense(A, rhs)
    grid = problem.grid()
    model = build_spline(grid, y)
    e2, emax = _metrics(problem, model, y, grid)
    return SolveReport(problem, model.samples, model, e2, emax)


def _rescale_to_reference(problem: IntegralProblem, grid: Grid,
                          vector: np.ndarray) -> np.ndarray:
    """Scale an eigenvector to the reference eigenfunction's normalization.

    The published benchmarks fix the scale by matching the value at the
    first interior node (the textbook move of pinning one unknown when
    solving the homogeneous system); fall back to a least-squares fit when
    that component is degenerate.
    """
    ref1 = float(problem.reference(grid.nodes[1]))
    v1 = vector[1]
    if abs(v1) > 1e-8 * np.max(np.abs(vector)) and ref1 != 0.0:
        return vector * (ref1 / v1)
    model = build_spline(grid, vector)
    a, b = problem.interval
    rule = gauss_legendre(8)
    num = integrate_panels(lambda x: model(x) * eval_many(problem.reference, np.atleast_1d(x)),
                           a, b, grid.n, rule)
    den = integrate_panels(lambda x: model(x) ** 2, a, b, grid.n, rule)
    return vector * (num / den)


def solve_fredholm_eigen(
    problem: IntegralProblem,
    lo: float,
    hi: float,
    rule: Optional[QuadratureRule] = None,
) -> SolveReport:
    """Characteristic values of the homogeneous problem in [lo, hi].

    Each root of det(I - lam*alpha) yields an eigenfunction spline; when a
    reference eigenfunction is known the errors are computed after
    rescaling (see _rescale_to_reference), with error_max taken over 2001
    equispaced points.
    """
    if problem.kind != "fredholm_eigen":
        raise ValueError(f"expected kind 'fredholm_eigen', got {problem.kind!r}")
    alpha, _ = assemble_fredholm(problem, rule)
    grid = problem.grid()
    a, b = problem.interval
    pairs = []
    for res in find_real_eigenvalues(alpha, lo, hi):
        vec = res.vector
        if problem.reference is not None:
            vec = _rescale_to_reference(problem, grid, vec)
        model = build_spline(grid, vec)
        e2 = emax = None
        if problem.reference is not None:
            e2 = math.sqrt(max(l2_error(model, problem.reference, a, b,
                                        grid.n, gauss_legendre(8)), 0.0))
            xs = np.linspace(a, b, 2001)
            emax = float(np.max(np.abs(model(xs) - eval_many(problem.reference, xs))))
        pairs.append((res.value,
                      SolveReport(problem, model.samples, model, e2, emax)))
    if not pairs:
        return SolveReport(problem, eigen=())
    first = pairs[0][1]
    return SolveReport(problem, first.samples, first.spline, first.error_l2,
                       first.error_max, tuple(pairs))


def solve_volterra2(
    problem: IntegralProblem, rule: Optional[QuadratureRule] = None
) -> SolveReport:
    """Solve a second-kind Volterra problem.

    Row 0 pins y_0 = f_0; row j collocates with the kernel integrated over
    pieces 1..j only. The system is still dense (the spline couples all
    nodes), so it is solved as one (n+1) x (n+1) solve.
    """
    if problem.kind != "volterra2":
        raise ValueError(f"expected kind 'volterra2', got {problem.kind!r}")
    rule = rule or gauss_legendre(8)
    grid = problem.grid()
    A = np.eye(grid.n + 1) - problem.lam * _integral_operator(
        problem.kernel, grid, rule, grid.nodes, grid.nodes)
    y = solve_dense(A, sample(problem.forcing, grid))
    model = build_spline(grid, y)
    e2, emax = _metrics(problem, model, y, grid)
    return SolveReport(problem, model.samples, model, e2, emax)


def solve_volterra1(
    problem: IntegralProblem, rule: Optional[QuadratureRule] = None
) -> SolveReport:
    """Solve a first-kind Volterra problem by collocation plus a variational
    closure for the undetermined left-endpoint value.

    Collocating at x_1..x_n gives n equations in n+1 unknowns; the solution
    is affine in y_0, obtained from two solves of the trailing n x n
    subsystem. y_0 is then chosen to minimize the integral of the squared
    equation defect over the last piece, a quadratic with a closed-form
    minimizer. Raises DegenerateProblemError when the defect does not
    depend on y_0 (e.g. a kernel that annihilates the first piece).
    """
    if problem.kind != "volterra1":
        raise ValueError(f"expected kind 'volterra1', got {problem.kind!r}")
    rule = rule or gauss_legendre(8)
    grid = problem.grid()
    nodes = grid.nodes[1:]
    B = _integral_operator(problem.kernel, grid, rule, nodes, nodes)
    u = np.concatenate(([0.0], solve_dense(B[:, 1:], eval_many(problem.forcing, nodes))))
    w = np.concatenate(([1.0], solve_dense(B[:, 1:], -B[:, 0])))

    # the defect int_0^x K(x, s) S(s) ds - f(x) over the last piece, at the
    # points of a 4-panel composite rule
    pts, half = panel_points(grid.nodes[-2], grid.b, 4, rule)
    pts = pts.ravel()
    R = _integral_operator(problem.kernel, grid, rule, pts, pts)
    defect_u = R @ u - eval_many(problem.forcing, pts)
    defect_w = R @ w
    weights = np.outer(half, rule.weights).ravel()
    num = float(weights @ (defect_u * defect_w))
    den = float(weights @ defect_w**2)
    if den < 1e-14:
        raise DegenerateProblemError(
            f"defect is insensitive to the endpoint value (integral {den!r})")
    y0 = -num / den
    y = u + y0 * w
    model = build_spline(grid, y)
    e2, emax = _metrics(problem, model, y, grid)
    return SolveReport(problem, model.samples, model, e2, emax)
