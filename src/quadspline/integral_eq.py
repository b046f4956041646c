"""Spline-collocation solvers for Fredholm and Volterra integral equations.

The unknown is replaced by the interpolating quadratic spline and the
equation is enforced at the grid nodes. One entry point, solve(problem, n),
takes every kind, and every kind gets its rows from one integral operator,
int_a^upper K(x, s) S(s) ds as a linear map of the node samples; Fredholm
rows integrate up to b, Volterra rows up to their own point. Because every
piece's quadratic coefficient is a linear functional of ALL node samples
(the closed form of spline.py applied to the columns of the identity), the
collocation systems are dense even for Volterra problems; they stay small,
so that costs nothing. The operator applies that closed form transposed to
its quadratic rows, so the coefficient matrix itself is never built. The
per-piece form of the same integral, which the operator is tested against,
lives in tests/oracles.py.

Kernels, forcings and references are called through core.eval_many: the
kernel once per block of operator rows, on x as a (rows, 1) column and s
as the (q, rows, n) stack of every row's own quadrature nodes, and only
at a <= s <= the row's limit (s = x included, so a kernel infinite on
the diagonal is not supported); a broadcastable result such as a
constant is accepted, and a kernel is called per point only when the
array call raises TypeError or ValueError. When every row shares one
limit (fredholm2, fredholm_eigen), s is a read-only broadcast of one
(q, 1, n) stack, and no kernel may write into its arguments.

Sign conventions of the built-in problems: Fredholm second kind is
y(x) - lam * int_a^b K(x,s) y(s) ds = f(x); Volterra second kind is
y(x) = f(x) + lam * int_a^x K(x,s) y(s) ds; Volterra first kind is
f(x) = int_a^x K(x,s) y(s) ds (no lam). IntegralProblem.causal is true
for the Volterra kinds, whose integrals end at x.

Every kind reports through _report, whose error metrics follow the
published tables: `error_l2` is the L2 NORM of (spline - reference), the
square root of quadrature.l2_error with the 8-point rule, and `error_max`
the max deviation at the nodes. _report also applies both conventions of
the eigenvalue table: an eigenfunction is first rescaled to match the
reference at the first interior node, and its `error_max` is the max over
2001 equispaced points (quadrature.max_error), not at the nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import (Grid, InvalidDomainError, ScalarFunction, array_callable, eval_many,
                   make_grid, sample)
from .linsolve import find_real_eigenvalues, solve_dense
from .quadrature import (QuadratureRule, gauss_legendre, integrate_panels, l2_error,
                         max_error, panel_points)
from .spline import SplineModel, _closed_form_adjoint, build_spline

Kernel = Callable[[float, float], float]

# Doubles in each of _integral_operator's (q, rows, n) buffers, the nodes s and
# the kernel values, about 2 MB; rows are taken in blocks of that size, so
# large n needs no more.
_OPERATOR_BLOCK = 1 << 18

# kind: whether it takes (forcing, lam, bracket)
_FIELDS = {"fredholm2": (True, True, False), "fredholm_eigen": (False, False, True),
           "volterra2": (True, True, False), "volterra1": (True, False, False)}


class DegenerateProblemError(ArithmeticError):
    """The free parameter of a first-kind solve is not determined by the data."""


@dataclass(frozen=True)
class IntegralProblem:
    """One integral equation on [a, b]; solve(problem, n) discretizes it at n pieces.

    bracket = (lo, hi), lo < hi, is the search interval of a fredholm_eigen
    problem's characteristic values; the other kinds take none. Every field
    check raises InvalidDomainError. Every kind integrates from a, and the
    causal (Volterra) kinds up to x: volterra1 is f(x) = int_a^x K y.
    """

    kind: str
    kernel: Kernel
    interval: tuple[float, float]
    forcing: Optional[ScalarFunction] = None
    lam: Optional[float] = None
    reference: Optional[ScalarFunction] = None
    bracket: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.kind not in _FIELDS:
            raise InvalidDomainError(f"unknown problem kind {self.kind!r}")
        make_grid(*self.interval, 2)  # refuses an interval no n can split
        for name, needed in zip(("forcing", "lam", "bracket"), _FIELDS[self.kind]):
            if needed != (getattr(self, name) is not None):
                raise InvalidDomainError(f"kind {self.kind!r}: {name} "
                                         f"{'required' if needed else 'not allowed'}")
        if self.bracket is not None and not (np.shape(self.bracket) == (2,)
                                             and self.bracket[0] < self.bracket[1]):
            raise InvalidDomainError(f"bracket must be (lo, hi) with lo < hi, "
                                     f"got {self.bracket!r}")
        if self.lam is not None and not math.isfinite(self.lam):
            raise InvalidDomainError(f"need a finite lam, got {self.lam!r}")

    @property
    def causal(self) -> bool:
        """Whether the integral at x ends at x (Volterra kinds), not at b."""
        return self.kind in ("volterra2", "volterra1")


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


def _integral_operator(kernel: Kernel, grid: Grid, rule: QuadratureRule,
                       xs: np.ndarray, upper) -> np.ndarray:
    """Matrix W with W[i] @ y = int_a^{upper_i} K(xs_i, s) S(s) ds.

    S is the spline through any samples y. `upper` is one limit per row,
    or a scalar limit that every row shares. Every piece is integrated with
    `rule` (nodes t, weights w) over [x_{k-1}, clip(upper_i, x_{k-1}, x_k)],
    whose half-width `half` is 0 for a piece beyond upper_i (empty), h/2
    for a piece that ends by upper_i (full), and between for the one piece
    that upper_i cuts. Each row has its own nodes, s = half (1 + t) +
    min(x_{k-1}, upper_i): one (q, 2) x (2, rows n) product of the rule's
    columns 1 + t, 1 with the rows' half-widths and starts. So the kernel
    is called once per block of rows, on a (rows, 1) column of x and the
    (q, rows, n) stack of s, and only at a <= s <= upper_i (an empty
    piece's nodes all sit at upper_i). A shared limit gives every row the
    same nodes: its (q, 1, n) stack is built once, and the kernel gets a
    read-only broadcast of it (row stride 0); per-row limits are built per
    block. The kernel must not write into its arguments.

    One (3, q) x (q, rows n) product of the kernel values with the folded
    weights w (1 - t) h/4, w (1 + t) h/4 and w (t^2 - 1) h^3/8 gives every
    piece's left-node row L, right-node row R and quadratic row Q, which
    are exact for a full piece of width h. A piece that is not full is
    corrected in place with rho = 2 half/h: L <- rho L + (rho - rho^2) R,
    R <- rho^2 R, Q <- rho^3 Q + (rho^3 - rho^2) h^2 R. (On the part,
    s - x_{k-1} = rho h (1 + t)/2; writing the true rows' factors
    (x_k - s)/h, (s - x_{k-1})/h and (s - x_{k-1})(s - x_k) in 1 - t, 1 + t
    and t^2 - 1 gives those lines.) rho = 0 zeroes an empty piece, and the
    cut piece, at most one per row, gets its exact rows. A row's full
    pieces are those that end at or before its limit, found by a binary
    search, not by rho < 1, which rounding makes true on some full pieces;
    so a shared limit at or beyond b (fredholm2, fredholm_eigen) corrects
    nothing, and takes no search.

    L and R go to the piece's two end nodes; Q goes to every node through
    the transposed closed form of the coefficients
    (spline._closed_form_adjoint), written straight into W's rows, so no
    coefficient matrix is built. The node stack, the rows and W are buffers
    made once per call, written in one order of operations, so W is the
    same to the bit whether a shared limit is given as a scalar or per row,
    and however the rows are blocked.
    """
    xs = np.asarray(xs, dtype=float)[:, None]
    upper = np.reshape(np.asarray(upper, dtype=float), (-1, 1))
    n, h, q = grid.n, grid.h, rule.order
    starts, ends = grid.nodes[:-1], grid.nodes[1:]
    weights = rule._piece_rows * np.array([[h / 4], [h / 4], [h**3 / 8]])
    rows = max(1, _OPERATOR_BLOCK // (q * n))
    # each block takes the leading part of every buffer; the limits' own
    # buffers have one row when the limit is shared
    per_row = len(upper) > 1
    limit_rows = min(rows, len(upper))
    hs_buf = np.empty((2, limit_rows * n))
    s_buf = np.empty(q * limit_rows * n)
    m_buf = np.empty(3 * rows * n)
    # a shared limit at or beyond b leaves every piece full
    partial = per_row or upper[0, 0] < grid.b
    W = np.empty((len(xs), n + 1))
    for lo in range(0, len(xs), rows):
        x = xs[lo:lo + rows]
        m = len(x)
        if lo == 0 or per_row:  # a shared limit's nodes are built once
            u = upper[lo:lo + rows]
            size = len(u) * n
            hs = hs_buf[:, :size]
            half, start = hs.reshape(2, -1, n)
            np.maximum(u, starts, out=half)
            np.minimum(half, ends, out=half)
            half -= starts
            half *= 0.5
            np.minimum(starts, u, out=start)
            s = np.matmul(rule._node_map, hs,
                          out=s_buf[:q * size].reshape(q, -1)).reshape(q, -1, n)
            if not per_row:
                s = np.broadcast_to(s, (q, min(rows, len(xs)), n))
            if partial:
                # a row's pieces that end by its limit are full; the next
                # one is cut when it starts below the limit (rho = 2 half/h
                # of it), and every piece of half-width 0 is empty
                ul = u[:, 0]
                full = ends.searchsorted(ul, side="right")
                cut = np.flatnonzero(starts.searchsorted(ul) > full)
                piece = full[cut]
                rho = half[cut, piece] / (0.5 * h)
                empty = half == 0.0
        K = eval_many(kernel, x, s[:, :m])
        # each piece's left-node, right-node and quadratic rows, as if full
        lrq = np.matmul(weights, K.reshape(q, -1),
                        out=m_buf[:3 * m * n].reshape(3, -1)).reshape(3, m, n)
        if partial:
            np.copyto(lrq, 0.0, where=empty)
            if rho.size:
                # rows rho L + (rho - rho^2) R, rho^2 R, rho^3 Q + (rho^3 - rho^2) h^2 R
                at = cut * n + piece if per_row else np.arange(piece[0], m * n, n)
                planes = lrq.reshape(3, -1)
                cut_rows = planes.take(at, axis=1)
                powers = np.multiply.accumulate(rho[None].repeat(3, axis=0))
                coupled = (powers - powers[1]) * cut_rows[1]
                coupled[2] *= h * h
                cut_rows *= powers
                cut_rows += coupled
                planes[:, at] = cut_rows
        left, right, quad = lrq
        Wb = W[lo:lo + m]
        _closed_form_adjoint(quad, h, out=Wb)
        Wb[:, 1:] += right
        Wb[:, :-1] += left
    return W


def _report(problem: IntegralProblem, grid: Grid, y: np.ndarray) -> SolveReport:
    """The spline through the solved samples y, with its errors against the
    reference when there is one (conventions in the module docstring)."""
    ref = problem.reference
    eigen = problem.kind == "fredholm_eigen" and ref is not None
    model = build_spline(grid, _rescale_to_reference(problem, grid, y) if eigen else y)
    if ref is None:
        return SolveReport(problem, model.samples, model)
    e2 = l2_error(model, ref, grid.a, grid.b, grid.n, gauss_legendre(8))
    if eigen:
        e_max = max_error(model, ref, grid.a, grid.b)
    else:
        e_max = float(np.max(np.abs(model.samples - eval_many(ref, grid.nodes))))
    return SolveReport(problem, model.samples, model, math.sqrt(max(e2, 0.0)), e_max)


def _rescale_to_reference(problem: IntegralProblem, grid: Grid,
                          vector: np.ndarray) -> np.ndarray:
    """Scale an eigenvector to the reference eigenfunction's normalization.

    The published benchmarks fix the scale by matching the value at the
    first interior node (the textbook move of pinning one unknown when
    solving the homogeneous system); fall back to a least-squares fit when
    that component is degenerate.
    """
    ref1 = float(eval_many(problem.reference, grid.nodes[1]))
    v1 = vector[1]
    if abs(v1) > 1e-8 * np.max(np.abs(vector)) and ref1 != 0.0:
        return vector * (ref1 / v1)
    model = build_spline(grid, vector)
    rule = gauss_legendre(8)
    num = integrate_panels(array_callable(lambda x: model(x) * eval_many(problem.reference, x)),
                           grid.a, grid.b, grid.n, rule)
    den = integrate_panels(array_callable(lambda x: model(x) ** 2), grid.a, grid.b, grid.n, rule)
    return vector * (num / den)


def _eigen(problem: IntegralProblem, grid: Grid, alpha: np.ndarray) -> SolveReport:
    """Characteristic values of the homogeneous problem in its bracket.

    Each root of det(I - lam*alpha) yields an eigenfunction spline, reported
    by _report (which rescales it when a reference eigenfunction is known).
    """
    pairs = tuple((res.value, _report(problem, grid, res.vector))
                  for res in find_real_eigenvalues(alpha, *problem.bracket))
    return replace(pairs[0][1], eigen=pairs) if pairs else SolveReport(problem, eigen=())


def solve(problem: IntegralProblem, n: int,
          rule: Optional[QuadratureRule] = None) -> SolveReport:
    """Solve a problem of any kind by collocation at the n + 1 nodes of
    make_grid(*problem.interval, n), which refuses a bad n.

    The second kinds are (I - lam W) y = f, with W the integral operator at
    the nodes: its rows integrate up to b, or up to their own node when the
    problem is causal (volterra2's row 0 is then y_0 = f_0). The system is
    dense either way (the spline couples all nodes), so it is one
    (n+1) x (n+1) solve. fredholm_eigen finds the roots of det(I - lam W)
    in the problem's bracket (see _eigen), and volterra1 collocates W's
    rows 1..n with a closure for its free endpoint value (see _volterra1).
    `rule` integrates every piece (default: 8-point Gauss-Legendre).
    """
    rule = rule or gauss_legendre(8)
    grid = make_grid(*problem.interval, n)
    W = _integral_operator(problem.kernel, grid, rule, grid.nodes,
                           grid.nodes if problem.causal else grid.b)
    if problem.kind == "volterra1":
        return _volterra1(problem, grid, rule, W[1:])
    if problem.kind == "fredholm_eigen":
        return _eigen(problem, grid, W)
    A = np.eye(grid.n + 1) - problem.lam * W
    return _report(problem, grid, solve_dense(A, sample(problem.forcing, grid)))


def _volterra1(problem: IntegralProblem, grid: Grid, rule: QuadratureRule,
               B: np.ndarray) -> SolveReport:
    """Solve a first-kind Volterra problem by collocation plus a variational
    closure for the undetermined left-endpoint value.

    Collocating at x_1..x_n, whose operator rows B integrate up to their
    own node, gives n equations in n+1 unknowns; the solution
    is affine in y_0, obtained from one two-column solve of the trailing
    n x n subsystem. y_0 is then chosen to minimize the integral of the
    squared equation defect over the last piece, a quadratic with a
    closed-form minimizer. Raises DegenerateProblemError when the defect
    does not depend on y_0 (e.g. a kernel that annihilates the first
    piece).

    Usable only for small n: C1 quadratic spline collocation of first-kind
    Volterra equations is unstable (Brunner, Collocation Methods for
    Volterra Integral and Related Functional Equations, CUP 2004, ch. 2).
    On krasnov4 (y = 3, inside the spline space) 1/cond_inf of the
    trailing system is 2.2e-13 at n = 21 and 8.1e-14 at n = 22, so
    solve_dense accepts n <= 21 at RCOND_MIN = 1e-13 and raises
    SingularMatrixError beyond; the L2 error grows about 2.3x per unit of
    n, from 3.3e-13 at n = 5 to 2.4e-7 at n = 21.
    """
    f = eval_many(problem.forcing, grid.nodes[1:])
    u, w = solve_dense(B[:, 1:], np.column_stack((f, -B[:, 0]))).T
    u = np.concatenate(([0.0], u))
    w = np.concatenate(([1.0], w))

    # the defect int_a^x K(x, s) S(s) ds - f(x) over the last piece, at the
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
    return _report(problem, grid, u + y0 * w)
