"""Spline-collocation solvers for Fredholm and Volterra integral equations.

The unknown is replaced by the interpolating quadratic spline and the
equation is enforced at the grid nodes. One entry point, solve(problem, n),
takes every kind, and every kind gets its rows from one integral operator,
K(x, s) S(s) integrated over the first r whole pieces as a linear map of
the node samples; a Fredholm row reaches all n pieces, and a Volterra row
at x_i the i pieces up to its own node. Because every
piece's quadratic coefficient is a linear functional of ALL node samples
(the closed form of spline.py applied to the columns of the identity), the
collocation systems are dense even for Volterra problems; they stay small,
so that costs nothing. The operator applies that closed form transposed to
its quadratic rows, so the coefficient matrix itself is never built. The
per-piece form of the same integral, which the operator is tested against,
lives in tests/oracles.py.

Kernels, forcings and references are called through core.eval_many: the
kernel once per block of operator rows, on x as a (rows, 1) column and s
as the (q, rows, p) stack of the quadrature nodes of the p <= n pieces
that the block's rows reach. It is one stack of every piece's nodes,
built once per call, with the nodes of the pieces beyond a row's reach
set to its limit, the node that ends its last piece, so the kernel is
called only at a <= s <= that limit (s = x included, so a kernel
infinite on the diagonal is not supported); blocks are sized by rows x
reach, so a Volterra row is not evaluated on the pieces beyond its own
point. A broadcastable result such as a constant is accepted, and a
kernel is called per point only when the array call raises TypeError or
ValueError. When every row reaches the same r >= 2 pieces (all n for
fredholm2 and fredholm_eigen, n - 1 for the Volterra-1 closure's rows), no
node is set and s is a read-only broadcast of the one stack's first r
pieces, and no kernel may write into its arguments.

Sign conventions of the built-in problems: Fredholm second kind is
y(x) - lam * int_a^b K(x,s) y(s) ds = f(x); Volterra second kind is
y(x) = f(x) + lam * int_a^x K(x,s) y(s) ds; Volterra first kind is
f(x) = int_a^x K(x,s) y(s) ds (no lam). IntegralProblem.causal is true
for the Volterra kinds, whose integrals end at x.

Every kind reports through _report, whose error metrics follow the
published tables: `error_l2` is the L2 NORM of (spline - reference), the
square root of the integral quadrature.l2_error gives, with the 8-point
rule (taken through quadrature._integral, the deviation scaled by a power
of two), and `error_max` the max deviation at the nodes. _report also
applies both conventions of the eigenvalue table: an eigenfunction is
first rescaled to match the reference at the first interior node, and its
`error_max` is the max over 2001 equispaced points (quadrature.max_error),
not at the nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import (Grid, InvalidDomainError, ScalarFunction, checked_samples, eval_many,
                   make_grid, sample)
from .linsolve import (SingularMatrixError, _finite_solution, find_real_eigenvalues,
                       solve_dense)
from .quadrature import (QuadratureRule, _integral, gauss_legendre, integrate_panels,
                         max_error, panel_points)
from .spline import SplineModel, _closed_form_adjoint, build_spline

Kernel = Callable[[float, float], float]

# Doubles in each of _integral_operator's (q, rows, p) buffers, the nodes s and
# the kernel values, 512 KB at most; rows are taken in blocks of that size, so
# large n needs no more. Operator medians (one BLAS thread, 2-vCPU VM) at
# 2^16, 2^17 and 2^18: krasnov3 2.1, 4.8 and 6.9 ms at n = 200, and 54, 54
# and 62 ms at n = 1280; krasnov1 2.5, 2.6 and 5.2 ms, and 71, 74 and 75 ms.
# 2^15 was 14-23 % slower than 2^16 at n = 64, whose rows it splits in two.
_OPERATOR_BLOCK = 1 << 16

# kind: whether it takes (forcing, lam, bracket)
_FIELDS = {"fredholm2": (True, True, False), "fredholm_eigen": (False, False, True),
           "volterra2": (True, True, False), "volterra1": (True, False, False)}


@dataclass(frozen=True)
class IntegralProblem:
    """One integral equation on [a, b]; solve(problem, n) discretizes it at n pieces.

    bracket = (lo, hi), finite lo < hi, is the search interval of a fredholm_eigen
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
        for name, end in zip(("lo", "hi"), () if self.bracket is None else self.bracket):
            if not math.isfinite(end):
                raise InvalidDomainError(f"bracket end {name} = {end!r} is not finite")
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


@np.errstate(over="ignore", invalid="ignore")
def _integral_operator(kernel: Kernel, grid: Grid, rule: QuadratureRule,
                       xs: np.ndarray, reach) -> np.ndarray:
    """Matrix W with W[i] @ y = int_a^{x_{reach_i}} K(xs_i, s) S(s) ds.

    S is the spline through any samples y. `reach` is the number of whole
    pieces each row integrates, one integer per row or one that every row
    shares, in 0..n; a float raises TypeError, so that a limit is never
    truncated to a count, and a count outside 0..n ValueError, before the
    kernel is called. Row i reaches its first reach_i pieces, and the
    pieces beyond hold nothing.
    Rows go in blocks sized by rows x reach: a block works on the first p
    pieces of its rows, p their widest reach (at least 2: a product with
    one column goes to BLAS's matrix-vector routine, which rounds
    differently), and grows row by row while q x rows x p stays within
    _OPERATOR_BLOCK. So causal rows, whose reach grows with the row, go in
    blocks of many short rows and then of fewer long ones, and a shared
    count r >= 2 in blocks of equal rows of r pieces, planned from the
    integers alone: max(1, _OPERATOR_BLOCK // q // r) rows a block, the
    blocks the row-by-row planner makes for them.

    Every piece k is integrated with `rule` (nodes t, weights w) at the
    nodes (x_k - x_{k-1})/2 (1 + t) + x_{k-1}: the outer product of 1 + t
    with the pieces' half-widths, plus their starts, each product rounded
    before its sum whatever the BLAS, gives the (q, 1, n) stack of every
    piece's nodes, once per call. Row i takes that stack with every node of
    a piece beyond its reach (empty) set to its limit x_{reach_i}, and a
    piece it reaches (full) keeps its nodes, none of which lies beyond
    x_k <= x_{reach_i}. So the kernel is called once per block, on a
    (rows, 1) column of x and the (q, rows, p) stack of s, and only at
    a <= s <= x_{reach_i}. A shared count r >= 2, such as the n of
    Fredholm rows or the n - 1 of the Volterra-1 closure's, leaves no piece
    of its blocks empty and sets nothing: the kernel gets a read-only
    broadcast of the stack's first r pieces (row stride 0). Per-row counts,
    and a shared count of 1, whose blocks take 2 pieces, are copied per
    block into a buffer, where the empty pieces' nodes are set. The kernel
    must not write into its arguments.

    One (3, q) x (q, rows p) product of the kernel values with the weights
    w (1 - t) h/4, w (1 + t) h/4 and w (t^2 - 1) h/8, h times the rule's
    rows, gives every piece's left-node row L, right-node row R and
    quadratic row Q; an empty piece's rows are zeroed. L and R are exact
    for a full piece of width h, and go to the piece's two end nodes,
    columns 0..p of W's rows. The quadratic moment is w (t^2 - 1) h^3/8 and
    the coefficients of a grid of width h are those of a unit grid over
    h^2, so Q, zero-extended to all n pieces, goes to every node through
    the transposed closed form of a unit grid's coefficients
    (spline._closed_form_adjoint), written straight into W's rows: no
    coefficient matrix is built, and no power of h is formed that could
    overflow or underflow before W's entries do. The node stack, the rows
    and W are buffers made once per call, written in one order of
    operations, so W is the same to the bit whether a shared count is
    given once or per row, and however the rows are blocked. The kernel and
    this arithmetic run with numpy's overflow and invalid warnings off: a W
    that is not finite is returned as it is, for solve to refuse.
    """
    reach = np.asarray(reach)
    if reach.dtype.kind not in "iu":
        raise TypeError(f"reach must be integer piece counts, got {reach.dtype}")
    n, h, q = grid.n, grid.h, rule.order
    if reach.size and not (reach.min() >= 0 and reach.max() <= n):
        outside = np.flatnonzero((reach < 0) | (reach > n))
        raise ValueError(f"reach must count pieces in 0..{n}, got {reach.flat[outside[0]]}")
    xs = np.asarray(xs, dtype=float)[:, None]
    nodes = grid.nodes
    starts = nodes[:-1]
    halves = 0.5 * (nodes[1:] - starts)
    weights = h * rule._piece_rows
    # a block grows while q x rows x p stays within _OPERATOR_BLOCK, p its
    # rows' widest reach but at least 2 (n >= 2): a product with one column
    # would go to BLAS's matrix-vector routine, which rounds differently
    per_row = reach.ndim > 0 or reach < 2
    if per_row:
        reach = np.broadcast_to(reach, len(xs))
        widest = np.maximum(reach, 2)
        # rows per block for the planner, piece numbers for the empty mask
        count = np.arange(1, max(len(xs), n) + 1)
        blocks = []
        lo = max_rows = max_size = 0
        while lo < len(xs):
            p = np.maximum.accumulate(widest[lo:])
            rows = max(1, int((p * count[:len(p)]).searchsorted(_OPERATOR_BLOCK // q, "right")))
            p = int(p[rows - 1])
            blocks.append((lo, lo + rows, p))
            max_rows, max_size = max(max_rows, rows), max(max_size, rows * p)
            lo += rows
    else:  # every block of equal rows of the same p pieces, as the planner makes them
        p = int(reach)
        rows = max(1, _OPERATOR_BLOCK // q // p)
        blocks = [(lo, min(lo + rows, len(xs)), p) for lo in range(0, len(xs), rows)]
        max_rows = min(rows, len(xs))
        max_size = max_rows * p
    # each block takes the leading part of every buffer; one node stack, of
    # every piece, serves all rows
    s_buf = np.empty(q * max_size if per_row else 0)
    m_buf = np.empty(3 * max_size)
    quad_buf = np.empty(max_rows * n)
    W = np.empty((len(xs), n + 1))
    shared = (np.multiply.outer(1.0 + rule.nodes, halves) + starts).reshape(q, 1, n)
    if not per_row:
        s = np.broadcast_to(shared[:, :, :p], (q, max_rows, p))
    for lo, hi, p in blocks:
        x = xs[lo:hi]
        m = len(x)
        if per_row:  # the pieces beyond a row's reach are empty
            r = reach[lo:hi, None]
            empty = count[:p] > r
            s = s_buf[:q * m * p].reshape(q, m, p)
            np.copyto(s, shared[:, :, :p])
            np.copyto(s, nodes[r], where=empty)
        K = eval_many(kernel, x, s[:, :m])
        # each piece's left-node, right-node and quadratic rows
        lrq = np.matmul(weights, K.reshape(q, -1),
                        out=m_buf[:3 * m * p].reshape(3, -1)).reshape(3, m, p)
        if per_row:  # a shared count of 2 or more leaves no piece empty
            np.copyto(lrq, 0.0, where=empty)
        left, right, quad = lrq[0], lrq[1], lrq[2]
        if p < n:  # the pieces beyond every row's reach hold nothing
            ext = quad_buf[:m * n].reshape(m, n)
            ext[:, :p] = quad
            ext[:, p:] = 0.0
            quad = ext
        Wb = W[lo:hi]
        _closed_form_adjoint(quad, out=Wb)
        Wb[:, 1:p + 1] += right
        Wb[:, :p] += left
    return W


def _report(problem: IntegralProblem, grid: Grid, y: np.ndarray) -> SolveReport:
    """The spline through the solved samples y, with its errors against the
    reference when there is one (conventions in the module docstring).

    A deviation that is NaN or not finite in doubles, or an L2 norm beyond
    the largest double, raises InvalidDomainError naming the interval.
    """
    ref = problem.reference
    if ref is None:
        model = build_spline(grid, y)
        return SolveReport(problem, model.samples, model)
    # first, so that a reference that fails at a node is named by it
    ref_y = sample(ref, grid)
    eigen = problem.kind == "fredholm_eigen"
    model = build_spline(grid, _rescale_to_reference(problem, grid, y, ref_y[1]) if eigen else y)
    with np.errstate(over="ignore"):  # a deviation that overflows is refused below
        e_max = float(np.abs(model.samples - ref_y).max())
    # the deviation is scaled by the power of two of its nodal max before
    # it is squared, so that no square overflows a finite norm
    e = math.frexp(e_max)[1]
    what = "the integral of the squared deviation"
    e2 = _integral(lambda x: np.ldexp(model(x) - eval_many(ref, x), -e), 2,
                   grid.a, grid.b, grid.n, gauss_legendre(8), what)
    if math.isnan(e2):
        raise InvalidDomainError(f"{what} over [{grid.a}, {grid.b}] is not finite: {e2}")
    try:
        e_l2 = math.ldexp(math.sqrt(e2), e)
    except OverflowError:
        raise InvalidDomainError(f"the L2 norm of the deviation over [{grid.a}, {grid.b}] "
                                 f"overflows a double") from None
    if eigen:
        e_max = max_error(model, ref, grid.a, grid.b)
    return SolveReport(problem, model.samples, model, e_l2, e_max)


def _rescale_to_reference(problem: IntegralProblem, grid: Grid,
                          vector: np.ndarray, ref1: float) -> np.ndarray:
    """Scale an eigenvector to the reference eigenfunction's normalization.

    The published benchmarks fix the scale by matching the value at the
    first interior node, ref1 the reference's value there (the textbook
    move of pinning one unknown when solving the homogeneous system); fall
    back to a least-squares fit when that component is degenerate.
    """
    v1 = vector[1]
    if abs(v1) > 1e-8 * np.abs(vector).max() and ref1 != 0.0:
        return vector * (ref1 / v1)
    model = build_spline(grid, vector)
    rule = gauss_legendre(8)
    num = integrate_panels(lambda x: model(x) * eval_many(problem.reference, x),
                           grid.a, grid.b, grid.n, rule)
    den = integrate_panels(lambda x: model(x) ** 2, grid.a, grid.b, grid.n, rule)
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
    problem is causal. The spline couples all nodes, so fredholm2 is one
    dense (n+1) x (n+1) solve. A causal row 0 reaches no piece, so both
    causal kinds make one two-column solve of the trailing n x n block of
    M = I - lam W (volterra2) or W (volterra1), column 0 moved to the right:
    y = (0, u) + y_0 (1, w), with y_0 = f_0 for volterra2 (M's row 0 is e_0)
    and picked by a closure for volterra1 (see _volterra1). fredholm_eigen
    finds the roots of det(I - lam W) in the problem's bracket (see _eigen).
    `rule` integrates every piece (default: 8-point Gauss-Legendre).
    A W, or an A = I - lam W, with an entry or a row sum that is not
    finite (a kernel or an interval so large that they overflow) raises
    InvalidDomainError naming the kernel, the interval and n, so that
    linsolve, which reads the same row sums, refuses nothing unnamed; a
    forcing that is not finite at a node raises ValueError naming it. A
    causal solution (0, u) + y_0 (1, w) that overflows raises
    SingularMatrixError, as an overflowing solve_dense solution does.
    """
    rule = rule or gauss_legendre(8)
    grid = make_grid(*problem.interval, n)
    W = _integral_operator(problem.kernel, grid, rule, grid.nodes,
                           np.arange(grid.n + 1) if problem.causal else grid.n)
    with np.errstate(over="ignore", invalid="ignore"):
        if problem.kind in ("fredholm2", "volterra2"):
            # A = I - lam W, formed in W's own buffer
            W *= -problem.lam
            W.flat[::grid.n + 2] += 1.0
        # entries or row sums that are not finite, as linsolve would find them
        if not np.abs(W).sum(axis=1).max() < np.inf:
            raise InvalidDomainError(
                f"the collocation matrix of the kernel {problem.kernel!r} on [{grid.a}, "
                f"{grid.b}] at n = {grid.n} is not finite in its row sums: the kernel or its "
                f"integrals overflow")
    if problem.kind == "fredholm_eigen":
        return _eigen(problem, grid, W)
    f = checked_samples(grid, sample(problem.forcing, grid))
    if problem.causal:
        uw = solve_dense(W[1:, 1:], np.column_stack((f[1:], -W[1:, 0])))
        u, w = np.vstack(([0.0, 1.0], uw)).T
        y0 = _volterra1(problem, grid, rule, u, w) if problem.kind == "volterra1" else f[0]
        with np.errstate(over="ignore", invalid="ignore"):
            y = _finite_solution(u + y0 * w)
    else:
        y = solve_dense(W, f)
    return _report(problem, grid, y)


@np.errstate(over="ignore", invalid="ignore")
def _volterra1(problem: IntegralProblem, grid: Grid, rule: QuadratureRule,
               u: np.ndarray, w: np.ndarray) -> float:
    """The left-endpoint value y_0 of a first-kind Volterra problem, which
    collocation leaves undetermined, picked by a variational closure.

    Collocating at x_1..x_n, whose operator rows integrate up to their
    own node, gives n equations in n+1 unknowns; solve passes their affine
    solution u + y_0 w (u_0 = 0, w_0 = 1), and y_0 is chosen to minimize
    the integral of the squared equation defect over the last piece, a
    quadratic with a closed-form minimizer. The defect at a point x of
    that piece has two parts: the operator over the shared n - 1 pieces
    before it, up to x_{n-1}, and `rule` applied to K(x, s) S(s) on
    [x_{n-1}, x], its nodes clipped to x so that the kernel is never called
    beyond its limit. The defect's terms in u and w are scaled by one power
    of two, so K, f or [a, b] scaled by 2^k give the same y_0; raises
    SingularMatrixError, as the trailing solve does, when they fix no y_0.

    Usable only for small n: C1 quadratic spline collocation of first-kind
    Volterra equations is unstable (Brunner, Collocation Methods for
    Volterra Integral and Related Functional Equations, CUP 2004, ch. 2).
    On krasnov4 (y = 3, inside the spline space) 1/cond_inf of the
    trailing system is 2.2e-13 at n = 21 and 8.1e-14 at n = 22, so
    solve_dense accepts n <= 21 at RCOND_MIN = 1e-13 and raises
    SingularMatrixError beyond; the L2 error grows about 2.4x per unit of
    n, from 1.9e-13 at n = 5 to 2.8e-7 at n = 21.
    """
    # the defect int_a^x K(x, s) S(s) ds - f(x) over the last piece, at the
    # points of a 4-panel composite rule
    last = grid.nodes[-2]
    pts, half = panel_points(last, grid.b, 4, rule)
    pts = pts.ravel()
    R = _integral_operator(problem.kernel, grid, rule, pts, grid.n - 1)
    x = pts[:, None]
    part = 0.5 * (x - last)
    s = np.minimum(last + part * (1.0 + rule.nodes), x)
    Kw = eval_many(problem.kernel, x, s) * (part * rule.weights)
    defect_u = R @ u + (Kw * build_spline(grid, u)(s)).sum(1) - eval_many(problem.forcing, pts)
    defect_w = R @ w + (Kw * build_spline(grid, w)(s)).sum(1)
    # both scaled by one power of two, so that no square under- or overflows
    e = math.frexp(float(np.abs(defect_w).max()))[1]
    defect_u, defect_w = np.ldexp(defect_u, -e), np.ldexp(defect_w, -e)
    weights = np.outer(half, rule.weights).ravel()
    num = float(weights @ (defect_u * defect_w))
    den = float(weights @ defect_w**2)
    if not (den > 0.0 and math.isfinite(den)):
        raise SingularMatrixError(f"the closure's defect does not determine the endpoint "
                                  f"value: its sensitivity to it integrates to {den!r}")
    return -num / den
