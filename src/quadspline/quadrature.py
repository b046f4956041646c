"""Composite Gauss-Legendre integration and the two error metrics.

l2_error returns the integral of the squared deviation itself, NOT its
square root; that is the convention of the interpolation benchmark tables.
(The equation solvers report the root of this quantity; see
integral_eq.SolveReport.)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from numbers import Integral

import numpy as np

from .core import InvalidDomainError, ScalarFunction, eval_many

MAX_ORDER = 32
# Points per slice of a sup-norm sweep: the slice of the mesh and the
# spline's and f's temporaries for it stay in cache, and no mesh-length
# array is ever made.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class QuadratureRule:
    """A rule of `order` nodes and weights on [-1, 1], such as Gauss-Legendre
    (exact up to degree 2*order - 1) or Gauss-Lobatto (ends included).

    Raises ValueError unless order is an integer >= 1 that is the length of
    both nodes and weights, and InvalidDomainError for a non-finite weight
    or a node that is not a finite point of [-1, 1].
    """

    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    # integral_eq._integral_operator's tables, made once per rule, read-only:
    # rows w (1 - t)/4, w (1 + t)/4, w (t^2 - 1)/8 of each piece's
    # left-node, right-node and quadratic moments per unit of its width h
    # (the divisions are exact), and the columns 1 + t, 1 that map a
    # piece's (half-width, start) to its nodes
    _piece_rows: np.ndarray = field(init=False, repr=False, compare=False)
    _node_map: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.order, Integral) and self.order >= 1
                and np.shape(self.nodes) == np.shape(self.weights) == (self.order,)):
            raise ValueError(f"need an integer order >= 1 and that many nodes and weights, "
                             f"got order {self.order!r}, shapes {np.shape(self.nodes)} "
                             f"and {np.shape(self.weights)}")
        t = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if not np.isfinite(w).all():
            raise InvalidDomainError(f"quadrature weights must be finite, got {w}")
        if not (np.abs(t) <= 1.0).all():  # NaN fails too
            raise InvalidDomainError(f"quadrature nodes must lie in [-1, 1], got {t}")
        rows = np.stack((w * (1.0 - t) / 4.0, w * (1.0 + t) / 4.0, w * (t * t - 1.0) / 8.0))
        node_map = np.stack((1.0 + t, np.ones_like(t)), axis=1)
        rows.setflags(write=False)
        node_map.setflags(write=False)
        object.__setattr__(self, "_piece_rows", rows)
        object.__setattr__(self, "_node_map", node_map)


@cache
def gauss_legendre(order: int) -> QuadratureRule:
    """Standard Gauss-Legendre rule of the given integer order (1..32)."""
    if not (isinstance(order, Integral) and 1 <= order <= MAX_ORDER):
        raise ValueError(f"unsupported quadrature order {order!r} (need an integer "
                         f"1..{MAX_ORDER})")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(order, nodes, weights)


def integrate_panels(
    f: ScalarFunction, lo: float, hi: float, panels: int, rule: QuadratureRule
) -> float:
    """Composite rule over `panels` equal panels of [lo, hi].

    Exact per panel for polynomials up to degree 2*order - 1; additive
    across adjacent ranges. Raises InvalidDomainError for a non-finite lo
    or hi or width hi - lo, and ValueError for lo > hi or unless panels is
    an integer >= 1.
    """
    _check_range(lo, hi)
    if not (isinstance(panels, Integral) and panels >= 1):
        raise ValueError(f"need an integer panels >= 1, got {panels!r}")
    if hi == lo:
        return 0.0
    pts, half = panel_points(lo, hi, panels, rule)
    vals = eval_many(f, pts.ravel()).reshape(pts.shape)
    return float(np.add.reduce(half * (vals @ rule.weights)))


def _check_range(lo: float, hi: float) -> None:
    """InvalidDomainError unless lo, hi and the width hi - lo are finite
    doubles (the width overflows on [-1.7e308, 1.7e308]); ValueError for
    lo > hi. Python float math, with no numpy call and no overflow
    warning."""
    if not math.isfinite(float(hi) - float(lo)):  # inf or NaN when an end is
        raise InvalidDomainError(f"need finite endpoints a finite width apart, "
                                 f"got lo={lo}, hi={hi}")
    if hi < lo:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")


def panel_points(
    lo: float, hi: float, panels: int, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the composite rule, shape (panels, order), and each panel's half-width.

    The integral of f is sum(half * (f(nodes) @ rule.weights)). lo and hi
    are scalars. The panel ends are those of np.linspace(lo, hi, panels +
    1), bit for bit, made by _equispaced without the wrapper's fixed cost.
    The ends are halved before they are added or subtracted, so no
    midpoint or half-width overflows, even on [1e308, 1.7e308]; halving
    is exact, so on any range whose halves stay normal both are
    bit-identical to 0.5 * (e1 + e0) and 0.5 * (e1 - e0). Each node is
    clipped to its panel: rounding can put mid + half t an ulp outside it
    at a Gauss-Lobatto end t = -1 or 1, and on a panel a few ulps wide at
    any t (at 1.0, where the ulp below is half the one above).
    """
    edges = _equispaced(lo, hi, panels + 1, np.arange(panels + 1, dtype=float))
    e0, e1 = 0.5 * edges[:-1], 0.5 * edges[1:]
    mid = e1 + e0
    half = e1 - e0
    pts = mid[:, None] + half[:, None] * rule.nodes
    np.maximum(pts, edges[:-1, None], out=pts)
    return np.minimum(pts, edges[1:, None], out=pts), half


def _equispaced(lo: float, hi: float, count: int, k: np.ndarray) -> np.ndarray:
    """The points of np.linspace(lo, hi, count) at the float indices k, bit
    for bit, made in place in k: k * step + lo, or k / div * delta + lo when
    the step underflows to 0 (div = count - 1, delta = hi - lo), and hi
    exactly at the last index, when k ends with it. numpy's own arithmetic,
    without its wrapper's fixed cost per call."""
    div = count - 1
    delta = hi - lo
    step = delta / div
    last = k[-1] == div
    if step == 0:
        k /= div
        k *= delta
    else:
        k *= step
    k += lo
    if last:
        k[-1] = hi
    return k


def l2_error(
    approx: ScalarFunction,
    reference: ScalarFunction,
    lo: float,
    hi: float,
    panels: int,
    rule: QuadratureRule,
) -> float:
    """Integral of (approx - reference)^2 over [lo, hi] (the squared L2 norm).

    Raises InvalidDomainError when it is not finite: when the deviation or
    the interval is so large that the integral overflows a double, or when
    a panel too narrow for its ends to differ in doubles meets an infinite
    integrand (0 * inf).
    """

    def sq_diff(x):
        return (eval_many(approx, x) - eval_many(reference, x)) ** 2

    with np.errstate(over="ignore", invalid="ignore"):
        total = integrate_panels(sq_diff, lo, hi, panels, rule)
    if not math.isfinite(total):
        raise InvalidDomainError(f"the integral of the squared deviation over "
                                 f"[{lo}, {hi}] is not finite: {total}")
    return total


def max_error(
    approx: ScalarFunction,
    reference: ScalarFunction,
    lo: float,
    hi: float,
    samples: int = 2001,
) -> float:
    """Max absolute deviation over `samples` equispaced points incl. endpoints.

    The points are those of np.linspace(lo, hi, samples), bit for bit, but
    the mesh is never made whole: each _BLOCK-point slice of it is made,
    evaluated and dropped, so memory is O(_BLOCK) however many samples are
    asked for. A slice is made by _equispaced from its indices, with the
    arithmetic of np.linspace. The deviation is taken in place in
    approx's result, or in a fresh array when that one is read-only. The
    max is bit-identical to the unblocked np.max(np.abs(...)): max is exact
    and np.maximum carries a NaN through. Raises InvalidDomainError for a
    non-finite lo or hi or width hi - lo, and ValueError for lo > hi or
    unless samples is an integer >= 2.
    """
    _check_range(lo, hi)
    if not (isinstance(samples, Integral) and samples >= 2):
        raise ValueError(f"need an integer samples >= 2, got {samples!r}")
    lo, hi, count = float(lo), float(hi), int(samples)
    base = np.arange(min(count, _BLOCK), dtype=float)
    dev = 0.0
    for start in range(0, count, _BLOCK):
        xs = _equispaced(lo, hi, count, base[:count - start] + start)
        d = eval_many(approx, xs)
        d = np.subtract(d, eval_many(reference, xs), out=d if d.flags.writeable else None)
        dev = np.maximum(dev, np.abs(d, out=d).max())
    return float(dev)
