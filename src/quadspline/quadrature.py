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
    """Gauss-Legendre nodes/weights on [-1, 1]; exact up to degree 2*order - 1."""

    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


@cache
def gauss_legendre(order: int) -> QuadratureRule:
    """Standard Gauss-Legendre rule of the given order (1..32)."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"unsupported quadrature order {order} (need 1..{MAX_ORDER})")
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
    or hi and ValueError for lo > hi or unless panels is an integer >= 1.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidDomainError(f"need finite endpoints, got lo={lo}, hi={hi}")
    if hi < lo:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if not (isinstance(panels, Integral) and panels >= 1):
        raise ValueError(f"need an integer panels >= 1, got {panels!r}")
    if hi == lo:
        return 0.0
    pts, half = panel_points(lo, hi, panels, rule)
    vals = eval_many(f, pts.ravel()).reshape(pts.shape)
    return float(np.sum(half * (vals @ rule.weights)))


def panel_points(
    lo: float, hi: float, panels: int, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the composite rule, shape (panels, order), and each panel's half-width.

    The integral of f is sum(half * (f(nodes) @ rule.weights), axis=-1).
    Array lo and hi give one composite rule per element of their
    broadcast: nodes of shape (..., panels, order), half-widths of shape
    (..., panels).
    """
    edges = np.linspace(lo, hi, panels + 1, axis=-1)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    return mid[..., None] + half[..., None] * rule.nodes, half


def l2_error(
    approx: ScalarFunction,
    reference: ScalarFunction,
    lo: float,
    hi: float,
    panels: int,
    rule: QuadratureRule,
) -> float:
    """Integral of (approx - reference)^2 over [lo, hi] (the squared L2 norm)."""

    def sq_diff(x):
        return (eval_many(approx, x) - eval_many(reference, x)) ** 2

    return integrate_panels(sq_diff, lo, hi, panels, rule)


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
    asked for. A slice is numpy's own arithmetic on its indices: index *
    step + lo, or index / div * delta + lo when the step underflows to 0,
    and the last point is hi exactly. The deviation is taken in place in
    approx's result, or in a fresh array when that one is read-only. The
    max is bit-identical to the unblocked np.max(np.abs(...)): max is exact
    and np.maximum carries a NaN through. Raises InvalidDomainError for a
    non-finite lo or hi and ValueError unless samples is an integer >= 2.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidDomainError(f"need finite endpoints, got lo={lo}, hi={hi}")
    if not (isinstance(samples, Integral) and samples >= 2):
        raise ValueError(f"need an integer samples >= 2, got {samples!r}")
    lo, hi, count = float(lo), float(hi), int(samples)
    div = count - 1
    delta = hi - lo
    step = delta / div
    base = np.arange(min(count, _BLOCK), dtype=float)
    dev = 0.0
    for start in range(0, count, _BLOCK):
        xs = base[:count - start] + start
        if step == 0:
            xs /= div
            xs *= delta
        else:
            xs *= step
        xs += lo
        if start + _BLOCK >= count:
            xs[-1] = hi
        d = eval_many(approx, xs)
        d = np.subtract(d, eval_many(reference, xs), out=d if d.flags.writeable else None)
        dev = np.maximum(dev, np.max(np.abs(d, out=d)))
    return float(dev)
