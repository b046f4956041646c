"""Composite Gauss-Legendre integration and the two error metrics.

l2_error returns the integral of the squared deviation itself, NOT its
square root; that is the convention of the interpolation benchmark tables.
(The equation solvers report the root of this quantity; see
integral_eq.SolveReport.)
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .core import ScalarFunction, eval_many

MAX_ORDER = 32


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
    across adjacent ranges.
    """
    if hi < lo:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if panels < 1:
        raise ValueError(f"need panels >= 1, got {panels}")
    if hi == lo:
        return 0.0
    pts, half = panel_points(lo, hi, panels, rule)
    vals = eval_many(f, pts.ravel()).reshape(pts.shape)
    return float(np.sum(half * (vals @ rule.weights)))


def panel_points(
    lo: float, hi: float, panels: int, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the composite rule, shape (panels, order), and each panel's half-width.

    The integral of f is sum(half * (f(nodes) @ rule.weights)).
    """
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * rule.nodes[None, :], half


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
        return (eval_many(approx, np.atleast_1d(x)) - eval_many(reference, np.atleast_1d(x))) ** 2

    return integrate_panels(sq_diff, lo, hi, panels, rule)


def max_error(
    approx: ScalarFunction,
    reference: ScalarFunction,
    lo: float,
    hi: float,
    samples: int = 2001,
) -> float:
    """Max absolute deviation over `samples` equispaced points incl. endpoints."""
    if samples < 2:
        raise ValueError(f"need samples >= 2, got {samples}")
    xs = np.linspace(lo, hi, samples)
    return float(np.max(np.abs(eval_many(approx, xs) - eval_many(reference, xs))))
