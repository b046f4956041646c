"""Equidistant grids and function sampling.

Everything here is real-valued: the solvers and the benchmark problems are
all real, so complex-valued data is a documented non-goal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

ScalarFunction = Callable[[float], float]


class InvalidDomainError(ValueError):
    """Raised for an unusable interval or subinterval count."""


class OutOfDomainError(ValueError):
    """Raised when evaluating outside the interval a value is defined on."""


@dataclass(frozen=True)
class Grid:
    """Equidistant partition of [a, b] into n subintervals.

    Two grids compare equal iff (a, b, n) match; h and the node array are
    derived. Instances are immutable and safe to share across threads.
    """

    a: float
    b: float
    n: int
    h: float = field(compare=False)
    nodes: np.ndarray = field(compare=False, repr=False)


def make_grid(a: float, b: float, n: int) -> Grid:
    """Build the grid with nodes a + k*h, k = 0..n, h = (b-a)/n.

    Nodes are computed directly from the index (no cumulative addition) and
    the last node is forced to exactly b. Requires finite a < b and an
    integer n >= 2: the coefficient recursion needs at least one interior
    node.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidDomainError(f"need finite endpoints, got a={a}, b={b}")
    if not isinstance(n, Integral):
        raise InvalidDomainError(f"need an integer n, got n={n!r}")
    if not a < b:
        raise InvalidDomainError(f"need a < b, got a={a}, b={b}")
    if n < 2:
        raise InvalidDomainError(f"need n >= 2 subintervals, got n={n}")
    h = (b - a) / n
    nodes = a + h * np.arange(n + 1, dtype=float)
    nodes[-1] = b
    nodes.setflags(write=False)
    return Grid(float(a), float(b), int(n), h, nodes)


def eval_many(f: ScalarFunction, xs: np.ndarray) -> np.ndarray:
    """Evaluate f at an array of points, vectorized when f supports it."""
    xs = np.asarray(xs, dtype=float)
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape == xs.shape:
            return vals
    except Exception:
        pass
    return np.array([float(f(x)) for x in xs])


def sample(f: ScalarFunction, grid: Grid) -> np.ndarray:
    """Evaluate f at every grid node, returning the length-(n+1) sample vector.

    Evaluation failures are re-raised with the offending node attached.
    """
    try:
        values = np.asarray(f(grid.nodes), dtype=float)
        if values.shape == grid.nodes.shape:
            return values
    except Exception:
        pass
    out = np.empty(grid.n + 1)
    for i, x in enumerate(grid.nodes):
        try:
            out[i] = f(x)
        except Exception as exc:
            raise type(exc)(f"evaluation failed at node x={x}: {exc}") from exc
    return out
