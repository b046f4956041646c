"""Equidistant grids, function sampling, and the one rule for calling user functions.

Everything here is real-valued: the solvers and the benchmark problems are
all real, so complex-valued data is a documented non-goal.
"""
from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

ScalarFunction = Callable[[float], float]

_log = logging.getLogger("quadspline")


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
    node. h*h must be a finite normal double, as the second differences
    divide by it: 1.5e-154 < h < 1.3e154 or so, so b - a may neither
    overflow nor be too small for n pieces. The nodes must strictly
    increase in double precision. Raises InvalidDomainError otherwise.
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
    if not sys.float_info.min <= h * h <= sys.float_info.max:
        raise InvalidDomainError(f"[{a}, {b}] in {n} pieces gives h={h}, whose square "
                                 "is not a finite normal double")
    nodes = a + h * np.arange(n + 1, dtype=float)
    nodes[-1] = b
    if not (nodes[1:] > nodes[:-1]).all():
        raise InvalidDomainError(f"[{a}, {b}] is too narrow for {n} pieces: "
                                 "its nodes do not strictly increase")
    nodes.setflags(write=False)
    return Grid(float(a), float(b), int(n), h, nodes)


def array_callable(f):
    """Mark f, a function or class of this package whose calls take arrays,
    so that eval_many never calls it point by point.

    Such a callable (a SplineModel, a Lagrange interpolant, an integrand
    built from them) raises TypeError or ValueError on an array only
    through a defect, and a per-point retry would hide the defect behind
    one Python call per point, 32,768 for each block of a sup-norm sweep.
    """
    f._array_callable = True
    return f


def eval_many(f: Callable[..., float], *args) -> np.ndarray:
    """f on the broadcast of args: one array call, else one call per point.

    The args are made float arrays and f is called once on them. A result of
    the full broadcast shape is returned as it is; one that only broadcasts
    to it (a constant function returning 3.0, say) is materialised as a
    writeable array. f is called per point, logged at DEBUG, only when the
    array call raises TypeError or ValueError (what a scalar-only callable
    raises on an array) or gives a shape that does not broadcast, and f is
    not one of the package's own array callables (see array_callable). The
    package's own OutOfDomainError and InvalidDomainError, and any other
    exception, propagate after that one call, as does every exception of
    an array callable. So does numpy's ValueError for a write into a
    read-only argument, raised as a ValueError naming f: f must not write
    into its arguments, and calling it per point would only hide that.
    """
    args = [np.asarray(a, dtype=float) for a in args]
    shape = np.broadcast(*args).shape
    try:
        vals = np.asarray(f(*args), dtype=float)
        return vals if vals.shape == shape else np.array(np.broadcast_to(vals, shape))
    except (OutOfDomainError, InvalidDomainError):
        raise
    except (TypeError, ValueError) as exc:
        if getattr(f, "_array_callable", False):
            raise
        if "read-only" in str(exc) and not all(a.flags.writeable for a in args):
            raise ValueError(f"{f!r} writes into its arguments, which are "
                             f"read-only: {exc}") from exc
        _log.debug("%r on arrays of shape %s failed with %r; calling it per point "
                   "(per node when sampling a grid)", f, shape, exc)
    points = zip(*(a.flat for a in np.broadcast_arrays(*args)))
    return np.array([float(f(*p)) for p in points]).reshape(shape)


def sample(f: ScalarFunction, grid: Grid) -> np.ndarray:
    """f at every grid node, the length-(n+1) sample vector: eval_many(f, grid.nodes).

    When that fails, f is called node by node to locate the failure, which
    is raised as a ValueError naming the offending node, chained to the
    original exception. When no single node fails, the array call's
    exception is re-raised, so it is located, never swallowed.
    """
    try:
        return eval_many(f, grid.nodes)
    except Exception as exc:
        error = exc
    for x in grid.nodes:
        try:
            float(f(x))
        except Exception as exc:
            raise ValueError(f"evaluation failed at node x={x}: {exc!r}") from exc
    raise error
