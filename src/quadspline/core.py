"""Equidistant grids, function sampling, and the one rule for calling user functions.

Everything here is real-valued: the solvers and the benchmark problems are
all real, so complex-valued data is refused, with a ValueError naming the
function or the array that gives it, never cast to its real part.
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
    """Raised for an unusable interval or subinterval count, and for a value
    computed beyond the doubles, naming its range; an input that is not
    finite is a plain ValueError naming it."""


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


def eval_many(f: Callable[..., float], *args) -> np.ndarray:
    """f on the broadcast of args: one array call, else one call per point.

    The args are made float arrays and f is called once on them. A result of
    the full broadcast shape is returned as it is. One that is 0-d (a
    constant function returning 3.0, say) or has one argument's own shape
    (a kernel of x alone) is broadcast and materialised as a writeable
    array; any other shape, even one that happens to broadcast, fails the
    array call with a ValueError naming f and both shapes. f is called per
    point, logged at DEBUG, only when the array call raises TypeError or
    ValueError (what a scalar-only callable raises on an array) or gives
    such a shape, and f is defined outside this package. One defined in it
    (by its __module__, an instance's being its class's; a missing or
    non-string one is outside), registry entries included, takes arrays, so
    a retry would only hide a defect behind one call per point. The
    package's own OutOfDomainError and InvalidDomainError, and any other
    exception, propagate after that one call, as does numpy's ValueError
    for a write into a read-only argument, raised as a ValueError naming f:
    f must not write into its arguments, and calling it per point would
    only hide that. A per-point call that also gives an array raises a
    ValueError naming f, the shape its array call gave and the one its
    arguments broadcast to. Complex values are refused with a ValueError
    naming f, by the dtype of the array call's result or, per point, of each
    value, and never cast to their real part or retried per point.
    """
    args = [np.asarray(a, dtype=float) for a in args]
    shape = args[0].shape if len(args) == 1 else np.broadcast(*args).shape
    got = "an exception"
    try:
        vals = np.asarray(f(*args))
        if vals.dtype != float and vals.dtype.kind != "c":
            vals = vals.astype(float)
        if vals.dtype == float:
            if vals.shape == shape:
                return vals
            got = f"shape {vals.shape}"
            if vals.ndim and all(vals.shape != a.shape for a in args):
                raise ValueError(f"{f!r} gives {got} on arrays whose broadcast shape is {shape}")
            return np.array(np.broadcast_to(vals, shape))
    except (OutOfDomainError, InvalidDomainError):
        raise
    except (TypeError, ValueError) as exc:
        home = getattr(f, "__module__", None)
        if isinstance(home, str) and home.partition(".")[0] == __package__:
            raise
        if "read-only" in str(exc) and not all(a.flags.writeable for a in args):
            raise ValueError(f"{f!r} writes into its arguments, which are "
                             f"read-only: {exc}") from exc
        _log.debug("%r on arrays of shape %s failed with %r; calling it per point "
                   "(per node when sampling a grid)", f, shape, exc)
    else:  # only a complex result gets here, and is refused, not retried per point
        raise ValueError(f"{f!r} gives complex values ({vals.dtype}) on arrays, refused: "
                         "only real values are taken")
    points = zip(*(a.flat for a in np.broadcast_arrays(*args)))
    values = [f(*p) for p in points]
    if any(map(np.iscomplexobj, values)):
        raise ValueError(f"{f!r} gives complex values at single points, refused: only "
                         "real values are taken")
    try:
        return np.array([float(v) for v in values]).reshape(shape)
    except TypeError:
        wrong = next((np.shape(v) for v in values if np.ndim(v)), None)
        if wrong is None:
            raise
        raise ValueError(f"{f!r} gives shape {wrong} at a single point; on arrays it "
                         f"gave {got}, where their broadcast shape is {shape}") from None


def _real_floats(values, name: str, copy: bool | None = None) -> np.ndarray:
    """`values` as a float array, copied if `copy`; raises ValueError naming
    `name` when they are complex, by the dtype of the array made."""
    y = np.array(values, copy=copy)
    if y.dtype != float:
        if y.dtype.kind == "c":
            raise ValueError(f"complex {name} ({y.dtype}) refused: only real values are taken")
        y = y.astype(float)
    return y


def checked_samples(grid: Grid, values, finite: bool = True) -> np.ndarray:
    """A float copy of the grid.n + 1 node samples `values`; raises
    ValueError for complex values, for another shape and, if `finite`, at
    the first non-finite one."""
    y = _real_floats(values, "samples", copy=True)
    if y.shape != (grid.n + 1,):
        raise ValueError(f"expected {grid.n + 1} samples, got {y.shape}")
    if finite:
        i = int(np.argmin(np.isfinite(y)))  # the first sample not finite, if any
        if not math.isfinite(y[i]):
            raise ValueError(f"sample {i} at x={grid.nodes[i]} is not finite: {y[i]}")
    return y


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
            # complex, not float: complex values are refused by eval_many,
            # naming f, and no one node is at fault for them
            complex(f(x))
        except Exception as exc:
            raise ValueError(f"evaluation failed at node x={x}: {exc!r}") from exc
    raise error
