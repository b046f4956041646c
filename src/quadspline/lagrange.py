"""Single global Lagrange interpolation on equidistant nodes.

Only used as the comparison baseline in the benchmark tables: it is exactly
the method whose Runge-type blow-up for |x| beyond n = 15 motivates the
piecewise approach. Evaluation uses the second barycentric form, whose
weights on equidistant nodes are (-1)^j C(n, j); that keeps evaluation
stable even where the interpolant itself oscillates wildly.
"""
from __future__ import annotations

import sys
from math import comb

import numpy as np

from .core import Grid, InvalidDomainError, checked_samples


def lagrange_interpolant(grid: Grid, values: np.ndarray):
    """Callable evaluating the degree-n interpolant through (grid.nodes, values).

    The weights (-1)^j C(n, j) hold for equidistant nodes alone, so the
    nodes come as the Grid that has them, and the values are checked as
    build_spline's are (core.checked_samples). Raises InvalidDomainError
    when the largest weight, C(n, n // 2), does not fit a double
    (n >= 1030), and the callable raises it, naming the point, when the
    barycentric sums overflow or their denominator cancels to 0 there,
    instead of returning inf or NaN, and when the point itself is NaN or
    infinite.

    Each point's sums run over the nodes in order, j = 0..n, one pass over
    all the points per node, so a point's bits do not depend on what else
    is evaluated with it, and the terms, whose signs alternate, are added
    in turn, not in numpy's eight same-sign partial sums of a row.
    """
    nodes, n = grid.nodes, grid.n
    values = checked_samples(grid, values)
    if comb(n, n // 2) > sys.float_info.max:
        raise InvalidDomainError(f"degree {n}: the barycentric weight "
                                 f"C({n}, {n // 2}) overflows a double")
    terms = [(xj, (-1.0) ** j * comb(n, j), yj)
             for j, (xj, yj) in enumerate(zip(nodes.tolist(), values.tolist()))]

    def evaluate(x):
        xs = np.asarray(x, dtype=float)
        flat = xs.reshape(-1)
        num, den, t = np.zeros(flat.size), np.zeros(flat.size), np.empty(flat.size)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for xj, wj, yj in terms:
                np.subtract(flat, xj, out=t)
                np.divide(wj, t, out=t)
                den += t
                t *= yj
                num += t
            out = np.divide(num, den, out=num)
        finite = np.isfinite(out)
        if not finite.all():
            # x on a node makes one quotient infinite, so the point's sums
            # and their ratio are not finite: only such points are searched,
            # by bisection of the sorted nodes, for a hit, which takes the
            # node's value, and any point still not finite is refused
            bad = (~finite).nonzero()[0]
            j = np.minimum(nodes.searchsorted(flat[bad]), n)
            hit = nodes[j] == flat[bad]
            out[bad[hit]] = values[j[hit]]
            bad = bad[~np.isfinite(out[bad])]
            if bad.size:
                x0 = flat[bad[0]]
                if not np.isfinite(x0):
                    raise InvalidDomainError(f"degree {n}: x={x0} is not finite")
                raise InvalidDomainError(
                    f"degree {n}: the barycentric sums at x={x0} "
                    "overflow or cancel to 0, so the interpolant is not finite there")
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    return evaluate
