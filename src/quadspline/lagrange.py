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

# Doubles in evaluate's one (rows, n + 1) temporary, about 1 MB; x is taken
# in blocks of that many rows, so a long x needs no more. The block size
# bounds memory only: each row's sums are its own, whatever block it is in.
_BLOCK = 1 << 17


def lagrange_interpolant(grid: Grid, values: np.ndarray):
    """Callable evaluating the degree-n interpolant through (grid.nodes, values).

    The weights (-1)^j C(n, j) hold for equidistant nodes alone, so the
    nodes come as the Grid that has them, and the values are checked as
    build_spline's are (core.checked_samples). Raises InvalidDomainError
    when the largest weight, C(n, n // 2), does not fit a double
    (n >= 1030), and the callable raises it, naming the point, when the
    barycentric sums overflow or their denominator cancels to 0 there (abs
    on [-1, 1] at n = 200, say), instead of returning inf or NaN, and when
    the point itself is NaN or infinite.
    """
    nodes, n = grid.nodes, grid.n
    values = checked_samples(grid, values)
    if comb(n, n // 2) > sys.float_info.max:
        raise InvalidDomainError(f"degree {n}: the barycentric weight "
                                 f"C({n}, {n // 2}) overflows a double")
    weights = np.array([(-1.0) ** j * comb(n, j) for j in range(n + 1)])
    rows = max(1, _BLOCK // (n + 1))

    def evaluate(x):
        xs = np.asarray(x, dtype=float)
        flat = xs.reshape(-1)
        out = np.empty(flat.size)
        for lo in range(0, flat.size, rows):
            pts = flat[lo:lo + rows]
            block = out[lo:lo + rows]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                d = pts[:, None] - nodes
                q = np.divide(weights, d, out=d)
                # einsum, not the BLAS product q @ values, whose rounding of
                # a row depends on where the row falls in the block
                block[:] = np.einsum("ij,j->i", q, values) / q.sum(axis=1)
            finite = np.isfinite(block)
            if not finite.all():
                # x on a node makes one quotient infinite, so the row's sums
                # and their ratio are not finite: only such rows are
                # searched for a hit, which takes the node's value, and any
                # row still not finite is refused
                bad = (~finite).nonzero()[0]
                hit_rows, cols = np.nonzero(pts[bad, None] == nodes)
                block[bad[hit_rows]] = values[cols]
                bad = bad[~np.isfinite(block[bad])]
                if bad.size:
                    x0 = pts[bad[0]]
                    if not np.isfinite(x0):
                        raise InvalidDomainError(f"degree {n}: x={x0} is not finite")
                    raise InvalidDomainError(
                        f"degree {n}: the barycentric sums at x={x0} "
                        "overflow or cancel to 0, so the interpolant is not finite there")
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    return evaluate
