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

from .core import InvalidDomainError

# Doubles in each of evaluate's (rows, n + 1) temporaries, about 1 MB; x is
# taken in blocks of that many rows, so a long x needs no more. The tables'
# n <= 20 fit one block: the BLAS product q @ values may round a row in the
# last bit differently in another block, and their figures stay as they were.
_BLOCK = 1 << 17


def lagrange_interpolant(nodes: np.ndarray, values: np.ndarray):
    """Callable evaluating the degree-n interpolant through (nodes, values).

    Raises InvalidDomainError when the largest weight, C(n, n // 2), does not
    fit a double (n >= 1030).
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    n = nodes.size - 1
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
            d = flat[lo:lo + rows, None] - nodes
            hit = d == 0.0
            q = weights / np.where(hit, 1.0, d)
            block = out[lo:lo + rows]
            block[:] = (q @ values) / q.sum(axis=1)
            hit_rows, cols = np.nonzero(hit)
            block[hit_rows] = values[cols]
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    return evaluate
