"""Single global Lagrange interpolation on equidistant nodes.

Only used as the comparison baseline in the benchmark tables: it is exactly
the method whose Runge-type blow-up for |x| beyond n = 15 motivates the
piecewise approach. Evaluation uses the second barycentric form, whose
weights on equidistant nodes are (-1)^j C(n, j); that keeps evaluation
stable even where the interpolant itself oscillates wildly.
"""
from __future__ import annotations

from math import comb

import numpy as np


def lagrange_interpolant(nodes: np.ndarray, values: np.ndarray):
    """Callable evaluating the degree-n interpolant through (nodes, values)."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    n = nodes.size - 1
    weights = np.array([(-1.0) ** j * comb(n, j) for j in range(n + 1)])

    def evaluate(x):
        xs = np.asarray(x, dtype=float)
        d = xs.reshape(-1, 1) - nodes
        hit = d == 0.0
        q = weights / np.where(hit, 1.0, d)
        out = (q @ values) / q.sum(axis=1)
        rows, cols = np.nonzero(hit)
        out[rows] = values[cols]
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    return evaluate
