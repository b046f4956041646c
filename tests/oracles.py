"""Reference implementations the package is tested against.

None of these run in production; each is a second, deliberately plainer
route to a result the package computes another way:

  optimal_first_coefficient,  the first coefficient from its explicit sum,
  coeffs_by_recursion         then a_{k+1} = d_k - a_k term by term; they
                              check spline.coeffs_closed_form (the prefix
                              sum behind build_spline)
  CoeffMatrix,                the dense n x (n+1) map from node samples to
  coefficient_matrix          coefficients; checks that the closed form is
                              linear in the samples, checks its transpose
                              spline._closed_form_adjoint, and feeds
                              kernel_piece_weights
  kernel_piece_weights,       one piece of the collocation integral at a
  summed_piece_weights        time, and its sum over the pieces of each
                              row with the 8-point rule; check
                              integral_eq._integral_operator (behind
                              integral_eq.solve for every kind)
  determinant                 sign-tracked pivoted elimination; checks
                              linsolve.find_real_eigenvalues, whose roots of
                              det(I - lam*alpha) come from eigvals
  chord_plus_correction       the spline as chord plus quadratic correction
                              on each piece; checks SplineModel, which
                              evaluates each piece in power form
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from quadspline import Grid, Kernel, QuadratureRule, coeffs_closed_form, gauss_legendre
from quadspline.core import eval_many

RULE8 = gauss_legendre(8)  # the rule the solvers use by default


def optimal_first_coefficient(deltas: np.ndarray, n: int) -> float:
    """First quadratic coefficient minimizing the fluctuation energy.

    Closed form: -(1/n) * sum_{j=1}^{n-1} (n-j) (-1)^j d_j. This is the
    unique stationary point and a strict minimum (the energy is a convex
    quadratic in the first coefficient with curvature n h^5 / 15 > 0).
    """
    d = np.asarray(deltas, dtype=float)
    if d.shape != (n - 1,):
        raise ValueError(f"expected {n - 1} second differences, got {d.shape}")
    j = np.arange(1, n)
    return float(-(1.0 / n) * np.sum((n - j) * (-1.0) ** j * d))


def coeffs_by_recursion(first: float, deltas: np.ndarray) -> np.ndarray:
    """Propagate a_{k+1} = d_k - a_k from the given first coefficient.

    Test oracle for coeffs_closed_form, together with
    optimal_first_coefficient.
    """
    d = np.asarray(deltas, dtype=float)
    a = np.empty(d.size + 1)
    a[0] = first
    for k in range(d.size):
        a[k + 1] = d[k] - a[k]
    return a


@dataclass(frozen=True)
class CoeffMatrix:
    """Data-independent n x (n+1) matrix mapping node samples to coefficients.

    Depends only on n and h. Rows sum to zero: constant data has no
    curvature, hence all coefficients vanish.
    """

    n: int
    h: float
    entries: np.ndarray = field(repr=False)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(samples, dtype=float)


def coefficient_matrix(n: int, h: float) -> CoeffMatrix:
    """Coefficient matrix for n pieces of width h.

    Column j is coeffs_closed_form of the second differences of the j-th
    unit sample vector, so C @ y matches build_spline up to roundoff.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not h > 0:
        raise ValueError(f"need h > 0, got {h}")
    n, h = int(n), float(h)
    eye = np.eye(n + 1)
    entries = coeffs_closed_form((eye[:-2] - 2.0 * eye[1:-1] + eye[2:]) / (h * h), n)
    entries.setflags(write=False)
    return CoeffMatrix(n, h, entries)


def kernel_piece_weights(
    kernel: Kernel,
    x_eval: float,
    grid: Grid,
    k: int,
    coeffs: CoeffMatrix,
    rule: QuadratureRule,
    upper: Optional[float] = None,
) -> np.ndarray:
    """Node weights w with sum_i w_i y_i = int over piece k of K(x_eval, s) S(s) ds.

    Works for ANY sample vector y: the chord part of piece k contributes
    only to nodes k-1 and k, while the quadratic correction spreads across
    all nodes through row k of the coefficient matrix. `upper` truncates
    the integration to [x_{k-1}, upper]. The solvers use _integral_operator;
    this per-piece form is the oracle it is tested against, `upper` serving
    the truncated rows.
    """
    if not 1 <= k <= grid.n:
        raise ValueError(f"piece index {k} outside 1..{grid.n}")
    h = grid.h
    xk1 = grid.nodes[k - 1]
    xk = grid.nodes[k]
    hi = xk if upper is None else upper
    mid = 0.5 * (xk1 + hi)
    half = 0.5 * (hi - xk1)
    s = mid + half * rule.nodes
    kv = eval_many(kernel, x_eval, s)
    left = half * np.sum(rule.weights * kv * (s - xk1))
    right = half * np.sum(rule.weights * kv * (s - xk))
    quad = half * np.sum(rule.weights * kv * (s - xk1) * (s - xk))
    w = coeffs.entries[k - 1] * quad
    w[k] += left / h
    w[k - 1] -= right / h
    return w


def summed_piece_weights(kernel, grid, xs, upper, rule=RULE8):
    """Oracle for _integral_operator: row i sums the piece weights of
    kernel_piece_weights over [a, upper_i], truncating the last piece."""
    C = coefficient_matrix(grid.n, grid.h)
    rows = np.zeros((len(xs), grid.n + 1))
    for i, (x, hi) in enumerate(zip(xs, upper)):
        for k in range(1, grid.n + 1):
            if hi <= grid.nodes[k - 1]:
                break
            rows[i] += kernel_piece_weights(kernel, x, grid, k, C, rule,
                                            upper=min(hi, grid.nodes[k]))
    return rows


def determinant(A: np.ndarray) -> float:
    """Determinant via pivoted elimination with sign tracking.

    No pivot threshold here: as the oracle for the roots of
    det(I - lam*alpha) it must pass smoothly through zero, so an
    exactly-zero pivot returns 0 and anything else is eliminated as-is.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix not square: {A.shape}")
    det = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if A[p, k] == 0.0:
            return 0.0
        if p != k:
            A[[k, p]] = A[[p, k]]
            det = -det
        det *= A[k, k]
        m = A[k + 1:, k] / A[k, k]
        A[k + 1:, k + 1:] -= np.outer(m, A[k, k + 1:])
    return float(det)


def chord_plus_correction(model, x, deriv: int = 0) -> np.ndarray:
    """The spline at the points x, or its slope for deriv=1, piece by piece
    as the chord through (x_{k-1}, y_{k-1}) and (x_k, y_k) plus the
    correction a_k (x - x_{k-1}) (x - x_k):

      value  ((x - x_{k-1}) y_k - (x - x_k) y_{k-1}) / h + a_k (x - x_{k-1})(x - x_k)
      slope  (y_k - y_{k-1}) / h + a_k (2x - x_{k-1} - x_k)

    Piece k is min(n, 1 + floor((x - a)/h)), as in SplineModel. No domain
    check: x must lie in [a, b].
    """
    g, y = model.grid, model.samples
    x = np.asarray(x, dtype=float)
    km1 = np.minimum(np.floor((x - g.a) / g.h), g.n - 1).astype(np.intp)
    xk1, xk, ak = g.nodes[km1], g.nodes[km1 + 1], model.coeffs[km1]
    if deriv:
        return (y[km1 + 1] - y[km1]) / g.h + ak * (2.0 * x - xk1 - xk)
    return (((x - xk1) * y[km1 + 1] - (x - xk) * y[km1]) / g.h
            + ak * ((x - xk1) * (x - xk)))
