"""The explicit variational quadratic spline.

On each subinterval I_k = [x_{k-1}, x_k] the spline is the chord through
(x_{k-1}, y_{k-1}) and (x_k, y_k) plus a quadratic correction
a_k * (x - x_{k-1}) * (x - x_k). Slope continuity at interior nodes forces
the recursion a_{k+1} = d_k - a_k on the scaled second differences
d_k = (y_{k-1} - 2 y_k + y_{k+1}) / h^2, leaving a single free parameter:
the first coefficient. It is fixed by minimizing the fluctuation energy
(h^5/30) * sum(a_k^2), i.e. the squared L2 gap between the spline and the
piecewise-linear interpolant. No linear system is ever solved: with
b_k = (-1)^{k+1} a_k the recursion is a prefix sum and the energy is
minimal when the b_k sum to zero, so all n coefficients cost one cumsum.

build_spline uses that closed form (coeffs_closed_form) as its only path.
coeffs_by_recursion with optimal_first_coefficient is kept as the test
oracle it is held to. coefficient_matrix applies the same closed form to
unit sample vectors, giving the linear operator collocation needs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Grid, OutOfDomainError, ScalarFunction, eval_many, make_grid, sample


def second_differences(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Scaled second differences d_k = (y_{k-1} - 2 y_k + y_{k+1}) / h^2.

    Returns the n-1 interior values, d_1..d_{n-1}. Linear data gives zeros;
    samples of x**2 give the constant 2.
    """
    y = np.asarray(samples, dtype=float)
    if y.shape != (grid.n + 1,):
        raise ValueError(f"expected {grid.n + 1} samples, got {y.shape}")
    return _second_differences(y, grid.h)


def _second_differences(y: np.ndarray, h: float) -> np.ndarray:
    return (y[:-2] - 2.0 * y[1:-1] + y[2:]) / (h * h)


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


def coeffs_closed_form(deltas: np.ndarray, n: int) -> np.ndarray:
    """All n energy-minimizing coefficients in O(n), without the recursion.

    b_k = (-1)^{k+1} a_k satisfies b_{k+1} = b_k + (-1)^k d_k, so
    b = b_1 + c with c = [0, cumsum((-1)^j d_j)]. sum(b_k^2) is minimal
    exactly when sum(b_k) = 0, hence b = c - mean(c). Works along axis 0:
    a (n-1) x m array of second differences gives an n x m result.
    """
    d = np.asarray(deltas, dtype=float)
    if d.shape[:1] != (n - 1,):
        raise ValueError(f"expected {n - 1} second differences, got {d.shape}")
    signs = np.where(np.arange(1, n) % 2 == 0, 1.0, -1.0)
    c = np.zeros((n,) + d.shape[1:])
    np.cumsum(signs.reshape((-1,) + (1,) * (d.ndim - 1)) * d, axis=0, out=c[1:])
    coeffs = c - c.mean(axis=0)
    coeffs[1::2] *= -1.0
    return coeffs


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
    entries = coeffs_closed_form(_second_differences(np.eye(n + 1), h), n)
    entries.setflags(write=False)
    return CoeffMatrix(n, h, entries)


@dataclass(frozen=True)
class SplineModel:
    """An interpolating quadratic spline: grid, node samples, one coefficient per piece.

    Interpolates the samples exactly and has a continuous first derivative
    at interior nodes, both by construction. Immutable; evaluation is pure
    and thread-safe.
    """

    grid: Grid
    samples: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)

    def _eval(self, x, deriv: int):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        g = self.grid
        outside = ~((xs >= g.a) & (xs <= g.b))  # NaN counts as outside
        if np.any(outside):
            raise OutOfDomainError(f"x={xs[outside][0]} outside [{g.a}, {g.b}]")
        # piece index min(n, 1 + floor((x - a)/h)): a node between two pieces
        # takes the right-hand one, and both agree there by construction
        k = np.clip(np.floor((xs - g.a) / g.h).astype(np.int64) + 1, 1, g.n)
        xk1 = g.a + (k - 1) * g.h
        xk = g.a + k * g.h
        y, ak = self.samples, self.coeffs[k - 1]
        if deriv:
            out = (y[k] - y[k - 1]) / g.h + ak * (2.0 * xs - xk1 - xk)
        else:
            out = ((xs - xk1) * y[k] - (xs - xk) * y[k - 1]) / g.h \
                + ak * ((xs - xk1) * (xs - xk))
        return float(out[0]) if scalar else out

    def __call__(self, x):
        """Spline value at x (scalar or array); raises OutOfDomainError outside [a, b]."""
        return self._eval(x, 0)

    def derivative(self, x):
        """First derivative at x; continuous across interior nodes."""
        return self._eval(x, 1)


def build_spline(grid: Grid, samples: np.ndarray) -> SplineModel:
    """Interpolating spline through the samples, coefficients in closed form.

    Raises ValueError naming the first non-finite sample.
    """
    y = np.array(samples, dtype=float)  # own copy: the model freezes it
    if y.shape != (grid.n + 1,):
        raise ValueError(f"expected {grid.n + 1} samples, got {y.shape}")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        i = bad[0]
        raise ValueError(f"sample {i} at x={grid.nodes[i]} is not finite: {y[i]}")
    coeffs = coeffs_closed_form(second_differences(y, grid), grid.n)
    y.setflags(write=False)
    coeffs.setflags(write=False)
    return SplineModel(grid, y, coeffs)


def fluctuation_energy(model: SplineModel) -> float:
    """Squared L2 distance between the spline and the piecewise-linear interpolant.

    Equals (h^5 / 30) * sum(a_k^2); zero exactly for affine data.
    """
    h = model.grid.h
    return float(h**5 / 30.0 * np.sum(model.coeffs**2))


@dataclass(frozen=True)
class ConvergenceRecord:
    n: int
    h: float
    max_deviation: float
    bound: float

    @property
    def within_bound(self) -> bool:
        return self.max_deviation <= self.bound


@dataclass(frozen=True)
class ConvergenceReport:
    """Measured sup-norm deviation vs the analytic bound M*h*(b-a-h/2) per n."""

    fpp_bound: float
    records: tuple[ConvergenceRecord, ...]

    @property
    def violations(self) -> tuple[ConvergenceRecord, ...]:
        return tuple(r for r in self.records if not r.within_bound)


def convergence_study(
    f: ScalarFunction,
    fpp_bound: float,
    a: float,
    b: float,
    ns: Sequence[int],
) -> ConvergenceReport:
    """Measure max |f - S| on a dense mesh for each n and compare to the bound.

    The bound M*h*(b-a-h/2) holds whenever fpp_bound >= sup |f''|; the
    deviation is measured over 1000*n equispaced points plus all nodes
    (piecewise-quadratic extrema are cheap to bracket densely).
    """
    records = []
    for n in ns:
        grid = make_grid(a, b, int(n))
        model = build_spline(grid, sample(f, grid))
        xs = np.concatenate([np.linspace(a, b, 1000 * int(n)), grid.nodes])
        d = float(np.max(np.abs(model(xs) - eval_many(f, xs))))
        bound = fpp_bound * grid.h * ((b - a) - grid.h / 2.0)
        records.append(ConvergenceRecord(int(n), grid.h, d, bound))
    return ConvergenceReport(fpp_bound, tuple(records))
