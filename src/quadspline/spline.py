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

build_spline uses that closed form (coeffs_closed_form) as its only path,
and the collocation operator in integral_eq applies it transposed
(_closed_form_adjoint) to rows of moments. The recursion it is held to,
and the dense coefficient matrix, live in tests/oracles.py.

SplineModel evaluates each piece in power form about its left node: with
t = x - x_{k-1} and w_k = x_k - x_{k-1}, the value is c0 + t (c1 + t c2)
and the slope c1 + 2 c2 t, where c0 = y_{k-1}, c1 = (y_k - y_{k-1})/h -
a_k w_k and c2 = a_k, made once per model. That is the chord plus the
correction above, expanded, except that the constant term is y_{k-1}
exactly (the chord's is y_{k-1} w_k / h). The chord-plus-correction form
is kept in tests/oracles.py as the oracle the power form is held to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Grid, OutOfDomainError, ScalarFunction, make_grid, sample
from .quadrature import max_error


def second_differences(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Scaled second differences d_k = (y_{k-1} - 2 y_k + y_{k+1}) / h^2.

    Returns the n-1 interior values, d_1..d_{n-1}. Linear data gives zeros;
    samples of x**2 give the constant 2. Works along axis 0: an (n+1) x m
    array of samples gives an (n-1) x m result.
    """
    y = np.asarray(samples, dtype=float)
    if y.shape[:1] != (grid.n + 1,):
        raise ValueError(f"expected {grid.n + 1} samples, got {y.shape}")
    return (y[:-2] - 2.0 * y[1:-1] + y[2:]) / (grid.h * grid.h)


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


def _closed_form_adjoint(r: np.ndarray, h: float,
                         out: np.ndarray | None = None) -> np.ndarray:
    """r @ C for the n x (n+1) map C from node samples to coefficients.

    C is coeffs_closed_form of second_differences, so r @ C runs its steps
    transposed and in reverse, in O(n) per row of the m x n array r,
    without forming C: the sign flip of every other coefficient, the mean
    removal, the prefix sum (a reverse cumsum), its signs, and the
    scattering of each second difference to its three nodes. Overwrites r,
    whose reverse cumsum is taken in place, and writes the m x (n+1)
    result into `out` when one is given (any m x (n+1) array, such as a
    row block of a larger matrix) instead of allocating it.
    """
    r[:, 1::2] *= -1.0
    r -= r.mean(axis=1, keepdims=True)
    np.cumsum(r[:, :0:-1], axis=1, out=r[:, :0:-1])
    v = r[:, 1:]
    v[:, 0::2] *= -1.0
    v /= h * h
    if out is None:
        out = np.empty((r.shape[0], r.shape[1] + 1))
    # 0.0 + v, not a copy of v, so that a -0.0 comes out as 0.0, as when
    # the scatter starts from zeros
    np.add(v, 0.0, out=out[:, :-2])
    out[:, -2:] = 0.0
    out[:, 1:-1] -= 2.0 * v
    out[:, 2:] += v
    return out


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
    # rows c0, c1, c2 of each piece's power form about its left node, made
    # once from the three fields above; each row is contiguous, so a gather
    # from it reads one array of length n
    _power: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g, y, a = self.grid, self.samples, self.coeffs
        power = np.empty((3, g.n))
        power[0] = y[:-1]
        np.subtract(y[1:], y[:-1], out=power[1])
        power[1] /= g.h
        power[1] -= a * np.diff(g.nodes)
        power[2] = a
        power.setflags(write=False)
        object.__setattr__(self, "_power", power)

    def _eval(self, x, deriv: int):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        g = self.grid
        # min/max carry a NaN, so NaN points fail the check too
        if xs.size and not (xs.min() >= g.a and xs.max() <= g.b):
            outside = ~((xs >= g.a) & (xs <= g.b))
            raise OutOfDomainError(f"x={xs[outside][0]} outside [{g.a}, {g.b}]")
        # piece index k - 1 = min(n - 1, floor((x - a)/h)): a node between
        # two pieces takes the right-hand one, and both agree there by
        # construction. (x - a)/h >= 0, so the cast truncates as floor does,
        # and every gather below reads an array of length n with
        # mode="clip", which sends an index of n (x at b) to the last
        # piece. With t = x - x_{k-1}, on reused buffers:
        #   value  c0 + t (c1 + t c2)
        #   slope  c1 + 2 c2 t
        t = xs - g.a
        t /= g.h
        km1 = t.astype(np.intp)
        c0, c1, c2 = self._power
        g.nodes[:-1].take(km1, out=t, mode="clip")
        np.subtract(xs, t, out=t)
        out = c2.take(km1, mode="clip")
        out *= t
        if deriv:
            out *= 2.0
            out += c1.take(km1, out=t, mode="clip")
        else:
            c = c1.take(km1, mode="clip")
            out += c
            out *= t
            out += c0.take(km1, out=c, mode="clip")
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
    deviation is measured over the 1000*n points of np.linspace(a, b,
    1000*n) plus all n+1 nodes (piecewise-quadratic extrema are cheap to
    bracket densely). Both go through the one sweep, max_error, so memory
    is O(quadrature._BLOCK) whatever n is (`converge -p sin2pix --ns 20000`
    peaks at 33 MB RSS, 185 MB with the whole mesh). The nodes are swept
    as np.linspace(a, b, n + 1), whose points k*step + a, the last set to
    b, are the very floats of make_grid's a + h*k, the last set to b; so
    the result is bit-identical to the unblocked max over mesh and nodes.
    Raises ValueError for a non-finite or negative fpp_bound, and
    InvalidDomainError (via make_grid) for an n that is not an integer >= 2.
    """
    if not (math.isfinite(fpp_bound) and fpp_bound >= 0.0):
        raise ValueError(f"need a finite fpp_bound >= 0, got {fpp_bound!r}")
    records = []
    for n in ns:
        grid = make_grid(a, b, n)
        model = build_spline(grid, sample(f, grid))
        d = float(np.maximum(max_error(model, f, a, b, 1000 * grid.n),
                             max_error(model, f, a, b, grid.n + 1)))
        bound = fpp_bound * grid.h * ((b - a) - grid.h / 2.0)
        records.append(ConvergenceRecord(grid.n, grid.h, d, bound))
    return ConvergenceReport(fpp_bound, tuple(records))
