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
(_closed_form_adjoint) to its quadratic rows. The recursion it is held to,
and the dense coefficient matrix, live in tests/oracles.py.

SplineModel evaluates each piece in power form about its left node: with
t = x - x_{k-1} and w_k = x_k - x_{k-1}, the value is c0 + t (c1 + t c2)
and the slope c1 + 2 c2 t, where c0 = y_{k-1}, c1 = (y_k - y_{k-1})/h -
a_k w_k and c2 = a_k, made once per model. That is the chord plus the
correction above, expanded, except that the constant term is y_{k-1}
exactly (the chord's is y_{k-1} w_k / h). The chord-plus-correction form
is kept in tests/oracles.py as the oracle the power form is held to.

A point's piece is the truncation of t = (x - a)/h. An input of a few
points, or in no order, gathers its piece's node and c0, c1, c2 point by
point. A long sorted one, such as each block of convergence_study's
sweep, has a non-decreasing t, so its pieces are runs of it: one binary
search per piece finds where each starts, and the four entries are
repeated over the run. Both give each point the same piece and the same
doubles, and the arithmetic after them is one code path, so the value
and the slope are the same to the bit either way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (Grid, InvalidDomainError, OutOfDomainError, ScalarFunction,
                   checked_samples, make_grid, sample)
from .quadrature import max_error

_EPS = float(np.finfo(float).eps)
# The least points, in all and per piece spanned, of a sorted input that
# SplineModel takes by runs of pieces. On 32,768 sorted points, one binary
# search per piece and a repeat of each piece's entries over its run took
# 0.7-0.8 of the time of a gather per point from 25 points a piece up,
# about the same at 16 and 1.3 times it at 8; with their fixed cost, 4096
# points in a few pieces come out about even with the gathers and 8192
# some 25 % faster (2-vCPU Xeon VM, numpy 2.4.6)
_RUN_MIN_POINTS = 4096
_RUN_MIN_PER_PIECE = 16


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
    a (n-1) x m array of second differences gives an n x m result. It runs
    in one buffer, with array methods and ufuncs only: the mean is
    np.add.reduce(c, axis=0) / n, the division c.mean takes, so the result
    is that of numpy's wrappers to the bit, without their fixed cost.
    """
    d = np.asarray(deltas, dtype=float)
    if d.shape[:1] != (n - 1,):
        raise ValueError(f"expected {n - 1} second differences, got {d.shape}")
    c = np.empty((n,) + d.shape[1:])
    c[0] = 0.0
    c[1:] = d
    c[1::2] *= -1.0  # (-1)^j d_j, the sign flip exact
    c[1:].cumsum(axis=0, out=c[1:])
    c -= np.add.reduce(c, axis=0) / n
    c[1::2] *= -1.0
    return c


def _closed_form_adjoint(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """r @ C for the n x (n+1) map C from node samples to coefficients on a
    unit grid.

    C is coeffs_closed_form of second_differences at h = 1, so r @ C runs
    its steps transposed and in reverse, in O(n) per row of the m x n array
    r, without forming C: the sign flip of every other coefficient, the
    mean removal, the prefix sum (a reverse cumsum), the sign flip of every
    other second difference, and the scattering of each to its three nodes.
    No power of h is formed: a grid of width h has the map C / h^2, which
    the caller folds into r (the collocation operator's quadratic rows
    carry h/8, not h^3/8). Overwrites r,
    whose reverse cumsum is taken in place, and writes the m x (n+1)
    result into `out`, which must be C-contiguous, such as a row block of a
    larger C-contiguous matrix (ValueError otherwise): the scatter runs
    over its rows as one flat array.
    """
    m, n = r.shape
    if out.shape != (m, n + 1) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {(m, n + 1)} array, got shape "
                         f"{out.shape}, C-contiguous {out.flags.c_contiguous}")
    r[:, 1::2] *= -1.0
    r -= np.add.reduce(r, axis=1, keepdims=True) / n  # the mean, as r.mean takes it
    r[:, :0:-1].cumsum(axis=1, out=r[:, :0:-1])
    r[:, 1::2] *= -1.0
    # each row's two zeros of padding end its scatter before the next row
    v = np.zeros((m, n + 1))
    v[:, :-2] = r[:, 1:]
    v, flat = v.reshape(-1), out.reshape(-1)
    # 0.0 + v, not a copy of v, so that a -0.0 comes out as 0.0, as when
    # the scatter starts from zeros
    np.add(v, 0.0, out=flat)
    flat[1:] -= 2.0 * v[:-1]
    flat[2:] += v[:-2]
    return out


@dataclass(frozen=True)
class SplineModel:
    """An interpolating quadratic spline: grid, node samples, one coefficient per piece.

    Interpolates the samples exactly and has a continuous first derivative
    at interior nodes, both by construction. Immutable; evaluation is pure
    and thread-safe. An input whose points do not decrease, at least
    _RUN_MIN_POINTS of them and at least _RUN_MIN_PER_PIECE per piece it
    spans, is evaluated by runs of pieces instead of point by point (see
    the module docstring), with the same result to the bit; the domain
    check then reads its two ends alone.
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
        power[1] -= a * (g.nodes[1:] - g.nodes[:-1])
        power[2] = a
        power.setflags(write=False)
        object.__setattr__(self, "_power", power)

    def _eval(self, x, deriv: int):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        g = self.grid
        flat = xs.reshape(-1)
        # a NaN fails the sortedness test, and min/max carry it, so NaN
        # points fail the domain check too
        runs = flat.size >= _RUN_MIN_POINTS and bool((flat[1:] >= flat[:-1]).all())
        if flat.size:
            lo, hi = (flat[0], flat[-1]) if runs else (flat.min(), flat.max())
            if not (lo >= g.a and hi <= g.b):
                outside = ~((flat >= g.a) & (flat <= g.b))
                raise OutOfDomainError(f"x={flat[outside][0]} outside [{g.a}, {g.b}]")
        # piece index k - 1 = min(n - 1, floor((x - a)/h)): a node between
        # two pieces takes the right-hand one, and both agree there by
        # construction. (x - a)/h >= 0, so the cast truncates as floor does,
        # and every gather below reads an array of length n with
        # mode="clip", which sends an index of n (x at b) to the last
        # piece. By runs, the same t gives the same pieces: the run of
        # index k > first starts at the first t >= k, and the last run,
        # its index clipped to n - 1 as well, takes every t after it. With
        # t = x - x_{k-1}, on reused buffers:
        #   value  c0 + t (c1 + t c2)
        #   slope  c1 + 2 c2 t
        t = flat - g.a
        t /= g.h
        if runs:
            first, last = min(int(t[0]), g.n - 1), min(int(t[-1]), g.n - 1)
            runs = flat.size >= _RUN_MIN_PER_PIECE * (last - first + 1)
        if runs:
            edges = np.empty(last - first + 2, dtype=np.intp)
            edges[0], edges[-1] = 0, flat.size
            edges[1:-1] = t.searchsorted(np.arange(first + 1, last + 1))
            counts = edges[1:] - edges[:-1]

            def piece(row, out=None):
                return row[first:last + 1].repeat(counts)
        else:
            km1 = t.astype(np.intp)

            def piece(row, out=None):
                return row.take(km1, out=out, mode="clip")
        c0, c1, c2 = self._power
        # an overflow raises at once, so no pass over the result looks for it
        try:
            with np.errstate(over="raise"):
                np.subtract(flat, piece(g.nodes[:-1], out=t), out=t)
                out = piece(c2)
                out *= t
                if deriv:
                    out *= 2.0
                    out += piece(c1, out=t)
                else:
                    c = piece(c1)
                    out += c
                    out *= t
                    out += piece(c0, out=c)
        except FloatingPointError:
            # the value at b is its sample y_n, though the power form may
            # round it beyond the doubles; any other overflow is refused
            inner = flat != g.b
            try:
                if deriv or inner.all():
                    raise ValueError
                out = np.full(flat.shape, self.samples[-1])
                out[inner] = self._eval(flat[inner], 0)
            except ValueError:
                raise ValueError(f"the spline's {('value', 'slope')[deriv]} overflows a "
                                 f"double at some x in [{lo}, {hi}]") from None
        return float(out[0]) if scalar else out.reshape(xs.shape)

    def __call__(self, x):
        """Spline value at x (scalar or array); raises OutOfDomainError outside
        [a, b], and ValueError when a value overflows a double."""
        return self._eval(x, 0)

    def derivative(self, x):
        """First derivative at x; continuous across interior nodes. Raises as
        __call__ does, for a slope that overflows."""
        return self._eval(x, 1)


def build_spline(grid: Grid, samples: np.ndarray) -> SplineModel:
    """Interpolating spline through the samples, coefficients in closed form.

    Raises ValueError naming the first non-finite sample, and for finite
    samples whose second differences or slopes overflow, the first
    non-finite coefficient a_k, or else power-form slope c1 of piece k.
    """
    # own copy, as the model freezes it; the one sum below tests finiteness
    y = checked_samples(grid, samples, finite=False)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = coeffs_closed_form(second_differences(y, grid), grid.n)
        y.setflags(write=False)
        coeffs.setflags(write=False)
        model = SplineModel(grid, y, coeffs)
        # every sample is in the power form (y_n through c1), so one sum
        # tests them all; a sum of finite entries that overflows is
        # looked through and passes
        total = model._power.sum()
    if not math.isfinite(total):
        checked_samples(grid, y)
        for name, row in (("coefficient a", coeffs),
                          ("power-form slope c1 of piece ", model._power[1])):
            bad = np.flatnonzero(~np.isfinite(row))
            if bad.size:
                k = bad[0] + 1
                raise ValueError(f"{name}{k} on [{grid.nodes[k - 1]}, {grid.nodes[k]}] "
                                 f"is not finite: {row[k - 1]}")
    return model


def fluctuation_energy(model: SplineModel) -> float:
    """Squared L2 distance between the spline and the piecewise-linear interpolant.

    Equals (h^5 / 30) * sum(a_k^2); zero exactly for affine data. Taken as
    (h / 30) * sum((h^2 a_k)^2), so no h^5 or a_k^2 is formed: h^2 a_k is
    on the scale of the samples, whatever the width of the interval.
    """
    h = model.grid.h
    return float(h / 30.0 * np.sum((h * h * model.coeffs) ** 2))


@dataclass(frozen=True)
class ConvergenceRecord:
    """One n of a convergence study; bound includes the rounding allowance
    (see convergence_study), and is a Python float."""

    n: int
    h: float
    max_deviation: float
    bound: float

    @property
    def within_bound(self) -> bool:
        return self.max_deviation <= self.bound


@dataclass(frozen=True)
class ConvergenceReport:
    """Measured sup-norm deviation vs the analytic bound M*h*(b-a-h/2), plus
    a rounding allowance, per n."""

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

    The bound M*h*(b-a-h/2) holds in exact arithmetic whenever
    fpp_bound = M >= sup |f''|. Each record's bound, a Python float, adds
    4 (n + 1) eps Y for rounding, where
    Y = max_k |y_k| + max(|a|, |b|) max_k |y_k - y_{k-1}|/h:

    * each computed sample is within about eps Y of f at its node: f's own
      rounding, and the node's, eps max(|a|, |b|), times the slope;
    * rounding the second differences and their prefix sum costs about as
      much again;
    * a change d in the samples moves the spline by at most n max|d|: the
      chord by max|d|, each second difference by 4 max|d|/h^2, so the
      coefficients (centred prefix sums of n - 1 of them) by
      4 (n - 1) max|d|/h^2, and the correction a_k (x - x_{k-1})(x - x_k),
      at most |a_k| h^2/4, by (n - 1) max|d|;
    * evaluating S and f at a mesh point adds a few eps Y.

    That sums to about (2 n + 4) eps Y, and the allowance is twice it. For
    affine f, where M = 0 and the deviation is rounding alone, 300 random
    targets on intervals in [-5, 10] at n = 2..1000 reached at most 0.1 of
    it, where 4 (n + 1) eps max_k |y_k| alone falls up to 69-fold short
    on a narrow interval about a root of f.

    The deviation is measured over the 1000*n points of np.linspace(a, b,
    1000*n) plus all n+1 nodes (piecewise-quadratic extrema are cheap to
    bracket densely). Both go through the one sweep, max_error, so memory
    is O(quadrature._BLOCK) whatever n is (`converge -p sin2pix --ns 20000`
    peaks at 33 MB RSS, 185 MB with the whole mesh). The nodes are swept
    as np.linspace(a, b, n + 1), whose points k*step + a, the last set to
    b, are the very floats of make_grid's a + h*k, the last set to b; so
    the result is bit-identical to the unblocked max over mesh and nodes.
    Raises InvalidDomainError for a non-finite or negative fpp_bound, and
    (via make_grid) for an n that is not an integer >= 2.
    """
    if not (math.isfinite(fpp_bound) and fpp_bound >= 0.0):
        raise InvalidDomainError(f"need a finite fpp_bound >= 0, got {fpp_bound!r}")
    records = []
    for n in ns:
        grid = make_grid(a, b, n)
        model = build_spline(grid, sample(f, grid))
        d = float(np.maximum(max_error(model, f, a, b, 1000 * grid.n),
                             max_error(model, f, a, b, grid.n + 1)))
        y = model.samples
        scale = np.abs(y).max() + max(abs(a), abs(b)) * np.abs(np.diff(y)).max() / grid.h
        bound = fpp_bound * grid.h * ((b - a) - grid.h / 2.0) + 4 * (grid.n + 1) * _EPS * scale
        records.append(ConvergenceRecord(grid.n, grid.h, d, float(bound)))
    return ConvergenceReport(fpp_bound, tuple(records))
