import tracemalloc
from math import comb

import numpy as np
import pytest

from quadspline import InvalidDomainError, gauss_legendre, make_grid, registry
from quadspline.lagrange import lagrange_interpolant
from quadspline.quadrature import panel_points


def barycentric_reference(nodes, values, weights, x):
    """Oracle: the second barycentric form, one point at a time."""
    out = []
    for xi in x:
        d = xi - nodes
        if np.any(d == 0.0):
            out.append(values[np.flatnonzero(d == 0.0)[0]])
        else:
            q = weights / d
            out.append(np.sum(q * values) / np.sum(q))
    return np.array(out)


def node_order_reference(grid, values, x):
    """Oracle: the evaluation's operations at one point off the nodes, in
    Python floats, over the nodes in order."""
    num = den = 0.0
    for j, (xj, yj) in enumerate(zip(grid.nodes.tolist(), values.tolist())):
        t = (-1.0) ** j * comb(grid.n, j) / (x - xj)
        den += t
        num += t * yj
    return num / den


def equidistant_weights(n):
    return np.array([(-1.0) ** j * comb(n, j) for j in range(n + 1)])


@pytest.mark.parametrize("n", [10, 15, 20])
def test_matches_per_point_reference(n):
    # 8,640 Gauss points (720 panels of a 12-point rule, as many as table 1
    # evaluates over n = 10, 15, 20), the kink at 0 and the nodes
    grid = make_grid(-1.0, 1.0, n)
    values = np.abs(grid.nodes)
    pts, _ = panel_points(-1.0, 1.0, 720, gauss_legendre(12))
    x = np.concatenate((pts.ravel(), [0.0], grid.nodes))
    got = lagrange_interpolant(grid, values)(x)
    want = barycentric_reference(grid.nodes, values, equidistant_weights(n), x)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_node_hit_returns_sample_exactly():
    grid = make_grid(0.0, 1.0, 12)
    values = np.sin(7.0 * grid.nodes) + 0.1
    f = lagrange_interpolant(grid, values)
    np.testing.assert_array_equal(f(grid.nodes), values)
    np.testing.assert_array_equal(f(grid.nodes[::-1]), values[::-1])
    mixed = np.array([grid.nodes[3], 0.51, grid.nodes[3]])
    out = f(mixed)
    assert out[0] == out[2] == values[3]


def test_node_hit_in_a_later_block_returns_sample_exactly():
    grid = make_grid(0.0, 1.0, 12)
    values = np.sin(7.0 * grid.nodes) + 0.1
    f = lagrange_interpolant(grid, values)
    rows = 10_082  # hits far into a long array of points
    x = np.linspace(0.01, 0.99, 3 * rows)
    at = [rows + 5, 2 * rows + 1, 3 * rows - 1]
    x[at] = grid.nodes[[2, 0, 12]]
    out = f(x)
    np.testing.assert_array_equal(out[at], values[[2, 0, 12]])
    assert np.isfinite(out).all()


@pytest.mark.parametrize("order, named", [((0, 1, 2), "1e-310"), ((2, 0, 1), "-1e-310")])
def test_overflow_beside_a_node_hit_named(order, named):
    # x_7 is a hit; a subnormal distance to the node 0 makes its quotient
    # 252/1e-310 overflow, a row that is not finite but no hit
    grid = make_grid(-1.0, 1.0, 10)
    f = lagrange_interpolant(grid, np.abs(grid.nodes))
    x = np.array([grid.nodes[7], 1e-310, -1e-310])[list(order)]
    with pytest.raises(InvalidDomainError, match=f"sums at x={named} overflow"):
        f(x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_is_refused_by_name(bad):
    grid = make_grid(-1.0, 1.0, 10)
    f = lagrange_interpolant(grid, np.abs(grid.nodes))
    for x in (bad, np.array([0.5, 0.3, bad, 0.1])):
        with pytest.raises(InvalidDomainError, match=f"x={bad} is not finite"):
            f(x)


def test_scalar_in_scalar_out():
    grid = make_grid(-1.0, 1.0, 10)
    f = lagrange_interpolant(grid, grid.nodes**2)
    for x in (0.3, grid.nodes[4], np.float64(-0.7)):
        y = f(x)
        assert isinstance(y, float)
        assert y == pytest.approx(x * x, rel=1e-12, abs=1e-14)


def test_array_shape_preserved():
    grid = make_grid(0.0, 2.0, 6)
    f = lagrange_interpolant(grid, 3.0 * grid.nodes - 1.0)
    x = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    np.testing.assert_allclose(f(x), 3.0 * x - 1.0, rtol=1e-12, atol=1e-12)


def test_weights_beyond_a_double_are_refused():
    # C(1029, 514) is below the largest double, C(1030, 515) above it
    lagrange_interpolant(make_grid(-1.0, 1.0, 1029), np.zeros(1030))
    with pytest.raises(InvalidDomainError, match="C\\(1030, 515\\) overflows"):
        lagrange_interpolant(make_grid(-1.0, 1.0, 1030), np.zeros(1031))


def test_evaluation_memory_is_blocked():
    # the n = 100 error integral evaluates 19,200 points against 101 nodes:
    # a (points, nodes) temporary would be 15.5 MB; the node loop keeps
    # three arrays of the points' length, 0.5 MB, and makes no hit mask
    # unless a point is not finite
    tracemalloc.start()
    try:
        registry.lagrange_error("abs", 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6, peak


@pytest.mark.parametrize("n", [10, 20, 100])
def test_bits_do_not_depend_on_block_position(n):
    # each row's sums are its own: one call on 4,000 sorted points, 37-point
    # chunks of them and single points give the same bits
    grid = make_grid(-1.0, 1.0, n)
    rng = np.random.default_rng(n)
    f = lagrange_interpolant(grid, rng.standard_normal(n + 1))
    x = np.sort(rng.uniform(-1.0, 1.0, 4000))
    whole = f(x).view(np.int64)
    chunked = np.concatenate([f(x[i:i + 37]) for i in range(0, x.size, 37)])
    single = np.array([f(xi) for xi in x])
    np.testing.assert_array_equal(chunked.view(np.int64), whole)
    np.testing.assert_array_equal(single.view(np.int64), whole)


@pytest.mark.parametrize("values,message", [
    ([0.0, 1.0, 2.0], r"expected 5 samples, got \(3,\)"),
    ([0.0, 1.0, np.nan, 2.0, 3.0], "sample 2 at x=0.5 is not finite: nan"),
], ids=["too few", "nan"])
def test_bad_samples_refused_when_built(values, message):
    # refused as build_spline refuses them, before any evaluation
    with pytest.raises(ValueError, match=message):
        lagrange_interpolant(make_grid(0.0, 1.0, 4), values)


# The exact values below are 400-digit mpmath evaluations over the same
# doubles: the degree-n interpolant through the double nodes and samples,
# at the double Gauss points of the error integral, with its double
# weights and half-widths, every operation at 400 digits.
EXACT_ABS_ERROR_100 = 5.0073831263751726188e+28   # lagrange_error("abs", 100)


@pytest.mark.parametrize("n", [20, 100])
def test_sums_run_in_node_order_bit_for_bit(n):
    grid = make_grid(-1.0, 1.0, n)
    values = np.random.default_rng(n).standard_normal(n + 1)
    x = np.array([-0.97, -0.5 + 1e-7, 0.013, 0.25, 0.9, 0.999])
    got = lagrange_interpolant(grid, values)(x)
    want = np.array([node_order_reference(grid, values, xi) for xi in x])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n, bound", [(100, 2e-12), (200, 1e-6)])
def test_cancelling_sums_stay_accurate(n, bound):
    # cos is interpolated to far below rounding, so the error is rounding
    # alone: summed in node order it is 7.3e-13 at n = 100 and 2.8e-7 at
    # n = 200; in numpy's eight same-sign partial sums of a row, 2.2e-11
    # and 5.6e-6
    grid = make_grid(-1.0, 1.0, n)
    f = lagrange_interpolant(grid, np.cos(grid.nodes))
    x = np.linspace(-0.5, 0.5, 2001) + 1e-7
    assert np.max(np.abs(f(x) - np.cos(x))) <= bound


def test_sums_near_the_ends_at_n200_are_finite():
    # summed in same-sign groups they cancelled to 0 near x = -0.908
    grid = make_grid(-1.0, 1.0, 200)
    f = lagrange_interpolant(grid, np.cos(grid.nodes))
    assert np.isfinite(f(np.linspace(-0.999, 0.999, 2001))).all()


def test_blowup_error_within_a_factor_of_1000_of_exact():
    # 5.232289e+30 summed in node order; 9.837482e+39 in same-sign groups
    err = registry.lagrange_error("abs", 100)
    assert EXACT_ABS_ERROR_100 / 1e3 <= err <= EXACT_ABS_ERROR_100 * 1e3
