import tracemalloc
from math import comb

import numpy as np
import pytest

from quadspline import InvalidDomainError, gauss_legendre, make_grid, registry
from quadspline.lagrange import _BLOCK, lagrange_interpolant
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
    rows = _BLOCK // 13
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
    # unblocked, each (points, nodes) temporary was 15.5 MB and the peak 49 MB;
    # blocked, the quotients overwrite the differences, and no hit mask or
    # second copy of a block is made
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
