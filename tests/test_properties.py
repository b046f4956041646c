"""Property tests of the spline and the collocation operator over random grids.

Grids are [a, a + width] with n pieces, drawn as in the other suites:
a in [-10, 10], width in [0.01, 10], n in [2, 60] (n in [2, 30] for the
operator, whose oracle is a Python loop over rows and pieces).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quadspline import OutOfDomainError, build_spline, make_grid
from quadspline.integral_eq import _integral_operator

from oracles import RULE8, summed_piece_weights

SAMPLES = st.floats(-1e3, 1e3)


@st.composite
def grid_and_samples(draw):
    a = draw(st.floats(-10, 10), label="a")
    width = draw(st.floats(0.01, 10), label="width")
    n = draw(st.integers(2, 60), label="n")
    g = make_grid(a, a + width, n)
    return g, draw(arrays(np.float64, n + 1, elements=SAMPLES), label="y")


@st.composite
def mirrored(draw, parity, n_parity):
    """A symmetric grid [-c, c] and samples that are even or odd about 0."""
    c = draw(st.floats(0.01, 10), label="c")
    n = 2 * draw(st.integers(1, 30), label="n // 2") + (n_parity == "odd")
    half = draw(arrays(np.float64, (n + 1) // 2, elements=SAMPLES), label="half")
    sign = 1.0 if parity == "even" else -1.0
    middle = [draw(SAMPLES, label="middle") if parity == "even" else 0.0] if n % 2 == 0 else []
    y = np.concatenate([half, middle, sign * half[::-1]])
    return make_grid(-c, c, n), y, sign


def _scale(y, g):
    """Size of the slopes at the nodes: roundoff in the node positions and in
    the prefix-sum coefficients is relative to this, not to the values."""
    return (1.0 + np.abs(y).max()) * (1.0 + max(abs(g.a), abs(g.b)) / g.h)


@given(grid_and_samples())
@settings(max_examples=150, deadline=None)
def test_interpolates_nodes_exactly(grid_y):
    g, y = grid_y
    m = build_spline(g, y)
    np.testing.assert_allclose(m(g.nodes), y, rtol=1e-12, atol=1e-12 * _scale(y, g))


@given(grid_and_samples())
@settings(max_examples=150, deadline=None)
def test_derivative_continuous_at_interior_nodes(grid_y):
    # the left piece's slope against the right piece's, written out
    # independently of the evaluator
    g, y = grid_y
    m = build_spline(g, y)
    h, a = g.h, m.coeffs
    tol = 1e-10 * _scale(y, g)
    for k in range(1, g.n):
        left = (y[k] - y[k - 1]) / h + a[k - 1] * h
        right = (y[k + 1] - y[k]) / h - a[k] * h
        assert left == pytest.approx(right, rel=1e-10, abs=tol)


@pytest.mark.parametrize("n_parity", ["even", "odd"])
@pytest.mark.parametrize("parity", ["even", "odd"])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_mirror_symmetry(parity, n_parity, data):
    # even samples give mirrored coefficients and values, odd ones give
    # mirrored with a sign flip, for an even and an odd number of pieces
    g, y, sign = data.draw(mirrored(parity, n_parity))
    assert g.n % 2 == (n_parity == "odd")
    m = build_spline(g, y)
    np.testing.assert_allclose(m.coeffs, sign * m.coeffs[::-1],
                               atol=1e-10 * (np.abs(m.coeffs).max() + 1.0))
    xs = data.draw(arrays(np.float64, 20, elements=st.floats(-1, 1)), label="t") * g.b
    np.testing.assert_allclose(m(xs), sign * m(-xs), rtol=1e-9, atol=1e-10 * _scale(y, g))


@given(grid_and_samples(), st.data())
@settings(max_examples=100, deadline=None)
def test_non_finite_sample_names_its_index(grid_y, data):
    g, y = grid_y
    i = data.draw(st.integers(0, g.n), label="i")
    y[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="bad")
    with pytest.raises(ValueError, match=f"sample {i} at"):
        build_spline(g, y)


@given(grid_and_samples(), st.data())
@settings(max_examples=100, deadline=None)
def test_nan_or_outside_point_raises_out_of_domain(grid_y, data):
    g, y = grid_y
    m = build_spline(g, y)
    width = g.b - g.a
    bad = data.draw(st.one_of(
        st.just(np.nan),
        st.floats(1e-3, 10).map(lambda u: g.b + u * width),
        st.floats(1e-3, 10).map(lambda u: g.a - u * width)), label="bad")
    inside = data.draw(st.lists(st.floats(0, 1), max_size=10), label="t")
    xs = np.array(data.draw(st.permutations([g.a + t * width for t in inside] + [bad]),
                            label="xs"))
    with pytest.raises(OutOfDomainError):
        m(xs)
    with pytest.raises(OutOfDomainError):
        m(bad)
    with pytest.raises(OutOfDomainError):
        m.derivative(xs)


@st.composite
def grid_and_kernel(draw):
    """A grid with n in [2, 30] and K(x, s) = sum c_pq x^p s^q, p, q <= 2."""
    a = draw(st.floats(-10, 10), label="a")
    width = draw(st.floats(0.01, 10), label="width")
    n = draw(st.integers(2, 30), label="n")
    c = draw(arrays(np.float64, (3, 3), elements=st.floats(-1, 1)), label="c")
    p = np.arange(3)
    kernel = lambda x, s: (np.power.outer(x, p) @ c * np.power.outer(s, p)).sum(-1)  # noqa: E731
    return make_grid(a, a + width, n), kernel


@pytest.mark.parametrize("rows", ["fredholm", "volterra", "interior"])
@given(grid_and_kernel(), st.lists(st.floats(0, 1), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_operator_rows_match_summed_piece_weights(rows, grid_kernel, fractions):
    # row i of the operator is the sum of the oracle's piece weights over
    # the pieces that [a, upper_i] covers: all of them for Fredholm rows
    # (upper = b), pieces 1..i for Volterra rows (upper = x_i), and for
    # interior rows (xs = upper, sorted points of [a, b], as in the
    # Volterra-1 closure) the pieces before upper_i plus part of its own
    g, kernel = grid_kernel
    if rows == "fredholm":
        xs, upper = g.nodes, np.full(g.n + 1, g.b)
    elif rows == "volterra":
        xs = upper = g.nodes
    else:
        xs = upper = np.sort(np.minimum(g.a + np.array(fractions) * (g.b - g.a), g.b))
    W = _integral_operator(kernel, g, RULE8, xs, upper)
    oracle = summed_piece_weights(kernel, g, xs, upper)
    # the oracle takes s - x_{k-1} from absolute positions, so its roundoff
    # grows like eps |x| / h; the operator builds the offsets directly.
    # Subnormal moments (from tiny drawn coefficients) round absolutely.
    rtol = 1e-12 + 1e-14 * max(abs(g.a), abs(g.b)) / g.h
    scale = np.max(np.abs(oracle), axis=1, keepdims=True)
    assert np.all(np.abs(W - oracle) <= rtol * scale + 1e3 * np.finfo(float).tiny)
