"""Property tests of the spline, the collocation operator and the solve.

Grids are [a, a + width] with n pieces, drawn as in the other suites:
a in [-10, 10], width in [0.01, 10], n in [2, 60] (n in [2, 30] for the
operator, whose oracle is a Python loop over rows and pieces; n in
[2, 40] on [a, a + width], a in [-2, 2], width in [0.5, 4], when it
checks every rule and layout of limits). The parity
properties solve symmetric Fredholm problems on [-L, L].
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quadspline import (IntegralProblem, OutOfDomainError, build_spline, gauss_legendre,
                        make_grid, solve)
from quadspline.integral_eq import _integral_operator

from oracles import RULE8, chord_plus_correction, summed_piece_weights

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


@given(grid_and_samples(), st.data())
@settings(max_examples=150, deadline=None)
def test_power_form_matches_chord_plus_correction(grid_y, data):
    # one polynomial per piece in two forms, at random points, every node and
    # b. They agree to a few roundings of the terms each form adds up, plus
    # the one gap in exact arithmetic: the chord's constant term is
    # y_{k-1} w_k / h, where the node spacing w_k = x_k - x_{k-1} misses h by
    # the nodes' rounding, and the power form's is y_{k-1}. The chord form's
    # slope rounds 2x - x_{k-1} - x_k at the size of the nodes. A subnormal
    # product rounds by a fixed amount, which the chord form then divides by
    # h or multiplies by a_k.
    g, y = grid_y
    m = build_spline(g, y)
    ts = data.draw(arrays(np.float64, 30, elements=st.floats(0, 1)), label="t")
    xs = np.concatenate([np.minimum(g.a + ts * (g.b - g.a), g.b), g.nodes])
    k = np.minimum(np.floor((xs - g.a) / g.h), g.n - 1).astype(np.intp)
    xk1 = g.nodes[k]
    w, t, c2 = g.nodes[k + 1] - xk1, np.abs(xs - xk1), np.abs(m.coeffs[k])
    dy = np.abs(y[k + 1] - y[k]) / g.h
    eps = np.finfo(float).eps
    floor = 8 * np.finfo(float).smallest_subnormal * (1.0 + 1.0 / g.h + c2)
    value_tol = (8 * eps * (np.abs(y[k]) + t * (dy + c2 * w) + t * t * c2)
                 + np.abs(y[k]) * np.abs(w - g.h) / g.h + floor)
    slope_tol = 8 * eps * (dy + c2 * (w + 2 * t + 2 * np.abs(xs) + np.abs(xk1))) + floor
    assert (np.abs(m(xs) - chord_plus_correction(m, xs, 0)) <= value_tol).all()
    assert (np.abs(m.derivative(xs) - chord_plus_correction(m, xs, 1)) <= slope_tol).all()


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


@st.composite
def operator_case(draw):
    """A grid with n in [2, 40], a Gauss rule of q points, a kernel
    sum c_pq x^p s^q with p, q <= 3, and rows whose limits mix nodes,
    off-node points and b, or share one limit inside the last piece."""
    a = draw(st.floats(-2, 2), label="a")
    width = draw(st.floats(0.5, 4), label="width")
    n = draw(st.integers(2, 40), label="n")
    g = make_grid(a, a + width, n)
    rule = gauss_legendre(draw(st.sampled_from([1, 2, 3, 8, 12]), label="q"))
    # eighths, so that no moment is subnormal
    c = draw(arrays(np.float64, (4, 4), elements=st.integers(-8, 8).map(lambda k: k / 8)),
             label="c")
    p = np.arange(4)
    kernel = lambda x, s: (np.power.outer(x, p) @ c * np.power.outer(s, p)).sum(-1)  # noqa: E731
    if draw(st.booleans(), label="shared"):
        upper = g.nodes[-2] + draw(st.floats(0, 1, exclude_min=True, exclude_max=True),
                                   label="cut") * g.h
        return g, rule, kernel, g.nodes, upper
    limit = st.one_of(st.integers(0, n).map(lambda k: g.nodes[k]),
                      st.floats(0, 1).map(lambda t: min(a + t * width, g.b)),
                      st.just(g.b))
    upper = np.array(draw(st.lists(limit, min_size=1, max_size=12), label="limits"))
    return g, rule, kernel, upper, upper


@given(operator_case())
@settings(max_examples=100, deadline=None)
def test_operator_rows_match_summed_piece_weights_for_any_rule_and_limits(case):
    # full pieces take the folded weights, cut and empty ones their rho
    # correction; with the oracle on the same rule, only rounding differs
    g, rule, kernel, xs, upper = case
    W = _integral_operator(kernel, g, rule, xs, upper)
    oracle = summed_piece_weights(kernel, g, xs, np.broadcast_to(upper, len(xs)), rule)
    scale = np.max(np.abs(oracle), axis=1, keepdims=True)
    assert np.all(np.abs(W - oracle) <= 1e-12 * scale)


# kernels with K(-x, -s) = K(x, s): the Gaussian is positive definite for
# every c > 0, and 1 + c x s positive semidefinite (rank 2) for c >= 0
SYMMETRIC_KERNELS = {
    "gauss": lambda c: lambda x, s: np.exp(-c * (x - s) ** 2),
    "rank2": lambda c: lambda x, s: 1.0 + c * x * s,
}


@st.composite
def symmetric_fredholm(draw, parity):
    """A Fredholm-2 problem on [-L, L] with a symmetric kernel and an even
    (cos kx) or odd (sin kx) forcing, and a lam for which it is uniquely
    solvable: negative with a positive (semi)definite kernel, or 0.5 with
    exp(-(x - s)^2) on [-1, 1], whose first characteristic value is 0.7668."""
    family = draw(st.sampled_from(["gauss", "rank2", "gauss below its first value"]),
                  label="family")
    if family == "gauss below its first value":
        kernel, L, lam = SYMMETRIC_KERNELS["gauss"](1.0), 1.0, 0.5
    else:
        c = draw(st.floats(0.1, 4.0) if family == "gauss" else st.floats(0.0, 2.0), label="c")
        kernel, L = SYMMETRIC_KERNELS[family](c), draw(st.floats(0.1, 3.0), label="L")
        lam = draw(st.floats(-5.0, -0.01), label="lam")
    k = draw(st.floats(0.1, 5.0), label="k")
    forcing = (lambda x: np.cos(k * x)) if parity == "even" else (lambda x: np.sin(k * x))
    return IntegralProblem("fredholm2", kernel, (-L, L), forcing=forcing, lam=lam)


def parity_defect(values, mirrored, sign):
    """max |mirrored - sign * values| relative to max |values|."""
    return np.max(np.abs(mirrored - sign * values)) / np.max(np.abs(values))


@pytest.mark.parametrize("parity", ["even", "odd"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_solve_conserves_parity(parity, data):
    # the paper's parity claim for the equations: a symmetric kernel and an
    # even or odd forcing give samples of the same parity, y[::-1] = +-y, and
    # a spline of that parity everywhere (seen on a 2001-point mesh)
    problem = data.draw(symmetric_fredholm(parity))
    n = data.draw(st.integers(2, 201), label="n")
    sign = 1.0 if parity == "even" else -1.0
    r = solve(problem, n)
    assert parity_defect(r.samples, r.samples[::-1], sign) <= 1e-12
    mesh = np.linspace(*problem.interval, 2001)
    assert parity_defect(r.spline(mesh), r.spline(-mesh), sign) <= 1e-12


@given(c=st.floats(0.2, 4.0), L=st.floats(0.2, 2.0), n=st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_eigenfunctions_are_even_or_odd(c, L, n):
    # the Gaussian kernel is totally positive, so its characteristic values
    # are simple and each eigenfunction is even or odd
    problem = IntegralProblem("fredholm_eigen", SYMMETRIC_KERNELS["gauss"](c), (-L, L),
                              bracket=(0.0, 30.0))
    r = solve(problem, n)
    assert r.eigen
    for _value, sub in r.eigen:
        y = sub.samples
        assert min(parity_defect(y, y[::-1], 1.0), parity_defect(y, y[::-1], -1.0)) <= 1e-12
