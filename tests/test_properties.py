"""Property tests of the spline, the collocation operator and the solve.

Grids are [a, a + width] with n pieces, drawn as in the other suites: a in
[-10, 10], width in [0.01, 10], n in [2, 60] (n in [2, 30] for the operator,
whose oracle is a Python loop over rows and pieces; n in [2, 40] on
[a, a + width], a in [-2, 2], width in [0.5, 4], when it checks every rule
and layout of piece counts). The parity properties solve symmetric Fredholm
problems on [-L, L]. The next ones hold the package's ufunc and array-method
forms to the bit against the numpy wrappers they replaced
(tests/oracles.py). The eigen search and the dense solve are fed extreme
doubles and scaled registry matrices, the grid, the spline and its
evaluation extreme ends, samples and points, the quadrature functions
extreme ends and values, panel_points extreme ends, and solve user problems
of every kind whose kernel and forcing scales, lam, interval and bracket
are extreme; the last properties solve every registry problem with its
data or its interval scaled by a power of two, and the Volterra-2 problems
with their forcing, or their kernel against lam, scaled so that the samples
scale exactly, with every warning an error.
"""
import math
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quadspline import (IntegralProblem, InvalidDomainError, OutOfDomainError, SingularMatrixError,
                        build_spline, coeffs_closed_form, find_real_eigenvalues, gauss_legendre,
                        integrate_panels, l2_error, make_grid, max_error, sample, solve,
                        solve_dense)
from quadspline.integral_eq import _FIELDS as FIELDS, _integral_operator
from quadspline.linsolve import RCOND_MIN, _merged_roots
from quadspline.quadrature import panel_points
from quadspline.registry import PROBLEMS, get_problem

from oracles import (RULE8, chord_plus_correction, coeffs_closed_form_mean, merged_roots_split,
                     panel_points_linspace, power_rows_diff, summed_piece_weights)

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


def poly_kernel(c):
    """K(x, s) = sum c_pq x^p s^q over p, q < len(c), for a square array c."""
    p = np.arange(len(c))
    return lambda x, s: (np.power.outer(x, p) @ c * np.power.outer(s, p)).sum(-1)


@st.composite
def grid_and_kernel(draw):
    """A grid with n in [2, 30] and K(x, s) = sum c_pq x^p s^q, p, q <= 2."""
    a = draw(st.floats(-10, 10), label="a")
    width = draw(st.floats(0.01, 10), label="width")
    n = draw(st.integers(2, 30), label="n")
    c = draw(arrays(np.float64, (3, 3), elements=st.floats(-1, 1)), label="c")
    return make_grid(a, a + width, n), poly_kernel(c)


@pytest.mark.parametrize("rows", ["fredholm", "volterra"])
@given(grid_and_kernel())
@settings(max_examples=60, deadline=None)
def test_operator_rows_match_summed_piece_weights(rows, grid_kernel):
    # row i of the operator is the sum of the oracle's piece weights over
    # the pieces it reaches: all of them for Fredholm rows (up to b),
    # pieces 1..i for Volterra rows (up to x_i)
    g, kernel = grid_kernel
    reach = np.full(g.n + 1, g.n) if rows == "fredholm" else np.arange(g.n + 1)
    W = _integral_operator(kernel, g, RULE8, g.nodes, reach)
    oracle = summed_piece_weights(kernel, g, g.nodes, g.nodes[reach])
    # the oracle takes s - x_{k-1} from absolute positions, so its roundoff
    # grows like eps |x| / h; the operator builds the offsets directly.
    # Subnormal moments (from tiny drawn coefficients) round absolutely.
    rtol = 1e-12 + 1e-14 * max(abs(g.a), abs(g.b)) / g.h
    scale = np.max(np.abs(oracle), axis=1, keepdims=True)
    assert np.all(np.abs(W - oracle) <= rtol * scale + 1e3 * np.finfo(float).tiny)


@st.composite
def operator_case(draw):
    """A grid with n in [2, 40], a Gauss rule of q points, a kernel
    sum c_pq x^p s^q with p, q <= 3, and rows at points in [a - 2, b + 2]
    with counts in 0..n each, or at the nodes with the count n - 1 shared
    (the Volterra-1 closure's)."""
    a = draw(st.floats(-2, 2), label="a")
    width = draw(st.floats(0.5, 4), label="width")
    n = draw(st.integers(2, 40), label="n")
    g = make_grid(a, a + width, n)
    rule = gauss_legendre(draw(st.sampled_from([1, 2, 3, 8, 12]), label="q"))
    # eighths, so that no coefficient is subnormal
    c = draw(arrays(np.float64, (4, 4), elements=st.integers(-8, 8).map(lambda k: k / 8)),
             label="c")
    kernel = poly_kernel(c)
    if draw(st.booleans(), label="shared"):
        return g, rule, kernel, g.nodes, n - 1
    reach = np.array(draw(st.lists(st.integers(0, n), min_size=1, max_size=12), label="reach"))
    xs = np.array(draw(st.lists(st.floats(g.a - 2, g.b + 2), min_size=len(reach),
                                max_size=len(reach)), label="xs"))
    return g, rule, kernel, xs, reach


@given(operator_case())
@settings(max_examples=100, deadline=None)
def test_operator_rows_match_summed_piece_weights_for_any_rule_and_counts(case):
    # reached pieces take the folded weights, and empty ones are zeroed;
    # with the oracle on the same rule, only rounding differs, and
    # subnormal moments (a kernel's powers of a point near 0) round
    # absolutely
    g, rule, kernel, xs, reach = case
    W = _integral_operator(kernel, g, rule, xs, reach)
    oracle = summed_piece_weights(kernel, g, xs, g.nodes[np.broadcast_to(reach, len(xs))], rule)
    scale = np.max(np.abs(oracle), axis=1, keepdims=True)
    assert np.all(np.abs(W - oracle) <= 1e-12 * scale + 1e3 * np.finfo(float).tiny)


@given(operator_case(), st.floats(-3, 3), st.floats(0.1, 30))
@settings(max_examples=100, deadline=None)
def test_causal_operator_is_rank_one_above_the_diagonal(case, shift, freq):
    # a causal row i reaches only the pieces up to x_i, but every piece's
    # quadratic coefficient depends on all samples through the closed form,
    # whose dependence on the samples beyond x_i is one alternating vector:
    # the strict upper triangle of W is u v^T with u = W[:, n],
    # v_j = (-1)^(n - j) 4 (n - j) for j < n and v_n = 1, for any kernel,
    # interval and rule (a kernel with a non-polynomial part here)
    g, rule, poly, _, _ = case
    n = g.n
    W = _integral_operator(lambda x, s: poly(x, s) + np.sin(freq * (x - shift * s)),
                           g, rule, g.nodes, np.arange(n + 1))
    j = np.arange(n + 1)
    v = np.where(j < n, (-1.0) ** (n - j) * 4.0 * (n - j), 1.0)
    residue = np.triu(W - np.outer(W[:, n], v), 1)
    assert np.abs(residue).max() <= (n + 1) * np.finfo(float).eps * np.abs(W).max()


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


# Bit identity with numpy's Python-level wrappers: each form the package
# uses on its per-call paths gives the very doubles of the wrapper form.

ENDS = st.floats(-8e307, 8e307, allow_subnormal=True)  # hi - lo stays finite


@given(ENDS, ENDS, st.integers(1, 64), st.integers(1, 12))
@example(0.0, 1e-323, 4, 8)        # the step underflows to 0
@example(1e308, 1.7e308, 4, 8)     # ends near the largest double
@settings(max_examples=200, deadline=None)
def test_panel_points_are_the_linspace_form_bit_for_bit(e0, e1, panels, order):
    lo, hi = min(e0, e1), max(e0, e1)
    rule = gauss_legendre(order)
    pts, half = panel_points(lo, hi, panels, rule)
    want_pts, want_half = panel_points_linspace(lo, hi, panels, rule)
    assert pts.tobytes() == want_pts.tobytes()
    assert half.tobytes() == want_half.tobytes()


@pytest.mark.parametrize("columns", [None, 1, 3])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_closed_form_is_the_mean_form_bit_for_bit(columns, data):
    # 1-D second differences, and 2-D ones of one or several columns
    n = data.draw(st.integers(2, 60), label="n")
    shape = (n - 1,) if columns is None else (n - 1, columns)
    d = data.draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)), label="d")
    assert coeffs_closed_form(d, n).tobytes() == coeffs_closed_form_mean(d, n).tobytes()


@given(grid_and_samples())
@settings(max_examples=100, deadline=None)
def test_power_rows_are_the_diff_form_bit_for_bit(grid_y):
    m = build_spline(*grid_y)
    assert m._power.tobytes() == power_rows_diff(m).tobytes()


@st.composite
def root_candidates(draw):
    """Sorted values in clusters: each centre with up to two neighbours
    within 2e-6 (1 + |centre|), on both sides of the merge threshold."""
    lams = []
    for c in draw(st.lists(st.floats(-1e3, 1e3), max_size=6), label="centres"):
        lams.append(c)
        for _ in range(draw(st.integers(0, 2), label="neighbours")):
            lams.append(c + draw(st.floats(-2e-6, 2e-6), label="offset") * (1.0 + abs(c)))
    return np.sort(np.array(lams, dtype=float))


SPLIT = 3.0 * 1.5e-8  # LAPACK splits a defective double root by about sqrt(eps)


@given(root_candidates())
@example(np.array([]))                              # no root
@example(np.array([-3.0]))                          # one root
@example(np.array([-3.0 - SPLIT, -3.0 + SPLIT]))    # a split double root
@example(np.array([-3.0 - SPLIT, -3.0 + SPLIT, -1.0]))
@settings(max_examples=200, deadline=None)
def test_merged_roots_are_the_split_form_bit_for_bit(lams):
    got, want = _merged_roots(lams), merged_roots_split(lams)
    assert np.array(got).tobytes() == np.array(want).tobytes()


# ±0, the smallest subnormal and a larger one, the smallest normal, ±1e±308,
# the largest double, ±inf and NaN
EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                            1e-308, -1e-308, 1e308, -1e308, 1.7976931348623157e308,
                            np.inf, -np.inf, np.nan]) | st.floats(allow_subnormal=True)
KRASNOV2 = get_problem("krasnov2")


@st.composite
def eigen_search(draw):
    """alpha and a bracket: extreme entries and ends, or krasnov2's W and
    bracket scaled by 2^k and 2^-k for |k| <= 1000."""
    if draw(st.booleans(), label="registry"):
        n = draw(st.sampled_from([2, 5, 11]), label="n")
        k = draw(st.integers(-1000, 1000), label="k")
        g = make_grid(*KRASNOV2.interval, n)
        alpha = np.ldexp(_integral_operator(KRASNOV2.kernel, g, RULE8, g.nodes, n), k)
        if draw(st.booleans(), label="registry bracket"):
            lo, hi = (float(np.ldexp(end, -k)) for end in KRASNOV2.bracket)
            return alpha, lo, hi
    else:
        m = draw(st.integers(1, 4), label="m")
        alpha = draw(arrays(np.float64, (m, m), elements=EXTREMES), label="alpha")
    return alpha, draw(EXTREMES, label="lo"), draw(EXTREMES, label="hi")


@given(eigen_search())
@example((np.full((3, 3), 1e-320), -1e308, 1e308))   # 1/mu overflows
@example((np.full((3, 3), 1e308), -1.0, 1.0))        # ||alpha||_inf overflows
@settings(max_examples=300, deadline=None)
def test_eigen_search_returns_finite_roots_or_names_the_bad_input(case):
    alpha, lo, hi = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            results = find_real_eigenvalues(alpha, lo, hi)
        except ValueError as exc:
            # numpy's LinAlgError is a ValueError too, and must not escape
            assert not isinstance(exc, np.linalg.LinAlgError), exc
            assert any(name in str(exc) for name in ("alpha", "lo", "hi")), exc
            return
    for r in results:
        assert lo <= r.value <= hi
        assert np.isfinite(r.vector).all() and np.isfinite(r.residual)


@cache
def registry_system(pid, n):
    """The system solve hands solve_dense for a registry problem: I - lam W
    and f, or for a causal one the trailing block and its two columns."""
    entry = get_problem(pid)
    g = make_grid(*entry.interval, n)
    A = np.eye(n + 1) - entry.lam * _integral_operator(
        entry.kernel, g, RULE8, g.nodes, np.arange(n + 1) if entry.causal else n)
    f = sample(entry.forcing, g)
    return (A[1:, 1:], np.column_stack((f[1:], -A[1:, 0]))) if entry.causal else (A, f)


@st.composite
def dense_system(draw):
    """A and b: extreme entries, m = 1..4, with one or two columns of b, or
    krasnov1's or krasnov3's system at n = 80 with A scaled by 2^k and b by
    2^j, |k|, |j| <= 1100."""
    if draw(st.booleans(), label="registry"):
        pid = draw(st.sampled_from(["krasnov1", "krasnov3"]), label="problem")
        A, b = registry_system(pid, 80)
        k, j = (draw(st.integers(-1100, 1100), label=name) for name in ("k", "j"))
        with np.errstate(over="ignore"):
            return np.ldexp(A, k), np.ldexp(b, j)
    m = draw(st.integers(1, 4), label="m")
    shape = (m,) if draw(st.booleans(), label="vector b") else (m, 2)
    return (draw(arrays(np.float64, (m, m), elements=EXTREMES), label="A"),
            draw(arrays(np.float64, shape, elements=EXTREMES), label="b"))


# 2|a_ii| overflows, though the margin is 2^975 and 1/cond_inf(A) about 2^-49
@example((np.array([[2.0**1023, 2.0**1023 - 2.0**975], [2.0**1023 - 2.0**975, 2.0**1023]]),
          np.ones(2)))
@example((np.full((3, 3), 1e308), np.ones(3)))        # ||A||_inf overflows
@example((np.full((3, 3), 1e-320), np.ones(3)))       # subnormal: Varah's bound overflows
@given(dense_system())
@settings(max_examples=300, deadline=None)
def test_dense_solve_returns_finite_x_or_names_the_bad_input(case):
    # a finite x that passes the gate, or a refusal: SingularMatrixError, or
    # a ValueError naming A or b, never numpy's LinAlgError or a warning
    A, b = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            x = solve_dense(A, b)
        except SingularMatrixError:
            return
        except ValueError as exc:
            # numpy's LinAlgError is a ValueError too, and must not escape
            assert not isinstance(exc, np.linalg.LinAlgError), exc
            assert str(exc).startswith(("A[", "b[")), exc
            return
    assert x.shape == b.shape and np.isfinite(x).all()
    assert 1.0 / np.linalg.cond(A, np.inf) > RCOND_MIN


@st.composite
def spline_case(draw):
    """Ends, in order or not, n in {2, 3, 10, 1000}, samples and points
    from EXTREMES, the fractions of [a, b] at which more points lie, and
    whether to evaluate a sorted mesh of 4096 points of [a, b] too, which
    goes by runs of pieces."""
    ends = draw(st.lists(EXTREMES, min_size=2, max_size=2), label="ends")
    if draw(st.booleans(), label="sorted"):
        ends.sort()
    a, b = ends
    n = draw(st.sampled_from([2, 3, 10, 1000]), label="n")
    y = draw(arrays(np.float64, n + 1, elements=EXTREMES), label="y")
    points = draw(arrays(np.float64, draw(st.integers(1, 4), label="k"), elements=EXTREMES),
                  label="points")
    fractions = draw(arrays(np.float64, draw(st.integers(1, 4), label="j"),
                            elements=st.floats(0.0, 1.0)), label="fractions")
    return a, b, n, y, points, fractions, draw(st.booleans(), label="mesh")


@given(spline_case())
# the last piece's slope, near 2.9e308 at b, overflows, and its value may
# round beyond the largest double there
@example((0.0, 12.0, 10, np.append(np.zeros(10), 1.7976931348623157e308), np.zeros(1),
          np.zeros(1), True))
@settings(max_examples=300, deadline=None)
def test_spline_gives_finite_values_or_names_the_bad_input(case):
    # a grid, a model and finite values and slopes, or a refusal that names
    # the ends, a sample, a coefficient or slope, a point outside [a, b], or
    # the range of points where a value or slope overflows; no warning escapes
    a, b, n, y, points, fractions, mesh = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            g = make_grid(a, b, n)
        except InvalidDomainError as exc:
            assert f"a={a}" in str(exc) or f"[{a}, {b}]" in str(exc), exc
            return
        try:
            model = build_spline(g, y)
        except ValueError as exc:
            assert type(exc) is ValueError, exc
            assert str(exc).startswith(("sample ", "coefficient a", "power-form slope c1")), exc
            return
        inner = np.clip(a + fractions * (b - a), a, b)
        for x in [points, inner] + [np.linspace(a, b, 4096)] * mesh:
            for f in (model, model.derivative):
                try:
                    values = f(x)
                except OutOfDomainError as exc:
                    assert str(exc).startswith("x=") and f"[{a}, {b}]" in str(exc), exc
                    continue
                except ValueError as exc:  # a value or slope beyond the doubles
                    where = f"overflows a double at some x in [{x.min()}, {x.max()}]"
                    assert where in str(exc), exc
                    continue
                assert np.isfinite(values).all(), (x, values)


# the finite doubles of EXTREMES: ±0, subnormals, ±1e±308 and the largest
FINITE_EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                                   1e-308, -1e-308, 1e308, -1e308, 1.7976931348623157e308]) \
    | st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


def by_position(values):
    """A function that gives `values`, repeated, at the points it is called on."""
    return lambda x: np.resize(values, np.shape(x))


@st.composite
def quadrature_case(draw):
    """One of the three quadrature functions, the values of its integrand
    (or of approx and reference) drawn from FINITE_EXTREMES, and two
    distinct ends drawn from EXTREMES, in order or not."""
    func = draw(st.sampled_from(["integrate_panels", "l2_error", "max_error"]), label="func")
    values = [draw(arrays(np.float64, draw(st.integers(1, 6), label="k"),
                          elements=FINITE_EXTREMES), label="values") for _ in range(2)]
    ends = draw(st.lists(EXTREMES, min_size=2, max_size=2, unique=True), label="ends")
    if draw(st.booleans(), label="sorted"):
        ends.sort()
    lo, hi = ends
    if func == "max_error":
        return func, values, lo, hi, draw(st.integers(2, 40), label="samples")
    return func, values, lo, hi, draw(st.integers(1, 6), label="panels"), \
        gauss_legendre(draw(st.sampled_from([1, 2, 4, 8]), label="q"))


def integral_bounds(vals, half, weights, power):
    """The exact integral of the composite rule on these doubles, and the
    error the doubles may make: 1e-12 of the sum of the absolute terms,
    plus the spacing of the subnormals at the scale the rule sums them,
    unscaled or scaled by the powers of two of max |vals| and max half."""
    terms = [Fraction(h) * Fraction(w) * Fraction(v) ** power
             for h, row in zip(half, vals) for w, v in zip(weights, row)]
    e = math.frexp(float(np.abs(vals).max()))[1]
    k = math.frexp(float(half.max()))[1]
    floor = Fraction(2) ** (power * e + k - 1074) + Fraction(2) ** -1074 * (1 + Fraction(half.max()))
    return sum(terms), Fraction(1, 10 ** 12) * sum(map(abs, terms)) + 64 * len(terms) * floor


@given(quadrature_case())
@example(("integrate_panels", [np.array([1e308]), np.array([0.0])], 0.0, 1e-300, 3,
          gauss_legendre(4)))
@example(("l2_error", [np.array([1e200]), np.array([0.0])], 0.0, 1e-300, 3, gauss_legendre(4)))
@example(("max_error", [np.array([1e308]), np.array([-1e308])], 0.0, 1.0, 11))
# the step of the panel ends times 3 overflows where hi replaces it
@example(("integrate_panels", [np.array([0.0]), np.array([0.0])], 0.0, 1.7976931348623157e308,
          3, gauss_legendre(1)))
@settings(max_examples=300, deadline=None)
def test_quadrature_returns_finite_values_or_names_the_range(case):
    # a finite integral or max deviation is returned, to within the
    # rounding of its terms; one beyond the largest double, a deviation
    # that overflows or a range that is not one is refused by its range
    func, (a, r), lo, hi, *args = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if func == "integrate_panels":
                got = integrate_panels(by_position(a), lo, hi, *args)
            else:
                got = globals()[func](by_position(a), by_position(r), lo, hi, *args)
        except (InvalidDomainError, ValueError) as exc:
            assert f"{lo}" in str(exc) and f"{hi}" in str(exc), exc
            refused = exc
        else:
            refused = None
    if not math.isfinite(hi - lo):
        assert isinstance(refused, InvalidDomainError) and "finite endpoints" in str(refused)
        return
    if lo > hi:
        assert type(refused) is ValueError and "lo <= hi" in str(refused)
        return
    if hi == lo and func != "max_error":  # no point is evaluated
        assert refused is None and got == 0.0
        return
    if func != "integrate_panels":
        count = args[0] if func == "max_error" else args[0] * args[1].order
        with np.errstate(over="ignore"):
            dev = np.resize(a, count) - np.resize(r, count)
        if not np.isfinite(dev).all():
            assert isinstance(refused, InvalidDomainError), got
            return
    if func == "max_error":
        assert refused is None and got == np.abs(dev).max()
        return
    panels, rule = args
    pts, half = panel_points(lo, hi, panels, rule)
    vals = np.resize(a, pts.shape) if func == "integrate_panels" else dev.reshape(pts.shape)
    exact, tol = integral_bounds(vals, half, rule.weights, 1 if func == "integrate_panels" else 2)
    if refused is not None:
        assert isinstance(refused, InvalidDomainError)
        assert abs(exact) + tol >= Fraction(np.finfo(float).max), (float(exact), refused)
    else:
        assert math.isfinite(got) and abs(Fraction(got) - exact) <= tol, (got, float(exact))


@given(EXTREMES, EXTREMES, st.integers(1, 64), st.sampled_from([1, 2, 3, 8]))
@example(-1.7976931348623157e308, 1.7976931348623157e308, 3, 2)   # the width overflows
@example(0.0, 1.7976931348623157e308, 3, 1)    # the last end's step overflows
@settings(max_examples=300, deadline=None)
def test_panel_points_returns_finite_points_or_names_the_range(lo, hi, panels, order):
    # np.linspace's points and half-widths, finite and in order, or the
    # refusal integrate_panels makes, naming the ends; no warning escapes
    rule = gauss_legendre(order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            pts, half = panel_points(lo, hi, panels, rule)
        except (InvalidDomainError, ValueError) as exc:
            assert f"{lo}" in str(exc) and f"{hi}" in str(exc), exc
            refused = exc
        else:
            refused = None
    if not math.isfinite(hi - lo):
        assert isinstance(refused, InvalidDomainError) and "finite endpoints" in str(refused)
        return
    if lo > hi:
        assert type(refused) is ValueError and "lo <= hi" in str(refused)
        return
    assert refused is None
    with np.errstate(over="ignore"):  # np.linspace itself overflows on [0, 1.8e308]
        want_pts, want_half = panel_points_linspace(lo, hi, panels, rule)
    assert pts.tobytes() == want_pts.tobytes() and half.tobytes() == want_half.tobytes()
    assert np.isfinite(pts).all() and (lo <= pts).all() and (pts <= hi).all()
    assert np.isfinite(half).all() and (half >= 0.0).all()


@st.composite
def user_problem(draw):
    """A user problem of any kind: K = c cos(x - s) and f = d cos(x), its
    scales c and d, lam, the interval's ends (in order or not) and an eigen
    problem's bracket all drawn from EXTREMES, and n in {2, 3, 10}."""
    kind = draw(st.sampled_from(sorted(FIELDS)), label="kind")
    c, d, lam = (draw(EXTREMES, label=name) for name in ("c", "d", "lam"))
    ends = draw(st.lists(EXTREMES, min_size=2, max_size=2), label="ends")
    if draw(st.booleans(), label="sorted"):
        ends.sort()
    bracket = tuple(draw(st.lists(EXTREMES, min_size=2, max_size=2), label="bracket"))
    return kind, c, d, lam, tuple(ends), bracket, draw(st.sampled_from([2, 3, 10]), label="n")


@given(user_problem())
# the closure's defect overflows, and its y_0 is beyond the doubles
@example(("volterra1", 1e308, 0.0, None, (0.0, 21.0), None, 2))
@example(("volterra1", 2.2250738585072014e-308, -4.619600092193867e+16, None,
          (-8.555380143128981e+20, 1e-310), None, 10))
@settings(max_examples=300, deadline=None)
def test_user_problem_solves_or_names_the_bad_input(case):
    # finite samples, or a refusal: the problem's, the package's own error
    # types, or a ValueError naming a forcing sample or the spline
    # coefficient that is not finite; never numpy's LinAlgError or a warning
    kind, c, d, lam, interval, bracket, n = case
    takes_forcing, takes_lam, takes_bracket = FIELDS[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            problem = IntegralProblem(kind, lambda x, s: c * np.cos(x - s), interval,
                                      forcing=(lambda x: d * np.cos(x)) if takes_forcing else None,
                                      lam=lam if takes_lam else None,
                                      bracket=bracket if takes_bracket else None)
            report = solve(problem, n)
        except (InvalidDomainError, OutOfDomainError, SingularMatrixError):
            return
        except ValueError as exc:
            # numpy's LinAlgError is a ValueError too, and must not escape
            assert not isinstance(exc, np.linalg.LinAlgError), exc
            assert str(exc).startswith(("sample ", "coefficient a", "power-form slope c1")), exc
            return
    for sub in [report] + [sub for _, sub in report.eigen or ()]:
        assert sub.samples is None or np.isfinite(sub.samples).all()


@st.composite
def scaled_registry_problem(draw):
    """A registry problem of any kind, its kernel and forcing scaled by 2^k
    (an eigen problem's bracket by 2^-k), or its interval by 2^j, and n."""
    pid = draw(st.sampled_from(sorted(PROBLEMS)), label="problem")
    what = draw(st.sampled_from(["data", "interval"]), label="scaled")
    bound = 1000 if what == "data" else 600
    return pid, what, draw(st.integers(-bound, bound), label="power"), draw(st.integers(2, 12))


def scaled(pid, what, e):
    """The registry problem with its data or its interval scaled by 2^e; an
    interval the grid refuses raises InvalidDomainError here."""
    entry = get_problem(pid)
    if what == "interval":
        return replace(entry, interval=tuple(np.ldexp(entry.interval, e).tolist()))
    kernel, forcing = entry.kernel, entry.forcing
    return replace(entry, kernel=lambda x, s: np.ldexp(kernel(x, s), e),
                   forcing=forcing and (lambda x: np.ldexp(forcing(x), e)),
                   bracket=entry.bracket and tuple(np.ldexp(entry.bracket, -e).tolist()))


@given(scaled_registry_problem())
@example(("krasnov4", "interval", 400, 5))   # W's entries overflow: near 2^1200
@example(("krasnov2", "interval", 341, 2))   # W's entries are finite, its row sums not
@settings(max_examples=200, deadline=None)
def test_scaled_registry_problem_solves_or_names_the_bad_input(case):
    pid, what, e, n = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = solve(scaled(pid, what, e), n)
        except (InvalidDomainError, OutOfDomainError, SingularMatrixError):
            return
        except ValueError as exc:
            # numpy's LinAlgError is a ValueError too, and must not escape
            assert not isinstance(exc, np.linalg.LinAlgError), exc
            assert "x=" in str(exc), exc
            return
    for sub in [report] + [sub for _, sub in report.eigen or ()]:
        assert sub.samples is None or np.isfinite(sub.samples).all()


@given(st.sampled_from(["krasnov3", "malek1"]), st.integers(2, 40), st.integers(-600, 600))
@settings(max_examples=60, deadline=None)
def test_volterra2_scalings_are_exact(pid, n, k):
    # y = f + lam int K y: f x 2^k gives y x 2^k, and K x 2^k with lam x 2^-k
    # the same y, both bit for bit, since powers of two scale every step of
    # the solve exactly. The registry's reference solves the unscaled
    # problem, so it is dropped
    entry = replace(get_problem(pid), reference=None)
    kernel, forcing = entry.kernel, entry.forcing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = solve(entry, n).samples
        y_f = solve(replace(entry, forcing=lambda x: np.ldexp(forcing(x), k)), n).samples
        y_k = solve(replace(entry, kernel=lambda x, s: np.ldexp(kernel(x, s), k),
                            lam=float(np.ldexp(entry.lam, -k))), n).samples
    assert y_f.tobytes() == np.ldexp(y, k).tobytes()
    assert y_k.tobytes() == y.tobytes()
