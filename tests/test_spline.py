import math
import tracemalloc
import warnings
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quadspline import (InvalidDomainError, OutOfDomainError, SplineModel, build_spline,
                        coeffs_closed_form, convergence_study, fluctuation_energy,
                        make_grid, max_error, sample, second_differences)
from quadspline.registry import spline_interpolant
from quadspline.quadrature import _BLOCK
from quadspline.spline import _RUN_MIN_PER_PIECE, _RUN_MIN_POINTS, _closed_form_adjoint

from oracles import coefficient_matrix, coeffs_by_recursion, optimal_first_coefficient


def spline_for(f, a, b, n):
    g = make_grid(a, b, n)
    return g, build_spline(g, sample(f, g))


class TestSecondDifferences:
    def test_linear_data_vanishes(self):
        g = make_grid(-2, 3, 9)
        d = second_differences(sample(lambda x: 5 * x - 2, g), g)
        np.testing.assert_allclose(d, 0.0, atol=1e-12 / g.h**2)

    def test_square_gives_two(self):
        g = make_grid(-1, 2, 12)
        d = second_differences(sample(lambda x: x * x, g), g)
        np.testing.assert_allclose(d, 2.0, rtol=1e-9)

    def test_kinked_data_by_hand(self):
        # (0.5 - 2*0 + 0.5) / 0.25 = 4 at the kink, 0 elsewhere
        g = make_grid(-1, 1, 4)
        d = second_differences(np.array([1, 0.5, 0, 0.5, 1.0]), g)
        np.testing.assert_allclose(d, [0.0, 4.0, 0.0], atol=1e-14)

    def test_length_validation(self):
        g = make_grid(0, 1, 4)
        with pytest.raises(ValueError):
            second_differences(np.zeros(4), g)

    def test_columns_along_axis_0(self):
        # one column per sample vector, each as if passed alone; the length
        # check applies to axis 0
        g = make_grid(-1, 2, 6)
        ys = np.random.default_rng(8).standard_normal((7, 3))
        d = second_differences(ys, g)
        assert d.shape == (5, 3)
        for j in range(3):
            np.testing.assert_array_equal(d[:, j], second_differences(ys[:, j], g))
        with pytest.raises(ValueError):
            second_differences(np.zeros((6, 3)), g)
        with pytest.raises(ValueError, match=r"expected 5 second differences, got \(4, 3\)"):
            coeffs_closed_form(np.zeros((4, 3)), 6)


class TestFirstCoefficient:
    def test_flat_curvature(self):
        assert optimal_first_coefficient(np.zeros(5), 6) == 0.0

    def test_two_pieces_single_term(self):
        # -(1/2) * (2-1) * (-1)^1 * d = d/2
        assert optimal_first_coefficient(np.array([0.8]), 2) == pytest.approx(0.4)

    def test_square_on_four_pieces(self):
        # constant curvature 2 on an even grid: exact quadratic reproduction
        assert optimal_first_coefficient(np.full(3, 2.0), 4) == pytest.approx(1.0)

    def test_is_stationary_point(self):
        rng = np.random.default_rng(7)
        d = rng.standard_normal(6)
        a1 = optimal_first_coefficient(d, 7)
        energy = lambda first: np.sum(coeffs_by_recursion(first, d) ** 2)
        eps = 1e-6
        grad = (energy(a1 + eps) - energy(a1 - eps)) / (2 * eps)
        assert abs(grad) < 1e-8


class TestCoefficientPaths:
    def test_recursion_flat(self):
        np.testing.assert_array_equal(coeffs_by_recursion(0.0, np.zeros(3)), np.zeros(4))

    def test_recursion_constant_curvature(self):
        np.testing.assert_array_equal(
            coeffs_by_recursion(1.0, np.array([2.0, 2.0, 2.0])), np.ones(4))

    def test_recursion_alternating(self):
        np.testing.assert_allclose(
            coeffs_by_recursion(0.3, np.array([1.0, -1.0])), [0.3, 0.7, -1.7])

    def test_closed_form_flat(self):
        np.testing.assert_array_equal(coeffs_closed_form(np.zeros(3), 4), np.zeros(4))

    def test_closed_form_constant_curvature(self):
        np.testing.assert_allclose(coeffs_closed_form(np.full(3, 2.0), 4),
                                   np.ones(4), rtol=1e-12)

    @given(st.integers(3, 12).flatmap(
        lambda n: st.tuples(st.just(n),
                            arrays(np.float64, n - 1,
                                   elements=st.floats(-100, 100)))))
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_recursion(self, n_and_d):
        n, d = n_and_d
        expected = coeffs_by_recursion(optimal_first_coefficient(d, n), d)
        np.testing.assert_allclose(coeffs_closed_form(d, n), expected,
                                   rtol=1e-10, atol=1e-10 * (1 + np.abs(expected).max()))

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_large_n_matches_exact_arithmetic(self, n):
        # the recursion oracle evaluated exactly on the float samples; the
        # 1/h^2 scaling of the second differences punishes any cancellation
        g = make_grid(0.0, 1.0, n)
        y = sample(lambda x: np.sin(2 * np.pi * x), g)
        ys, h2 = [Fraction(v) for v in y], Fraction(g.h) ** 2
        d = [(ys[j - 1] - 2 * ys[j] + ys[j + 1]) / h2 for j in range(1, n)]
        exact = [-sum((n - j) * (-1) ** j * d[j - 1] for j in range(1, n)) / n]
        for dk in d:
            exact.append(dk - exact[-1])
        expected = np.array([float(v) for v in exact])
        np.testing.assert_allclose(build_spline(g, y).coeffs, expected,
                                   rtol=0, atol=1e-9 * np.abs(expected).max())


class TestCoefficientMatrix:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 30])
    def test_rows_sum_to_zero(self, n):
        C = coefficient_matrix(n, 0.37)
        np.testing.assert_allclose(C.entries.sum(axis=1), 0.0, atol=1e-10)

    def test_constant_samples_flat(self):
        C = coefficient_matrix(6, 0.1)
        np.testing.assert_allclose(C.apply(np.full(7, 4.2)), 0.0, atol=1e-9)

    def test_square_on_symmetric_grid(self):
        g = make_grid(-1, 1, 4)
        C = coefficient_matrix(4, g.h)
        np.testing.assert_allclose(C.apply(g.nodes**2), np.ones(4), rtol=1e-12)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_recursion_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        h = float(rng.uniform(0.05, 2.0))
        g = make_grid(0.0, n * h, n)
        C = coefficient_matrix(n, g.h)
        for _ in range(20):
            y = rng.standard_normal(n + 1) * 10
            d = second_differences(y, g)
            expected = coeffs_by_recursion(optimal_first_coefficient(d, n), d)
            np.testing.assert_allclose(
                C.apply(y), expected,
                rtol=1e-10, atol=1e-10 * (1 + np.abs(expected).max()))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 50, 301])
    def test_adjoint_is_product_with_matrix(self, n):
        # the collocation operator applies the closed form transposed, to
        # rows of moments, instead of multiplying by the dense matrix
        rng = np.random.default_rng(300 + n)
        r = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-3, 4, (5, 1))
        expected = r @ coefficient_matrix(n, 1.0).entries
        got = _closed_form_adjoint(r.copy(), np.empty((5, n + 1)))
        scale = np.max(np.abs(expected), axis=1, keepdims=True)
        assert got.shape == (5, n + 1)
        assert np.all(np.abs(got - expected) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 50, 301])
    def test_adjoint_writes_into_a_row_slice(self, n):
        # the operator hands a row block of W as `out`: what lands there is
        # the result written into a whole array of its own to the bit,
        # signed zeros included, every entry is written (a NaN-filled `out`
        # keeps none) and no other row is touched. An all-zero row and -0.0
        # entries make -0.0 partial sums, which the scatter turns into 0.0
        # by adding
        rng = np.random.default_rng(400 + n)
        r = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-3, 4, (6, 1))
        r[0] = 0.0
        r[1, ::3] = -0.0
        expected = _closed_form_adjoint(r.copy(), np.full((6, n + 1), np.nan))
        assert not np.isnan(expected).any()
        W = np.full((10, n + 1), np.nan)
        got = _closed_form_adjoint(r.copy(), out=W[2:8])
        assert got.base is W
        assert W[2:8].tobytes() == expected.tobytes()
        assert np.isnan(W[:2]).all() and np.isnan(W[8:]).all()
        # a zero row maps to +0.0 everywhere, as a scatter from zeros gives
        assert not np.signbit(W[2]).any()
        oracle = r @ coefficient_matrix(n, 1.0).entries
        scale = np.max(np.abs(oracle), axis=1, keepdims=True)
        assert np.all(np.abs(W[2:8] - oracle) <= 1e-14 * scale)

    @pytest.mark.parametrize("out", ["column_slice", "fortran", "every_other_row", "short"])
    def test_adjoint_refuses_an_out_it_cannot_scatter_into_flat(self, out):
        # the scatter runs over out's rows as one flat array, so out must be
        # a C-contiguous m x (n+1) array; a row block of one is (above)
        n = 6
        r = np.random.default_rng(5).standard_normal((4, n))
        W = np.zeros((8, n + 2))
        out = {"column_slice": W[:4, 1:], "fortran": np.zeros((4, n + 1), order="F"),
               "every_other_row": W[::2, :n + 1], "short": W[:3, :n + 1]}[out]
        before = W.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            _closed_form_adjoint(r.copy(), out)
        assert W.tobytes() == before.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            coefficient_matrix(1, 0.5)
        with pytest.raises(ValueError):
            coefficient_matrix(4, 0.0)


class TestSplineModel:
    def test_interpolates_nodes_exactly(self):
        rng = np.random.default_rng(3)
        g = make_grid(-2, 1, 9)
        y = rng.standard_normal(10)
        m = build_spline(g, y)
        np.testing.assert_allclose(m(g.nodes), y, rtol=1e-12, atol=1e-12)

    def test_derivative_continuous_at_interior_nodes(self):
        # compare the left piece's slope with the right piece's, written out
        # independently of the evaluator
        rng = np.random.default_rng(4)
        g = make_grid(0, 1, 8)
        y = rng.standard_normal(9)
        m = build_spline(g, y)
        h, a = g.h, m.coeffs
        for k in range(1, g.n):
            left = (y[k] - y[k - 1]) / h + a[k - 1] * h
            right = (y[k + 1] - y[k]) / h - a[k] * h
            assert left == pytest.approx(right, rel=1e-10, abs=1e-10)

    def test_linear_reproduction(self):
        g, m = spline_for(lambda x: 5 * x - 2, -1, 1, 7)[0], None
        m = build_spline(g, sample(lambda x: 5 * x - 2, g))
        np.testing.assert_allclose(m.coeffs, 0.0, atol=1e-11)
        xs = np.linspace(-1, 1, 200)
        np.testing.assert_allclose(m(xs), 5 * xs - 2, atol=1e-12)
        np.testing.assert_allclose(m.derivative(xs), 5.0, atol=1e-10)

    def test_midpoint_pulls_by_quarter_h_squared(self):
        rng = np.random.default_rng(5)
        g = make_grid(0, 2, 5)
        y = rng.standard_normal(6)
        m = build_spline(g, y)
        for k in range(1, g.n + 1):
            mid = 0.5 * (g.nodes[k - 1] + g.nodes[k])
            chord = 0.5 * (y[k - 1] + y[k])
            assert m(mid) - chord == pytest.approx(-m.coeffs[k - 1] * g.h**2 / 4,
                                                   rel=1e-10, abs=1e-12)

    def test_quadratic_reproduced_only_for_even_piece_count(self):
        _, m4 = spline_for(lambda x: x * x, -1, 1, 4)
        assert m4.derivative(0.3) == pytest.approx(0.6, rel=1e-12)
        xs = np.linspace(-1, 1, 101)
        np.testing.assert_allclose(m4(xs), xs**2, atol=1e-12)
        _, m5 = spline_for(lambda x: x * x, -1, 1, 5)
        assert np.max(np.abs(m5(xs) - xs**2)) > 1e-3

    def test_out_of_domain_rejected(self):
        _, m = spline_for(np.cos, 0, 1, 4)
        for bad in (-0.001, 1.001):
            with pytest.raises(OutOfDomainError):
                m(bad)
            with pytest.raises(OutOfDomainError):
                m.derivative(bad)

    def test_nan_point_rejected(self):
        _, m = spline_for(np.cos, 0, 1, 4)
        for bad in (np.nan, np.array([0.2, np.nan, 0.7])):
            with pytest.raises(OutOfDomainError):
                m(bad)
            with pytest.raises(OutOfDomainError):
                m.derivative(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_named(self, bad):
        g = make_grid(0, 1, 4)
        y = np.zeros(5)
        y[2] = y[4] = bad
        with pytest.raises(ValueError, match=r"sample 2 at x=0\.5 "):
            build_spline(g, y)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid,y,match", [
        # second differences that overflow: a_1 is -inf, and nan after it
        (make_grid(0, 1, 4), [0, 1e308, 0, 1e308, 0], r"coefficient a1 on \[0\.0, 0\.25\] "),
        # linear samples, so every a_k is 0, whose slope 1e310 overflows
        (make_grid(0, 4e-10, 4), 1e300 * np.arange(5.0),
         r"power-form slope c1 of piece 1 on \[0\.0, 1e-10\] is not finite: inf"),
    ], ids=["coefficient", "slope"])
    def test_overflowing_coefficients_named(self, grid, y, match):
        with pytest.raises(ValueError, match=match):
            build_spline(grid, y)

    @pytest.mark.filterwarnings("error")
    def test_slope_beyond_the_doubles_named(self):
        # finite samples, coefficients and power form, but the last piece's
        # slope passes the largest double from about x = 3.54 on: a
        # ValueError names the points' range, and no overflow warning
        # escapes; the values stay finite
        m = build_spline(make_grid(0, 4, 4), [0, 0, 0, 0, 1.7e308])
        xs = np.linspace(0, 4, 101)
        for x in (xs, np.linspace(0, 4, 2 * _RUN_MIN_POINTS)):  # by points and by runs
            assert np.isfinite(m(x)).all()
            with pytest.raises(ValueError, match=r"the spline's slope overflows a double at "
                                                 r"some x in \[0\.0, 4\.0\]"):
                m.derivative(x)
        assert np.isfinite(m.derivative(3.5))

    @pytest.mark.filterwarnings("error")
    def test_value_at_b_is_its_sample_where_the_power_form_rounds_beyond_it(self):
        # the last sample is the largest double, and the last piece's power
        # form rounds beyond it at b: the value there is that sample, alone
        # or among other points, by points and by runs; the slope at b is
        # beyond the doubles and still refused
        big = 1.7976931348623157e308
        m = build_spline(make_grid(0, 12, 10), [0.0] * 10 + [big])
        assert m(12.0) == big
        for x in (np.array([12.0, 0.5, 12.0]), np.linspace(0, 12, 2 * _RUN_MIN_POINTS)):
            at_b = x == 12.0
            values = m(x)
            assert (values[at_b] == big).all() and np.isfinite(values).all()
            assert values[~at_b].tobytes() == m(x[~at_b]).tobytes()
        with pytest.raises(ValueError, match=r"slope overflows a double at some x in "
                                             r"\[12\.0, 12\.0\]"):
            m.derivative(12.0)

    @pytest.mark.parametrize("count", [4, 6])
    def test_sample_count_must_match_grid(self, count):
        with pytest.raises(ValueError, match=rf"expected 5 samples, got \({count},\)"):
            build_spline(make_grid(0, 1, 4), np.zeros(count))

    def test_empty_input_gives_empty_output(self):
        _, m = spline_for(np.cos, 0, 1, 4)
        assert m(np.empty(0)).shape == (0,)
        assert m.derivative(np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, 1.25, -0.5])
    def test_bad_point_in_a_later_block_named(self, bad):
        _, m = spline_for(np.cos, 0, 1, 4)
        xs = np.linspace(0, 1, 3 * _BLOCK)
        hole = xs[_BLOCK + 7]
        xs[_BLOCK + 7] = bad
        for call in (m, m.derivative):
            with pytest.raises(OutOfDomainError, match=f"x={bad} outside"):
                call(xs)
        # the sweep makes the same mesh; the bad point reaches the spline in
        # its second block
        poked = lambda x: m(np.where(x == hole, bad, x))
        with pytest.raises(OutOfDomainError, match=f"x={bad} outside"):
            max_error(poked, np.cos, 0, 1, samples=3 * _BLOCK)

    @pytest.mark.parametrize("bad, at", [
        (np.nan, -1), (1.25, -1), (np.nextafter(1.0, 2.0), -1),
        (-0.5, 0), (np.nextafter(0.0, -1.0), 0),
    ])
    def test_bad_end_of_a_long_sorted_input_named(self, bad, at):
        # a sorted input is checked at its two ends; a NaN fails the
        # sortedness test, and the check over the whole input names it
        _, m = spline_for(np.cos, 0, 1, 4)
        xs = np.linspace(0, 1, 3 * _RUN_MIN_POINTS)
        xs[at] = bad
        for call in (m, m.derivative):
            with pytest.raises(OutOfDomainError, match=f"x={bad} outside"):
                call(xs)

    def test_value_at_right_end_is_last_sample_exactly(self):
        # the last piece ends at the grid's b, not at a + n h, so its
        # quadratic term vanishes there; a + n h misses b by an ulp here
        g = make_grid(0, 3.125, 39)
        y = np.zeros(40)
        y[36] = 49.0
        m = build_spline(g, y)
        assert m(g.b) == 0.0
        assert m(g.nodes)[-1] == 0.0

    def test_scalar_and_array_calls_agree(self):
        _, m = spline_for(np.exp, 0, 1, 6)
        xs = np.linspace(0, 1, 13)
        vals = m(xs)
        assert vals[3] == m(float(xs[3]))
        assert isinstance(m(0.5), float)


def test_array_path_defect_fails_at_once(monkeypatch):
    # a defect in the model's array path that numpy reports as a ValueError
    # (a broadcast error) fails the convergence study and the interpolation
    # error after one model call, instead of one scalar call per point of
    # each 32,768-point block; scalar calls still work
    calls = []
    evaluate = SplineModel._eval

    def broken(self, x, deriv):
        calls.append(np.shape(x))
        if np.ndim(x):
            raise ValueError("operands could not be broadcast together with shapes (5,) (6,)")
        return evaluate(self, x, deriv)

    monkeypatch.setattr(SplineModel, "_eval", broken)
    for run in (lambda: convergence_study(np.sin, 1.0, 0.0, 1.0, [10]),
                lambda: spline_interpolant("sin2pix", 10)):
        calls.clear()
        with pytest.raises(ValueError, match="could not be broadcast"):
            run()
        assert len(calls) == 1


class TestFluctuationEnergy:
    def test_linear_is_zero(self):
        _, m = spline_for(lambda x: 2 * x + 1, 0, 1, 6)
        assert fluctuation_energy(m) == pytest.approx(0.0, abs=1e-25)

    def test_constant_curvature_value(self):
        # coefficients all 1 on four pieces of width 0.5
        _, m = spline_for(lambda x: x * x, -1, 1, 4)
        assert fluctuation_energy(m) == pytest.approx(0.5**5 / 30 * 4, rel=1e-12)

    def test_wide_and_narrow_intervals_give_the_energy_without_warning(self):
        # samples 0, 1, 0 on [0, b]: a_1 = a_2 = -1/h^2 with h = b/2, so the
        # energy is h/15 = b/30, and scaling b by 2^j scales it by 2^j exactly
        y = np.array([0.0, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in 10.0 ** np.arange(-150, 151, 10):
                energy = fluctuation_energy(build_spline(make_grid(0.0, b, 2), y))
                assert energy == pytest.approx(b / 30, rel=1e-14), b
            z = np.random.default_rng(12).standard_normal(8)
            unit = fluctuation_energy(build_spline(make_grid(0.0, 1.0, 7), z))
            for j in range(-490, 491, 35):
                scaled = build_spline(make_grid(0.0, 2.0**j, 7), z)
                assert fluctuation_energy(scaled) == math.ldexp(unit, j), j

    @pytest.mark.parametrize("eps", [1e-3, 1e-1, 1.0])
    def test_variational_minimality(self, eps):
        rng = np.random.default_rng(11)
        g = make_grid(0, 1, 9)
        y = rng.standard_normal(10)
        m = build_spline(g, y)
        d = second_differences(y, g)
        star = optimal_first_coefficient(d, g.n)
        e_star = np.sum(coeffs_by_recursion(star, d) ** 2)
        for signed in (eps, -eps):
            e_pert = np.sum(coeffs_by_recursion(star + signed, d) ** 2)
            assert e_pert > e_star
        # the model's first coefficient is the minimizer itself
        assert m.coeffs[0] == pytest.approx(star, rel=1e-10)


def random_even_odd(rng, parity):
    """Random even or odd function: polynomial plus trig of the same parity."""
    c = rng.uniform(-2, 2, size=3)
    w = rng.uniform(0.5, 4.0, size=2)
    d = rng.uniform(-2, 2, size=2)
    if parity == "even":
        return lambda x: (c[0] + c[1] * x**2 + c[2] * x**4
                          + d[0] * np.cos(w[0] * x) + d[1] * np.cos(w[1] * x))
    return lambda x: (c[0] * x + c[1] * x**3 + c[2] * x**5
                      + d[0] * np.sin(w[0] * x) + d[1] * np.sin(w[1] * x))


def stable_seed(*key):
    """A seed from the key's repr, the same in every process: the hash of a
    str is salted per process."""
    return zlib.crc32(repr(key).encode())


class TestParity:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("n", [8, 9])
    def test_coefficients_mirror(self, parity, n):
        rng = np.random.default_rng(stable_seed(parity, n))
        for _ in range(10):
            f = random_even_odd(rng, parity)
            _, m = spline_for(f, -1.3, 1.3, n)
            sign = 1.0 if parity == "even" else -1.0
            scale = np.abs(m.coeffs).max() + 1.0
            np.testing.assert_allclose(m.coeffs, sign * m.coeffs[::-1],
                                       atol=1e-10 * scale)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("n", [6, 7])
    def test_values_mirror(self, parity, n):
        rng = np.random.default_rng(stable_seed(parity, n, "v"))
        f = random_even_odd(rng, parity)
        _, m = spline_for(f, -0.9, 0.9, n)
        xs = rng.uniform(-0.9, 0.9, size=100)
        sign = 1.0 if parity == "even" else -1.0
        np.testing.assert_allclose(m(xs), sign * m(-xs), rtol=1e-9, atol=1e-10)


class TestConvergence:
    @pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0])
    def test_rejects_unusable_fpp_bound(self, bound):
        with pytest.raises(ValueError, match="fpp_bound"):
            convergence_study(np.sin, bound, 0, 1, [4])

    @pytest.mark.parametrize("n", [10.5, 10.0])
    def test_non_integer_n_refused(self, n):
        # not truncated to 10: n goes to make_grid as it is
        with pytest.raises(InvalidDomainError, match="integer n"):
            convergence_study(np.sin, 1.0, 0, 1, [n])

    def test_numpy_integer_n_accepted(self):
        rep = convergence_study(np.sin, 1.0, 0, 1, np.array([10, 20]))
        assert [(type(r.n), r.n) for r in rep.records] == [(int, 10), (int, 20)]

    def test_linear_deviation_zero(self):
        # any M >= sup|f''| = 0 is admissible; a tiny one absorbs roundoff
        rep = convergence_study(lambda x: 3 * x - 1, 1e-12, 0, 1, [4, 8, 16])
        assert all(r.max_deviation < 1e-12 for r in rep.records)
        assert not rep.violations

    def test_affine_rounding_within_allowance(self):
        # M = 0: the analytic bound is 0, and the deviation is rounding alone.
        # On a narrow interval about a root of f, f's rounding and the nodes'
        # are eps |p x|, up to 69 times 4 (n + 1) eps max|f| at n = 2; the
        # allowance's slope term covers them
        cases = [(p, -p * r, r - 0.0037, r + 0.0063)
                 for p, r in ((5.0, 4.1), (-2.2, -3.7), (9.9, 0.9))]
        rng = np.random.default_rng(21)
        for _ in range(30):
            p, q = rng.uniform(-10, 10, 2)
            a = float(rng.uniform(-5, 5))
            cases.append((p, q, a, a + float(rng.uniform(0.01, 5))))
        for p, q, a, b in cases:
            rep = convergence_study(lambda x: p * x + q, 0.0, a, b, [2, 3, 5, 16, 100])
            assert not rep.violations, (p, q, a, b)
            assert all(type(r.bound) is float and type(r.within_bound) is bool
                       for r in rep.records)

    def test_sine_within_bound(self):
        M = 4 * np.pi**2
        rep = convergence_study(lambda x: np.sin(2 * np.pi * x), M, -1, 1,
                                [10, 50, 100])
        assert not rep.violations
        for r in rep.records:
            assert r.bound == pytest.approx(M * r.h * (2 - r.h / 2), rel=1e-12)

    def test_sine_deviation_non_increasing(self):
        rep = convergence_study(lambda x: np.sin(2 * np.pi * x), 4 * np.pi**2,
                                -1, 1, [10, 20, 40, 80])
        ds = [r.max_deviation for r in rep.records]
        assert all(d2 <= d1 for d1, d2 in zip(ds, ds[1:]))

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: np.sin(2 * np.pi * x), 0.0, 1.0),
        (np.abs, -1.0, 1.0),
    ], ids=["sin2pix", "abs"])
    @pytest.mark.parametrize("n", [33, 97, 1300])
    def test_blocked_sweep_equals_unblocked_max(self, f, lo, hi, n):
        # n = 33 is one full block and a ragged one; 97 and 1300 take several
        g, m = spline_for(f, lo, hi, n)
        xs = np.concatenate([np.linspace(lo, hi, 1000 * n), g.nodes])
        want = float(np.max(np.abs(m(xs) - f(xs))))
        rep = convergence_study(f, 1e3, lo, hi, [n])
        assert rep.records[0].max_deviation == want
        # the sweep's sorted blocks go through the spline by runs of pieces,
        # the reversed mesh point by point: the same deviation to the bit
        rev = xs[::-1]
        assert float(np.max(np.abs(m(rev) - f(rev)))) == want

    def test_memory_does_not_grow_with_the_mesh(self):
        # the 5,000,000-point mesh alone would be 40 MB; a streamed sweep
        # holds one block of it and the spline's and f's temporaries
        f = lambda x: np.sin(2 * np.pi * x)
        tracemalloc.start()
        try:
            rep = convergence_study(f, 4 * np.pi**2, 0, 1, [5000])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not rep.violations
        assert peak < 4 * 2**20, peak

    def test_kink_at_node_oscillates_at_quarter_h(self):
        # |x| with the kink on a node: one nonzero second difference of 2/h
        # makes every coefficient +-1/h, so the deviation is exactly h/4
        rep = convergence_study(np.abs, 0.0, -1, 1, [10, 20])
        for r in rep.records:
            assert r.max_deviation == pytest.approx(r.h / 4, rel=1e-3)


def power_form_at(model, x, deriv):
    """The spline's power form at one point, in scalar Python arithmetic."""
    g, y = model.grid, model.samples
    k = min(max(math.floor((x - g.a) / g.h) + 1, 1), g.n)
    xk1, ak = g.nodes[k - 1], model.coeffs[k - 1]
    c0, c1, c2 = y[k - 1], (y[k] - y[k - 1]) / g.h - ak * (g.nodes[k] - xk1), ak
    t = x - xk1
    if deriv:
        return c2 * t * 2.0 + c1
    return c0 + t * (c1 + t * c2)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_eval_matches_scalar_closed_form_bit_for_bit(data):
    # nodes are included: each belongs to the piece on its right (the last
    # node to piece n), and the array path must pick the same piece
    a = data.draw(st.floats(-10, 10), label="a")
    width = data.draw(st.floats(0.01, 10), label="width")
    n = data.draw(st.integers(2, 60), label="n")
    g = make_grid(a, a + width, n)
    y = data.draw(arrays(np.float64, n + 1, elements=st.floats(-1e3, 1e3)), label="y")
    m = build_spline(g, y)
    ts = data.draw(st.lists(st.floats(0, 1), max_size=40), label="t")
    xs = np.clip(np.concatenate([g.a + np.array(ts) * width, g.nodes]), g.a, g.b)
    for deriv, call in ((0, m), (1, m.derivative)):
        want = [power_form_at(m, float(x), deriv) for x in xs]
        np.testing.assert_array_equal(call(xs), want)


def test_sorted_input_takes_each_node_from_the_piece_on_its_right():
    # on a grid of 8 pieces of [0, 1] a node's t = (x - a)/h is its index
    # exactly, and the run of piece k starts at the first t >= k: each
    # interior node takes the piece on its right, where its value is its
    # sample exactly, as it is point by point
    g = make_grid(0.0, 1.0, 8)
    y = np.random.default_rng(13).standard_normal(9)
    m = build_spline(g, y)
    xs = np.sort(np.concatenate([np.linspace(0.0, 1.0, _RUN_MIN_POINTS), g.nodes]))
    at = xs.searchsorted(g.nodes[1:-1])
    for call in (m, m.derivative):
        got = call(xs)
        assert got[at].tobytes() == call(g.nodes[1:-1]).tobytes()
    assert m(xs)[at].tobytes() == y[1:-1].tobytes()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_sorted_runs_match_scalar_form_and_gather_bit_for_bit(data):
    # a sorted input long enough to be taken by runs of pieces: the nodes
    # x_i..x_j, each node's neighbours one ulp away, random points between
    # and repeats; the same points permuted are taken point by point
    a = data.draw(st.floats(-10, 10), label="a")
    width = data.draw(st.floats(0.01, 10), label="width")
    n = data.draw(st.integers(2, 250), label="n")
    g = make_grid(a, a + width, n)
    y = data.draw(arrays(np.float64, n + 1, elements=st.floats(-1e3, 1e3)), label="y")
    m = build_spline(g, y)
    i = data.draw(st.integers(0, n - 1), label="i")
    j = data.draw(st.integers(i + 1, n), label="j")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    nodes = g.nodes[i:j + 1]
    xs = np.concatenate([rng.uniform(nodes[0], nodes[-1], _RUN_MIN_POINTS), nodes,
                         np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf)])
    xs = np.clip(xs, nodes[0], nodes[-1])
    xs = np.sort(np.concatenate([xs, rng.choice(xs, 64)]))
    assert xs.size >= max(_RUN_MIN_POINTS, _RUN_MIN_PER_PIECE * (n + 1))
    perm = rng.permutation(xs.size)
    for deriv, call in ((0, m), (1, m.derivative)):
        got = call(xs)
        want = np.array([power_form_at(m, float(x), deriv) for x in xs])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        gathered = np.empty_like(got)
        gathered[perm] = call(xs[perm])
        np.testing.assert_array_equal(got.view(np.int64), gathered.view(np.int64))
