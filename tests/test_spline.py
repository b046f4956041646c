from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quadspline import (OutOfDomainError, build_spline, coefficient_matrix,
                        coeffs_by_recursion, coeffs_closed_form,
                        convergence_study, fluctuation_energy, make_grid,
                        optimal_first_coefficient, sample, second_differences)


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

    def test_scalar_and_array_calls_agree(self):
        _, m = spline_for(np.exp, 0, 1, 6)
        xs = np.linspace(0, 1, 13)
        vals = m(xs)
        assert vals[3] == m(float(xs[3]))
        assert isinstance(m(0.5), float)


class TestFluctuationEnergy:
    def test_linear_is_zero(self):
        _, m = spline_for(lambda x: 2 * x + 1, 0, 1, 6)
        assert fluctuation_energy(m) == pytest.approx(0.0, abs=1e-25)

    def test_constant_curvature_value(self):
        # coefficients all 1 on four pieces of width 0.5
        _, m = spline_for(lambda x: x * x, -1, 1, 4)
        assert fluctuation_energy(m) == pytest.approx(0.5**5 / 30 * 4, rel=1e-12)

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


class TestParity:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("n", [8, 9])
    def test_coefficients_mirror(self, parity, n):
        rng = np.random.default_rng(hash((parity, n)) % 2**32)
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
        rng = np.random.default_rng(hash((parity, n, "v")) % 2**32)
        f = random_even_odd(rng, parity)
        _, m = spline_for(f, -0.9, 0.9, n)
        xs = rng.uniform(-0.9, 0.9, size=100)
        sign = 1.0 if parity == "even" else -1.0
        np.testing.assert_allclose(m(xs), sign * m(-xs), rtol=1e-9, atol=1e-10)


class TestConvergence:
    def test_linear_deviation_zero(self):
        # any M >= sup|f''| = 0 is admissible; a tiny one absorbs roundoff
        rep = convergence_study(lambda x: 3 * x - 1, 1e-12, 0, 1, [4, 8, 16])
        assert all(r.max_deviation < 1e-12 for r in rep.records)
        assert not rep.violations

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

    def test_kink_at_node_oscillates_at_quarter_h(self):
        # |x| with the kink on a node: one nonzero second difference of 2/h
        # makes every coefficient +-1/h, so the deviation is exactly h/4
        rep = convergence_study(np.abs, 0.0, -1, 1, [10, 20])
        for r in rep.records:
            assert r.max_deviation == pytest.approx(r.h / 4, rel=1e-3)
