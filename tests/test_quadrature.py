import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadspline import (InvalidDomainError, QuadratureRule, build_spline, gauss_legendre,
                        integrate_panels, l2_error, make_grid, max_error,
                        sample, solve)
from quadspline.integral_eq import IntegralProblem
from quadspline.quadrature import _BLOCK, panel_points

from oracles import panel_points_linspace


class TestGaussLegendre:
    def test_order_one_is_midpoint(self):
        r = gauss_legendre(1)
        np.testing.assert_array_equal(r.nodes, [0.0])
        np.testing.assert_array_equal(r.weights, [2.0])

    def test_order_two_exactness(self):
        r = gauss_legendre(2)
        assert float(np.sum(r.weights * r.nodes**3)) == pytest.approx(0.0, abs=1e-15)
        assert float(np.sum(r.weights * r.nodes**2)) == pytest.approx(2 / 3, rel=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 16, 32])
    def test_weights_sum_to_two(self, order):
        assert float(np.sum(gauss_legendre(order).weights)) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 8])
    def test_monomial_exactness_up_to_degree(self, order):
        r = gauss_legendre(order)
        for p in range(2 * order):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            got = float(np.sum(r.weights * r.nodes**p))
            assert got == pytest.approx(exact, abs=1e-12)

    def test_order_eight_exponential(self):
        got = integrate_panels(np.exp, 0, 1, 1, gauss_legendre(8))
        assert got == pytest.approx(math.e - 1, abs=1e-12)

    @pytest.mark.parametrize("order", [0, 33, -1])
    def test_unsupported_order(self, order):
        with pytest.raises(ValueError):
            gauss_legendre(order)

    @pytest.mark.parametrize("order", [2.5, 2.0, "3"])
    def test_non_integer_order_refused(self, order):
        # the package's ValueError, not numpy's TypeError
        with pytest.raises(ValueError, match="unsupported quadrature order"):
            gauss_legendre(order)


class TestQuadratureRule:
    @pytest.mark.parametrize("order,nodes,weights", [
        (3, [0.0], [2.0]),
        (0, [], []),
        (2, [0.0, 0.5], [1.0]),
        (2.0, [-0.5, 0.5], [1.0, 1.0]),
        (1, [[0.0]], [[2.0]]),
    ])
    def test_order_must_size_nodes_and_weights(self, order, nodes, weights):
        with pytest.raises(ValueError, match="need an integer order >= 1 and that many"):
            QuadratureRule(order, np.array(nodes), np.array(weights))

    @pytest.mark.parametrize("nodes,weights,match", [
        ([-1.5, 1.5], [1.0, 1.0], r"nodes must lie in \[-1, 1\]"),
        ([np.nan, 0.5], [1.0, 1.0], r"nodes must lie in \[-1, 1\]"),
        ([-0.5, np.inf], [1.0, 1.0], r"nodes must lie in \[-1, 1\]"),
        ([-0.5, 0.5], [1.0, np.nan], "weights must be finite"),
        ([-0.5, 0.5], [np.inf, 1.0], "weights must be finite"),
    ])
    def test_nodes_in_the_interval_and_finite_weights(self, nodes, weights, match):
        with pytest.raises(InvalidDomainError, match=match):
            QuadratureRule(2, np.array(nodes), np.array(weights))

    def test_gauss_lobatto_ends_are_legal(self):
        # the 3-point Lobatto rule, Simpson's: its ends sit on -1 and 1. On
        # [0, 0.3] in 5 panels, mid + half of the last panel rounds to
        # 0.30000000000000004, outside the spline's domain, unless clipped
        rule = QuadratureRule(3, np.array([-1.0, 0.0, 1.0]), np.array([1.0, 4.0, 1.0]) / 3)
        model = build_spline(make_grid(0.0, 0.3, 5), np.cos(np.linspace(0.0, 0.3, 6)))
        # the pieces are the panels, and Simpson's rule is exact on quadratics
        assert integrate_panels(model, 0.0, 0.3, 5, rule) == pytest.approx(
            integrate_panels(model, 0.0, 0.3, 5, gauss_legendre(8)), rel=1e-14)

    def test_operator_table_is_read_only_and_made_once(self):
        rule = gauss_legendre(4)
        assert rule._piece_rows.shape == (3, 4)
        assert not rule._piece_rows.flags.writeable
        assert gauss_legendre(4)._piece_rows is rule._piece_rows


class TestIntegratePanels:
    def test_constant(self):
        assert integrate_panels(lambda x: 4.0, 1, 3.5, 5, gauss_legendre(4)) \
            == pytest.approx(10.0, rel=1e-14)

    def test_empty_range(self):
        assert integrate_panels(np.exp, 2, 2, 3, gauss_legendre(4)) == 0.0

    def test_quartic_with_order_three(self):
        got = integrate_panels(lambda x: x**4, -1, 1, 1, gauss_legendre(3))
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_additive_over_split(self):
        rule = gauss_legendre(6)
        whole = integrate_panels(np.exp, 0, 2, 8, rule)
        parts = (integrate_panels(np.exp, 0, 1.0, 4, rule)
                 + integrate_panels(np.exp, 1.0, 2, 4, rule))
        assert whole == pytest.approx(parts, abs=1e-12)

    def test_rejects_reversed_range_and_bad_panels(self):
        with pytest.raises(ValueError):
            integrate_panels(np.exp, 1, 0, 2, gauss_legendre(4))
        with pytest.raises(ValueError):
            integrate_panels(np.exp, 0, 1, 0, gauss_legendre(4))

    @pytest.mark.parametrize("lo,hi,panels,error,match", [
        (np.nan, 1.0, 2, InvalidDomainError, "finite endpoints"),
        (0.0, np.nan, 2, InvalidDomainError, "finite endpoints"),
        (0.0, np.inf, 2, InvalidDomainError, "finite endpoints"),
        (-np.inf, 0.0, 2, InvalidDomainError, "finite endpoints"),
        # finite ends whose width overflows: the step would be inf
        (-1.7e308, 1.7e308, 4, InvalidDomainError, "finite width"),
        (0.0, 1.0, 2.5, ValueError, "integer panels"),
        (0.0, 1.0, 2.0, ValueError, "integer panels"),
    ])
    def test_rejects_unusable_bounds_and_panel_counts(self, lo, hi, panels, error, match):
        # refused with the package's own errors before numpy sees them
        with pytest.raises(error, match=match):
            integrate_panels(np.exp, lo, hi, panels, gauss_legendre(4))

    def test_numpy_integer_panel_count(self):
        rule = gauss_legendre(4)
        assert integrate_panels(np.exp, 0, 1, np.int64(3), rule) \
            == integrate_panels(np.exp, 0, 1, 3, rule)

    @pytest.mark.parametrize("f,lo,hi,exact", [
        (np.exp, 0.0, 1.0, math.e - 1),
        (np.sin, 0.0, math.pi, 2.0),
    ])
    def test_doubling_panels_never_degrades(self, f, lo, hi, exact):
        # order 2 keeps the errors far above the rounding floor, and both
        # integrands have a fixed-sign fourth derivative on the range
        rule = gauss_legendre(2)
        errs = [abs(integrate_panels(f, lo, hi, p, rule) - exact)
                for p in (1, 2, 4, 8, 16)]
        assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[0] > 1e-9

    def test_scalar_only_integrand(self):
        got = integrate_panels(math.exp, 0, 1, 2, gauss_legendre(8))
        assert got == pytest.approx(math.e - 1, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo, hi, panels, want", [
        (0.0, 1.0, 3, 1e308),      # each panel's weighted sum overflows
        (0.0, 1e-300, 3, 1e8),     # so does each one scaled down to 1e8
        # one panel of the smallest subnormal half-width, 2^-1074: its
        # weighted sum of 1e308 times it rounds to 2^-1074 unless the
        # half-width is scaled up as well
        (0.0, 1e-323, 1, 1e308 * 2.0 ** -1073),
    ], ids=["sums_overflow", "scaled_sums_overflow", "subnormal_half"])
    def test_finite_integral_whose_sums_overflow_is_finite(self, lo, hi, panels, want):
        got = integrate_panels(lambda x: np.full_like(x, 1e308), lo, hi, panels,
                               gauss_legendre(4))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [1.5e308, np.inf])
    def test_integral_beyond_a_double_is_refused_by_its_range(self, value):
        # 1.5e308 on [0, 2] integrates to 3e308, finite values or not
        with pytest.raises(InvalidDomainError,
                           match=r"^the integral over \[0.0, 2.0\] is not finite: inf$"):
            integrate_panels(lambda x: np.full_like(x, value), 0.0, 2.0, 3, gauss_legendre(4))

    @pytest.mark.filterwarnings("error")
    def test_nan_integrand_is_carried_through(self):
        got = integrate_panels(lambda x: np.where(x > 0.5, np.nan, 1e308), 0.0, 1.0, 3,
                               gauss_legendre(4))
        assert math.isnan(got)


class TestPanelPoints:
    def test_zero_width_range_has_zero_half_widths(self):
        # so its integral is 0
        pts, half = panel_points(0.3, 0.3, 7, gauss_legendre(5))
        assert pts.shape == (7, 5) and half.shape == (7,)
        assert not half.any() and (pts == 0.3).all()

    @pytest.mark.filterwarnings("error")
    def test_ends_near_the_largest_double_do_not_overflow(self):
        # 0.5 * (e0 + e1) overflowed here, and the integral came out nan
        pts, half = panel_points(1e308, 1.7e308, 4, gauss_legendre(8))
        assert np.isfinite(pts).all() and (half > 0).all()
        assert (pts > 1e308).all() and (pts < 1.7e308).all()
        assert math.isfinite(integrate_panels(np.cos, 1e308, 1.7e308, 4, gauss_legendre(8)))

    @pytest.mark.filterwarnings("error")
    def test_last_end_whose_step_overflows_is_hi(self):
        # 3 * (max / 3) rounds beyond the largest double at the last end,
        # which hi replaces: no overflow warning, and np.linspace's points
        lo, hi, rule = 0.0, 1.7976931348623157e308, gauss_legendre(1)
        pts, half = panel_points(lo, hi, 3, rule)
        with np.errstate(over="ignore"):  # np.linspace itself overflows there
            want_pts, want_half = panel_points_linspace(lo, hi, 3, rule)
        assert pts.tobytes() == want_pts.tobytes() and np.isfinite(pts).all()
        assert half.tobytes() == want_half.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo,hi,error,match", [
        (-1.7976931348623157e308, 1.7976931348623157e308, InvalidDomainError,
         "finite endpoints a finite width apart"),
        (np.inf, np.inf, InvalidDomainError, "finite endpoints a finite width apart"),
        (0.0, np.nan, InvalidDomainError, "finite endpoints a finite width apart"),
        (1.0, 0.0, ValueError, r"need lo <= hi, got \[1.0, 0.0\]"),
    ], ids=["width_overflows", "inf", "nan", "reversed"])
    def test_range_that_is_not_one_is_refused(self, lo, hi, error, match):
        # as integrate_panels refuses it, with no overflow warning
        with pytest.raises(error, match=match):
            panel_points(lo, hi, 3, gauss_legendre(2))

    def test_nodes_stay_in_panels_a_few_ulps_wide(self):
        # 54 panels of about 1.5 ulps of 1.0: unclipped, mid + half t of the
        # first panel rounds to 0.9999999999999999, below 1.0
        lo, hi = 1.0, 1.0000000000000178
        edges = np.linspace(lo, hi, 55)
        pts, _ = panel_points(lo, hi, 54, gauss_legendre(8))
        assert np.all((pts >= edges[:-1, None]) & (pts <= edges[1:, None]))

    def test_halved_ends_are_bit_identical_on_normal_ranges(self):
        # halving is exact, so halving before the sum or difference rounds
        # as halving after it does wherever the halves stay normal
        rng = np.random.default_rng(24)
        ends = np.sort(rng.standard_normal((20000, 2))
                       * 10.0 ** rng.integers(-300, 300, (20000, 1)), axis=1)
        rule = gauss_legendre(1)
        for lo, hi in ends:
            pts, half = panel_points(lo, hi, 1, rule)
            assert pts.tobytes() == (0.5 * (lo + hi)).tobytes()
            assert half.tobytes() == (0.5 * (hi - lo)).tobytes()


class TestL2Error:
    def test_identical_functions(self):
        assert l2_error(np.sin, np.sin, 0, 2, 4, gauss_legendre(8)) == 0.0

    def test_constant_offset(self):
        got = l2_error(lambda x: np.sin(x) + 0.3, np.sin, 0, 2, 8, gauss_legendre(8))
        assert got == pytest.approx(0.09 * 2, rel=1e-12)

    def test_symmetric_and_nonnegative(self):
        rule = gauss_legendre(8)
        a = l2_error(np.sin, np.cos, 0, 1, 6, rule)
        b = l2_error(np.cos, np.sin, 0, 1, 6, rule)
        assert a == pytest.approx(b, rel=1e-13)
        assert a > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("approx, lo, hi", [
        (lambda x: 1e200 * np.ones_like(x), 0.0, 1.0),  # the squares overflow
        (np.zeros_like, 0.0, 1.7e308),  # 4 * 1.7e308 overflows
    ])
    def test_integral_beyond_a_double_is_refused(self, approx, lo, hi):
        with pytest.raises(InvalidDomainError, match="is not finite: inf"):
            l2_error(approx, lambda x: np.full_like(x, 2.0), lo, hi, 4, gauss_legendre(8))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("deviation, want", [
        (1e154, 1e8),     # the squares are finite, their weighted sums not
        (1e200, 1e100),   # the squares overflow too
    ], ids=["sums_overflow", "squares_overflow"])
    def test_finite_integral_whose_squares_overflow_is_finite(self, deviation, want):
        got = l2_error(lambda x: np.full_like(x, deviation), np.zeros_like, 0.0, 1e-300, 3,
                       gauss_legendre(4))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("approx, total", [(1e308, "inf"), (np.nan, "nan")],
                             ids=["overflows", "nan"])
    def test_deviation_that_is_not_finite_is_refused_by_its_range(self, approx, total):
        # 1e308 against -1e308 overflows; a NaN is not carried through here
        with pytest.raises(InvalidDomainError, match=r"^the integral of the squared "
                           rf"deviation over \[0.0, 1e-300\] is not finite: {total}$"):
            l2_error(lambda x: np.full_like(x, approx), lambda x: np.full_like(x, -1e308),
                     0.0, 1e-300, 3, gauss_legendre(4))

    def test_published_interpolation_value(self):
        # |x| on [-1,1] with 100 pieces: published squared error 2.6e-5
        g = make_grid(-1, 1, 100)
        m = build_spline(g, sample(np.abs, g))
        got = l2_error(m, np.abs, -1, 1, 100, gauss_legendre(8))
        assert 0.5 * 2.6e-5 <= got <= 2 * 2.6e-5


class TestMaxError:
    def test_identical_functions(self):
        assert max_error(np.cos, np.cos, 0, 1) == 0.0

    def test_constant_offset(self):
        assert max_error(lambda x: np.cos(x) - 0.2, np.cos, 0, 1) \
            == pytest.approx(0.2, rel=1e-13)

    @pytest.mark.parametrize("samples", [2001, 3 * _BLOCK + 5])
    def test_equals_unblocked_max(self, samples):
        g = make_grid(0, 3, 40)
        m = build_spline(g, sample(np.exp, g))
        xs = np.linspace(0, 3, samples)
        assert max_error(m, np.exp, 0, 3, samples=samples) \
            == float(np.max(np.abs(m(xs) - np.exp(xs))))

    def test_nan_deviation_in_a_later_block_propagates(self):
        hole = np.linspace(0, 1, 3 * _BLOCK)[2 * _BLOCK + 1]
        assert math.isnan(max_error(
            lambda x: np.where(x == hole, np.nan, np.cos(x)), np.cos, 0, 1,
            samples=3 * _BLOCK))

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            max_error(np.cos, np.cos, 0, 1, samples=1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("approx", [lambda x: np.full_like(x, 1e308),
                                        lambda x: np.where(x > 0.5, np.inf, 0.0)],
                             ids=["difference_overflows", "infinite"])
    def test_deviation_that_is_not_finite_is_refused_by_its_range(self, approx):
        with pytest.raises(InvalidDomainError,
                           match=r"^the max deviation over \[0.0, 1.0\] is not finite: inf$"):
            max_error(approx, lambda x: np.full_like(x, -1e308), 0.0, 1.0, 11)

    @pytest.mark.parametrize("samples", [2.5, 2.0, "3"])
    def test_non_integer_sample_count_refused(self, samples):
        with pytest.raises(ValueError, match="need an integer samples >= 2"):
            max_error(np.cos, np.cos, 0, 1, samples=samples)

    @pytest.mark.parametrize("lo, hi", [(0, np.inf), (-np.inf, 1), (np.nan, 1),
                                        (0, np.nan)])
    def test_non_finite_bounds_refused(self, lo, hi):
        with pytest.raises(InvalidDomainError, match="need finite endpoints"):
            max_error(np.cos, np.cos, lo, hi)

    def test_width_that_overflows_refused(self):
        # finite ends, but the step of the mesh would be inf
        with pytest.raises(InvalidDomainError, match="finite width"):
            max_error(np.cos, np.sin, -1.7e308, 1.7e308)

    def test_reversed_bounds_refused(self):
        # as integrate_panels does: no caller sweeps backwards
        with pytest.raises(ValueError, match=r"need lo <= hi, got \[1.0, 0.0\]"):
            max_error(np.cos, np.sin, 1.0, 0.0)

    def test_collapsed_bounds_keep_the_linspace_result(self):
        xs = np.linspace(0.5, 0.5, 2001)
        assert max_error(np.exp, np.cos, 0.5, 0.5) \
            == float(np.max(np.abs(np.exp(xs) - np.cos(xs))))

    def test_read_only_result_is_not_written(self):
        frozen = lambda x: np.broadcast_to(1.0, x.shape)
        assert max_error(frozen, np.zeros_like, 0, 1, samples=5) == 1.0

    def test_published_nodal_value(self):
        # sampling exactly at the n+1 collocation nodes reproduces the
        # published max for the exponential-kernel benchmark at n = 10
        problem = IntegralProblem(
            "fredholm2", lambda x, s: np.exp(x - s), (0.0, 1.0),
            forcing=lambda x: 2 * x * np.exp(x), lam=-2.0,
            reference=lambda x: np.exp(x) * (2 * x - 2 / 3))
        report = solve(problem, 10)
        got = max_error(report.spline, problem.reference, 0, 1, samples=11)
        assert 0.5 * 1.9e-5 <= got <= 2 * 1.9e-5


def swept_blocks(lo, hi, count):
    """The mesh blocks the sup-norm sweep evaluates, in order."""
    seen = []

    def record(x):
        seen.append(x.copy())  # the sweep writes the deviation into x
        return x

    max_error(record, np.zeros_like, lo, hi, count)
    return seen


class TestStreamedMesh:
    # counts at and around the block boundaries, and small ones
    counts = st.one_of(
        st.integers(2, 3000),
        st.builds(lambda k, off: k * _BLOCK + off, st.integers(1, 3),
                  st.sampled_from([-1, 0, 1])))
    bounds = st.floats(-1e300, 1e300, allow_subnormal=True)

    @given(bounds, bounds, counts)
    @example(0.25, 0.25, 2 * _BLOCK + 1)           # lo == hi
    @example(0.0, 1e-320, 2 * _BLOCK - 1)          # the step underflows to 0
    @settings(max_examples=60, deadline=None)
    def test_blocks_are_the_linspace_bit_for_bit(self, lo, hi, count):
        lo, hi = min(lo, hi), max(lo, hi)  # a reversed range is refused
        blocks = swept_blocks(lo, hi, count)
        assert np.concatenate(blocks).tobytes() == np.linspace(lo, hi, count).tobytes()
        assert [b.size for b in blocks[:-1]] == [_BLOCK] * (len(blocks) - 1)

