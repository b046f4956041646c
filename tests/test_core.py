import cmath
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadspline import (InvalidDomainError, OutOfDomainError, SplineModel, build_spline,
                        gauss_legendre, make_grid, sample)
from quadspline.core import eval_many
from quadspline.integral_eq import _integral_operator
from quadspline.quadrature import integrate_panels, l2_error, max_error


class TestMakeGrid:
    def test_unit_interval_quarters(self):
        g = make_grid(0, 1, 4)
        assert g.h == 0.25
        np.testing.assert_allclose(g.nodes, [0, 0.25, 0.5, 0.75, 1], rtol=0, atol=0)

    def test_symmetric_ten_pieces(self):
        g = make_grid(-1, 1, 10)
        assert g.h == pytest.approx(0.2, rel=1e-15)
        assert g.nodes.size == 11

    def test_endpoints_exact(self):
        g = make_grid(0.1, 0.9300000001, 7)
        assert g.nodes[0] == 0.1
        assert g.nodes[-1] == 0.9300000001

    def test_spacing_uniform(self):
        g = make_grid(-2.5, 3.75, 37)
        gaps = np.diff(g.nodes)
        np.testing.assert_allclose(gaps, g.h, rtol=1e-12)

    @pytest.mark.parametrize("a,b,n", [(0, 1, 1), (0, 1, 0), (0, 1, -3)])
    def test_too_few_pieces(self, a, b, n):
        with pytest.raises(InvalidDomainError):
            make_grid(a, b, n)

    @pytest.mark.parametrize("a,b", [(1, 0), (2, 2), (0, np.inf), (-np.inf, 1),
                                     (np.nan, 1), (0, np.nan),
                                     # b - a overflows; h underflows to 0;
                                     # nodes round onto each other
                                     (-1e308, 1e308), (0.0, 5e-324),
                                     (1.0, 1.0000000000000002),
                                     # h*h, which the second differences
                                     # divide by, underflows to 0, is
                                     # subnormal (h = 1e-154), or overflows
                                     # (h = 2.5e307, 4e307, 1.35e154)
                                     (0.0, 1e-310), (0.0, 4e-154), (-5e307, 5e307),
                                     (1e307, 1.7e308), (0.0, 5.4e154)])
    def test_bad_interval(self, a, b):
        with pytest.raises(InvalidDomainError):
            make_grid(a, b, 4)

    def test_h_squared_just_inside_the_normal_range(self):
        for a, b, n in [(0.0, 8e-154, 4), (0.0, 5e154, 4)]:
            g = make_grid(a, b, n)
            assert np.finfo(float).tiny <= g.h * g.h <= np.finfo(float).max

    @pytest.mark.parametrize("n", [2.5, 4.0, "4", None])
    def test_non_integer_n(self, n):
        with pytest.raises(InvalidDomainError):
            make_grid(0, 1, n)

    def test_numpy_integer_n(self):
        assert make_grid(0, 1, np.int64(4)) == make_grid(0, 1, 4)

    def test_equality_ignores_derived_fields(self):
        assert make_grid(0, 1, 4) == make_grid(0, 1, 4)
        assert make_grid(0, 1, 4) != make_grid(0, 1, 5)
        assert make_grid(0, 1, 4) != make_grid(0, 2, 4)

    @given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300), st.integers(2, 5000))
    @example(-1.0, 1.0, 1140)
    @example(0.0, 1.0, 640)
    @settings(max_examples=200, deadline=None)
    def test_nodes_are_numpys_linspace_bit_for_bit(self, a, b, n):
        # convergence_study sweeps the nodes as np.linspace(a, b, n + 1)
        a, b = min(a, b), max(a, b)
        try:
            g = make_grid(a, b, n)
        except InvalidDomainError:
            assume(False)
        assert g.nodes.tobytes() == np.linspace(a, b, n + 1).tobytes()

    def test_nodes_immutable(self):
        g = make_grid(0, 1, 4)
        with pytest.raises(ValueError):
            g.nodes[0] = 99.0


class TestSample:
    def test_constant(self):
        g = make_grid(0, 1, 4)
        np.testing.assert_array_equal(sample(lambda x: 3.0, g), np.full(5, 3.0))

    def test_identity_reproduces_nodes_exactly(self):
        g = make_grid(-1, 1, 8)
        np.testing.assert_array_equal(sample(lambda x: x, g), g.nodes)

    def test_abs(self):
        g = make_grid(-1, 1, 4)
        np.testing.assert_array_equal(sample(abs, g), [1, 0.5, 0, 0.5, 1])

    def test_failure_reports_offending_node(self):
        def bad(x):
            if x > 0.5:
                raise ValueError("no data here")
            return x

        g = make_grid(0, 1, 4)
        with pytest.raises(ValueError, match="x=0.75"):
            sample(bad, g)

    def test_failure_with_two_argument_exception_keeps_cause(self):
        class LookupFailed(Exception):
            def __init__(self, key, reason):
                super().__init__(key, reason)

        def bad(x):
            if np.ndim(x) or x > 0.5:
                raise LookupFailed(x, "no data")
            return x

        g = make_grid(0, 1, 4)
        with pytest.raises(ValueError, match="x=0.75") as info:
            sample(bad, g)
        assert isinstance(info.value.__cause__, LookupFailed)
        assert info.value.__cause__.args[1] == "no data"

    @given(st.floats(-10, 10), st.floats(0.01, 10), st.integers(2, 60))
    @settings(max_examples=50, deadline=None)
    def test_coordinate_roundtrip(self, a, width, n):
        g = make_grid(a, a + width, n)
        np.testing.assert_array_equal(sample(lambda x: x, g), g.nodes)


class TestEvalMany:
    def test_vectorized_function(self):
        xs = np.linspace(0, 1, 7)
        np.testing.assert_array_equal(eval_many(np.sin, xs), np.sin(xs))

    def test_scalar_only_function(self):
        import math

        xs = np.linspace(0, 1, 7)
        np.testing.assert_allclose(eval_many(math.sin, xs), np.sin(xs), rtol=1e-15)

    @pytest.mark.parametrize("f,point,got", [
        (lambda x, s: np.ones(3), "(3,)", "shape (3,)"),
        (lambda x, s: np.ones((1, 5)), "(1, 5)", "shape (1, 5)"),
        (lambda x, s: [x, s] if np.ndim(x) == 0 else x @ s, "(2,)", "an exception"),
    ], ids=["constant_array", "broadcastable_array", "raises_on_arrays"])
    def test_array_at_a_single_point_is_named(self, f, point, got):
        # the array call's result does not broadcast, is neither 0-d nor an
        # argument's own shape, or it raises, and the retry per point gives
        # an array as well: f is named with the shapes
        with pytest.raises(ValueError) as info:
            eval_many(f, np.zeros((4, 1)), np.zeros(5))
        assert str(info.value) == (f"{f!r} gives shape {point} at a single point; on arrays "
                                   f"it gave {got}, where their broadcast shape is (4, 5)")


class TestComplexValuesRefused:
    """Complex values are refused by name, never cast to their real part:
    each call runs with every warning an error, so a ComplexWarning of the
    cast fails it."""

    def test_array_call_refused_without_a_retry_per_point(self):
        calls = []
        f = counting(lambda x: np.exp(1j * x), calls)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"gives complex values \(complex128\) on "
                                                 r"arrays, refused"):
                eval_many(f, np.linspace(0, 1, 5))
        assert len(calls) == 1

    @pytest.mark.parametrize("f", [cmath.exp, lambda x: np.complex64(math.cos(x))],
                             ids=["python_complex", "numpy_complex64"])
    def test_per_point_call_refused(self, f):
        # cmath.exp and math.cos raise TypeError on an array, so both are
        # called per point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"gives complex values at single points, "
                                                 r"refused"):
                eval_many(f, np.linspace(0, 1, 5))

    def test_sample_names_the_function_not_a_node(self):
        # no one node is at fault, so sample re-raises eval_many's refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"gives complex values \(complex128\)"):
                sample(lambda x: np.exp(1j * x), make_grid(0, 1, 4))

    def test_complex_samples_refused(self):
        g = make_grid(0, 1, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^complex samples \(complex128\) refused"):
                build_spline(g, np.exp(1j * g.nodes))


def array_hostile(calls, exc_type):
    """A callable whose array call raises exc_type; scalar calls give exp(x)."""
    def f(x):
        calls.append(x)
        if np.ndim(x):
            raise exc_type("vectorised path broken")
        return math.exp(x)
    return f


class TestScalarFallback:
    def test_eval_many_runtime_error_propagates(self):
        calls = []
        with pytest.raises(RuntimeError, match="vectorised path broken"):
            eval_many(array_hostile(calls, RuntimeError), np.linspace(0, 1, 7))
        assert len(calls) == 1

    @pytest.mark.parametrize("exc_type", [TypeError, ValueError])
    def test_eval_many_falls_back_and_logs(self, exc_type, caplog):
        xs = np.linspace(0, 1, 7)
        with caplog.at_level(logging.DEBUG, logger="quadspline"):
            got = eval_many(array_hostile([], exc_type), xs)
        np.testing.assert_array_equal(got, [math.exp(x) for x in xs])
        assert "per point" in caplog.text

    def test_eval_many_math_exp(self):
        xs = np.linspace(0, 1, 7)
        np.testing.assert_array_equal(eval_many(math.exp, xs), [math.exp(x) for x in xs])

    def test_sample_runtime_error_not_swallowed(self):
        # every single node succeeds, so the array call's error is the failure
        with pytest.raises(RuntimeError, match="vectorised path broken"):
            sample(array_hostile([], RuntimeError), make_grid(0, 1, 4))

    def test_sample_math_exp_logs(self, caplog):
        g = make_grid(0, 1, 4)
        with caplog.at_level(logging.DEBUG, logger="quadspline"):
            got = sample(math.exp, g)
        np.testing.assert_array_equal(got, [math.exp(x) for x in g.nodes])
        assert "per node" in caplog.text


def counting(f, calls):
    def wrapped(*args):
        calls.append(args)
        return f(*args)
    return wrapped


class TestCallPolicy:
    def test_out_of_domain_raises_after_one_call(self):
        # the spline rejects the whole first block; retrying it point by
        # point would call it once per point up to the first outside one
        g = make_grid(0, 1, 10)
        calls = []
        model = counting(build_spline(g, np.cos(g.nodes)), calls)
        with pytest.raises(OutOfDomainError):
            max_error(model, np.cos, 0, 1.001, samples=30000)
        assert len(calls) == 1

    def test_invalid_domain_raises_after_one_call(self):
        def refuses(x):
            raise InvalidDomainError("no grid here")

        calls = []
        with pytest.raises(InvalidDomainError, match="no grid here"):
            eval_many(counting(refuses, calls), np.linspace(0, 1, 7))
        assert len(calls) == 1

    def test_constant_result_is_broadcast_writeable(self):
        calls = []
        xs = np.linspace(0, 1, 12).reshape(3, 4)
        got = eval_many(counting(lambda x: 3.0, calls), xs)
        assert len(calls) == 1
        assert got.shape == xs.shape and got.flags.writeable
        np.testing.assert_array_equal(got, np.full(xs.shape, 3.0))

    def test_full_shape_result_is_not_copied(self):
        xs = np.linspace(0, 1, 7)
        out = np.sin(xs)
        assert eval_many(lambda x: out, xs) is out

    def test_scalar_only_kernel_on_broadcast_arguments(self, caplog):
        x = np.linspace(0, 1, 4)[:, None]
        s = np.linspace(-1, 1, 5)
        with caplog.at_level(logging.DEBUG, logger="quadspline"):
            got = eval_many(lambda x, s: math.exp(x * s), x, s)
        assert "per point" in caplog.text
        expected = [[math.exp(xi * si) for si in s] for xi in x[:, 0]]
        np.testing.assert_array_equal(got, expected)

    def test_kernel_writing_into_shared_node_stack_refused(self):
        # a shared count of n hands the kernel a read-only broadcast of one node
        # stack; one call per point would hide the write, not mend it
        def writes(x, s):
            s *= 1.0
            return np.exp(x * s)

        g = make_grid(0, 1, 40)
        calls = []
        kernel = counting(writes, calls)
        with pytest.raises(ValueError, match="writes into its arguments") as info:
            _integral_operator(kernel, g, gauss_legendre(8), g.nodes, g.n)
        assert repr(kernel) in str(info.value)
        assert len(calls) == 1

    @pytest.mark.parametrize("f", [math.exp, lambda x: x if x > 0 else -x],
                             ids=["math.exp", "if x > 0"])
    def test_scalar_only_function_on_read_only_arguments_falls_back(self, f):
        g = make_grid(-1, 1, 6)
        assert not g.nodes.flags.writeable
        np.testing.assert_array_equal(eval_many(f, g.nodes), [f(x) for x in g.nodes])

    def test_shape_that_does_not_broadcast_falls_back(self):
        calls = []
        xs = np.linspace(0, 1, 7)
        got = eval_many(counting(lambda x: 2.0 * (x[:3] if np.ndim(x) else x), calls), xs)
        np.testing.assert_array_equal(got, 2.0 * xs)
        assert len(calls) == 1 + xs.size

    @pytest.mark.parametrize("sweep", [
        lambda f: eval_many(f, np.linspace(0, 1, 7)),
        lambda f: max_error(f, np.cos, 0, 1, samples=30000),
        lambda f: l2_error(f, np.cos, 0, 1, 10, gauss_legendre(4)),
        lambda f: l2_error(np.cos, f, 0, 1, 10, gauss_legendre(4)),
        lambda f: integrate_panels(f, 0, 1, 10, gauss_legendre(4)),
    ], ids=["eval_many", "max_error", "l2_error approx", "l2_error reference",
            "integrate_panels"])
    def test_array_callable_defect_raises_after_one_call(self, sweep, monkeypatch):
        # a SplineModel, defined in the package, whose array path fails as
        # numpy reports a broadcast error: every sweep raises after its one
        # array call, even through l2_error's integrand, where a retry per
        # point would have hidden the defect behind a call per point
        calls = []
        evaluate = SplineModel._eval

        def broken(self, x, deriv):
            calls.append(np.shape(x))
            if np.ndim(x):
                raise ValueError("operands could not be broadcast together")
            return evaluate(self, x, deriv)

        g = make_grid(0, 1, 10)
        model = build_spline(g, np.cos(g.nodes))
        monkeypatch.setattr(SplineModel, "_eval", broken)
        with pytest.raises(ValueError, match="could not be broadcast"):
            sweep(model)
        assert len(calls) == 1

    @pytest.mark.parametrize("module,retried", [
        ("quadspline.registry", False), ("quadspline", False),
        (__name__, True), ("quadspline_extra", True),
    ], ids=["registry", "package", "test module", "lookalike"])
    def test_where_a_function_is_defined_decides_the_retry(self, module, retried):
        # a function failing on arrays raises after its one call when it is
        # defined in the package, and is called per point otherwise
        calls = []

        def scalar_only(x):
            calls.append(x)
            return math.cos(x)

        scalar_only.__module__ = module
        xs = np.linspace(0, 1, 7)
        if retried:
            np.testing.assert_array_equal(eval_many(scalar_only, xs), np.cos(xs))
            assert len(calls) == 1 + xs.size
        else:
            with pytest.raises(TypeError):
                eval_many(scalar_only, xs)
            assert len(calls) == 1

    @pytest.mark.parametrize("module", [None, b"quadspline", AttributeError],
                             ids=["None", "bytes", "missing"])
    def test_callable_without_a_string_module_counts_as_outside(self, module):
        class ScalarOnly:
            def __call__(self, x):
                return math.cos(x)

        def missing(self):
            raise AttributeError("__module__")

        ScalarOnly.__module__ = property(missing) if module is AttributeError else module
        f = ScalarOnly()
        assert not isinstance(getattr(f, "__module__", None), str)
        xs = np.linspace(0, 1, 7)
        np.testing.assert_array_equal(eval_many(f, xs), np.cos(xs))

    def test_sample_names_the_node_outside_a_spline(self):
        g = make_grid(0, 2, 4)
        narrow = build_spline(make_grid(0, 1, 4), np.zeros(5))
        with pytest.raises(ValueError, match="x=1.5") as info:
            sample(narrow, g)
        assert isinstance(info.value.__cause__, OutOfDomainError)
