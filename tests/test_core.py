import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadspline import InvalidDomainError, make_grid, sample
from quadspline.core import eval_many


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
                                     (np.nan, 1), (0, np.nan)])
    def test_bad_interval(self, a, b):
        with pytest.raises(InvalidDomainError):
            make_grid(a, b, 4)

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
