import itertools
import math
import warnings

import numpy as np
import pytest

from dataclasses import fields, replace

from quadspline import (IntegralProblem, InvalidDomainError, QuadratureRule, SingularMatrixError,
                        build_spline, find_real_eigenvalues, gauss_legendre,
                        integrate_panels, l2_error, make_grid, registry, solve)
from quadspline import integral_eq
from quadspline.integral_eq import _integral_operator
from quadspline.quadrature import _integral
from quadspline.registry import get_problem

from oracles import coefficient_matrix, kernel_piece_weights, summed_piece_weights

RULE8 = gauss_legendre(8)
# Simpson's rule, the 3-point Gauss-Lobatto rule: its ends sit on -1 and 1
LOBATTO3 = QuadratureRule(3, np.array([-1.0, 0.0, 1.0]), np.array([1.0, 4.0, 1.0]) / 3)


def direct_piece_integral(kernel, x_eval, grid, samples, k, hi=None):
    """Oracle: build the spline explicitly, then integrate K(x,.)*S over piece k."""
    model = build_spline(grid, samples)
    lo = grid.nodes[k - 1]
    hi = grid.nodes[k] if hi is None else hi
    return integrate_panels(lambda s: kernel(x_eval, s) * model(s),
                            lo, hi, 8, gauss_legendre(12))


def random_poly_kernel(rng):
    c = rng.uniform(-1, 1, size=(3, 3))
    return lambda x, s: sum(c[p, q] * x**p * s**q
                            for p in range(3) for q in range(3))


class TestProblemValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidDomainError, match="unknown problem kind"):
            IntegralProblem("fredholm3", lambda x, s: 0.0, (0, 1),
                            forcing=np.sin, lam=1.0)

    def test_minimum_pieces(self):
        p = IntegralProblem("fredholm2", lambda x, s: 0.0, (0, 1),
                            forcing=np.sin, lam=1.0)
        with pytest.raises(ValueError, match="n >= 2"):
            solve(p, 1)

    def test_forcing_required_where_it_is(self):
        with pytest.raises(ValueError, match="forcing required"):
            IntegralProblem("volterra2", lambda x, s: 0.0, (0, 1), lam=1.0)

    def test_forcing_forbidden_for_eigen(self):
        with pytest.raises(ValueError, match="forcing not allowed"):
            IntegralProblem("fredholm_eigen", lambda x, s: 0.0, (0, 1),
                            forcing=np.sin)

    def test_lambda_rules(self):
        with pytest.raises(ValueError, match="lam required"):
            IntegralProblem("fredholm2", lambda x, s: 0.0, (0, 1),
                            forcing=np.sin)
        with pytest.raises(ValueError, match="lam not allowed"):
            IntegralProblem("volterra1", lambda x, s: 0.0, (0, 1),
                            forcing=np.sin, lam=2.0)

    @pytest.mark.parametrize("interval,n", [((0, 1), 2.5), ((0, 1), 4.0),
                                            ((0, np.inf), 4), ((np.nan, 1), 4),
                                            ((1, 0), 4)])
    def test_grid_validated_at_construction(self, interval, n):
        # a bad interval is refused when the problem is built, a bad n when
        # it is solved
        def build():
            return IntegralProblem("fredholm2", lambda x, s: 0.0, interval,
                                   forcing=np.sin, lam=1.0)

        if interval != (0, 1):
            with pytest.raises(InvalidDomainError):
                build()
        else:
            p = build()
            with pytest.raises(InvalidDomainError):
                solve(p, n)

    def test_grid_built_once_per_solve(self, monkeypatch):
        # a problem is its equation alone: solve builds the one grid of its
        # n, and the problem keeps no grid and no n
        calls = []

        def counted(*args):
            calls.append(args)
            return make_grid(*args)

        p = IntegralProblem("volterra2", lambda x, s: 0.0, (0, 1),
                            forcing=np.sin, lam=1.0)
        monkeypatch.setattr(integral_eq, "make_grid", counted)
        solve(p, 4)
        solve(p, 6)
        assert calls == [(0, 1, 4), (0, 1, 6)]
        assert p == IntegralProblem("volterra2", p.kernel, (0, 1),
                                    forcing=np.sin, lam=1.0)
        assert [f.name for f in fields(p)] == ["kind", "kernel", "interval", "forcing",
                                               "lam", "reference", "bracket"]

    @pytest.mark.parametrize("kind", ["fredholm2", "volterra2", "volterra1"])
    def test_failing_forcing_is_named_by_node(self, kind):
        # every kind reads its forcing at the nodes through sample, which
        # names the node where it fails
        def forcing(x):
            if np.any(np.asarray(x) == 0.5):
                raise ZeroDivisionError("pole at 0.5")
            return np.ones_like(x)

        p = IntegralProblem(kind, lambda x, s: x * s, (0, 1), forcing=forcing,
                            lam=None if kind == "volterra1" else 0.5)
        with pytest.raises(ValueError, match=r"evaluation failed at node x=0\.5") as info:
            solve(p, 4)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("kind", ["fredholm2", "volterra2", "volterra1"])
    def test_forcing_that_is_not_finite_is_named_by_node(self, kind):
        # NaN at node 6 of 10 is named by that node before any solve, not by
        # the row of the system it lands in: b[6] for fredholm2, and b[5, 0]
        # in the causal kinds' trailing system, which starts at node 1
        x6 = make_grid(0.0, 1.0, 10).nodes[6]
        p = IntegralProblem(kind, lambda x, s: x * s, (0, 1),
                            forcing=lambda x: np.where(x == x6, np.nan, 1.0),
                            lam=None if kind == "volterra1" else 0.5)
        with pytest.raises(ValueError, match=rf"^sample 6 at x={x6} is not finite: nan$"):
            solve(p, 10)

    @pytest.mark.parametrize("kind", ["fredholm2", "volterra2", "fredholm_eigen"])
    def test_failing_reference_is_named_by_node(self, kind):
        # the report samples the reference at the nodes before any other use
        # of it; for the eigen kind, max_error's 2001 points also hit 0.5
        def reference(x):
            if np.any(np.asarray(x) == 0.5):
                raise ZeroDivisionError("pole at 0.5")
            return x * (1.0 - 2.0 * x)

        eigen = kind == "fredholm_eigen"
        p = IntegralProblem(kind, lambda x, s: 2.0 * x * s - 4.0 * x**2, (0, 1),
                            forcing=None if eigen else np.sin, lam=None if eigen else 0.5,
                            reference=reference, bracket=(-10.0, 0.0) if eigen else None)
        with pytest.raises(ValueError, match=r"evaluation failed at node x=0\.5") as info:
            solve(p, 4)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(InvalidDomainError, match="finite lam"):
            IntegralProblem("volterra2", lambda x, s: 0.0, (0, 1),
                            forcing=np.sin, lam=lam)

    def test_bracket_required_for_eigen(self):
        with pytest.raises(InvalidDomainError,
                           match="kind 'fredholm_eigen': bracket required"):
            IntegralProblem("fredholm_eigen", lambda x, s: 0.0, (0, 1))

    @pytest.mark.parametrize("kind", ["fredholm2", "volterra2", "volterra1"])
    def test_bracket_refused_for_other_kinds(self, kind):
        with pytest.raises(InvalidDomainError, match=f"kind '{kind}': bracket not allowed"):
            IntegralProblem(kind, lambda x, s: 0.0, (0, 1), forcing=np.sin,
                            lam=None if kind == "volterra1" else 1.0, bracket=(0.0, 1.0))

    @pytest.mark.parametrize("bracket", [(1.0, 0.0), (0.0, 0.0), (np.nan, 0.0),
                                         (0.0, np.nan), (0.0,), (0.0, 1.0, 2.0), 1.0])
    def test_malformed_bracket_refused(self, bracket):
        # two values with lo < hi, as the CLI's --bracket requires
        with pytest.raises(InvalidDomainError, match="bracket must be"):
            IntegralProblem("fredholm_eigen", lambda x, s: 0.0, (0, 1), bracket=bracket)
        with pytest.raises(InvalidDomainError, match="bracket must be"):
            registry.solve_entry("krasnov2", 5, bracket=bracket)

    @pytest.mark.parametrize("bracket,end", [((-np.inf, np.inf), "lo = -inf"),
                                             ((-1.0, np.inf), "hi = inf")], ids=["both", "hi"])
    def test_bracket_end_that_is_not_finite_refused(self, bracket, end):
        # it passes lo < hi; with K = 1e-320 the search once took 1/mu = inf
        # as a root and ended in numpy's LinAlgError
        with pytest.raises(InvalidDomainError, match=f"bracket end {end} is not finite"):
            IntegralProblem("fredholm_eigen", lambda x, s: 1e-320, (0, 1), bracket=bracket)
        with pytest.raises(InvalidDomainError, match=f"bracket end {end} is not finite"):
            registry.solve_entry("krasnov2", 5, bracket=bracket)

    def test_replace_rebuilds_a_validated_problem(self):
        p = get_problem("krasnov2")
        q = replace(p, bracket=(-3.0, -2.5))
        assert q.bracket == (-3.0, -2.5) and q.interval == p.interval
        assert [v for v, _ in solve(q, 5).eigen] == [v for v, _ in solve(p, 5).eigen
                                                      if -3.0 <= v <= -2.5]
        with pytest.raises(InvalidDomainError, match="bracket required"):
            replace(p, bracket=None)
        with pytest.raises(InvalidDomainError, match="bracket not allowed"):
            replace(get_problem("krasnov1"), bracket=(0.0, 1.0))

    @pytest.mark.parametrize("pid", sorted(registry.PROBLEMS))
    def test_solve_matches_the_registry_entry(self, pid):
        # one entry point: the registry adds nothing but the entry's fields
        got = solve(get_problem(pid), 8)
        want = registry.solve_entry(pid, 8)
        np.testing.assert_array_equal(got.samples, want.samples)
        assert (got.error_l2, got.error_max) == (want.error_l2, want.error_max)
        assert [v for v, _ in got.eigen or ()] == [v for v, _ in want.eigen or ()]



class TestKernelPieceWeights:
    def test_zero_kernel(self):
        g = make_grid(0, 1, 4)
        C = coefficient_matrix(4, g.h)
        w = kernel_piece_weights(lambda x, s: 0.0, 0.3, g, 2, C, RULE8)
        np.testing.assert_array_equal(w, np.zeros(5))

    def test_unit_kernel_constant_samples(self):
        # int over one piece of the constant spline c is c*h
        g = make_grid(0, 1, 4)
        C = coefficient_matrix(4, g.h)
        y = np.full(5, 2.5)
        for k in range(1, 5):
            w = kernel_piece_weights(lambda x, s: 1.0, 0.7, g, k, C, RULE8)
            assert float(w @ y) == pytest.approx(2.5 * g.h, rel=1e-12)

    def test_matches_direct_quadrature(self):
        rng = np.random.default_rng(21)
        g = make_grid(0, 1, 4)
        C = coefficient_matrix(4, g.h)
        for _ in range(10):
            kernel = random_poly_kernel(rng)
            y = rng.standard_normal(5)
            x_eval = float(rng.uniform(0, 1))
            for k in range(1, 5):
                w = kernel_piece_weights(kernel, x_eval, g, k, C, RULE8)
                oracle = direct_piece_integral(kernel, x_eval, g, y, k)
                assert float(w @ y) == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    def test_partial_piece_upper_limit(self):
        rng = np.random.default_rng(22)
        g = make_grid(0, 1, 5)
        C = coefficient_matrix(5, g.h)
        kernel = random_poly_kernel(rng)
        y = rng.standard_normal(6)
        hi = g.nodes[4] + 0.6 * g.h
        w = kernel_piece_weights(kernel, 0.9, g, 5, C, RULE8, upper=hi)
        oracle = direct_piece_integral(kernel, 0.9, g, y, 5, hi=hi)
        assert float(w @ y) == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    def test_piece_index_validated(self):
        g = make_grid(0, 1, 4)
        C = coefficient_matrix(4, g.h)
        with pytest.raises(ValueError):
            kernel_piece_weights(lambda x, s: 1.0, 0.3, g, 5, C, RULE8)


class TestIntegralOperator:
    KERNELS = {
        "polynomial": random_poly_kernel(np.random.default_rng(41)),
        "constant": lambda x, s: 1.0,
        # a result of x's own shape is broadcast to the node stack
        "x_only": lambda x, s: np.cos(x),
        "s_only": lambda x, s: np.exp(s),
        "scalar_only": lambda x, s: math.exp(x * s),
    }

    @pytest.mark.parametrize("rows", ["full", "causal"])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("n", [3, 8])
    def test_rows_match_summed_piece_weights(self, rows, name, n):
        kernel = self.KERNELS[name]
        g = make_grid(-0.5, 1.5, n)
        reach = np.full(n + 1, n) if rows == "full" else np.arange(n + 1)
        W = _integral_operator(kernel, g, RULE8, g.nodes, reach)
        oracle = summed_piece_weights(kernel, g, g.nodes, g.nodes[reach])
        scale = np.max(np.abs(oracle), axis=1, keepdims=True)
        assert np.all(np.abs(W - oracle) <= 1e-12 * scale)

    @pytest.mark.parametrize("rows", ["full", "causal", "interior", "unsorted", "ends"])
    @pytest.mark.parametrize("block_rows", [1, 13])
    def test_row_blocks_agree_with_one_block(self, monkeypatch, rows, block_rows):
        # at n = 40 a full row holds 8 x 40 kernel values; the rows go in
        # blocks of at most 13 or 1 such rows, more of them when they reach
        # fewer pieces, and W is the one-block W to the bit. Interior rows
        # sit at sorted interior nodes and reach up to their own; unsorted
        # counts come with runs of 0 (no piece reached) and n (every piece)
        g = make_grid(-0.5, 1.5, 40)
        rng = np.random.default_rng(7)
        if rows == "full":
            xs, reach = g.nodes, g.n
        elif rows == "causal":
            xs, reach = g.nodes, np.arange(g.n + 1)
        elif rows == "interior":
            reach = np.sort(rng.choice(np.arange(1, g.n), 50))
            xs = g.nodes[reach]
        else:
            reach = rng.choice(np.arange(g.n + 1), 60)
            reach[rng.permutation(60)[:20]] = g.n
            reach[:6] = reach[30:35] = 0
            if rows == "ends":
                reach = np.sort(reach)
            xs = rng.uniform(g.a, g.b, 60)
        calls = []

        def kernel(x, s):
            calls.append(s.shape)
            return self.KERNELS["polynomial"](x, s)

        one = _integral_operator(kernel, g, RULE8, xs, reach)
        assert len(calls) == 1
        monkeypatch.setattr(integral_eq, "_OPERATOR_BLOCK", block_rows * RULE8.order * g.n)
        blocked = _integral_operator(kernel, g, RULE8, xs, reach)
        assert len(calls) > 3  # at least three blocks
        assert blocked.tobytes() == one.tobytes()

    @pytest.mark.parametrize("q", [3, 8])
    def test_one_piece_rows_are_the_same_alone_or_in_a_wide_block(self, monkeypatch, q):
        # rows that reach one piece, in one block beside a row of all n
        # pieces or each alone: a block takes at least 2 pieces a row, as a
        # product with one column would go to BLAS's matrix-vector routine,
        # which rounds differently
        g = make_grid(-0.5, 1.5, 9)
        rule = gauss_legendre(q)

        def kernel(x, s):
            return np.exp(0.7 * x * s) + np.sin(1.3 * s - 0.4 * x)

        xs = np.random.default_rng(3).uniform(-1, 2, 6)
        reach = np.array([1, 1, 1, 1, 1, 9])
        together = _integral_operator(kernel, g, rule, xs, reach)
        monkeypatch.setattr(integral_eq, "_OPERATOR_BLOCK", q)  # one row a block
        alone = _integral_operator(kernel, g, rule, xs, reach)
        assert alone.tobytes() == together.tobytes()
        # and so does a row that shares its count of 1 with no other
        assert _integral_operator(kernel, g, rule, xs[:1], 1).tobytes() == together[:1].tobytes()

    def test_scalar_reach_broadcasts(self):
        g = make_grid(0, 1, 5)
        kernel = self.KERNELS["polynomial"]
        np.testing.assert_array_equal(
            _integral_operator(kernel, g, RULE8, g.nodes, 5),
            _integral_operator(kernel, g, RULE8, g.nodes, np.full(6, 5)))

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("n,q", [(7, 1), (12, 3), (40, 8)])
    @pytest.mark.parametrize("limit", ["b", "last_node", "first_node"])
    def test_shared_limit_matches_per_row_limits_bit_for_bit(self, monkeypatch,
                                                             name, n, q, limit):
        # one (q, 1, n) stack for every row, or one stack row per row: the
        # same W to the bit, over at least three blocks of rows, for node
        # and off-node rows and for a shared count of n, n - 1 (the
        # Volterra-1 closure's) or 1, where each block's 2 pieces leave one
        # empty
        g = make_grid(-0.5, 1.5, n)
        rule = gauss_legendre(q)
        reach = {"b": n, "last_node": n - 1, "first_node": 1}[limit]
        monkeypatch.setattr(integral_eq, "_OPERATOR_BLOCK", 3 * q * max(2, reach))
        for xs in (g.nodes, np.sort(np.random.default_rng(n).uniform(g.a, g.b, 11))):
            assert len(xs) > 2 * 3
            shared = _integral_operator(self.KERNELS[name], g, rule, xs, reach)
            per_row = _integral_operator(self.KERNELS[name], g, rule, xs,
                                         np.full(len(xs), reach))
            assert shared.tobytes() == per_row.tobytes()

    def test_shared_limit_hands_the_kernel_one_broadcast_stack(self, monkeypatch):
        # the kernel sees the (q, rows, p) shape, but where every row of a
        # block reaches all its p >= 2 pieces, as for a count of 2 or more
        # that all rows share, given once or per row, its rows are one
        # read-only (q, 1, p) stack, cut to the first p pieces, not a
        # rebuilt stack; a shared count of 1, whose blocks take 2 pieces
        # with one empty, and blocks of causal rows get a writeable stack of
        # p pieces a row, p each block's widest reach
        seen = []

        def kernel(x, s):
            seen.append((s.shape, s.strides[1], s.flags.writeable))
            return np.exp(x * s)

        g = make_grid(0, 1, 20)
        monkeypatch.setattr(integral_eq, "_OPERATOR_BLOCK", 5 * RULE8.order * g.n)
        for reach in (g.n, g.n - 1, [g.n] * (g.n + 1)):  # 5 rows a block each way
            seen.clear()
            _integral_operator(kernel, g, RULE8, g.nodes, reach)
            p = max(np.ravel(reach))
            assert [shape for shape, _, _ in seen] == [(8, 5, p)] * 4 + [(8, 1, p)]
            assert all(stride == 0 and not writeable for _, stride, writeable in seen)
        seen.clear()
        _integral_operator(kernel, g, RULE8, g.nodes[:3], 1)
        assert seen == [((8, 3, 2), 2 * 8, True)]
        seen.clear()
        _integral_operator(kernel, g, RULE8, g.nodes, np.arange(g.n + 1))
        assert seen == [((8, 10, 9), 9 * 8, True), ((8, 6, 15), 15 * 8, True),
                        ((8, 5, 20), 20 * 8, True)]

    def test_runtime_error_from_array_call_propagates(self):
        calls = []

        def kernel(x, s):
            calls.append(x)
            if np.ndim(x):
                raise RuntimeError("vectorised kernel broken")
            return math.exp(x * s)

        with pytest.raises(RuntimeError, match="vectorised kernel broken"):
            _integral_operator(kernel, make_grid(0, 1, 4), RULE8, np.linspace(0, 1, 5), 4)
        assert len(calls) == 1

    def test_scalar_only_kernel_matches_vectorised(self):
        g = make_grid(0, 1, 4)
        args = (g, RULE8, g.nodes, 4)
        np.testing.assert_allclose(
            _integral_operator(lambda x, s: math.exp(x * s), *args),
            _integral_operator(lambda x, s: np.exp(x * s), *args), rtol=1e-15)

    @pytest.mark.parametrize("reach", [1.0, np.float64(4.0), np.array([0.0, 1.0]),
                                       np.nan, True],
                             ids=["b", "float64", "array", "nan", "bool"])
    def test_reach_that_is_not_an_integer_count_is_refused(self, reach):
        # a limit such as b = 1.0 passed where a count belongs would be
        # truncated to a count of 1 piece; it is refused before the kernel
        # is called
        calls = []
        g = make_grid(0, 1, 4)
        with pytest.raises(TypeError, match="reach must be integer piece counts"):
            _integral_operator(lambda x, s: calls.append(1), g, RULE8, g.nodes[:2], reach)
        assert calls == []

    @pytest.mark.parametrize("reach,first", [(-1, -1), (5, 5), (np.array([0, 4, -1, 7]), -1),
                                             (np.array([2, 6, 0]), 6)],
                             ids=["negative", "above_n", "negative_first", "above_n_first"])
    def test_count_outside_0_to_n_is_refused(self, reach, first):
        # a negative count would give a row of zeros, and one above n would
        # end in numpy's reshape or broadcast error; both are refused, the
        # first bad count named, before the kernel is called
        calls = []
        g = make_grid(0, 1, 4)
        with pytest.raises(ValueError, match=rf"reach must count pieces in 0\.\.4, got {first}$"):
            _integral_operator(lambda x, s: calls.append(1), g, RULE8,
                               np.zeros(np.size(reach)), reach)
        assert calls == []

    @pytest.mark.parametrize("kernel", [
        # a full-shape read-only view, which eval_many passes on uncopied
        lambda x, s: np.broadcast_to(x * s, np.broadcast_shapes(np.shape(x), np.shape(s))),
        # with one row per block, s itself has the full shape
        lambda x, s: s,
    ], ids=["read_only", "returns_s"])
    def test_empty_pieces_never_write_into_the_kernel_result(self, monkeypatch, kernel):
        # rows at unsorted nodes, a and b among them, each reaching up to
        # its own, one row per block: the rows of the pieces beyond a row's
        # reach are zeroed in the operator's own buffer, not in what the
        # kernel returned
        g = make_grid(-0.5, 1.5, 6)
        reach = np.random.default_rng(8).permutation(np.append(np.arange(7), np.arange(2, 5)))
        xs = g.nodes[reach]
        monkeypatch.setattr(integral_eq, "_OPERATOR_BLOCK", RULE8.order * g.n)
        W = _integral_operator(kernel, g, RULE8, xs, reach)
        oracle = summed_piece_weights(kernel, g, xs, xs)
        scale = np.max(np.abs(oracle), axis=1, keepdims=True)
        assert np.all(np.abs(W - oracle) <= 1e-12 * scale)

    @pytest.mark.parametrize("rows", ["causal", "tail", "unsorted_nodes"])
    @pytest.mark.parametrize("beyond", ["raises", "nan"])
    def test_kernel_is_never_called_beyond_the_row_limit(self, rows, beyond):
        # each row's limit is its own x, and the kernel is unusable at s > x
        def kernel(x, s):
            if beyond == "raises" and np.any(s > x):
                raise AssertionError("kernel called at s > x")
            return np.where(s <= x, np.cos(x - s), np.nan)

        g = make_grid(-0.5, 1.5, 8)
        reach = {"causal": np.arange(9), "tail": np.arange(1, 9),
                 "unsorted_nodes": np.random.default_rng(9).choice(np.arange(9), 11)}[rows]
        xs = g.nodes[reach]
        W = _integral_operator(kernel, g, RULE8, xs, reach)
        oracle = summed_piece_weights(kernel, g, xs, xs)
        scale = np.max(np.abs(oracle), axis=1, keepdims=True)
        assert np.all(np.abs(W - oracle) <= 1e-12 * scale)


class CountingKernel:
    """exp(x s), recording the shapes of every array call and counting
    per-point calls; scalar_only makes array calls raise TypeError."""

    def __init__(self, scalar_only=False):
        self.scalar_only = scalar_only
        self.array_calls = []
        self.point_calls = 0

    def __call__(self, x, s):
        if np.ndim(x) or np.ndim(s):
            self.array_calls.append((np.shape(x), np.shape(s)))
            if self.scalar_only:
                raise TypeError("only scalars")
            return np.exp(x * s)
        self.point_calls += 1
        return math.exp(x * s)


def planned_blocks(q, reach, rows, block):
    """(rows, p) of each row block, from the definition: row i reaches r_i
    pieces, and a block takes p = max(2, max r_i) pieces of each row,
    growing row by row while q rows p <= block."""
    reach = [max(2, int(r)) for r in np.broadcast_to(reach, rows)]
    blocks, lo = [], 0
    while lo < rows:
        hi, p = lo + 1, reach[lo]
        while hi < rows and q * (hi + 1 - lo) * max(p, reach[hi]) <= block:
            p = max(p, reach[hi])
            hi += 1
        blocks.append((hi - lo, p))
        lo = hi
    return blocks


class TestOperatorCalls:
    """The operator calls the kernel once per block of rows, on a (rows, 1)
    column of x and the (q, rows, p) stack of every row's own nodes on the
    p pieces the block's rows reach."""

    N, BLOCK_ROWS = 40, 13
    GRID = make_grid(-0.5, 1.5, N)
    ROWS = {
        "fredholm": (GRID.nodes, N),
        "causal": (GRID.nodes, np.arange(N + 1)),
        "off_node": (np.sort(np.random.default_rng(7).uniform(-0.5, 1.5, 50)),
                     np.sort(np.random.default_rng(7).choice(np.arange(N + 1), 50))),
    }
    # a shared count of N reaches every piece, so its blocks are BLOCK_ROWS
    # rows of N pieces; row i of the causal rows reaches i pieces, so each
    # of their blocks takes more rows of fewer pieces, and so do off-node
    # rows with sorted counts
    BLOCKS = {"fredholm": [(13, 40)] * 3 + [(2, 40)],
              "causal": [(23, 22), (14, 36), (4, 40)],
              "off_node": [(25, 20), (15, 33), (10, 40)]}

    def run(self, monkeypatch, rows, kernel):
        """Rows in blocks of at most BLOCK_ROWS x N pieces; returns each
        block's (rows, p), checked against the definition."""
        block = self.BLOCK_ROWS * RULE8.order * self.N
        monkeypatch.setattr(integral_eq, "_OPERATOR_BLOCK", block)
        xs, reach = self.ROWS[rows]
        _integral_operator(kernel, self.GRID, RULE8, xs, reach)
        blocks = planned_blocks(RULE8.order, reach, len(xs), block)
        assert blocks == self.BLOCKS[rows]
        return blocks

    @pytest.mark.parametrize("rows", ["fredholm", "causal"])
    def test_node_rows_make_one_call_per_block(self, monkeypatch, rows):
        kernel = CountingKernel()
        blocks = self.run(monkeypatch, rows, kernel)
        assert kernel.array_calls == [((r, 1), (RULE8.order, r, p)) for r, p in blocks]

    def test_off_node_rows_make_one_call_per_block(self, monkeypatch):
        # rows at points between the nodes, whose limits are nodes, take
        # their x as the same (rows, 1) column
        kernel = CountingKernel()
        blocks = self.run(monkeypatch, "off_node", kernel)
        assert kernel.array_calls == [((r, 1), (RULE8.order, r, p)) for r, p in blocks]

    @pytest.mark.parametrize("rows", ["fredholm", "causal", "off_node"])
    def test_scalar_only_kernel_point_calls(self, monkeypatch, rows):
        # q values per (row, piece) pair of each block's p pieces, whether
        # the row covers or skips the piece, after one failed array
        # call per block; per-row counts skip the pieces no row of a block
        # reaches
        kernel = CountingKernel(scalar_only=True)
        blocks = self.run(monkeypatch, rows, kernel)
        assert kernel.point_calls == RULE8.order * sum(r * p for r, p in blocks)
        assert len(kernel.array_calls) == len(blocks)
        every_piece = RULE8.order * len(self.ROWS[rows][0]) * self.N
        assert (kernel.point_calls == every_piece) == (rows == "fredholm")


def fredholm_operator(p, n):
    """The collocation operator a Fredholm problem's solve uses at n pieces: rows to b."""
    g = make_grid(*p.interval, n)
    return _integral_operator(p.kernel, g, RULE8, g.nodes, n)


class TestAssembleFredholm:
    def test_zero_lambda_gives_identity(self):
        p = IntegralProblem("fredholm2", lambda x, s: np.exp(x * s), (0, 1),
                            forcing=np.sin, lam=0.0)
        A = np.eye(6) - p.lam * fredholm_operator(p, 5)
        np.testing.assert_allclose(A, np.eye(6), atol=1e-14)

    def test_zero_kernel_gives_identity(self):
        p = IntegralProblem("fredholm2", lambda x, s: 0.0, (0, 1),
                            forcing=np.cos, lam=7.0)
        A = np.eye(6) - p.lam * fredholm_operator(p, 5)
        np.testing.assert_allclose(A, np.eye(6), atol=1e-14)

    def test_eigen_variant_returns_alpha_and_zero_rhs(self):
        p = IntegralProblem("fredholm_eigen", lambda x, s: x * s, (0, 1),
                            bracket=(0.0, 10.0))
        alpha = fredholm_operator(p, 4)
        # row j should integrate K(x_j, s)*S(s) over the whole interval
        rng = np.random.default_rng(3)
        y = rng.standard_normal(5)
        g = make_grid(0, 1, 4)
        model = build_spline(g, y)
        for j in range(5):
            oracle = integrate_panels(lambda s: g.nodes[j] * s * model(s),
                                      0, 1, 16, gauss_legendre(12))
            assert float(alpha[j] @ y) == pytest.approx(oracle, abs=1e-9)
        # every eigenfunction solves the homogeneous system (I - lam*alpha) y = 0
        r = solve(p, 4)
        assert len(r.eigen) == 1
        for value, sub in r.eigen:
            residual = sub.samples - value * (alpha @ sub.samples)
            assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(sub.samples))

    def test_assembly_oracle_random_kernels(self):
        rng = np.random.default_rng(31)
        for n in (3, 5, 6):
            kernel = random_poly_kernel(rng)
            p = IntegralProblem("fredholm2", kernel, (0, 1),
                                forcing=np.sin, lam=1.3)
            alpha = fredholm_operator(p, n)
            g = make_grid(0, 1, n)
            y = rng.standard_normal(n + 1)
            model = build_spline(g, y)
            for j in range(n + 1):
                oracle = integrate_panels(
                    lambda s: kernel(g.nodes[j], s) * model(s),
                    0, 1, 4 * n, gauss_legendre(12))
                assert float(alpha[j] @ y) == pytest.approx(oracle, abs=1e-9)


class TestSolveFredholm:
    def test_system_that_overflows_is_refused_by_name_without_warning(self):
        # W's entries are near 1e300, finite; lam W's near 1e310 are not
        kernel = lambda x, s: 1e300 + 0.0 * s
        p = IntegralProblem("fredholm2", kernel, (0.0, 1.0), forcing=np.ones_like, lam=1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDomainError, match="not finite") as exc:
                solve(p, 4)
        assert f"{kernel!r} on [0.0, 1.0] at n = 4" in str(exc.value)

    def test_zero_lambda_passthrough(self):
        p = IntegralProblem("fredholm2", lambda x, s: np.cos(x + s), (0, 2),
                            forcing=np.exp, lam=0.0, reference=np.exp)
        r = solve(p, 6)
        np.testing.assert_allclose(r.samples, np.exp(r.spline.grid.nodes), rtol=1e-13)
        assert r.error_max < 1e-12

    def test_forcing_above_half_the_largest_double_solves(self):
        # with lam = 0 the samples are the forcing's, 1e308 at every node,
        # whose spline's second differences must not overflow
        p = IntegralProblem("fredholm2", lambda x, s: np.cos(x + s), (0.0, 1.0),
                            forcing=lambda x: 1e308 + 0.0 * x, lam=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(solve(p, 5).samples, 1e308)

    def test_spline_that_overflows_between_the_nodes_is_refused_by_name(self):
        # finite samples of the largest double times cos(x), whose spline
        # rises beyond the doubles between the nodes where the report
        # integrates its deviation from the reference
        p = IntegralProblem("fredholm2", lambda x, s: np.cos(x - s), (-1.0, 1.0),
                            forcing=lambda x: 1.7976931348623157e308 * np.cos(x), lam=0.0,
                            reference=np.cos)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDomainError, match=r"^the spline's value overflows a "
                               r"double at some x in \[-0\.98\d*, 0\.98\d*\] of its "
                               r"interval \[-1\.0, 1\.0\]$"):
                solve(p, 3)

    @pytest.mark.parametrize("n,pub_l2,pub_max", [(5, 6.4e-3, 1.6e-3),
                                                  (10, 5.1e-4, 1.9e-5)])
    def test_exponential_kernel_benchmark(self, n, pub_l2, pub_max):
        p = IntegralProblem(
            "fredholm2", lambda x, s: np.exp(x - s), (0.0, 1.0),
            forcing=lambda x: 2 * x * np.exp(x), lam=-2.0,
            reference=lambda x: np.exp(x) * (2 * x - 2 / 3))
        r = solve(p, n)
        assert 0.5 * pub_l2 <= r.error_l2 <= 2 * pub_l2
        assert 0.5 * pub_max <= r.error_max <= 2 * pub_max

    def test_symmetric_linear_kernel_benchmark(self):
        p = IntegralProblem(
            "fredholm2", lambda x, s: x + s, (0.0, 1.0),
            forcing=lambda x: 1 + np.cos(x) - (1 + x) * np.sin(1) - np.cos(1),
            lam=1.0, reference=np.cos)
        r5 = solve(p, 5)
        assert 0.5 * 1.17e-3 <= r5.error_l2 <= 2 * 1.17e-3

    @pytest.mark.parametrize("n", [5, 3])
    def test_kernel_that_gives_an_array_per_point_is_named(self, n):
        # np.ones(3) is neither 0-d nor the shape of x or s, whether or not
        # it broadcasts to the operator's node stack (it does at n = 3), and
        # one call per point gives an array too
        def kernel(x, s):
            return np.ones(3)

        p = IntegralProblem("fredholm2", kernel, (0.0, 1.0), forcing=np.sin, lam=0.5)
        with pytest.raises(ValueError, match=r"gives shape \(3,\) at a single point; on "
                           r"arrays it gave shape \(3,\), where their broadcast shape is "
                           rf"\(8, {n + 1}, {n}\)") as info:
            solve(p, n)
        assert repr(kernel) in str(info.value)

    def test_wide_interval_is_the_unit_problem_scaled(self):
        # (0, 4e103) is 1e103 a piece at n = 4, where h^3 overflows: with
        # s, x and the width scaled by 1e103, lam by 1e-103, it is the
        # problem on [0, 4] with lam = 0.1 and a kernel of width 10
        def problem(b, lam, width):
            return IntegralProblem("fredholm2", lambda x, s: np.exp(-((x - s) / width) ** 2),
                                   (0.0, b), forcing=np.ones_like, lam=lam)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = solve(problem(4e103, 1e-104, 1e104), 4).samples
            unit = solve(problem(4.0, 0.1, 10.0), 4).samples
        np.testing.assert_allclose(wide, unit, rtol=1e-12, atol=0)

    def test_no_reference_means_no_error_fields(self):
        p = IntegralProblem("fredholm2", lambda x, s: x * s, (0, 1),
                            forcing=np.sin, lam=0.5)
        r = solve(p, 4)
        assert r.error_l2 is None and r.error_max is None
        assert r.spline is not None

    def test_report_self_consistency(self):
        p = IntegralProblem(
            "fredholm2", lambda x, s: np.exp(x - s), (0.0, 1.0),
            forcing=lambda x: 2 * x * np.exp(x), lam=-2.0,
            reference=lambda x: np.exp(x) * (2 * x - 2 / 3))
        r = solve(p, 6)
        e2 = l2_error(r.spline, p.reference, 0, 1, 6, RULE8)
        assert r.error_l2 == pytest.approx(math.sqrt(e2), rel=1e-12)
        nodal = np.max(np.abs(r.samples - p.reference(r.spline.grid.nodes)))
        assert r.error_max == pytest.approx(nodal, rel=1e-12)
        np.testing.assert_allclose(r.spline(r.spline.grid.nodes), r.samples,
                                   rtol=1e-12, atol=1e-12)

    @staticmethod
    def passthrough(forcing, reference, b=1.0):
        # lam = 0: the samples are the forcing's, and the report's deviation
        # is the forcing's from the reference
        return IntegralProblem("fredholm2", lambda x, s: 0.0 * (x - s), (0.0, b),
                               forcing=forcing, lam=0.0, reference=reference)

    def test_reference_that_is_nan_between_the_nodes_is_refused(self):
        # finite at the nodes, NaN at every Gauss point of the L2 error
        nodes = make_grid(0.0, 1.0, 4).nodes
        p = self.passthrough(np.cos, lambda x: np.where(np.isin(x, nodes), np.cos(x), np.nan))
        with pytest.raises(InvalidDomainError, match=r"^the integral of the squared deviation "
                                                     r"over \[0.0, 1.0\] is not finite: nan$"):
            solve(p, 4)

    def test_nodal_deviation_that_overflows_is_refused_without_warning(self):
        # 8e307 against -1e308 at every node: the difference is beyond a double
        p = self.passthrough(lambda x: np.full(np.shape(x), 8e307),
                             lambda x: np.full(np.shape(x), -1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDomainError, match="squared deviation over "
                                                         r"\[0.0, 1.0\] is not finite: inf"):
                solve(p, 4)

    def test_l2_norm_beyond_the_doubles_is_refused(self):
        # every deviation is finite, and the scaled integral of their squares
        # too, but the norm, about 1.9e308, is not a double
        p = self.passthrough(lambda x: 0.0 * x, lambda x: 1e308 * np.cos(x), b=7.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDomainError, match=r"^the L2 norm of the deviation over "
                                                         r"\[0.0, 7.0\] overflows a double$"):
                solve(p, 4)


class TestSolveFredholmEigen:
    def problem(self):
        return IntegralProblem("fredholm_eigen",
                               lambda x, s: 2 * x * s - 4 * x**2, (0.0, 1.0),
                               reference=lambda x: x * (1 - 2 * x), bracket=(-10, 0))

    def test_benchmark_eigenvalue_and_errors(self):
        r = solve(self.problem(), 9)
        assert r.eigen
        lam = min(v for v, _ in r.eigen)
        assert lam == pytest.approx(-3.065060, abs=5e-4)
        _, sub = min(r.eigen, key=lambda p: p[0])
        assert 0.5 * 7.0e-3 <= sub.error_l2 <= 2 * 7.0e-3

    def test_separable_kernel_recovers_closed_form(self):
        # K = x*s on [0,1]: the only characteristic value is 1/int_0^1 s^2 ds = 3,
        # and the spline represents the eigenfunction (linear) exactly
        p = IntegralProblem("fredholm_eigen", lambda x, s: x * s, (0.0, 1.0),
                            reference=lambda x: np.asarray(x, dtype=float),
                            bracket=(0, 10))
        r = solve(p, 10)
        assert len(r.eigen) == 1
        assert r.eigen[0][0] == pytest.approx(3.0, abs=1e-6)
        assert r.eigen[0][1].error_max < 1e-8

    def test_operator_whose_row_sums_overflow_is_refused_by_name(self):
        # krasnov2 on [0, 2^341]: W's entries are finite and its row sums
        # are not; solve names the kernel, the interval and n, where the
        # eigen search would name alpha alone
        p = replace(get_problem("krasnov2"), interval=(0.0, 2.0**341))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDomainError, match="not finite in its row sums") as exc:
                solve(p, 2)
        assert f"{p.kernel!r} on [0.0, {2.0**341}] at n = 2" in str(exc.value)

    def test_reference_whose_scale_overflows_is_refused_without_warning(self):
        # krasnov2's eigenvector scaled to a reference near the largest
        # double: ref(x_1) / v_1 overflows, and is refused by name
        p = replace(get_problem("krasnov2"), reference=lambda x: 1.7e308 * np.cos(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDomainError, match=r"^the eigenvector scaled by -?inf to "
                               r"the reference's scale on \[0\.0, 1\.0\] is not finite"):
                solve(p, 5)

    @pytest.mark.parametrize("n,roots", [
        (5, (-3.21785007528, -2.80138069399)),
        (9, (-3.06507607284, -2.93675319549)),
        (11, (-3.04335666668, -2.95746300547))])
    def test_split_roots_at_odd_n(self, n, roots):
        # an odd piece count does not reproduce x^2, so the double root -3
        # splits into two simple ones
        r = solve(self.problem(), n)
        np.testing.assert_allclose([v for v, _ in r.eigen], roots, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("n", [20, 40, 60, 100])
    def test_double_root_at_even_n(self, n):
        r = solve(self.problem(), n)
        assert len(r.eigen) == 1
        assert abs(r.eigen[0][0] + 3.0) <= 1e-9

    def test_no_reference_keeps_raw_vectors_without_errors(self):
        p = IntegralProblem("fredholm_eigen", lambda x, s: 2 * x * s - 4 * x**2,
                            (0.0, 1.0), bracket=(-10, 0))
        roots = find_real_eigenvalues(fredholm_operator(p, 5), -10, 0)
        r = solve(p, 5)
        assert [v for v, _ in r.eigen] == [res.value for res in roots]
        assert len(roots) == 2
        for (_, sub), res in zip(r.eigen, roots):
            assert sub.error_l2 is None and sub.error_max is None
            np.testing.assert_array_equal(sub.samples, res.vector)

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_constant_kernel_has_one_root_at_any_scale(self, scale):
        # K = scale on [0, 1] has rank 1 and the one root 1/scale; W's other
        # eigenvalues are rounding, and 1/mu of one of them was once
        # reported in place of 1e-300, while at scale 1 the same noise fell
        # outside the bracket
        p = IntegralProblem("fredholm_eigen", lambda x, s: scale, (0.0, 1.0), bracket=(-2.0, 2.0))
        values = [v for v, _ in solve(p, 5).eigen]
        assert len(values) == 1
        assert values[0] == pytest.approx(1.0 / scale, rel=1e-12, abs=0.0)

    def test_empty_bracket(self):
        r = solve(replace(self.problem(), bracket=(5, 10)), 5)
        assert r.eigen == ()
        assert r.spline is None

    def test_least_squares_rescale(self, monkeypatch):
        # at n = 2 the first interior node is 0.5, where the reference
        # x(1 - 2x) vanishes, so the scale comes from the least-squares fit
        # (two integrate_panels calls: numerator and denominator)
        calls = []

        def counted(*args):
            calls.append(args)
            return integrate_panels(*args)

        monkeypatch.setattr(integral_eq, "integrate_panels", counted)
        r = solve(get_problem("krasnov2"), 2)
        assert len(calls) == 2
        assert [abs(v + 3.0) <= 1e-12 for v, _ in r.eigen] == [True]
        assert r.error_l2 <= 1e-12
        assert r.error_max <= 1e-12

    def test_one_l2_error_per_root(self, monkeypatch):
        # the report integrates its squared deviation itself, once per root
        calls = []

        def counted(*args):
            calls.append(args)
            return _integral(*args)

        monkeypatch.setattr(integral_eq, "_integral", counted)
        r = solve(self.problem(), 5)
        assert len(r.eigen) == 2
        assert [args[1] for args in calls] == [2, 2]

    def test_eigen_max_error_is_global(self):
        r = solve(self.problem(), 5)
        _, sub = min(r.eigen, key=lambda p: p[0])
        xs = np.linspace(0, 1, 2001)
        expected = np.max(np.abs(sub.spline(xs) - sub.problem.reference(xs)))
        assert sub.error_max == pytest.approx(expected, rel=1e-12)


class TestSolveVolterra2:
    def test_zero_lambda_passthrough(self):
        p = IntegralProblem("volterra2", lambda x, s: x * s, (0, 1),
                            forcing=np.cos, lam=0.0, reference=np.cos)
        r = solve(p, 5)
        np.testing.assert_allclose(r.samples, np.cos(r.spline.grid.nodes), rtol=1e-13)

    @pytest.mark.parametrize("n,pub_l2,pub_max", [(5, 9.3e-4, 6.1e-5),
                                                  (10, 1.8e-4, 5.1e-6)])
    def test_rational_kernel_benchmark(self, n, pub_l2, pub_max):
        p = IntegralProblem(
            "volterra2", lambda x, s: s / (1 + x**2), (0.0, 1.0),
            forcing=lambda x: 1 / (1 + x**2), lam=-1.0,
            reference=lambda x: (1 + x**2) ** (-1.5))
        r = solve(p, n)
        assert 0.5 * pub_l2 <= r.error_l2 <= 2 * pub_l2
        assert 0.5 * pub_max <= r.error_max <= 2 * pub_max

    def test_product_kernel_benchmark(self):
        p = IntegralProblem(
            "volterra2", lambda x, s: x * s, (0.0, 1.0),
            forcing=lambda x: np.exp(-x**2) + 0.5 * x * (1 - np.exp(-x**2)),
            lam=-1.0, reference=lambda x: np.exp(-x**2))
        r = solve(p, 5)
        assert 0.5 * 5.0e-5 <= r.error_max <= 2 * 5.0e-5

    @pytest.mark.parametrize("n", [5, 200])
    @pytest.mark.parametrize("k", [73, 200, 300, 515])
    @pytest.mark.parametrize("pid", ["krasnov3", "malek1"])
    def test_data_scaled_up_solves(self, pid, k, n):
        # K and f scaled by 2^k: rows 1..n of I - lam W grow as 2^k while row
        # 0 stays e_0, so the whole system's 1/cond_inf reads 4.2e-22 at
        # k = 73 (krasnov3, n = 5), and the gate once refused it. Only the
        # trailing n x n block is solved, whose 1/cond_inf is 0.014 at n = 5
        # and 3.8e-6 at n = 200 (krasnov3, k = 73). The registry's reference
        # solves the unscaled problem, so it is dropped
        entry = get_problem(pid)
        p = replace(entry, kernel=lambda x, s: np.ldexp(entry.kernel(x, s), k),
                    forcing=lambda x: np.ldexp(entry.forcing(x), k), reference=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = solve(p, n).samples
        assert np.isfinite(samples).all()
        assert samples[0] == np.ldexp(entry.forcing(0.0), k)

    def test_report_of_data_scaled_up_keeps_its_finite_errors(self):
        # K and f x 2^515 with the registry's reference kept: the samples
        # are near 1e155, and the square of their deviation from the
        # reference overflows while its L2 norm does not. _report scales the
        # deviation by a power of two before squaring, so the norm is that
        # of the samples and the reference scaled down by 2^515, scaled up
        entry = get_problem("krasnov3")
        p = replace(entry, kernel=lambda x, s: np.ldexp(entry.kernel(x, s), 515),
                    forcing=lambda x: np.ldexp(entry.forcing(x), 515))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = solve(p, 5)
        g = make_grid(0.0, 1.0, 5)
        down = l2_error(build_spline(g, np.ldexp(r.samples, -515)),
                        lambda x: np.ldexp(entry.reference(x), -515), 0.0, 1.0, 5, gauss_legendre(8))
        assert np.abs(r.samples).max() > 1e154
        assert r.error_l2 == pytest.approx(np.ldexp(math.sqrt(down), 515), rel=1e-14)
        assert r.error_max == np.abs(r.samples - entry.reference(g.nodes)).max()

    def test_row_oracle(self):
        # row j of the system must integrate the kernel against the spline
        # over [a, x_j] only
        rng = np.random.default_rng(13)
        kernel = random_poly_kernel(rng)
        p = IntegralProblem("volterra2", kernel, (0, 1),
                            forcing=np.sin, lam=2.0)
        from oracles import kernel_piece_weights as kpw
        g = make_grid(0, 1, 5)
        C = coefficient_matrix(5, g.h)
        y = rng.standard_normal(6)
        model = build_spline(g, y)
        for j in range(1, 6):
            w = np.zeros(6)
            for k in range(1, j + 1):
                w += kpw(kernel, g.nodes[j], g, k, C, RULE8)
            oracle = integrate_panels(lambda s: kernel(g.nodes[j], s) * model(s),
                                      0, g.nodes[j], 4 * j, gauss_legendre(12))
            assert float(w @ y) == pytest.approx(oracle, abs=1e-9)


def manufactured_forcing(kind, kernel, lam, reference, a, b):
    """Forcing that makes `reference` the exact solution, via quadrature."""
    rule = gauss_legendre(12)

    def forcing(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        for i, xi in enumerate(xs):
            hi = b if kind == "fredholm2" else xi
            integral = (integrate_panels(lambda s: kernel(xi, s) * reference(s),
                                         a, hi, 24, rule) if hi > a else 0.0)
            out[i] = reference(xi) - lam * integral
        return out if np.ndim(x) else float(out[0])

    return forcing


class TestManufacturedSolutions:
    @pytest.mark.parametrize("kind", ["fredholm2", "volterra2"])
    def test_error_shrinks_and_meets_bound(self, kind):
        a, b = 0.0, 1.0
        lam = 0.7
        kernel = lambda x, s: np.cos(x) * s + 0.5
        reference = np.sin
        forcing = manufactured_forcing(kind, kernel, lam, reference, a, b)
        errors = {}
        for n in (16, 32):
            p = IntegralProblem(kind, kernel, (a, b), forcing=forcing,
                                lam=lam, reference=reference)
            errors[n] = solve(p, n).error_max
        assert errors[32] < errors[16]
        # sup|sin''| = 1; kernel bounded by 1.5 on the square
        h = (b - a) / 32
        bound = 1.0 * h * (b - a - h / 2) * (1 + abs(lam) * 1.5 * (b - a))
        assert errors[32] <= bound


    def test_square_root_kernel_converges_at_order_one_and_a_half(self):
        # K = sqrt(x - s), lam = 1, y = 1 + x: the square root's singularity
        # at s = x sets the order to about 1.5, and NaN at s > x would fail
        # the solve (a W that is not finite is refused)
        forcing = lambda x: 1.0 + x - 2.0 / 3.0 * x**1.5 - 4.0 / 15.0 * x**2.5
        errors = []
        for n in (10, 20, 40, 80):
            p = IntegralProblem("volterra2", lambda x, s: np.sqrt(x - s), (0.0, 1.0),
                                forcing=forcing, lam=1.0, reference=lambda x: 1.0 + x)
            errors.append(solve(p, n).error_l2)
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all((1.4 <= orders) & (orders <= 1.6)), orders


class TestConvergenceOrders:
    # collocation at the nodes of the quadratic spline: the L2 error is
    # O(h^3) and the nodal error superconverges at O(h^4); measured orders
    # 3.00-3.02 (L2) and 3.95-4.00 (nodal max) for n = 40..320
    @pytest.mark.parametrize("pid", ["krasnov1", "wang", "krasnov3", "malek1"])
    def test_l2_order_three_and_nodal_order_four(self, pid):
        reports = [solve(get_problem(pid), n) for n in (40, 80, 160, 320)]
        l2 = np.array([r.error_l2 for r in reports])
        nodal = np.array([r.error_max for r in reports])
        l2_orders = np.log2(l2[:-1] / l2[1:])
        nodal_orders = np.log2(nodal[:-1] / nodal[1:])
        assert np.all((2.9 <= l2_orders) & (l2_orders <= 3.1)), l2_orders
        assert np.all(nodal_orders >= 3.8), nodal_orders


class TestSolveVolterra1:
    def make(self):
        return IntegralProblem(
            "volterra1", lambda x, s: (x - s) ** 2, (0.0, 1.0),
            forcing=lambda x: x**3,
            reference=lambda x: 3.0 * np.ones_like(np.asarray(x, dtype=float)))

    @pytest.mark.parametrize("n,pub_l2,pub_max", [(5, 1.4e-9, 6.3e-9),
                                                  (10, 4.8e-8, 2.5e-7)])
    def test_constant_solution_benchmark(self, n, pub_l2, pub_max):
        # the published figures sit at the *source's* solver noise floor; this
        # implementation lands well below it, so only the upper bounds bind
        r = solve(self.make(), n)
        assert r.error_l2 <= 10 * pub_l2
        assert r.error_max <= 10 * pub_max

    @pytest.mark.parametrize("a", [1.0, -3.0])
    @pytest.mark.parametrize("n", [5, 10])
    def test_shifted_interval_integrates_from_a(self, a, n):
        # (x - a)^3 = int_a^x (x - s)^2 y(s) ds on [a, a + 1] or [a, a + 2]
        # is krasnov4 moved to start at a, with the same y = 3; it is solved
        # as well as at a = 0 (l2 1.9e-13 and 3.1e-12 at n = 5 and 10)
        b = a + (1.0 if a > 0 else 2.0)
        p = replace(self.make(), interval=(a, b), forcing=lambda x: (x - a) ** 3)
        r = solve(p, n)
        assert r.error_l2 <= 1e-10 and r.error_max <= 1e-9

    @pytest.mark.parametrize("n", [5, 10, 21, 200, 640])
    def test_collocation_rows_are_the_causal_operator_rows(self, monkeypatch, n):
        # solve builds the causal operator at all n + 1 nodes once; its rows
        # 1..n are those of a call on x_1..x_n, bit for bit, however the
        # rows fall into blocks, so _volterra1 makes no call on the nodes
        # and only one for its closure rows on the last piece
        p = get_problem("krasnov4")
        g = make_grid(*p.interval, n)
        W = _integral_operator(p.kernel, g, RULE8, g.nodes, np.arange(n + 1))
        np.testing.assert_array_equal(
            W[1:], _integral_operator(p.kernel, g, RULE8, g.nodes[1:], np.arange(1, n + 1)))
        calls = []
        operator = integral_eq._integral_operator

        def recorded(kernel, grid, rule, xs, reach):
            calls.append(len(xs))
            return operator(kernel, grid, rule, xs, reach)

        monkeypatch.setattr(integral_eq, "_integral_operator", recorded)
        if n <= 21:
            solve(p, n)
            assert calls == [n + 1, 4 * RULE8.order]
        else:  # refused before the closure, see _volterra1
            with pytest.raises(SingularMatrixError):
                solve(p, n)
            assert calls == [n + 1]

    @pytest.mark.parametrize("rule", [RULE8, gauss_legendre(2), LOBATTO3],
                             ids=["gauss8", "gauss2", "lobatto3"])
    @pytest.mark.parametrize("solution", ["affine", "krasnov4"])
    def test_closure_integrates_its_part_of_the_last_piece(self, rule, solution):
        # the defect at a point x of the last piece is the operator up to
        # x_{n-1} plus the rule on [x_{n-1}, x]; each rule here is exact on
        # the integrands that carry y (degree 3 at most), so y is recovered
        # to rounding. On [-2, 0.1] at n = 5, x_{n-1} + (x - x_{n-1}) at a
        # Lobatto end t = 1 rounds above x, and the clip to x keeps it from
        # the kernel
        a, b = -2.0, 0.1
        if solution == "affine":
            base, y = (lambda x, s: x + s + 1.0), (lambda s: 2.0 - 3.0 * s)

            def antiderivative(x, s):  # of (x + s + 1)(2 - 3 s) in s
                return (x + 1.0) * (2.0 * s - 1.5 * s**2) + s**2 - s**3

            forcing = lambda x: antiderivative(x, x) - antiderivative(x, a)
        else:
            base, y = get_problem("krasnov4").kernel, (lambda s: 3.0 + 0.0 * s)
            forcing = lambda x: (x - a) ** 3

        def kernel(x, s):
            if np.any(s > x):
                raise AssertionError("kernel called at s > x")
            return base(x, s)

        p = IntegralProblem("volterra1", kernel, (a, b), forcing=forcing, reference=y)
        r = solve(p, 5, rule)
        assert r.error_max <= 1e-12 and r.error_l2 <= 1e-12

    def test_zero_forcing_gives_zero_solution(self):
        p = IntegralProblem("volterra1", lambda x, s: x - s + 1.0, (0.0, 1.0),
                            forcing=lambda x: 0.0 * np.asarray(x, dtype=float))
        r = solve(p, 6)
        np.testing.assert_allclose(r.samples, 0.0, atol=1e-10)

    def test_unit_kernel_linear_forcing(self):
        # int_0^x 1*y ds = x forces y = 1
        p = IntegralProblem("volterra1",
                            lambda x, s: np.ones_like(np.asarray(s, dtype=float)),
                            (0.0, 1.0),
                            forcing=lambda x: np.asarray(x, dtype=float),
                            reference=lambda x: np.ones_like(np.asarray(x, dtype=float)))
        r = solve(p, 8)
        assert r.error_max < 1e-8

    def test_affine_solution_recovered_exactly(self):
        # y = 2 - 3s under kernel x+s+1: spline and quadrature are both exact
        kernel = lambda x, s: x + s + 1.0
        y_true = lambda s: 2.0 - 3.0 * s

        def forcing(x):
            xs = np.atleast_1d(np.asarray(x, dtype=float))
            out = [integrate_panels(lambda s: kernel(xi, s) * y_true(s),
                                    0, xi, 8, RULE8) if xi > 0 else 0.0
                   for xi in xs]
            return np.array(out) if np.ndim(x) else out[0]

        p = IntegralProblem("volterra1", kernel, (0.0, 1.0),
                            forcing=forcing, reference=y_true)
        r = solve(p, 6)
        assert r.error_max < 1e-8

    def test_singular_subsystem_detected(self):
        # a kernel vanishing on the last piece and independent of x makes two
        # collocation rows identical
        from quadspline import SingularMatrixError

        p = IntegralProblem("volterra1",
                            lambda x, s: np.maximum(0.0, 0.75 - s) ** 2,
                            (0.0, 1.0),
                            forcing=lambda x: 0.1 * np.asarray(x, dtype=float) ** 3)
        with pytest.raises(SingularMatrixError):
            solve(p, 4)

    def test_scaled_down_problem_is_solved(self):
        # the defect's sensitivity to y_0 integrates to about 1e-22 here,
        # which an absolute cutoff of 1e-14 once refused
        p = IntegralProblem("volterra1",
                            lambda x, s: 1e-7 * (x - s) ** 2, (0.0, 1.0),
                            forcing=lambda x: 1e-7 * np.asarray(x, dtype=float) ** 3)
        np.testing.assert_allclose(solve(p, 4).samples, 3.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [5, 10, 21])
    def test_data_scaled_by_a_power_of_two_gives_the_same_samples(self, n):
        # every step is linear in K and f, and the closure's two defects are
        # scaled by one power of two, so no square under- or overflows
        entry = self.make()
        want = solve(entry, n).samples.tobytes()
        for k in [*range(-900, 901, 25), -540, 520]:
            p = replace(entry, kernel=lambda x, s: np.ldexp(entry.kernel(x, s), k),
                        forcing=lambda x: np.ldexp(entry.forcing(x), k))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert solve(p, n).samples.tobytes() == want, k

    @pytest.mark.parametrize("n", [5, 10, 21])
    def test_interval_scaled_by_a_power_of_two_gives_the_same_samples(self, n):
        # on [0, L], (x - s)^2 y with y = 3 still integrates to x^3; at
        # L = 2^-150 the defect's sensitivity to y_0 reads about 1e-48 of
        # its value at L = 1 unless the closure rescales it, and from
        # L = 2^207 the operator's entries are near 2^621, beyond which h^3
        # alone would overflow
        entry = self.make()
        want = solve(entry, n).samples.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in range(-325, 326, 25):
                p = replace(entry, interval=(0.0, 2.0**j))
                assert solve(p, n).samples.tobytes() == want, j

    def test_operator_that_overflows_is_refused_by_name_without_warning(self):
        # on [0, 2^300] W's entries are near 2^900; on [0, 2^400] near 2^1200,
        # beyond a double, so the moment product overflows
        entry = self.make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = solve(replace(entry, interval=(0.0, 2.0**300)), 5).samples
            np.testing.assert_allclose(wide, 3.0, rtol=0, atol=1e-12)
            with pytest.raises(InvalidDomainError) as exc:
                solve(replace(entry, interval=(0.0, 2.0**400)), 5)
        message = str(exc.value)
        assert "is not finite" in message
        assert repr(entry.kernel) in message
        assert f"[0.0, {2.0**400}] at n = 5" in message

    def test_defect_that_does_not_depend_on_y0_is_refused_without_warning(self):
        # a kernel that vanishes off the nodes: the collocation rows are
        # krasnov4's, but the closure's defect over the last piece is f alone
        g = make_grid(0.0, 1.0, 5)
        p = replace(self.make(), kernel=lambda x, s: np.where(np.isin(x, g.nodes),
                                                              (x - s) ** 2, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match="does not determine the endpoint"):
                solve(p, 5)

    def test_kernel_writing_into_its_arguments_is_refused(self):
        # the closure's rows reach the n - 1 pieces before the last one, and
        # share one read-only node stack, as Fredholm rows do
        def writes(x, s):
            s *= 1.0
            return (x - s) ** 2

        with pytest.raises(ValueError, match="writes into its arguments") as exc:
            solve(replace(self.make(), kernel=writes), 5)
        assert repr(writes) in str(exc.value)

    @pytest.mark.parametrize("scale,interval,n,error,match", [
        (1e308, (0.0, 21.0), 2, InvalidDomainError,
         r"the closure's defect for the kernel .* on \[0\.0, 21\.0\] at n = 2 is not finite"),
        (2.2250738585072014e-308, (-8.555380143128981e+20, 1e-310), 10, SingularMatrixError,
         "the solution overflows: 11 of its 11 entries"),
    ], ids=["defect_overflows", "endpoint_value_overflows"])
    def test_closure_that_overflows_is_refused_without_warning(self, scale, interval, n,
                                                               error, match):
        # a kernel scaled to the largest double overflows the closure's
        # defect, which is named as the kernel's; a tiny one on a wide
        # interval leaves y_0 beyond the doubles
        p = IntegralProblem("volterra1", lambda x, s: scale * np.cos(x - s), interval,
                            forcing=lambda x: -4.6e16 * np.cos(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match) as exc:
                solve(p, n)
        assert type(exc.value) is error

    @pytest.mark.parametrize("n", [5, 10])
    def test_narrow_interval_is_solved_or_refused_never_wrong(self, n):
        # on [0, 2^j] the forcing x^3 and W's entries scale as 2^(3j): from
        # j = -333 (n = 10) and -336 (n = 5) the trailing system's inverse
        # overflows and the gate refuses it, further down the data reach the
        # subnormals and lose their relative precision, and from j = -508
        # (n = 10) and -509 (n = 5) make_grid refuses the interval. A limit
        # of the doubles, but never a wrong answer
        entry = self.make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in itertools.count(-330, -1):
                try:
                    make_grid(0.0, 2.0**j, n)
                except InvalidDomainError:
                    break
                try:
                    samples = solve(replace(entry, interval=(0.0, 2.0**j)), n).samples
                except (SingularMatrixError, InvalidDomainError):
                    continue
                assert np.abs(samples - 3.0).max() <= 1e-6, j
        assert j < -500

    def test_krasnov4_breaks_down_between_n20_and_n30(self):
        # the trailing subsystem's 1/cond_inf falls from 2.2e-13 at n = 21 to
        # 8.1e-14 at n = 22; n = 20 and n = 30 sit well clear of that edge
        entry = get_problem("krasnov4")
        assert solve(entry, 20).error_max < 1e-4
        with pytest.raises(SingularMatrixError):
            solve(entry, 30)
