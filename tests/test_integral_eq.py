import math

import numpy as np
import pytest

from dataclasses import fields, replace

from quadspline import (DegenerateProblemError, IntegralProblem,
                        InvalidDomainError, SingularMatrixError, build_spline,
                        find_real_eigenvalues, gauss_legendre, integrate_panels,
                        l2_error, make_grid, registry, solve)
from quadspline import integral_eq
from quadspline.integral_eq import _integral_operator
from quadspline.registry import get_problem

from oracles import coefficient_matrix, kernel_piece_weights, summed_piece_weights

RULE8 = gauss_legendre(8)


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
        "scalar_only": lambda x, s: math.exp(x * s),
    }

    @pytest.mark.parametrize("rows", ["full", "causal", "mid_last_piece"])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("n", [3, 8])
    def test_rows_match_summed_piece_weights(self, rows, name, n):
        kernel = self.KERNELS[name]
        g = make_grid(-0.5, 1.5, n)
        if rows == "full":
            xs, upper = g.nodes, np.full(n + 1, g.b)
        elif rows == "causal":
            xs = upper = g.nodes
        else:
            xs = upper = g.nodes[-2] + g.h * np.array([0.1, 0.5, 0.9])
        W = _integral_operator(kernel, g, RULE8, xs, upper)
        oracle = summed_piece_weights(kernel, g, xs, upper)
        scale = np.max(np.abs(oracle), axis=1, keepdims=True)
        assert np.all(np.abs(W - oracle) <= 1e-12 * scale)

    @pytest.mark.parametrize("rows", ["full", "causal", "interior"])
    @pytest.mark.parametrize("block_rows", [1, 13])
    def test_row_blocks_agree_with_one_block(self, monkeypatch, rows, block_rows):
        # at n = 40 a row holds 8 x 40 kernel values; its 41 (or 50) rows go
        # in blocks of 13 rows or of 1, and a last block of 13 is shorter
        g = make_grid(-0.5, 1.5, 40)
        kernel = self.KERNELS["polynomial"]
        if rows == "full":
            xs, upper = g.nodes, g.b
        elif rows == "causal":
            xs = upper = g.nodes
        else:
            xs = upper = np.sort(np.random.default_rng(7).uniform(g.a, g.b, 50))
        one = _integral_operator(kernel, g, RULE8, xs, upper)
        monkeypatch.setattr(integral_eq, "_OPERATOR_BLOCK", block_rows * RULE8.order * g.n)
        blocked = _integral_operator(kernel, g, RULE8, xs, upper)
        assert len(xs) > 3 * block_rows
        scale = np.max(np.abs(one), axis=1, keepdims=True)
        assert np.all(np.abs(blocked - one) <= 1e-14 * scale)

    def test_scalar_upper_broadcasts(self):
        g = make_grid(0, 1, 5)
        kernel = self.KERNELS["polynomial"]
        np.testing.assert_array_equal(
            _integral_operator(kernel, g, RULE8, g.nodes, g.b),
            _integral_operator(kernel, g, RULE8, g.nodes, np.full(6, g.b)))

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("n,q", [(7, 1), (12, 3), (40, 8)])
    @pytest.mark.parametrize("limit", ["b", "cut"])
    def test_shared_limit_matches_per_row_limits_bit_for_bit(self, monkeypatch,
                                                             name, n, q, limit):
        # one (q, 1, n) stack for every row, or one stack row per row: the
        # same W to the bit, over at least three blocks of rows, for node
        # and off-node rows and for a limit at b or inside the last piece
        g = make_grid(-0.5, 1.5, n)
        rule = gauss_legendre(q)
        b = g.b if limit == "b" else g.nodes[-2] + 0.3 * g.h
        monkeypatch.setattr(integral_eq, "_OPERATOR_BLOCK", 3 * q * n)
        for xs in (g.nodes, np.sort(np.random.default_rng(n).uniform(g.a, g.b, 11))):
            assert len(xs) > 2 * 3
            shared = _integral_operator(self.KERNELS[name], g, rule, xs, b)
            per_row = _integral_operator(self.KERNELS[name], g, rule, xs,
                                         np.full(len(xs), b))
            assert shared.tobytes() == per_row.tobytes()

    def test_shared_limit_hands_the_kernel_one_broadcast_stack(self, monkeypatch):
        # the kernel sees the (q, rows, n) shape, but for a shared limit its
        # rows are one read-only (q, 1, n) stack, not a rebuilt full stack
        seen = []

        def kernel(x, s):
            seen.append((s.shape, s.strides[1], s.flags.writeable))
            return np.exp(x * s)

        g = make_grid(0, 1, 20)
        monkeypatch.setattr(integral_eq, "_OPERATOR_BLOCK", 5 * RULE8.order * g.n)
        _integral_operator(kernel, g, RULE8, g.nodes, g.b)
        assert [shape for shape, _, _ in seen] == [(8, 5, 20)] * 4 + [(8, 1, 20)]
        assert all(stride == 0 and not writeable for _, stride, writeable in seen)
        seen.clear()
        _integral_operator(kernel, g, RULE8, g.nodes, g.nodes)
        assert [stride for _, stride, _ in seen[:4]] == [g.n * 8] * 4

    def test_runtime_error_from_array_call_propagates(self):
        calls = []

        def kernel(x, s):
            calls.append(x)
            if np.ndim(x):
                raise RuntimeError("vectorised kernel broken")
            return math.exp(x * s)

        with pytest.raises(RuntimeError, match="vectorised kernel broken"):
            _integral_operator(kernel, make_grid(0, 1, 4), RULE8, np.linspace(0, 1, 5), 1.0)
        assert len(calls) == 1

    def test_scalar_only_kernel_matches_vectorised(self):
        g = make_grid(0, 1, 4)
        args = (g, RULE8, g.nodes, 1.0)
        np.testing.assert_allclose(
            _integral_operator(lambda x, s: math.exp(x * s), *args),
            _integral_operator(lambda x, s: np.exp(x * s), *args), rtol=1e-15)

    @pytest.mark.parametrize("kernel", [
        # a full-shape read-only view, which eval_many passes on uncopied
        lambda x, s: np.broadcast_to(x * s, np.broadcast_shapes(np.shape(x), np.shape(s))),
        # with one row per block, s itself has the full shape
        lambda x, s: s,
    ], ids=["read_only", "returns_s"])
    def test_cut_pieces_never_write_into_the_kernel_result(self, monkeypatch, kernel):
        g = make_grid(-0.5, 1.5, 6)
        xs = upper = np.sort(np.random.default_rng(8).uniform(g.a, g.b, 5))
        monkeypatch.setattr(integral_eq, "_OPERATOR_BLOCK", RULE8.order * g.n)
        W = _integral_operator(kernel, g, RULE8, xs, upper)
        oracle = summed_piece_weights(kernel, g, xs, upper)
        scale = np.max(np.abs(oracle), axis=1, keepdims=True)
        assert np.all(np.abs(W - oracle) <= 1e-12 * scale)

    @pytest.mark.parametrize("rows", ["causal", "tail", "off_node"])
    @pytest.mark.parametrize("beyond", ["raises", "nan"])
    def test_kernel_is_never_called_beyond_the_row_limit(self, rows, beyond):
        # each row's limit is its own x, and the kernel is unusable at s > x
        def kernel(x, s):
            if beyond == "raises" and np.any(s > x):
                raise AssertionError("kernel called at s > x")
            return np.where(s <= x, np.cos(x - s), np.nan)

        g = make_grid(-0.5, 1.5, 8)
        xs = {"causal": g.nodes, "tail": g.nodes[1:],
              "off_node": np.sort(np.random.default_rng(9).uniform(g.a, g.b, 11))}[rows]
        W = _integral_operator(kernel, g, RULE8, xs, xs)
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


class TestOperatorCalls:
    """The operator calls the kernel once per block of rows, on a (rows, 1)
    column of x and the (q, rows, n) stack of every row's own nodes."""

    N, BLOCK_ROWS = 40, 13
    GRID = make_grid(-0.5, 1.5, N)
    ROWS = {
        "fredholm": (GRID.nodes, GRID.b),
        "causal": (GRID.nodes, GRID.nodes),
        "off_node": (np.sort(np.random.default_rng(7).uniform(-0.5, 1.5, 50)),) * 2,
    }

    def run(self, monkeypatch, rows, kernel):
        """Rows in blocks of BLOCK_ROWS; returns the size of each block."""
        monkeypatch.setattr(integral_eq, "_OPERATOR_BLOCK",
                            self.BLOCK_ROWS * RULE8.order * self.N)
        xs, upper = self.ROWS[rows]
        _integral_operator(kernel, self.GRID, RULE8, xs, upper)
        return [min(self.BLOCK_ROWS, len(xs) - lo)
                for lo in range(0, len(xs), self.BLOCK_ROWS)]

    @pytest.mark.parametrize("rows", ["fredholm", "causal"])
    def test_node_rows_make_one_call_per_block(self, monkeypatch, rows):
        kernel = CountingKernel()
        sizes = self.run(monkeypatch, rows, kernel)
        assert len(sizes) == 4
        assert kernel.array_calls == [((r, 1), (RULE8.order, r, self.N)) for r in sizes]

    def test_off_node_rows_make_one_call_per_block(self, monkeypatch):
        # the piece that each row's limit cuts takes its nodes in the same call
        kernel = CountingKernel()
        sizes = self.run(monkeypatch, "off_node", kernel)
        assert kernel.array_calls == [((r, 1), (RULE8.order, r, self.N)) for r in sizes]

    @pytest.mark.parametrize("rows", ["fredholm", "causal", "off_node"])
    def test_scalar_only_kernel_point_calls(self, monkeypatch, rows):
        # q values per (row, piece) pair, whether the row covers, cuts or
        # skips the piece, after one failed array call per block
        kernel = CountingKernel(scalar_only=True)
        sizes = self.run(monkeypatch, rows, kernel)
        assert kernel.point_calls == RULE8.order * sum(sizes) * self.N
        assert len(kernel.array_calls) == len(sizes)


def fredholm_operator(p, n):
    """The collocation operator a Fredholm problem's solve uses at n pieces: rows to b."""
    g = make_grid(*p.interval, n)
    return _integral_operator(p.kernel, g, RULE8, g.nodes, g.b)


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
    def test_zero_lambda_passthrough(self):
        p = IntegralProblem("fredholm2", lambda x, s: np.cos(x + s), (0, 2),
                            forcing=np.exp, lam=0.0, reference=np.exp)
        r = solve(p, 6)
        np.testing.assert_allclose(r.samples, np.exp(r.spline.grid.nodes), rtol=1e-13)
        assert r.error_max < 1e-12

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
        calls = []

        def counted(*args):
            calls.append(args)
            return l2_error(*args)

        monkeypatch.setattr(integral_eq, "l2_error", counted)
        r = solve(self.problem(), 5)
        assert len(r.eigen) == 2
        assert len(calls) == 2

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
        # the solve (and raise under error::RuntimeWarning)
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
        # as well as at a = 0 (l2 3.3e-13 and 2.5e-12 at n = 5 and 10)
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
        W = _integral_operator(p.kernel, g, RULE8, g.nodes, g.nodes)
        np.testing.assert_array_equal(
            W[1:], _integral_operator(p.kernel, g, RULE8, g.nodes[1:], g.nodes[1:]))
        calls = []
        operator = integral_eq._integral_operator

        def recorded(kernel, grid, rule, xs, upper):
            calls.append(len(xs))
            return operator(kernel, grid, rule, xs, upper)

        monkeypatch.setattr(integral_eq, "_integral_operator", recorded)
        if n <= 21:
            solve(p, n)
            assert calls == [n + 1, 4 * RULE8.order]
        else:  # refused before the closure, see _volterra1
            with pytest.raises(SingularMatrixError):
                solve(p, n)
            assert calls == [n + 1]

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

    def test_degenerate_closure_detected(self):
        # scaling the kernel down leaves the subsystem regular (the condition
        # gate is scale-invariant) but pushes the defect's sensitivity to y_0
        # below the absolute cutoff
        p = IntegralProblem("volterra1",
                            lambda x, s: 1e-7 * (x - s) ** 2, (0.0, 1.0),
                            forcing=lambda x: 1e-7 * np.asarray(x, dtype=float) ** 3)
        with pytest.raises(DegenerateProblemError):
            solve(p, 4)

    def test_krasnov4_breaks_down_between_n20_and_n30(self):
        # the trailing subsystem's 1/cond_inf falls from 2.2e-13 at n = 21 to
        # 8.1e-14 at n = 22; n = 20 and n = 30 sit well clear of that edge
        entry = get_problem("krasnov4")
        assert solve(entry, 20).error_max < 1e-4
        with pytest.raises(SingularMatrixError):
            solve(entry, 30)
