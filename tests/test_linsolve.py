import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadspline import (IntegralProblem, InvalidDomainError, SingularMatrixError,
                        find_real_eigenvalues, gauss_legendre, linsolve, make_grid, sample,
                        solve, solve_dense)
from quadspline.integral_eq import _integral_operator
from quadspline.linsolve import RCOND_MIN, _inf_norm, _null_vector
from quadspline.registry import get_problem, solve_entry

from oracles import determinant

# the smallest system solve_dense tries the two-grid certificate on
TWO_GRID_N = linsolve._TWO_GRID_MIN_N
# kernels that vary fast near the diagonal, or oscillate
LOCALIZED = {"gauss": lambda x, s: np.exp(-100.0 * (x - s) ** 2),
             "tanh": lambda x, s: np.tanh(50.0 * (x - s)),
             "cos": lambda x, s: np.cos(20.0 * x * s)}


def fredholm_system(pid, n):
    """The collocation system I - lam*W and right-hand side of a registered
    Fredholm-2 problem."""
    problem = get_problem(pid)
    g = make_grid(*problem.interval, n)
    W = _integral_operator(problem.kernel, g, gauss_legendre(8), g.nodes, n)
    return np.eye(n + 1) - problem.lam * W, sample(problem.forcing, g)


def smooth_orthonormal_columns(n):
    """n x 8 orthonormal columns spanning cos(j x), j = 1..8, at n points of [0, 1]."""
    return np.linalg.qr(np.cos(np.outer(np.linspace(0, 1, n), np.arange(1, 9))))[0]


def random_well_conditioned(rng, n):
    A = rng.standard_normal((n, n))
    return A + n * np.eye(n)


class TestSolveDense:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(solve_dense(np.eye(3), b), b)

    def test_diagonal(self):
        A = np.array([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(solve_dense(A, [2.0, 8.0]), [1.0, 2.0])

    def test_manufactured_solution(self):
        rng = np.random.default_rng(42)
        A = random_well_conditioned(rng, 10)
        x_true = rng.standard_normal(10)
        x = solve_dense(A, A @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-9)

    def test_residual_contract_on_random_systems(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(2, 21))
            A = random_well_conditioned(rng, n)
            b = rng.standard_normal(n)
            x = solve_dense(A, b)
            resid = np.max(np.abs(A @ x - b))
            bound = 1e-10 * (_inf_norm(A) * np.max(np.abs(x)) + np.max(np.abs(b)))
            assert resid <= bound

    def test_needs_pivoting(self):
        # zero leading pivot: fails without row exchange
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(solve_dense(A, [2.0, 3.0]), [3.0, 2.0])

    def test_singular_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve_dense(A, [1.0, 1.0])

    def test_exactly_singular_chains_lapack_error(self):
        with pytest.raises(SingularMatrixError) as info:
            solve_dense(np.zeros((3, 3)), np.ones(3))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_ill_conditioned_unit_triangular_raises(self):
        # every pivot is 1, so no pivot threshold sees it, but 1/cond_inf is
        # about 2.9e-20 and a solve loses all accuracy
        A = np.eye(60) - np.triu(np.ones((60, 60)), 1)
        x_true = np.random.default_rng(0).standard_normal(60)
        with pytest.raises(SingularMatrixError, match="cond"):
            solve_dense(A, A @ x_true)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_dense(np.eye(3), np.ones(4))

    @pytest.mark.parametrize("a_shape,b_shape", [((3, 3), (4, 2)), ((3, 3), (3, 2, 1)),
                                                 ((3, 3), ()), ((3, 2), (3,)), ((3,), (3,)),
                                                 ((0, 0), (0,))])
    def test_shape_mismatch_cases(self, a_shape, b_shape):
        with pytest.raises(ValueError, match="shape mismatch"):
            solve_dense(np.ones(a_shape), np.ones(b_shape))

    def test_columns_match_columnwise_solves(self):
        rng = np.random.default_rng(12)
        A = random_well_conditioned(rng, 9)
        B = rng.standard_normal((9, 2))
        X = solve_dense(A, B)
        assert X.shape == (9, 2)
        for j in range(2):
            np.testing.assert_allclose(X[:, j], solve_dense(A, B[:, j]),
                                       rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_named(self, bad):
        A = np.eye(3)
        A[1, 2] = bad
        with pytest.raises(ValueError, match=r"A\[1, 2\] is not finite"):
            solve_dense(A, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_named(self, bad):
        b = np.array([1.0, 2.0, bad])
        with pytest.raises(ValueError, match=r"b\[2\] is not finite"):
            solve_dense(np.eye(3), b)

    @pytest.mark.parametrize("A,b,name", [
        (np.eye(2) * (1 + 1j), np.ones(2), "A"),     # the solution is 0.5 - 0.5j
        (np.eye(2), np.ones(2) * 1j, "b"),
    ], ids=["A", "b"])
    def test_complex_system_refused(self, A, b, name):
        # refused by name, not cast to its real part with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^complex {name} \(complex128\) refused"):
                solve_dense(A, b)

    @pytest.mark.parametrize("A,refused", [
        # finite: the row sums show it, and A is not scanned again
        (np.eye(3), False),
        # finite, but its row sums overflow: A is scanned, found finite, and
        # refused at once, with the rcond of 0 that cond gives, before any
        # certificate or LU
        (1e308 * np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), True),
        # the same at the two-grid's size
        (1e308 * (np.eye(TWO_GRID_N) + np.eye(TWO_GRID_N, k=1)), True),
    ], ids=["finite", "row_sums_overflow", "row_sums_overflow_two_grid_size"])
    def test_matrix_is_scanned_only_when_its_row_sums_are_not_finite(self, monkeypatch,
                                                                     A, refused):
        scanned, shapes, two_grid = [], [], []
        require, lu = linsolve._require_finite, np.linalg.solve
        bound = linsolve._two_grid_inverse_bound

        def spied(name, X):
            scanned.append(name)
            require(name, X)

        def recorded(A, B):
            shapes.append(B.shape)
            return lu(A, B)

        def counted(A):
            two_grid.append(len(A))
            return bound(A)

        monkeypatch.setattr(linsolve, "_require_finite", spied)
        monkeypatch.setattr(np.linalg, "solve", recorded)
        monkeypatch.setattr(linsolve, "_two_grid_inverse_bound", counted)
        b = np.ones(len(A))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not refused:
                np.testing.assert_array_equal(solve_dense(A, b), b)
            else:
                with pytest.raises(SingularMatrixError,
                                   match=r"1/cond_inf\(A\) = 0 <= 1e-13: \|\|A\|\|_inf overflows"):
                    solve_dense(A, b)
        assert scanned == (["b", "A"] if refused else ["b"])
        assert shapes == ([] if refused else [(3,)])
        assert two_grid == []

    def test_margin_near_the_largest_double_does_not_overflow(self):
        # |a_ii| = 2^1023, so 2|a_ii| overflows though the row sums are
        # finite, the margin is 2^975 and 1/cond_inf(A) is about 2^-49: the
        # gate refuses A, as cond says, and no infinite margin certifies it
        a = 2.0**1023
        A = np.array([[a, a - 2.0**975], [a - 2.0**975, a]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 1.0 / np.linalg.cond(A, np.inf) < 2e-15
            with pytest.raises(SingularMatrixError, match="cond"):
                solve_dense(A, np.ones(2))

    def test_one_factorization_per_call(self, monkeypatch):
        # the gate reads the inverse from the solve itself: neither cond nor
        # inv runs, and numpy.linalg.solve runs once, for (2, 1) and (2, k) b
        def forbidden(*args, **kwargs):
            raise AssertionError("second factorization")

        calls = []
        solve = np.linalg.solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "cond", forbidden)
        monkeypatch.setattr(np.linalg, "inv", forbidden)
        monkeypatch.setattr(np.linalg, "solve", counted)
        A = np.array([[4.0, 1.0], [2.0, 3.0]])
        np.testing.assert_allclose(solve_dense(A, [5.0, 5.0]), [1.0, 1.0], rtol=1e-15)
        assert len(calls) == 1
        assert solve_dense(A, np.ones((2, 3))).shape == (2, 3)
        assert len(calls) == 2
        with pytest.raises(SingularMatrixError):
            solve_dense(np.diag([1.0, 1e-14]), np.ones(2))

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1.0, 1 + 1e-6])
    @pytest.mark.parametrize("shape", ["diag", "scaled", "permuted"])
    def test_gate_boundary_is_cond_inf(self, factor, shape):
        # 1/cond_inf of diag(1, s) is s: just below, at and just above
        # RCOND_MIN the system is refused exactly when 1/cond(A, inf) says so
        s = RCOND_MIN * factor
        A = {"diag": np.diag([1.0, s]),
             "scaled": 3e5 * np.diag([1.0, s]),
             "permuted": np.diag([1.0, s, 0.5])[[2, 0, 1]]}[shape]
        b = np.ones(len(A))
        if 1.0 / np.linalg.cond(A, np.inf) <= RCOND_MIN:
            with pytest.raises(SingularMatrixError, match="cond"):
                solve_dense(A, b)
        else:
            np.testing.assert_allclose(A @ solve_dense(A, b), b, rtol=1e-15)

    def test_gate_value_is_inverse_cond_inf(self, monkeypatch):
        # with RCOND_MIN moved to just above or just below 1/cond(A, inf),
        # the gate must refuse or accept: its value matches cond to 1e-12
        rng = np.random.default_rng(5)
        for n in (2, 5, 20, 60):
            A = random_well_conditioned(rng, n)
            b = rng.standard_normal(n)
            rcond = 1.0 / np.linalg.cond(A, np.inf)
            monkeypatch.setattr(linsolve, "RCOND_MIN", rcond * (1 - 1e-12))
            solve_dense(A, b)
            monkeypatch.setattr(linsolve, "RCOND_MIN", rcond * (1 + 1e-12))
            with pytest.raises(SingularMatrixError):
                solve_dense(A, b)

    def test_inverse_overflow_is_refused_without_warning(self):
        # the inverse's row sums overflow: rcond is 0, as cond makes it, and
        # no RuntimeWarning escapes
        A = 2.5e-308 * (np.eye(5) - np.eye(5, k=1))
        with pytest.raises(SingularMatrixError, match="cond"):
            solve_dense(A, np.ones(5))

    @pytest.mark.parametrize("A,b,columns,two_grid", [
        # dominant: Varah's margin certifies it, b is solved alone
        (1e-300 * np.eye(3), 1e10 * np.ones(3), 1, []),
        # not dominant (margin -0.5); the two-grid bounds ||A^-1||_inf, its
        # B b overflows and fails the residual test, and LU solves b alone
        (np.eye(TWO_GRID_N) - 1.5 * np.ones((TWO_GRID_N, TWO_GRID_N)) / TWO_GRID_N,
         1e308 * np.ones(TWO_GRID_N), 1, [TWO_GRID_N]),
        # below the two-grid's size: b with the identity's columns
        (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1e308, -1e308]), 3, []),
    ], ids=["varah", "two_grid", "inverse"])
    def test_overflowing_solution_is_refused_without_warning(self, monkeypatch, A, b,
                                                             columns, two_grid):
        shapes, sizes = [], []
        solve = np.linalg.solve
        bound = linsolve._two_grid_inverse_bound

        def recorded(A, B):
            shapes.append(B.shape)
            return solve(A, B)

        def counted(A):
            sizes.append(len(A))
            return bound(A)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        monkeypatch.setattr(linsolve, "_two_grid_inverse_bound", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match="the solution overflows"):
                solve_dense(A, b)
        assert [1 if len(s) == 1 else s[1] for s in shapes] == [columns]
        assert sizes == two_grid

    @pytest.mark.parametrize("scale,M", [
        # Varah's margin, 0.7e-320, would prove ||A^-1||_inf <= 1.4e320,
        # which is not a double; certified, the solve returned a finite but
        # wrong x (1.36 down to 1.06 where 1/0.7 is exact)
        (1e-320, np.eye(5) - 0.3 * np.ones((5, 5)) / 5),
        # at the two-grid's size it is tried too, and proves nothing
        (1e-320, np.eye(TWO_GRID_N) - 0.3 * np.ones((TWO_GRID_N, TWO_GRID_N)) / TWO_GRID_N),
        # not dominant: the inverse overflows on to nan, which cond reads as inf
        (1e-315, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]])),
    ], ids=["varah", "two_grid", "inverse"])
    def test_subnormal_system_is_refused_by_the_gate(self, scale, M):
        # the inverse path decides, as cond does: 1/cond_inf(A) is 0
        A = scale * M
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 1.0 / np.linalg.cond(A, np.inf) == 0.0
            with pytest.raises(SingularMatrixError, match="cond"):
                solve_dense(A, scale * np.ones(len(A)))

    @pytest.mark.parametrize("pid,dominant", [("krasnov3", True), ("malek1", True),
                                              ("krasnov1", False), ("wang", False)])
    def test_dominant_systems_skip_the_inverse(self, monkeypatch, pid, dominant):
        # the Volterra-2 systems are diagonally dominant by rows: Varah's
        # margin certifies their trailing n x n block at every n, the
        # two-grid never runs, and b (the forcing and the moved column 0) is
        # solved without the identity's columns. The Fredholm ones are not:
        # at n = 10, below the two-grid's size, they solve b with the
        # identity's n + 1 columns; at n = 200 the two-grid certifies them
        # and solves b itself, with no LU
        shapes, two_grid = [], []
        solve = np.linalg.solve
        bound = linsolve._two_grid_inverse_bound

        def recorded(A, B):
            shapes.append(B.shape)
            return solve(A, B)

        def counted(A):
            two_grid.append(len(A))
            return bound(A)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        monkeypatch.setattr(linsolve, "_two_grid_inverse_bound", counted)
        solve_entry(pid, 10)
        solve_entry(pid, 200)
        assert shapes == ([(10, 2), (200, 2)] if dominant else [(11, 12)])
        assert two_grid == ([] if dominant else [201])

    @pytest.mark.parametrize("lam,kernel", [
        (3.0, "gauss"), (-3.0, "gauss"), (1.0, "tanh"), (2.0, "cos")])
    def test_localized_kernels_skip_the_inverse(self, monkeypatch, lam, kernel):
        # at n = 200 and f = 1 on [0, 1], the identity's n + 1 columns are
        # never solved beside b: the Gaussian and tanh rows keep a Varah
        # margin (0.34-0.38 and 0.01), so b is solved alone, and cos(20 x s),
        # margin -1, which the rank-8 sketch did not certify, is certified by
        # the two-grid (rho 0.038) and solved by it, with no LU
        n = 200
        shapes = []
        lu = np.linalg.solve

        def recorded(A, B):
            shapes.append(B.shape)
            return lu(A, B)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        p = IntegralProblem("fredholm2", LOCALIZED[kernel], (0.0, 1.0),
                            forcing=np.ones_like, lam=lam)
        assert np.isfinite(solve(p, n).samples).all()
        assert shapes == ([] if kernel == "cos" else [(n + 1,)])

    @pytest.mark.parametrize("kernel,lam", [
        (lambda x, s: np.abs(x - s), -3.0), (lambda x, s: np.minimum(x, s), 2.0),
        (LOCALIZED["cos"], 2.0), (LOCALIZED["gauss"], 3.0), (LOCALIZED["gauss"], -3.0),
        (LOCALIZED["tanh"], 1.0), (get_problem("krasnov1").kernel, -2.0),
        (get_problem("wang").kernel, 1.0)],
        ids=["abs", "min", "cos", "gauss+3", "gauss-3", "tanh", "krasnov1", "wang"])
    def test_two_grid_certifies_smooth_and_localized_kernels(self, kernel, lam):
        # at n = 100, 200 and 640 the two-grid bound proves the gate for
        # each, with rho at most 0.27 (cos(20 x s) at n = 100); the rank-8
        # sketch it replaces proved nothing for the last three localized
        # ones at any of these n, nor for cos(20 x s) from n = 200
        for n in (100, 200, 640):
            g = make_grid(0.0, 1.0, n)
            A = np.eye(n + 1) - lam * _integral_operator(kernel, g, gauss_legendre(8), g.nodes, n)
            bound = linsolve._two_grid_inverse_bound(A).bound
            assert 2.0 * RCOND_MIN * _inf_norm(A) * bound < 1.0
            assert bound >= _inf_norm(np.linalg.inv(A))

    @pytest.mark.parametrize("pid", ["krasnov1", "wang"])
    def test_two_grid_certified_x_matches_the_inverse_path(self, monkeypatch, pid):
        # at n = 640 the two-grid certifies the Fredholm-2 system and solves
        # it; with the two-grid's size moved out of reach, the same system
        # takes the identity's columns, and both give the same x
        A, b = fredholm_system(pid, 640)
        x = solve_dense(A, b)
        monkeypatch.setattr(linsolve, "_TWO_GRID_MIN_N", 10**9)
        x_inverse = solve_dense(A, b)
        assert np.max(np.abs(x - x_inverse)) <= 1e-12 * np.max(np.abs(x_inverse))

    def test_two_grid_refuses_a_system_its_remainder_makes_singular(self):
        # M = I - A = c I + L with L smooth of rank 8: P M_c captures L but
        # not c I, whose remainder E leaves ||E|| about 0.8, and
        # A = (1 - c) I - L is singular to 1/cond_inf about 3e-15. Only ||B||,
        # here about 6e6, in the E term of rho stops the two-grid from
        # proving it well conditioned
        n, c = 100, 0.25
        U = smooth_orthonormal_columns(n)
        lam = (1 - c) * np.array([1.0 - 1e-14, 0.5, -0.5, 0.25, -0.25, 0.125, -0.125, 0.1])
        A = (1 - c) * np.eye(n) - (U * lam) @ U.T
        assert 1.0 / np.linalg.cond(A, np.inf) <= RCOND_MIN
        assert linsolve._two_grid_inverse_bound(A).bound == np.inf
        with pytest.raises(SingularMatrixError, match="cond"):
            solve_dense(A, np.ones(n))

    def test_two_grid_is_sound_for_a_wrong_inverse_of_s(self, monkeypatch):
        # the identity I - B A = B E + P (I - Z S) M_c holds for any stored
        # Z: with S^-1 replaced by I, B = I + P M_c approximates no inverse,
        # and only the P (I - Z S) M_c term in rho keeps A = I - L, singular
        # to 1/cond_inf about 3e-15 with M = L smooth, from being certified
        n = 100
        U = smooth_orthonormal_columns(n)
        L = (U * np.array([1.0 - 1e-14, 0.5, -0.5, 0.25, -0.25, 0.125, -0.125, 0.1])) @ U.T
        A = np.eye(n) - L
        assert 1.0 / np.linalg.cond(A, np.inf) <= RCOND_MIN
        monkeypatch.setattr(np.linalg, "inv", lambda S: np.eye(len(S)))
        assert linsolve._two_grid_inverse_bound(A).bound == np.inf
        with pytest.raises(SingularMatrixError, match="cond"):
            solve_dense(A, np.ones(n))

    def test_singular_s_proves_nothing(self, monkeypatch):
        # wang at n = 100 is certified by the two-grid alone; with
        # S = I - M_c P taken as singular (inv raises), there is no Z, the
        # bound is inf, and the inverse path decides, with the very x it
        # gives when the two-grid is out of reach
        A, b = fredholm_system("wang", 100)
        n = len(A)
        shapes = []
        solve = np.linalg.solve

        def singular(S):
            raise np.linalg.LinAlgError("Singular matrix")

        def recorded(A, B):
            shapes.append(B.shape)
            return solve(A, B)

        monkeypatch.setattr(np.linalg, "inv", singular)
        two_grid = linsolve._two_grid_inverse_bound(A)
        assert two_grid.bound == np.inf and two_grid.P is None and two_grid.V is None
        monkeypatch.setattr(np.linalg, "solve", recorded)
        x = solve_dense(A, b)
        assert shapes == [(n, n + 1)]
        monkeypatch.setattr(linsolve, "_TWO_GRID_MIN_N", 10**9)
        np.testing.assert_array_equal(solve_dense(A, b), x)

    def test_stalled_two_grid_solve_falls_back_to_lu(self, monkeypatch):
        # the certificate is sound for any stored Z: with S^-1 scaled by
        # 0.95 it still certifies wang at n = 100, with a bound of about 31
        # (the sound Z gives 28), but B contracts the error by only about
        # 0.075 a step. _REFINE_STEPS steps leave the residual above the
        # test, and the certified LU's x comes back, bit for bit, from b alone
        A, b = fredholm_system("wang", 100)
        n, x_lu = len(A), np.linalg.solve(A, b)
        shapes = []
        solve, inv = np.linalg.solve, np.linalg.inv

        def recorded(A, B):
            shapes.append(B.shape)
            return solve(A, B)

        monkeypatch.setattr(np.linalg, "inv", lambda S: 0.95 * inv(S))
        two_grid = linsolve._two_grid_inverse_bound(A)
        assert 30.0 < two_grid.bound and 2.0 * RCOND_MIN * _inf_norm(A) * two_grid.bound < 1.0
        assert 0.05 < _inf_norm(np.eye(n) - A - two_grid.P @ (two_grid.V @ A)) < 0.2
        monkeypatch.setattr(np.linalg, "solve", recorded)
        np.testing.assert_array_equal(solve_dense(A, b), x_lu)
        assert shapes == [(n,)]

    @pytest.mark.parametrize("n", [26, 27, 33, 71, 200])
    def test_interpolation_is_exact_on_cubic_rows(self, n):
        # rows that are cubics in the row index are interpolated exactly
        # from the coarse rows, at every size and last coarse gap: E = 0 to
        # rounding, so that M = I - A is all the two-grid needs, and
        # ||A^-1||_inf is bounded at once
        i = np.arange(n) / n
        M = 0.5 * np.outer(1.0 - 2.0 * i + 3.0 * i**2 - i**3, np.cos(np.arange(n))) / n
        A = np.eye(n) - M
        two_grid = linsolve._two_grid_inverse_bound(A)
        coarse = np.append(np.arange(0, n - 1, linsolve._COARSE), n - 1)
        assert two_grid.P.shape == (n, len(coarse))
        np.testing.assert_allclose(two_grid.P @ M[coarse], M, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(two_grid.P[coarse], np.eye(len(coarse)))
        assert _inf_norm(np.linalg.inv(A)) <= two_grid.bound < np.inf

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            A = random_well_conditioned(rng, 8)
            b = rng.standard_normal(8)
            np.testing.assert_allclose(solve_dense(A, b), np.linalg.solve(A, b),
                                       rtol=1e-9, atol=1e-11)


@st.composite
def gated_systems(draw, families=("dominant", "barely", "graded", "diag", "fredholm")):
    """A matrix from one of five families, with a right-hand side.

    dominant: strictly diagonally dominant by rows, with margin at least a
    tenth of the off-diagonal row sums; barely: the M-matrix D - N, N >= 0,
    whose rows all have the margin m, so that A 1 = m 1, A^-1 >= 0 and
    Varah's bound is sharp: 1/cond_inf = m/||A||_inf = alpha, up to the
    rounding of the diagonal, with alpha within a factor of 4 of RCOND_MIN,
    on both sides of it and of the certificate's 2 RCOND_MIN; graded:
    Q1 diag(sigma) Q2 with the smallest sigma 10^-10..10^-16, whose
    1/cond_inf straddles RCOND_MIN; diag: diag(1, s)
    with s within a factor of 4 of RCOND_MIN and more entries in [s, 1],
    symmetrically permuted; fredholm: I - lam*K of size 32..100, on both
    sides of the two-grid certificate's _TWO_GRID_MIN_N, with K a symmetric
    smooth part of rank 1..6 plus a small full-rank part, and lam the
    reciprocal of K's largest eigenvalue times 1 - d, so that A has the
    eigenvalue d, |d| in 1e-15..2, and 1/cond_inf straddles RCOND_MIN.
    Each is scaled by 10^e, e in [-150, 150], and may have its rows rotated
    by one, which leaves 1/cond_inf as it is but no longer puts the
    dominant entries on the diagonal; half the fredholm matrices are left
    as they are, since only then is I - A close to low rank.
    """
    family = draw(st.sampled_from(families))
    n = draw(st.integers(32, 100) if family == "fredholm" else st.integers(2, 12), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if family == "fredholm":
        x = np.linspace(0.0, 1.0, n)
        rank = draw(st.integers(1, 6), label="rank")
        U = np.cos(np.pi * np.outer(x, np.arange(rank)))
        C = rng.standard_normal((rank, rank))
        G = rng.uniform(-1, 1, (n, n))
        eps = 10.0 ** draw(st.floats(-14, -6), label="log10 full-rank part")
        K = (U @ (C + C.T) @ U.T + eps * (G + G.T)) / n
        mu = np.linalg.eigvalsh(K)
        mu = mu[np.argmax(np.abs(mu))]
        d = draw(st.sampled_from([-1.0, 1.0]), label="sign of d")
        d *= 10.0 ** draw(st.floats(-15, 0.3), label="log10 |d|")
        A = np.eye(n) - (1.0 - d) / mu * K
    elif family == "diag":
        s = RCOND_MIN * draw(st.floats(0.25, 4.0), label="s / RCOND_MIN")
        p = rng.permutation(n)
        A = np.diag(np.concatenate(([1.0, s], rng.uniform(s, 1.0, n - 2))))[p][:, p]
    elif family == "graded":
        sigma = np.logspace(0, -draw(st.floats(10, 16), label="decades"), n)
        q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        A = (q1 * sigma) @ q2
    elif family == "barely":
        N = rng.uniform(0, 1, (n, n))
        np.fill_diagonal(N, 0.0)
        off = N.sum(axis=1)
        alpha = RCOND_MIN * draw(st.floats(0.25, 4.0), label="alpha / RCOND_MIN")
        A = np.diag(off + 2.0 * alpha * off.max() / (1.0 - alpha)) - N
    else:
        A = rng.uniform(-1, 1, (n, n))
        np.fill_diagonal(A, 0.0)
        off = np.abs(A).sum(axis=1)
        margin = (0.1 + rng.uniform(0, 2, n)) * (1.0 + off)
        np.fill_diagonal(A, rng.choice([-1.0, 1.0], n) * (off + margin))
    if family == "fredholm" and draw(st.booleans(), label="plain"):
        return family, A, rng.standard_normal(n)
    if draw(st.booleans(), label="rows rotated"):
        A = A[np.roll(np.arange(n), 1)]
    A = A * 10.0 ** draw(st.integers(-150, 150), label="e")
    return family, A, rng.standard_normal(n)


@given(gated_systems())
@settings(max_examples=400, deadline=None)
def test_gate_accepts_exactly_when_cond_inf_allows(system):
    # the certified and the exact path together accept exactly the systems
    # with 1/cond(A, inf) > RCOND_MIN, and an accepted x has a small
    # residual. 1/cond_inf is itself computed from a rounded inverse, so
    # two computations of it can differ by about cond_inf * eps relative;
    # only the diag family, whose inverse is exact, is kept at the boundary.
    family, A, b = system
    rcond = 1.0 / np.linalg.cond(A, np.inf)
    assume(family == "diag" or abs(rcond / RCOND_MIN - 1.0) > 1e-2)
    if rcond <= RCOND_MIN:
        with pytest.raises(SingularMatrixError, match="cond"):
            solve_dense(A, b)
        return
    x = solve_dense(A, b)
    resid = np.max(np.abs(A @ x - b))
    assert resid <= 1e-10 * (_inf_norm(A) * np.max(np.abs(x)) + np.max(np.abs(b)))


@given(gated_systems(families=["fredholm"]))
@settings(max_examples=200, deadline=None)
def test_two_grid_bound_holds(system):
    # a finite two-grid bound is never below ||A^-1||_inf, here computed
    # from an inverse whose relative error is about eps/rcond
    _, A, _ = system
    with np.errstate(over="ignore", invalid="ignore"):
        bound = linsolve._two_grid_inverse_bound(A).bound
    if np.isfinite(bound):
        rcond = 1.0 / np.linalg.cond(A, np.inf)
        assert _inf_norm(np.linalg.inv(A)) * (1.0 - 1e-15 / rcond) <= bound


@st.composite
def two_grid_systems(draw):
    """A = I + K - eps G/n of size _TWO_GRID_MIN_N..160, with a right-hand
    side of 1 or 3 columns.

    K = U C C^T U^T is smooth, of rank 1..6, positive semidefinite with its
    largest eigenvalue 0.5..4, so I + K is well conditioned (cond_inf below
    about 20) and seldom diagonally dominant, and the coarse rows and their
    cubic interpolation capture it. The full-rank part, G uniform in
    [-1, 1] and eps 1e-8..0.3, is left in E: ||I - B A||_inf comes out from
    about 1e-8 to 0.4, from a start value B b that one step mends to a
    refinement that exhausts _REFINE_STEPS and falls back to LU.
    """
    n = draw(st.integers(TWO_GRID_N, 160), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    x = np.linspace(0.0, 1.0, n)
    rank = draw(st.integers(1, 6), label="rank")
    U = np.cos(np.pi * np.outer(x, np.arange(rank)))
    C = rng.standard_normal((rank, rank))
    K = U @ C @ C.T @ U.T
    K *= draw(st.floats(0.5, 4.0), label="largest eigenvalue") / np.linalg.eigvalsh(K).max()
    eps = 10.0 ** draw(st.floats(-8, np.log10(0.3)), label="log10 full-rank part")
    A = np.eye(n) + K - eps * rng.uniform(-1, 1, (n, n)) / n
    k = draw(st.sampled_from([1, 3]), label="columns")
    return A, rng.standard_normal(n if k == 1 else (n, k))


@given(two_grid_systems())
@settings(max_examples=100, deadline=None)
def test_two_grid_solve_meets_the_residual_test(system):
    # x from the two-grid meets the residual test in every column, x from
    # the fallback is LU's own, and either agrees with LU's to 1e-12
    # relative, or to the 2 cond_inf c (n + 1) eps that two solves with that
    # backward error allow. When ||I - B A||_inf <= 1e-2, at most 4 steps
    # after B b reach the test, and no LU runs
    A, b = system
    n, norm = len(A), _inf_norm(A)
    two_grid = linsolve._two_grid_inverse_bound(A)
    assume((2.0 * np.abs(A.diagonal()) - np.abs(A).sum(axis=1)).min() <= 0.0)
    assume(2.0 * RCOND_MIN * norm * two_grid.bound < 1.0)
    contraction = _inf_norm(np.eye(n) - A - two_grid.P @ (two_grid.V @ A))
    with mock.patch.object(np.linalg, "solve", side_effect=np.linalg.solve) as lu:
        x = solve_dense(A, b)
    assert x.shape == b.shape
    tol = linsolve._RESIDUAL_C * (n + 1) * linsolve._EPS
    x_lu = np.linalg.solve(A, b)
    if lu.call_count:
        np.testing.assert_array_equal(x, x_lu)
    else:
        limit = tol * (norm * np.abs(x).max(axis=0) + np.abs(b).max(axis=0))
        assert (np.abs(A @ x - b).max(axis=0) <= limit).all()
    agree = max(1e-12, 2.0 * np.linalg.cond(A, np.inf) * tol)
    assert (np.abs(x - x_lu).max(axis=0) <= agree * np.abs(x_lu).max(axis=0)).all()
    if contraction <= 1e-2:
        assert lu.call_count == 0


def cofactor_det3(A):
    return (A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
            - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
            + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0]))


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert determinant(np.diag([2.0, 3.0])) == pytest.approx(6.0)

    def test_matches_cofactor_expansion(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            A = rng.standard_normal((3, 3))
            assert determinant(A) == pytest.approx(cofactor_det3(A), rel=1e-10)

    def test_product_property(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            A = rng.standard_normal((4, 4))
            B = rng.standard_normal((4, 4))
            assert determinant(A @ B) == pytest.approx(
                determinant(A) * determinant(B), rel=1e-8)

    def test_singular_returns_zero(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert determinant(A) == pytest.approx(0.0, abs=1e-14)
        assert determinant(np.zeros((3, 3))) == 0.0

    def test_sign_tracking_vs_numpy(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            A = rng.standard_normal((6, 6))
            assert determinant(A) == pytest.approx(np.linalg.det(A), rel=1e-9)


def assert_sign_changes_are_roots(alpha, lo, hi, mesh=500):
    """Determinant oracle: every sign change of det(I - lam*alpha) on a
    uniform mesh of [lo, hi] lies within 1e-6 of a returned root."""
    roots = np.array([r.value for r in find_real_eigenvalues(alpha, lo, hi)])
    lams = np.linspace(lo, hi, mesh)
    eye = np.eye(alpha.shape[0])
    dets = np.array([determinant(eye - lam * alpha) for lam in lams])
    changes = np.flatnonzero(dets[:-1] * dets[1:] < 0)
    assert changes.size
    for i in changes:
        assert np.any((roots >= lams[i] - 1e-6) & (roots <= lams[i + 1] + 1e-6)), \
            (lams[i], lams[i + 1], roots)


class TestFindRealEigenvalues:
    def test_scalar_case(self):
        results = find_real_eigenvalues(np.array([[0.25]]), 0, 10)
        assert len(results) == 1
        assert results[0].value == pytest.approx(4.0, abs=1e-9)

    def test_empty_when_no_roots(self):
        # det(I - lam*I) = (1-lam)^3: the only root, 1, is outside [2, 3]
        assert find_real_eigenvalues(np.eye(3), 2, 3) == []

    def test_simple_symmetric_matrix(self):
        # eigenvalues of alpha are 3 and 1 -> characteristic values 1/3 and 1
        alpha = np.array([[2.0, 1.0], [1.0, 2.0]])
        results = find_real_eigenvalues(alpha, 0, 2)
        values = [r.value for r in results]
        np.testing.assert_allclose(values, [1 / 3, 1.0], atol=1e-9)

    @pytest.mark.parametrize("k", [0, 20, 300, -300])
    def test_scaled_pair_of_roots_is_exact(self, k):
        # roots 1/3 and 1 of [[2, 1], [1, 2]], scaled by 2^-k: an absolute
        # merge gap once merged them at k = 20, and a residual test of
        # 1e-8 ||alpha||_inf once took their mean at k = 300 and refused
        # both at k = -300
        alpha = np.array([[2.0, 1.0], [1.0, 2.0]]) * 2.0**k
        values = [r.value for r in find_real_eigenvalues(alpha, 0.0, 2.0 * 2.0**-k)]
        assert values == [2.0**-k / 3, 2.0**-k]

    @pytest.mark.parametrize("n", [2, 5, 9, 11, 64, 200])
    def test_scaled_krasnov2_gives_the_scaled_roots(self, n):
        entry = get_problem("krasnov2")
        g = make_grid(*entry.interval, n)
        alpha = _integral_operator(entry.kernel, g, gauss_legendre(8), g.nodes, n)
        want = [r.value for r in find_real_eigenvalues(alpha, *entry.bracket)]
        assert want
        for k in range(-400, 401, 50):
            lo, hi = (2.0**-k * end for end in entry.bracket)
            got = [2.0**k * r.value for r in find_real_eigenvalues(2.0**k * alpha, lo, hi)]
            assert len(got) == len(want), k
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"k = {k}")

    def test_eigen_results_satisfy_invariants(self):
        rng = np.random.default_rng(10)
        alpha = rng.standard_normal((5, 5))
        alpha = alpha + alpha.T  # real spectrum
        results = find_real_eigenvalues(alpha, -5, 5)
        assert results
        tol = 1e-8 * _inf_norm(alpha)
        for r in results:
            assert np.max(np.abs(r.vector)) == pytest.approx(1.0, rel=1e-12)
            assert r.residual <= tol
            lhs = (np.eye(5) - r.value * alpha) @ r.vector
            assert np.max(np.abs(lhs)) == pytest.approx(r.residual, abs=1e-14)

    def test_defective_double_root_found_without_sign_change(self):
        # similarity transform of a Jordan block: det(I - lam*A) = (1 - lam/2)^2
        # never changes sign; eigvals splits the double root into a pair
        # about sqrt(eps) apart, which merges into one value
        J = np.array([[0.5, 1.0], [0.0, 0.5]])
        T = np.array([[1.0, 2.0], [-1.0, 1.0]])
        A = T @ J @ np.linalg.inv(T)
        results = find_real_eigenvalues(A, 0, 5)
        assert len(results) == 1
        assert results[0].value == pytest.approx(2.0, abs=1e-6)

    def test_null_vector_exactly_at_a_double_root(self):
        # I - 2*J = [[0, -2], [0, 0]] has the null vector e_0, residual 0
        J = np.array([[0.5, 1.0], [0.0, 0.5]])
        v, residual = _null_vector(J, 2.0)
        np.testing.assert_array_equal(v, [1.0, 0.0])
        assert residual == 0.0

    def test_null_vector_largest_entry_is_plus_one(self):
        rng = np.random.default_rng(13)
        alpha = rng.standard_normal((7, 7))
        alpha = alpha + alpha.T
        lam = 1.0 / np.linalg.eigvalsh(alpha)[0]
        v, residual = _null_vector(alpha, lam)
        assert np.max(v) == 1.0 and np.max(np.abs(v)) == 1.0
        assert residual <= 1e-12 * _inf_norm(alpha)

    def test_non_finite_alpha_named(self):
        alpha = np.eye(3)
        alpha[2, 0] = np.nan
        with pytest.raises(ValueError, match=r"alpha\[2, 0\] is not finite"):
            find_real_eigenvalues(alpha, -5, 5)

    def test_complex_alpha_refused(self):
        # its eigenvalues are +-1j, none real; cast to its real part, alpha
        # would be 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^complex alpha \(complex128\) refused"):
                find_real_eigenvalues(np.diag([1j, -1j]), -5, 5)

    def test_determinant_oracle_random_symmetric(self):
        rng = np.random.default_rng(11)
        alpha = rng.standard_normal((6, 6))
        alpha = alpha + alpha.T
        assert_sign_changes_are_roots(alpha, -5.0, 5.0)

    @pytest.mark.parametrize("n", [5, 9, 11])
    def test_determinant_oracle_krasnov2(self, n):
        entry = get_problem("krasnov2")
        g = make_grid(*entry.interval, n)
        alpha = _integral_operator(entry.kernel, g, gauss_legendre(8), g.nodes, n)
        assert_sign_changes_are_roots(alpha, *entry.bracket)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_real_eigenvalues(np.eye(2), 1, 1)
        with pytest.raises(ValueError):
            find_real_eigenvalues(np.ones((2, 3)), 0, 1)

    @pytest.mark.parametrize("lo,hi,end", [(-np.inf, np.inf, "lo = -inf"),
                                           (0.0, np.inf, "hi = inf"), (np.nan, 1.0, "lo = nan")],
                             ids=["both", "hi", "nan"])
    def test_bracket_end_that_is_not_finite_refused(self, lo, hi, end):
        # 1/mu of an eigenvalue of a subnormal alpha overflows to inf, which
        # an infinite bracket holds
        with pytest.raises(ValueError, match=f"bracket end {end} is not finite"):
            find_real_eigenvalues(np.full((3, 3), 1e-320), lo, hi)

    def test_finite_alpha_is_not_scanned_again(self, monkeypatch):
        # its norm shows that alpha is finite; only an alpha whose norm is
        # not finite is scanned, to name an entry
        monkeypatch.setattr(linsolve, "_require_finite", mock.Mock())
        roots = find_real_eigenvalues(np.diag([2.0, 4.0]), 0.0, 1.0)
        assert [r.value for r in roots] == [0.25, 0.5]
        linsolve._require_finite.assert_not_called()

    def test_alpha_whose_norm_overflows_refused_without_warning(self):
        # ||alpha||_inf = 3e308 is inf, and so was the residual tolerance
        # 1e-8 ||alpha||_inf, which once accepted lam = 0, never a root
        # since det(I) = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDomainError, match=r"\|\|alpha\|\|_inf overflows"):
                find_real_eigenvalues(np.full((3, 3), 1e308), -1e-300, 1e-300)
