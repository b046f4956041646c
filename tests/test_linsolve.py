import numpy as np
import pytest

from quadspline import (SingularMatrixError, assemble_fredholm, determinant,
                        find_real_eigenvalues, solve_dense)
from quadspline.linsolve import _inf_norm
from quadspline.registry import get_problem


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

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_dense(np.eye(3), np.ones(4))

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

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            A = random_well_conditioned(rng, 8)
            b = rng.standard_normal(8)
            np.testing.assert_allclose(solve_dense(A, b), np.linalg.solve(A, b),
                                       rtol=1e-9, atol=1e-11)


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
        # never changes sign, so only the |det|-minimum fallback can see it
        J = np.array([[0.5, 1.0], [0.0, 0.5]])
        T = np.array([[1.0, 2.0], [-1.0, 1.0]])
        A = T @ J @ np.linalg.inv(T)
        results = find_real_eigenvalues(A, 0, 5)
        assert len(results) == 1
        assert results[0].value == pytest.approx(2.0, abs=1e-6)

    def test_non_finite_alpha_named(self):
        alpha = np.eye(3)
        alpha[2, 0] = np.nan
        with pytest.raises(ValueError, match=r"alpha\[2, 0\] is not finite"):
            find_real_eigenvalues(alpha, -5, 5)

    def test_determinant_oracle_random_symmetric(self):
        rng = np.random.default_rng(11)
        alpha = rng.standard_normal((6, 6))
        alpha = alpha + alpha.T
        assert_sign_changes_are_roots(alpha, -5.0, 5.0)

    @pytest.mark.parametrize("n", [5, 9, 11])
    def test_determinant_oracle_krasnov2(self, n):
        entry = get_problem("krasnov2")
        alpha, _ = assemble_fredholm(entry.problem(n))
        assert_sign_changes_are_roots(alpha, *entry.bracket)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_real_eigenvalues(np.eye(2), 1, 1)
        with pytest.raises(ValueError):
            find_real_eigenvalues(np.ones((2, 3)), 0, 1)
