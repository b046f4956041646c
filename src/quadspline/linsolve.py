"""Dense solves, determinants, and the real characteristic values of a matrix.

Matrices are plain 2-D float arrays. The solver is LU with partial pivoting,
written out here (rather than delegated) because the contract fixes the
pivot-underflow threshold, and inverse iteration needs the same elimination
with underflowing pivots clamped instead of rejected; numpy.linalg serves
as the oracle in the tests. Characteristic values, the roots of
det(I - lambda*alpha), come from the eigenvalues of alpha (LAPACK);
`determinant` stays as the sign-tracked oracle those roots are tested
against.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PIVOT_RTOL = 1e-13


class SingularMatrixError(ArithmeticError):
    """A pivot underflowed PIVOT_RTOL times the matrix inf-norm."""


def _inf_norm(A: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(A), axis=1))) if A.size else 0.0


def _require_finite(name: str, A: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise ValueError(f"{name}{list(idx)} is not finite: {A[idx]}")


def _pivoted_solve(A: np.ndarray, b: np.ndarray, pivot_floor) -> np.ndarray:
    """Forward elimination + back substitution with partial pivoting.

    pivot_floor=None raises on an underflowing pivot; a float clamps the
    pivot to that magnitude instead (the classic inverse-iteration device
    for solving against an intentionally near-singular matrix).
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    norm = _inf_norm(A)
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if abs(A[p, k]) <= PIVOT_RTOL * norm:
            if pivot_floor is None:
                raise SingularMatrixError(f"pivot {A[p, k]!r} at column {k}")
            A[p, k] = pivot_floor if A[p, k] >= 0 else -pivot_floor
        if p != k:
            A[[k, p]] = A[[p, k]]
            b[[k, p]] = b[[p, k]]
        m = A[k + 1:, k] / A[k, k]
        A[k + 1:, k + 1:] -= np.outer(m, A[k, k + 1:])
        b[k + 1:] -= m * b[k]
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - A[k, k + 1:] @ x[k + 1:]) / A[k, k]
    return x


def solve_dense(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by LU with partial pivoting.

    Raises SingularMatrixError when a pivot falls below
    PIVOT_RTOL * ||A||_inf, and ValueError naming the first non-finite
    entry of A or b.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _require_finite("A", A)
    _require_finite("b", b)
    return _pivoted_solve(A, b, None)


def determinant(A: np.ndarray) -> float:
    """Determinant via pivoted elimination with sign tracking.

    No pivot threshold here: as the oracle for the roots of
    det(I - lam*alpha) it must pass smoothly through zero, so an
    exactly-zero pivot returns 0 and anything else is eliminated as-is.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix not square: {A.shape}")
    det = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if A[p, k] == 0.0:
            return 0.0
        if p != k:
            A[[k, p]] = A[[p, k]]
            det = -det
        det *= A[k, k]
        m = A[k + 1:, k] / A[k, k]
        A[k + 1:, k + 1:] -= np.outer(m, A[k, k + 1:])
    return float(det)


@dataclass(frozen=True)
class EigenResult:
    """A real characteristic value with its max-norm-1 null vector.

    residual = ||(I - lambda*alpha) v||_inf; reported results satisfy
    residual <= 1e-8 * ||alpha||_inf.
    """

    value: float
    vector: np.ndarray = field(repr=False)
    residual: float


def _null_vector(alpha: np.ndarray, lam: float, seed: int = 20240901):
    """Inverse iteration on (I - lam*alpha): 3 solves from a random start.

    The matrix is near-singular on purpose; underflowing pivots are clamped
    rather than rejected, which keeps the iteration working even exactly at
    (multiple) roots.
    """
    n = alpha.shape[0]
    eye = np.eye(n)
    shifted = eye - lam * alpha
    floor = max(PIVOT_RTOL * _inf_norm(shifted), 1e-300)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    for _ in range(3):
        v = _pivoted_solve(shifted, v, floor)
        v = v / np.max(np.abs(v))
    residual = float(np.max(np.abs(shifted @ v)))
    return v, residual


def find_real_eigenvalues(alpha: np.ndarray, lo: float, hi: float) -> list[EigenResult]:
    """All real roots of det(I - lambda*alpha) in [lo, hi].

    The roots are lambda = 1/mu for the nonzero eigenvalues mu of alpha.
    Eigenvalues with |Im mu| <= 1e-6 |mu| count as real, and sorted values
    within 1e-6 (1 + |lambda|) of each other merge into their mean: LAPACK
    returns a defective double root as a pair split by about sqrt(eps),
    and the pair's mean is far more accurate than either member. Each root
    is paired with a null vector from inverse iteration; candidates whose
    residual exceeds 1e-8 * ||alpha||_inf are discarded as spurious.
    Raises ValueError naming the first non-finite entry of alpha.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
        raise ValueError(f"matrix not square: {alpha.shape}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    _require_finite("alpha", alpha)

    mu = np.linalg.eigvals(alpha)
    mu = mu[(mu != 0) & (np.abs(mu.imag) <= 1e-6 * np.abs(mu))]
    lams = np.sort(1.0 / mu.real)
    lams = lams[(lams >= lo) & (lams <= hi)]
    breaks = np.flatnonzero(np.diff(lams) > 1e-6 * (1.0 + np.abs(lams[:-1]))) + 1
    roots = [float(c.mean()) for c in np.split(lams, breaks) if c.size]

    tol = 1e-8 * _inf_norm(alpha)
    results = []
    for lam in roots:
        vector, residual = _null_vector(alpha, lam)
        if residual <= tol:
            vector.setflags(write=False)
            results.append(EigenResult(lam, vector, residual))
    return results
