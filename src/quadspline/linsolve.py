"""Dense solves and the real characteristic values of a matrix.

Matrices are plain 2-D float arrays, and every factorization is LAPACK's
through numpy.linalg. `solve_dense` refuses ill-conditioned systems with a
condition gate, 1/cond_inf(A) <= RCOND_MIN, which unlike a pivot threshold
does not depend on the pivot order; A is factored once. When A is strictly
diagonally dominant by rows with a wide enough margin, Varah's bound
proves that the gate passes, and b is solved alone; this catches the
second-kind systems I - lam*K whose rows have |lam| times the integral
of |K(x_i, s)| below 1, roughly, such as the Volterra-2 benchmark
problems. Any other A is solved with the identity beside b, which gives x
and the exact inverse the gate needs. Both ways accept and refuse the
same systems; a certified solve knows only a lower bound on
1/cond_inf(A), not its value. Characteristic values, the roots of
det(I - lambda*alpha), come from the eigenvalues of alpha, and each null
vector is the last right singular vector of I - lambda*alpha. The
sign-tracked determinant those roots are tested against lives in
tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RCOND_MIN = 1e-13
# rounding of the |A| row sums in solve_dense's certificate: relative, and
# absolute among subnormals
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


class SingularMatrixError(ArithmeticError):
    """The matrix is singular, or 1/cond_inf(A) is at most RCOND_MIN."""


def _inf_norm(A: np.ndarray) -> float:
    return float(np.abs(A).sum(axis=1).max()) if A.size else 0.0


def _require_finite(name: str, A: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise ValueError(f"{name}{list(idx)} is not finite: {A[idx]}")


def solve_dense(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for b of shape (n,) or (n, k), one column per system.

    The condition gate refuses 1/cond_inf(A) = 1/(||A||_inf ||A^-1||_inf)
    <= RCOND_MIN, the value numpy.linalg.cond(A, inf) gives, and one pass
    over |A| decides how it is applied. Its row sums r_i give ||A||_inf
    and Varah's margin m = min_i (2|a_ii| - r_i); when A is strictly
    diagonally dominant by rows, ||A^-1||_inf <= 1/m (J. M. Varah,
    Linear Algebra Appl. 11, 1975), so 1/cond_inf(A) >= m/||A||_inf.
    If that proved bound, less the rounding of the row sums, clears twice
    RCOND_MIN, the gate is known to pass with room for the rounding of any
    computed inverse, and A x = b is solved alone. Otherwise the columns
    of b and of the identity are solved together, one LU factorization
    giving x and the inverse, and the gate is applied to the value cond
    computes from that inverse. Either way the gate accepts and refuses
    the same systems. Raises SingularMatrixError when LAPACK finds an exactly
    singular factor or the gate refuses A, and ValueError for an empty A, a
    shape mismatch, or naming the first non-finite entry of A or b.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _require_finite("A", A)
    _require_finite("b", b)
    if (A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size
            or b.ndim not in (1, 2) or b.shape[0] != A.shape[0]):
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    n = len(A)
    k = 1 if b.ndim == 1 else b.shape[1]
    # row sums that overflow give norm inf: no certificate, and rcond 0 as
    # cond makes it; an inverse near the overflow threshold does the same
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.abs(A).sum(axis=1)
        norm = rows.max()
        margin = (2.0 * np.abs(A.diagonal()) - rows).min()
        certified = margin - (n + 1) * (_EPS * norm + _TINY) > 2.0 * RCOND_MIN * norm
        try:
            X = np.linalg.solve(A, b if certified else np.column_stack((b, np.eye(n))))
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"singular matrix of shape {A.shape}") from exc
        if certified:
            return X
        rcond = 1.0 / (norm * _inf_norm(X[:, k:]))
    if rcond <= RCOND_MIN:
        raise SingularMatrixError(f"1/cond_inf(A) = {rcond:.3g} <= {RCOND_MIN}")
    # copies, so that x does not keep the inverse alive
    return X[:, 0].copy() if b.ndim == 1 else X[:, :k].copy()


@dataclass(frozen=True)
class EigenResult:
    """A real characteristic value with its max-norm-1 null vector.

    residual = ||(I - lambda*alpha) v||_inf; reported results satisfy
    residual <= 1e-8 * ||alpha||_inf.
    """

    value: float
    vector: np.ndarray = field(repr=False)
    residual: float


def _null_vector(alpha: np.ndarray, lam: float):
    """Last right singular vector of (I - lam*alpha), largest entry scaled
    to +1, with its residual ||(I - lam*alpha) v||_inf."""
    shifted = np.eye(alpha.shape[0]) - lam * alpha
    v = np.linalg.svd(shifted)[2][-1]
    v = v / v[np.argmax(np.abs(v))]
    return v, float(np.max(np.abs(shifted @ v)))


def find_real_eigenvalues(alpha: np.ndarray, lo: float, hi: float) -> list[EigenResult]:
    """All real roots of det(I - lambda*alpha) in [lo, hi].

    The roots are lambda = 1/mu for the nonzero eigenvalues mu of alpha.
    Eigenvalues with |Im mu| <= 1e-6 |mu| count as real, and sorted values
    within 1e-6 (1 + |lambda|) of each other merge into their mean: LAPACK
    returns a defective double root as a pair split by about sqrt(eps),
    and the pair's mean is far more accurate than either member. Each root
    is paired with its null vector (see _null_vector); candidates whose
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
