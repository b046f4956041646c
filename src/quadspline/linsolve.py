"""Dense solves and the real characteristic values of a matrix.

Matrices are plain 2-D float arrays, and every factorization is LAPACK's
through numpy.linalg. `solve_dense` refuses ill-conditioned systems with a
condition gate, 1/cond_inf(A) <= RCOND_MIN, which unlike a pivot threshold
does not depend on the pivot order, and factors A at most once. Each of
its certificates is a proved upper bound on ||A^-1||_inf, judged by one
test. Varah's, for A strictly diagonally dominant by rows, catches the
second-kind systems I - lam*K whose rows have |lam| times the integral of
|K(x_i, s)| below 1, roughly, such as the Volterra-2 benchmark problems,
and b is solved alone. From n = _TWO_GRID_MIN_N = 71 the two-grid
approximate inverse B of I - A (see _two_grid_inverse_bound) catches the
Fredholm-2 benchmark problems, whose rows vary smoothly with the row
index, and solves b by refinement with B, with no LU. Any other A is
solved with the identity beside b, which gives x and the exact inverse
the gate needs. Both ways accept and refuse the same systems; a certified
solve knows only a lower bound on 1/cond_inf(A), not its value.
Characteristic values, the roots of det(I - lambda*alpha), come from the
eigenvalues of alpha, and each null vector is the last right singular
vector of I - lambda*alpha. The sign-tracked determinant those roots are
tested against lives in tests/oracles.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

RCOND_MIN = 1e-13
# rounding in solve_dense's certificates: relative, and absolute among
# subnormals
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)
# the two-grid certificate's coarse-row spacing, and the smallest n it is
# tried at. Spacing 8 certifies cos(20 x s), lam = 2, at n = 100 (rho 0.27;
# 1.85 at spacing 12). On krasnov1 and wang (best of 600 calls alternating
# the paths, one BLAS thread, 2-vCPU Xeon VM) the inverse path won on both
# up to n = 64, the two-grid on both from 71, by 1.2-1.4x at 80
_COARSE = 8
_TWO_GRID_MIN_N = 71
# a certified solve refines x = B b by x <- x + B (b - A x), which shrinks the
# error by about ||I - B A|| <= rho a step down to rounding level (fixed
# precision iterative refinement, N. J. Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., SIAM 2002, ch. 12), and accepts x once, in
# every column, the residual r computed for the next step meets
# ||r||_inf <= c (n + 1) eps (||A||_inf ||x||_inf + ||b||_inf) with a finite
# right-hand side, c = _RESIDUAL_C: a normwise backward error (J. L. Rigal
# and J. Gaches, J. ACM 14, 1967) of at most c (n + 1) eps, so a relative
# forward error of at most about 2 c (n + 1) eps cond_inf(A). Forming r
# rounds by about sqrt(n + 1) u (|A| |x| + |b|) (Higham, sec. 2.8), at most
# (n + 1) eps/16 for n >= 63, so c = 1/8 is twice what the residual of the
# exact solution typically reads, the backward error that LU with partial
# pivoting attains (Higham, ch. 9); with c = 1 a refined x lost its parity by
# 8.6e-13 on a problem of cond_inf 21, where LU's x lost 1e-15. After
# _REFINE_STEPS steps that miss the test LU solves b, so a wrong x never passes
_RESIDUAL_C = 0.125
_REFINE_STEPS = 6


class SingularMatrixError(ArithmeticError):
    """The matrix is singular, 1/cond_inf(A) is at most RCOND_MIN, or the
    solution overflows the doubles."""


def _inf_norm(A: np.ndarray) -> float:
    return float(np.abs(A).sum(axis=1).max()) if A.size else 0.0


def _require_finite(name: str, A: np.ndarray) -> None:
    # one pass for the usual finite A; the entry is located only on failure
    if np.isfinite(A).all():
        return
    idx = tuple(int(i) for i in np.argwhere(~np.isfinite(A))[0])
    raise ValueError(f"{name}{list(idx)} is not finite: {A[idx]}")


class _TwoGrid(NamedTuple):
    """What _two_grid_inverse_bound proves: bound >= ||A^-1||_inf, inf when
    it proves nothing, and the P and V = Z M_c that apply B = I + P Z M_c,
    None when S = I - M_c P is singular."""

    bound: float
    P: np.ndarray | None = None
    V: np.ndarray | None = None


def _cubic_weights(rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The Lagrange weights at integer rows of the cubic through 4 integer
    nodes, (len(rows), 4); a row at a node gets its unit row exactly."""
    eye = np.eye(4, dtype=bool)
    return (np.where(eye, 1.0, np.subtract.outer(rows, nodes)[:, None, :]).prod(axis=2)
            / np.where(eye, 1.0, np.subtract.outer(nodes, nodes)).prod(axis=1))


# P's rows in the first coarse interval, then in every interior one
_HEAD = _cubic_weights(np.arange(2 * _COARSE), _COARSE * np.arange(4))
_HEAD.setflags(write=False)


def _interpolate(tail: np.ndarray, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = P X for (m, n) coarse rows X, tail P's rows from the
    third-last coarse row on, the interior in one batched product."""
    k, (m, n) = _COARSE, X.shape
    # X's rows j..j+3 for every j < m - 4, a read-only view
    windows = as_strided(X, (m - 4, 4, n), (X.strides[0],) + X.strides, writeable=False)
    np.matmul(_HEAD[:k], X[:4], out=out[:k])
    np.matmul(_HEAD[k:], windows, out=out[k:(m - 3) * k].reshape(m - 4, k, n))
    np.matmul(tail, X[m - 4:], out=out[(m - 3) * k:])
    return out


def _two_grid_inverse_bound(A: np.ndarray) -> _TwoGrid:
    """An upper bound on ||A^-1||_inf from the two-grid approximate inverse
    B = I + P Z M_c of A = I - M, n x n with n >= 3 _COARSE + 2.

    Row i of a collocation system is its operator at x_i, so M ~ P M_c (the
    two-grid iteration of Atkinson and Brakhage in algebraic form:
    K. Atkinson, The Numerical Solution of Integral Equations of the Second
    Kind, CUP 1997, ch. 6). M_c holds M's rows at every _COARSE-th index and
    the last one, m in all; P interpolates them by the cubic through the 4
    coarse rows around each row, or the 4 at either end. With E = M - P M_c,
    S = I - M_c P and Z the inverse of the stored S, I - B A =
    B E + P (I - Z S) M_c holds exactly for any stored P, M_c and Z, so
    rho = ||B|| ||E|| + ||P (I - Z S)|| ||M_c|| < 1 proves
    ||A^-1||_inf <= ||B||/(1 - rho) (S. M. Rump, Acta Numerica 19, 2010).
    Each norm is bounded above with its rounding: relatively by
    g = (n + m + 4) eps, about twice the gamma_k = k u/(1 - k u) of the
    longest inner product or row sum here, and absolutely by `tiny` for
    underflow. B is never formed: ||B|| <= 1 + || |P| |V| || with V = Z M_c
    and its rounding, and the one n x n buffer, |A + P M_c - I| = |E|, is
    freed on return.
    """
    n, k = len(A), _COARSE
    coarse = np.append(np.arange(0, n - 1, k), n - 1)
    m = len(coarse)
    g = (n + m + 4) * _EPS
    tiny = (n + m) * m * _TINY
    tail = _cubic_weights(np.arange(coarse[-3], n), coarse[-4:])
    P = _interpolate(tail, np.eye(m), np.empty((n, m)))
    abs_p = np.abs(P)
    p_norm = (1 + g) * abs_p.sum(axis=1).max()
    Mc = -A[coarse]
    Mc[np.arange(m), coarse] += 1.0
    mc_norm = (1 + g) * np.abs(Mc).sum(axis=1).max()
    E = _interpolate(tail, Mc, np.empty((n, n)))
    E += A
    E.flat[::n + 1] -= 1.0
    np.abs(E, out=E)
    # P M_c rounds by gamma_4 |P| |M_c|, the sum and the diagonal by u (I + |E|)
    e_norm = (1 + g) * E.sum(axis=1).max() + g * (1.0 + p_norm * mc_norm) + tiny
    S = np.eye(m) - Mc @ P
    try:
        Z = np.linalg.inv(S)
    except np.linalg.LinAlgError:
        return _TwoGrid(np.inf)
    z_norm = _inf_norm(Z)
    V = Z @ Mc
    b_norm = (1 + g) * (1.0 + (abs_p @ np.abs(V).sum(axis=1)).max()
                        + g * p_norm * z_norm * mc_norm) + tiny
    # the stored S rounds by gamma_n |M_c| |P| + u |S|, and Z S by
    # gamma_m |Z| |S| + u |I - Z S|
    t_norm = p_norm * ((1 + g) * _inf_norm(np.eye(m) - Z @ S)
                       + z_norm * (g * (2.0 * _inf_norm(S) + mc_norm * p_norm) + tiny) + tiny)
    rho = (1 + g) * (b_norm * e_norm + t_norm * mc_norm)
    # the first factor covers the rounding of this line and of the caller's
    # product with the bound
    return _TwoGrid((1 + g) * b_norm / (1.0 - rho) if rho < 1.0 else np.inf, P, V)


def _finite_solution(x: np.ndarray) -> np.ndarray:
    # one pass for the usual finite x; the entries are counted only on failure
    if np.isfinite(x).all():
        return x
    bad = np.count_nonzero(~np.isfinite(x))
    raise SingularMatrixError(f"the solution overflows: {bad} of its "
                              f"{x.size} entries are not finite")


def solve_dense(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for b of shape (n,) or (n, k), one column per system.

    The condition gate refuses 1/cond_inf(A) = 1/(||A||_inf ||A^-1||_inf) <=
    RCOND_MIN, the value numpy.linalg.cond(A, inf) gives, and one pass over
    |A| decides how it is applied. Its row sums r_i give ||A||_inf, which is
    not finite when an entry of A is not (then named) or when they overflow
    (then 1/cond_inf(A) = 0, as cond gives, and A is refused at once). Each
    certificate is an upper bound on ||A^-1||_inf, inf when it proves
    nothing, and certifies A when 2 RCOND_MIN (||A||_inf + s) bound < 1, s
    the rounding of the row sums: the gate then passes with room for the
    rounding of any computed inverse. Varah's bound is 1/(m - s) when that
    is positive, for the margin m = min_i (2|a_ii| - r_i) (J. M. Varah,
    Linear Algebra Appl. 11, 1975), and inf among subnormals, where it
    overflows; a system it certifies is solved alone. When it does not
    certify and n >= _TWO_GRID_MIN_N, the two-grid approximate inverse B
    gives ||B||_inf/(1 - rho) (see _two_grid_inverse_bound); below that size
    it costs more than the inverse it would save. A system the two-grid
    certifies is solved by x = B b and refinement, and after _REFINE_STEPS
    steps that miss the residual test by LU of b alone (see _RESIDUAL_C).
    Otherwise the columns of b and of the identity are solved together, one
    LU factorization giving x and the inverse, and the gate is applied to
    the value cond computes from that inverse; one that overflows gives
    1/cond_inf(A) = 0, as cond does, and a refusal that says so. Either way
    the gate accepts and refuses the same systems. Raises
    SingularMatrixError when LAPACK finds an exactly singular factor, the
    gate refuses A, or x overflows to a non-finite value on any path, and
    ValueError for an empty A, a shape mismatch, or naming the first
    non-finite entry of A or b.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _require_finite("b", b)
    if (A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size
            or b.ndim not in (1, 2) or b.shape[0] != A.shape[0]):
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    n = len(A)
    k = 1 if b.ndim == 1 else b.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.abs(A).sum(axis=1)
        norm = rows.max()
        if not norm < np.inf:  # an entry that is not finite is named
            _require_finite("A", A)
            raise SingularMatrixError(f"1/cond_inf(A) = 0 <= {RCOND_MIN}: ||A||_inf overflows")
        slack = (n + 1) * (_EPS * norm + _TINY)
        # Varah's margin, its terms halved so that 2|a_ii| cannot overflow
        lower = 2.0 * (np.abs(A.diagonal()) - 0.5 * rows).min() - slack
        bound = 1.0 / lower if lower > 0.0 else np.inf
        gate = 2.0 * RCOND_MIN * (norm + slack)
        P = None
        if not gate * bound < 1.0 and n >= _TWO_GRID_MIN_N:
            bound, P, V = _two_grid_inverse_bound(A)
        certified = gate * bound < 1.0
        if certified and P is not None:  # x = B b, refined until the test of _RESIDUAL_C
            tol = _RESIDUAL_C * (n + 1) * _EPS
            b_norm = np.abs(b).max(axis=0)
            x, r = np.zeros_like(b), b
            for _ in range(_REFINE_STEPS + 1):
                x += r
                x += P @ (V @ r)
                r = b - A @ x
                limit = tol * (norm * np.abs(x).max(axis=0) + b_norm)
                if ((np.abs(r).max(axis=0) <= limit) & (limit < np.inf)).all():
                    return x
        try:
            X = np.linalg.solve(A, b if certified else np.column_stack((b, np.eye(n))))
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"singular matrix of shape {A.shape}") from exc
        if certified:
            return _finite_solution(X)
        inv_norm = _inf_norm(X[:, k:])
        # an inverse that overflows, to inf or on to nan, gives 0, as cond does
        rcond = 1.0 / (norm * inv_norm) if np.isfinite(inv_norm) else 0.0
    if rcond <= RCOND_MIN:
        raise SingularMatrixError(f"1/cond_inf(A) = {rcond:.3g} <= {RCOND_MIN}"
                                  + ("" if np.isfinite(inv_norm) else "; its inverse overflows"))
    # copies, so that x does not keep the inverse alive
    return _finite_solution(X[:, 0].copy() if b.ndim == 1 else X[:, :k].copy())


@dataclass(frozen=True)
class EigenResult:
    """A real characteristic value with its max-norm-1 null vector.

    residual = ||(I - lambda*alpha) v||_inf; reported results satisfy
    residual <= 1e-8 |lambda| ||alpha||_inf.
    """

    value: float
    vector: np.ndarray = field(repr=False)
    residual: float


def _null_vector(alpha: np.ndarray, lam: float):
    """Last right singular vector of (I - lam*alpha), largest entry scaled
    to +1, with its residual ||(I - lam*alpha) v||_inf."""
    shifted = np.eye(alpha.shape[0]) - lam * alpha
    v = np.linalg.svd(shifted)[2][-1]
    v = v / v[np.abs(v).argmax()]
    return v, float(np.abs(shifted @ v).max())


def _merged_roots(lams: np.ndarray) -> list[float]:
    """The sorted values lams with each run of neighbours at most
    1e-6 |lambda| apart, lambda the lower of the two, merged into its mean,
    taken as np.add.reduce(run) / len(run), the division run.mean takes."""
    gaps = lams[1:] - lams[:-1] > 1e-6 * np.abs(lams[:-1])
    ends = [0, *(gaps.nonzero()[0] + 1).tolist(), len(lams)]
    return [float(np.add.reduce(lams[i:j]) / (j - i)) for i, j in zip(ends, ends[1:]) if j > i]


def find_real_eigenvalues(alpha: np.ndarray, lo: float, hi: float) -> list[EigenResult]:
    """All real roots of det(I - lambda*alpha) in [lo, hi].

    The roots are lambda = 1/mu for the eigenvalues mu of alpha above
    rounding level: every |mu| <= (n + 1) eps ||alpha||_inf is dropped
    before it is inverted, since the computed eigenvalues are exact only
    for alpha + E with ||E|| of order n u ||alpha|| (Golub and Van Loan,
    Matrix Computations, 4th ed., sec. 7.5.6): such a mu cannot be told
    from 0, and a rule relative to ||alpha|| does not depend on its scale.
    Eigenvalues with |Im mu| <= 1e-6 |mu| count as real, and sorted values
    at most 1e-6 |lambda| apart merge into their mean: LAPACK returns a
    defective double root as a pair split by about sqrt(eps), and the
    pair's mean is far more accurate than either member. Each root is
    paired with its null vector (see _null_vector); candidates whose
    residual exceeds 1e-8 |lambda| ||alpha||_inf are discarded as spurious.
    As |mu| <= ||alpha||_inf, that tolerance is never below 1e-8, and
    alpha scaled by 2^k gives the same decisions, with roots scaled by 2^-k.
    Raises ValueError for a bracket end that is not finite, naming it, for
    lo >= hi, naming the first non-finite entry of alpha, and for an alpha
    whose ||alpha||_inf overflows.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
        raise ValueError(f"matrix not square: {alpha.shape}")
    for name, end in (("lo", lo), ("hi", hi)):
        if not math.isfinite(end):
            raise ValueError(f"bracket end {name} = {end!r} is not finite")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    # among subnormals 1/mu can overflow, and inf lies outside every finite
    # bracket
    with np.errstate(over="ignore"):
        norm = _inf_norm(alpha)
        if not math.isfinite(norm):  # an entry that is not finite is named
            _require_finite("alpha", alpha)
            raise ValueError(f"||alpha||_inf overflows a double for the {alpha.shape} alpha")
        mu = np.linalg.eigvals(alpha)
        size = np.abs(mu)
        mu = mu[(size > (len(alpha) + 1) * _EPS * norm) & (np.abs(mu.imag) <= 1e-6 * size)]
        lams = 1.0 / mu.real
    lams.sort()
    lams = lams[(lams >= lo) & (lams <= hi)]

    results = []
    for lam in _merged_roots(lams):
        vector, residual = _null_vector(alpha, lam)
        if residual <= 1e-8 * abs(lam) * norm:
            vector.setflags(write=False)
            results.append(EigenResult(lam, vector, residual))
    return results
