"""Dense solves and the real characteristic values of a matrix.

Matrices are plain 2-D float arrays, and every factorization is LAPACK's
through numpy.linalg. `solve_dense` refuses ill-conditioned systems with a
condition gate, 1/cond_inf(A) <= RCOND_MIN, which unlike a pivot threshold
does not depend on the pivot order; A is factored at most once. When A is
strictly diagonally dominant by rows with a wide enough margin, Varah's
bound proves that the gate passes, and b is solved alone; this catches
the second-kind systems I - lam*K whose rows have |lam| times the
integral of |K(x_i, s)| below 1, roughly, such as the Volterra-2
benchmark problems. When that misses and n >= _SKETCH_MIN_N = 73, a
second proof comes from a rank-8 sketch of M = I - A: with
Q = qr(M Omega), Vt = Q^T M, E = M - Q Vt, T = I - Vt Q, P = Q T^-1 and
R = I + P Vt, I - R A = R E + (Q - P T) Vt holds exactly, so a small
enough rho = ||R|| ||E|| + ||Q - P T|| ||Vt|| bounds ||A^-1||_inf (Rump's
approximate inverse bound, Acta Numerica 19, 2010, on the range sketch of
Halko, Martinsson and Tropp, SIAM Review 53, 2011); this catches the
Fredholm-2 benchmark problems, whose kernels are smooth. Then b is solved
by the sketch, with no LU: x = R b, refined by x <- x + R (b - A x), in
O(n^2) a step, until its residual shows the backward error of a stable
solve, and LU solves b alone only when _REFINE_STEPS steps do not get
there. Any other A is solved with the identity beside b, which gives x
and the exact inverse the gate needs. Both ways accept and refuse the
same systems; a certified solve knows only a lower bound on
1/cond_inf(A), not its value. Characteristic
values, the roots of det(I - lambda*alpha), come from the eigenvalues of
alpha, and each null vector is the last right singular vector of
I - lambda*alpha. The sign-tracked determinant those roots are tested
against lives in tests/oracles.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

RCOND_MIN = 1e-13
# rounding in solve_dense's certificates: relative, and absolute among
# subnormals
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)
# rank of the sketch certificate, and the smallest n it is tried at. Timed
# on the Fredholm-2 systems of krasnov1 and wang (best of 400-800 calls
# alternating the two paths, one BLAS thread, 2-vCPU Xeon VM), the inverse
# path took 0.93-1.02 of the certified sketch path's time at n = 60-63 and
# 0.85-0.96 at n = 64; the sketch won on both problems from n = 66 in two
# sweeps and from n = 73 in all three, by 1.04-1.3x at 73, 1.1-1.3x at 80
# and 1.8-2.0x at 100
_RANK = 8
_SKETCH_MIN_N = 73
# a sketch-certified solve refines R b by steps x <- x + R (b - A x) until
# the residual is within _RESIDUAL_C (n + 1) eps (||A|| ||x|| + ||b||), and
# falls back to LU after _REFINE_STEPS steps (see _Sketch.solve). On
# krasnov1 and wang at n = 64..1280 LU's residuals read 0.002-0.016 of
# (n + 1) eps (...), R b's 0.005-0.07 and those after one step
# 0.0003-0.01, so R b itself is accepted. With c = 1 a slowly refined x
# was accepted at 0.83 (n + 1) eps (...) on a symmetric problem of
# cond_inf 21, and lost its parity by 8.6e-13 where LU's x lost 1e-15. With
# ||I - R A|| near 1e-4, 1e-2 and 5e-2, 2, 4 and 6 steps are needed. A
# step costs 1/3 of an LU at n = 64, 1/25 at 200 and 1/50 at 640 (one BLAS
# thread, 2-vCPU Xeon VM), so an exhausted cap of 6 costs about two LUs.
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


def _sketch_signs(n: int) -> np.ndarray:
    """The fixed (n, _RANK) sketch matrix: entry (i, j) is -1 or +1 by the
    top bit of the splitmix64 finalizer of its flat index i*_RANK + j.

    It is rebuilt per call (15 us at n = 200): cached per n, its arrays
    outlived the solves that made them and raised the peak RSS of a run
    over many n."""
    z = (np.arange(n * _RANK, dtype=np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.where(z >> np.uint64(63), -1.0, 1.0).reshape(n, _RANK)


@dataclass(frozen=True)
class _Sketch:
    """What _sketch_inverse_bound proves, with the factors that prove it.

    bound is an upper bound on ||A^-1||_inf, inf when the sketch proves
    nothing, and R = I + P Vt is the approximate inverse with
    ||I - R A||_inf <= rho < 1 behind a finite bound. P and Vt are None
    when T is singular and there is no R.
    """

    bound: float
    P: np.ndarray | None = field(repr=False)
    Vt: np.ndarray | None = field(repr=False)

    def solve(self, A: np.ndarray, b: np.ndarray, norm: float) -> np.ndarray | None:
        """x with A x = b to the backward error of LU's solve, from R and
        refinement, or None when _REFINE_STEPS steps do not reach it.

        x starts at R b, with R applied as b + P (Vt b), and each step is
        x <- x + R (b - A x). Since ||I - R A|| <= rho, the error shrinks
        by rho a step down to rounding level (fixed precision iterative
        refinement, N. J. Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., SIAM 2002, ch. 12). x is accepted once, in
        every column, the residual r computed for the next step meets
        ||r||_inf <= c (n + 1) eps (||A||_inf ||x||_inf + ||b||_inf) with a
        finite right-hand side, c = _RESIDUAL_C = 1/8.
        ||r||/(||A|| ||x|| + ||b||) is the normwise backward error of x
        (J. L. Rigal and J. Gaches, J. ACM 14, 1967), the least e with
        (A + dA) x = b + db, ||dA|| <= e ||A|| and ||db|| <= e ||b||, so the
        test asks for a backward error of at most c (n + 1) eps, and then
        the relative forward error is at most about 2 c (n + 1) eps
        cond_inf(A). Forming r rounds by up to gamma_{n+1} (|A| |x| + |b|),
        but with independent roundings by about sqrt(n + 1) u (Higham,
        sec. 2.8), at most (n + 1) eps/16 for the n >= _SKETCH_MIN_N = 73
        the sketch runs at. So c = 1/8 is twice what the computed residual
        of the exact solution typically reads: the backward error a
        backward stable solve such as LU with partial pivoting attains
        (Higham, ch. 9). A test that fails sends the caller to LU, never
        a wrong x.
        """
        P, Vt = self.P, self.Vt
        tol = _RESIDUAL_C * (len(A) + 1) * _EPS
        b_norm = np.abs(b).max(axis=0)
        x = np.zeros_like(b)
        r = b
        for _ in range(_REFINE_STEPS + 1):
            x += r
            x += P @ (Vt @ r)
            r = b - A @ x
            limit = tol * (norm * np.abs(x).max(axis=0) + b_norm)
            if ((np.abs(r).max(axis=0) <= limit) & (limit < np.inf)).all():
                return x
        return None


def _sketch_inverse_bound(A: np.ndarray) -> _Sketch:
    """An upper bound on ||A^-1||_inf from a rank-_RANK sketch of M = I - A,
    inf when the sketch proves nothing, with the P and Vt of R = I + P Vt.

    Q = qr(M Omega), Vt = Q^T M, E = M - Q Vt, T = I - Vt Q, P = Q T^-1 and
    R = I + P Vt satisfy I - R A = R E + (Q - P T) Vt exactly, whatever the
    stored Q, Vt and P are. So rho = ||R|| ||E|| + ||Q - P T|| ||Vt|| < 1
    proves ||A^-1||_inf <= ||R||/(1 - rho) (S. M. Rump, Acta Numerica 19,
    2010), and a poor sketch (N. Halko, P.-G. Martinsson and J. A. Tropp,
    SIAM Review 53, 2011) only makes rho large. Each norm is bounded above
    with its rounding: relatively by g = (n + _RANK + 4) eps, about twice
    the gamma_k = k u/(1 - k u) of the longest inner product or row sum
    here, so that it covers a few of them compounded, and absolutely by
    `tiny` for underflow. R is never formed, ||R|| <= 1 + || |P| |Vt| ||,
    and the one n x n buffer holds |A + Q Vt - I| = |E|; it is freed on
    return, and the record keeps only the n x _RANK and _RANK x n factors.
    """
    n = len(A)
    g = (n + _RANK + 4) * _EPS
    tiny = (n + _RANK) * _RANK * _TINY
    omega = _sketch_signs(n)
    Q = np.linalg.qr(omega - A @ omega)[0]
    Vt = Q.T - Q.T @ A
    vt_rows = np.abs(Vt).sum(axis=1)
    E = Q @ Vt
    E += A
    E.flat[::n + 1] -= 1.0
    np.abs(E, out=E)
    # E is formed from A, not from M: the product Q Vt rounds by at most
    # gamma_r |Q| |Vt|, the sum and the diagonal by u (I + |E|) more
    e_norm = (1 + g) * E.sum(axis=1).max() + g * (1.0 + (np.abs(Q) @ vt_rows).max()) + tiny
    T = np.eye(_RANK) - Vt @ Q
    try:
        P = Q @ np.linalg.inv(T)
    except np.linalg.LinAlgError:
        return _Sketch(np.inf, None, None)
    pv = (np.abs(P) @ vt_rows).max()
    p_norm = _inf_norm(P)
    r_norm = (1 + g) * (1.0 + pv) + tiny
    # the stored T rounds by gamma_n |Vt| |Q| + u |T|, and P T by gamma_r |P| |T|
    t_norm = ((1 + g) * _inf_norm(Q - P @ T)
              + g * (p_norm * _inf_norm(T) + pv * _inf_norm(Q)) + tiny * (1.0 + p_norm))
    rho = (1 + g) * (r_norm * e_norm + t_norm * (1 + g) * vt_rows.max())
    # the first factor covers the rounding of this line and of the caller's
    # product with the bound
    return _Sketch((1 + g) * r_norm / (1.0 - rho) if rho < 1.0 else np.inf, P, Vt)


def _finite_solution(x: np.ndarray) -> np.ndarray:
    # one pass for the usual finite x; the entries are counted only on failure
    if np.isfinite(x).all():
        return x
    bad = np.count_nonzero(~np.isfinite(x))
    raise SingularMatrixError(f"the solution overflows: {bad} of its "
                              f"{x.size} entries are not finite")


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
    computed inverse, and A x = b is solved alone. When it does not and
    n >= _SKETCH_MIN_N, the rank-_RANK sketch of I - A gives a second proof,
    1/cond_inf(A) >= (1 - rho)/(||R||_inf ||A||_inf) from the exact identity
    I - R A = R E + (Q - P T) Vt (see _sketch_inverse_bound), and the same
    test against twice RCOND_MIN applies; below that size the sketch costs
    more than the inverse it would save. A system the sketch certifies is
    solved by the sketch: x = R b, refined by x <- x + R (b - A x), is
    accepted once its residual in every column is within
    _RESIDUAL_C (n + 1) eps (||A||_inf ||x||_inf + ||b||_inf), and after
    _REFINE_STEPS steps without that, A x = b is solved alone by LU (see
    _Sketch.solve). Otherwise the columns
    of b and of the identity are solved together, one LU factorization
    giving x and the inverse, and the gate is applied to the value cond
    computes from that inverse. Either way the gate accepts and refuses
    the same systems. Neither proof certifies when its bound on
    ||A^-1||_inf is not finite in doubles (an A of subnormals, say): the
    inverse path decides, and an inverse that overflows gives
    1/cond_inf(A) = 0, as cond does, and a refusal that says so. Raises
    SingularMatrixError when LAPACK finds an exactly singular factor, the
    gate refuses A, or x overflows to a non-finite value on any path,
    and ValueError for an empty A, a shape mismatch, or naming the first
    non-finite entry of A or b.
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
        slack = (n + 1) * (_EPS * norm + _TINY)
        # a bound on ||A^-1||_inf that is not finite proves nothing: among
        # subnormals Varah's 1/(margin - slack) overflows while the
        # factorization loses its relative precision. An infinite sketch
        # bound fails its own test below.
        lower = margin - slack
        certified = lower > 2.0 * RCOND_MIN * norm and np.isfinite(1.0 / lower)
        if not certified and n >= _SKETCH_MIN_N:
            sketch = _sketch_inverse_bound(A)
            certified = 2.0 * RCOND_MIN * (norm + slack) * sketch.bound < 1.0
            x = sketch.solve(A, b, norm) if certified else None
            if x is not None:
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
    _require_finite("alpha", alpha)
    # among subnormals 1/mu can overflow, and inf lies outside every finite
    # bracket
    with np.errstate(over="ignore"):
        norm = _inf_norm(alpha)
        if norm == np.inf:
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
