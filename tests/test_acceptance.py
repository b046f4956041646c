"""Acceptance gate: every published benchmark reproduced at its tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible with -s, and on
failure in the captured output). Tolerances:

  factor 2           computed/published in [0.5, 2]
  order of magnitude computed/published in [0.1, 10]
  upper order        computed <= 10 * published (first-kind Volterra: this
                     implementation sits at the double-precision noise floor,
                     orders below the published figures)
  4 significant figures for eigenvalues
"""
import time

import numpy as np
import pytest

from quadspline import (build_spline, coeffs_closed_form, convergence_study,
                        gauss_legendre, integrate_panels, make_grid, sample,
                        second_differences)
from quadspline import registry
from quadspline.core import eval_many

from oracles import (coefficient_matrix, coeffs_by_recursion, kernel_piece_weights,
                     optimal_first_coefficient)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def factor2(computed, published):
    return 0.5 <= computed / published <= 2.0


def within_order(computed, published):
    return 0.1 <= computed / published <= 10.0


def test_criterion_1_interpolation_of_abs():
    published = {10: 2.6e-3, 20: 6.6e-4, 50: 1.0e-4, 100: 2.6e-5}
    t0 = time.perf_counter()
    got = {n: registry.interpolation_error("abs", n) for n in published}
    elapsed = time.perf_counter() - t0
    ok = all(factor2(got[n], published[n]) for n in published) and elapsed < 5.0
    report(1, ok, f"e_n(|x|) = { {n: f'{v:.2e}' for n, v in got.items()} } "
                  f"in {elapsed:.2f}s")


def test_criterion_2_interpolation_of_sine():
    published = {10: 4.0e-4, 50: 9.0e-9, 100: 1.0e-10}
    t0 = time.perf_counter()
    got = {n: registry.interpolation_error("sin2pix", n) for n in published}
    elapsed = time.perf_counter() - t0
    ok = all(within_order(got[n], published[n]) for n in published) and elapsed < 10.0
    report(2, ok, f"e_n(sin 2 pi x) = { {n: f'{v:.2e}' for n, v in got.items()} } "
                  f"in {elapsed:.2f}s")


def test_criterion_3_fredholm_second_kind():
    published = {5: (6.4e-3, 1.6e-3), 10: (5.1e-4, 1.9e-5)}
    t0 = time.perf_counter()
    got = {n: registry.solve_entry("krasnov1", n) for n in published}
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    for n, (pub_l2, pub_max) in published.items():
        ok = ok and factor2(got[n].error_l2, pub_l2) \
                and factor2(got[n].error_max, pub_max)
    report(3, ok, "krasnov1 " + ", ".join(
        f"n={n}: l2={got[n].error_l2:.2e} max={got[n].error_max:.2e}"
        for n in published) + f" in {elapsed:.2f}s")


def test_criterion_4_fredholm_eigenvalues():
    published = {5: (-3.21785, 2.5e-2), 9: (-3.065060, 7.0e-3),
                 11: (-3.04336, 4.6e-3)}
    details = []
    ok = True
    for n, (pub_lam, pub_l2) in published.items():
        rep = registry.solve_entry("krasnov2", n)
        lam = min(v for v, _ in rep.eigen)
        _, sub = min(rep.eigen, key=lambda p: p[0])
        lam_ok = registry.round_sigfigs(lam, 4) == registry.round_sigfigs(pub_lam, 4)
        ok = ok and lam_ok and factor2(sub.error_l2, pub_l2)
        details.append(f"n={n}: lambda={lam:.6f} l2={sub.error_l2:.2e}")
    report(4, ok, "krasnov2 " + ", ".join(details))


def test_criterion_5_volterra_second_kind():
    published = {
        ("krasnov3", 5): (9.3e-4, 6.1e-5), ("krasnov3", 10): (1.8e-4, 5.1e-6),
        ("malek1", 5): (4.8e-4, 5.0e-5), ("malek1", 10): (1.3e-4, 5.1e-6),
    }
    ok = True
    details = []
    for (pid, n), (pub_l2, pub_max) in published.items():
        rep = registry.solve_entry(pid, n)
        ok = ok and factor2(rep.error_l2, pub_l2) and factor2(rep.error_max, pub_max)
        details.append(f"{pid}@{n}: l2={rep.error_l2:.2e} max={rep.error_max:.2e}")
    report(5, ok, "; ".join(details))


def test_criterion_6_volterra_first_kind():
    published = {5: (1.4e-9, 6.3e-9), 10: (4.8e-8, 2.5e-7)}
    ok = True
    details = []
    for n, (pub_l2, pub_max) in published.items():
        rep = registry.solve_entry("krasnov4", n)
        # the published values are the source's solver noise floor; ours is
        # far lower, so the order-of-magnitude check binds from above only
        ok = ok and rep.error_l2 <= 10 * pub_l2 and rep.error_max <= 10 * pub_max
        details.append(f"n={n}: l2={rep.error_l2:.1e} max={rep.error_max:.1e}")
    report(6, ok, "krasnov4 " + "; ".join(details))


def test_criterion_7_beats_least_squares_comparison():
    published = registry.WANG_PUBLISHED
    e5, e10 = (registry.solve_entry("wang", n).error_l2 for n in (5, 10))
    ok = (e5 <= published["lsq_bound"]
          and factor2(e5, published[5]) and factor2(e10, published[10]))
    report(7, ok, f"wang e5={e5:.3e} (<= {published['lsq_bound']:.2e}, "
                  f"vs {published[5]:.2e}), e10={e10:.3e} (vs {published[10]:.2e})")


# ---------------------------------------------------------------------------
# criterion 8: property suite with fixed random draws


def test_criterion_8a_coefficient_paths_agree():
    rng = np.random.default_rng(801)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 13))
        h = float(rng.uniform(0.05, 1.5))
        grid = make_grid(0.0, n * h, n)
        y = rng.uniform(-50, 50, size=n + 1)
        d = second_differences(y, grid)
        recursion = coeffs_by_recursion(optimal_first_coefficient(d, n), d)
        closed = coeffs_closed_form(d, n)
        matrix = coefficient_matrix(n, grid.h).apply(y)
        scale = 1.0 + np.abs(recursion).max()
        worst = max(worst,
                    np.abs(closed - recursion).max() / scale,
                    np.abs(matrix - recursion).max() / scale)
    ok = worst <= 1e-10
    report("8a", ok, f"200 instances, worst relative disagreement {worst:.2e} "
                     f"({time.perf_counter() - t0:.2f}s)")


def _random_parity_function(rng, parity):
    c = rng.uniform(-3, 3, size=3)
    w = rng.uniform(0.5, 5.0, size=2)
    d = rng.uniform(-2, 2, size=2)
    if parity == "even":
        return lambda x: (c[0] + c[1] * x**2 + c[2] * x**4
                          + d[0] * np.cos(w[0] * x) + d[1] * np.cos(w[1] * x))
    return lambda x: (c[0] * x + c[1] * x**3 + c[2] * x**5
                      + d[0] * np.sin(w[0] * x) + d[1] * np.sin(w[1] * x))


def test_criterion_8b_parity_conservation():
    rng = np.random.default_rng(802)
    worst = 0.0
    cases = 0
    for parity in ("even", "odd"):
        sign = 1.0 if parity == "even" else -1.0
        for n in (8, 9):
            for _ in range(50):
                f = _random_parity_function(rng, parity)
                half = float(rng.uniform(0.5, 2.0))
                grid = make_grid(-half, half, n)
                model = build_spline(grid, sample(f, grid))
                scale = 1.0 + np.abs(model.coeffs).max()
                worst = max(worst, np.abs(model.coeffs
                                          - sign * model.coeffs[::-1]).max() / scale)
                cases += 1
    ok = worst <= 1e-10
    report("8b", ok, f"{cases} splines over all four parity/piece-count cases, "
                     f"worst mirror defect {worst:.2e}")


def test_criterion_8c_energy_minimality():
    rng = np.random.default_rng(803)
    ok = True
    for _ in range(30):
        n = int(rng.integers(2, 13))
        grid = make_grid(0.0, 1.0, n)
        y = rng.standard_normal(n + 1) * 5
        d = second_differences(y, grid)
        star = optimal_first_coefficient(d, n)
        e_star = np.sum(coeffs_by_recursion(star, d) ** 2)
        for eps in (1e-3, 1e-1, 1.0):
            for s in (eps, -eps):
                ok = ok and np.sum(coeffs_by_recursion(star + s, d) ** 2) > e_star
    report("8c", ok, "energy strictly increases under +-{1e-3,1e-1,1} "
                     "perturbations of the first coefficient (30 instances)")


def test_criterion_8d_convergence_bound():
    rng = np.random.default_rng(804)
    ok = True
    worst_margin = np.inf
    for _ in range(20):
        c = rng.uniform(-2, 2, size=3)
        w = rng.uniform(0.3, 6.0, size=3)
        phase = rng.uniform(0, 2 * np.pi, size=3)
        slope, offset = rng.uniform(-2, 2, size=2)

        def f(x, c=c, w=w, phase=phase, slope=slope, offset=offset):
            return (sum(c[i] * np.sin(w[i] * x + phase[i]) for i in range(3))
                    + slope * x + offset)

        certified_m = float(np.sum(np.abs(c) * w**2))  # rigorous: sum |c_i| w_i^2
        a = float(rng.uniform(-2, 0))
        b = a + float(rng.uniform(0.5, 3.0))
        ns = [int(rng.integers(4, 40))]
        rep = convergence_study(f, certified_m, a, b, ns)
        for r in rep.records:
            ok = ok and r.within_bound
            if r.max_deviation > 0:
                worst_margin = min(worst_margin, r.bound / r.max_deviation)
    report("8d", ok, f"20 trig+affine functions with certified curvature "
                     f"bounds; smallest bound/deviation margin {worst_margin:.2f}")


def test_criterion_8e_assembly_matches_direct_quadrature():
    rng = np.random.default_rng(805)
    rule = gauss_legendre(8)
    fine = gauss_legendre(12)
    worst = 0.0
    for _ in range(12):
        n = int(rng.integers(2, 7))
        deg = 2
        coeff = rng.uniform(-1, 1, size=(deg + 1, deg + 1))

        def kernel(x, s, coeff=coeff):
            return sum(coeff[p, q] * x**p * s**q
                       for p in range(deg + 1) for q in range(deg + 1))

        grid = make_grid(0.0, 1.0, n)
        C = coefficient_matrix(n, grid.h)
        y = rng.standard_normal(n + 1)
        model = build_spline(grid, y)
        x_eval = float(rng.uniform(0, 1))
        for k in range(1, n + 1):
            w = kernel_piece_weights(kernel, x_eval, grid, k, C, rule)
            direct = integrate_panels(lambda s: kernel(x_eval, s) * model(s),
                                      grid.nodes[k - 1], grid.nodes[k], 4, fine)
            worst = max(worst, abs(float(w @ y) - direct))
    ok = worst <= 1e-9
    report("8e", ok, f"piece weights vs direct quadrature of K*S, "
                     f"worst |difference| {worst:.2e}")


def test_criterion_8_runtime_budget():
    # re-run the heaviest pieces back to back and keep the whole property
    # suite far under its 60 s budget
    t0 = time.perf_counter()
    test_criterion_8a_coefficient_paths_agree()
    test_criterion_8b_parity_conservation()
    elapsed = time.perf_counter() - t0
    report("8-runtime", elapsed < 60.0, f"heaviest property blocks re-ran in "
                                        f"{elapsed:.2f}s (< 60s)")
