import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadspline import InvalidDomainError, gauss_legendre, integrate_panels, registry, solve

ENDS = st.builds(lambda sign, t: sign * 10.0 ** t, st.sampled_from([-1.0, 1.0]),
                 st.floats(math.log10(1e-310), math.log10(1.7e308)))


@st.composite
def extreme_intervals(draw):
    """Ends of magnitude 1e-310 to 1.7e308, either sign: two drawn ends, or
    an end a and a + |a| 10^u, a narrow interval far from 0 whose nodes
    can stay apart."""
    a = draw(ENDS)
    if draw(st.booleans()):
        return a, draw(ENDS)
    return a, a + abs(a) * 10.0 ** draw(st.floats(-17.0, 1.0))


class TestEntries:
    def test_expected_ids_present(self):
        assert set(registry.FUNCTIONS) == {"abs", "sin2pix", "linear"}
        assert set(registry.PROBLEMS) == {"krasnov1", "krasnov2", "wang",
                                          "identity", "krasnov3", "malek1",
                                          "krasnov4"}

    def test_unknown_ids_raise(self):
        with pytest.raises(registry.UnknownProblemError):
            registry.get_function("nope")
        with pytest.raises(registry.UnknownProblemError):
            registry.get_problem("nope")

    def test_every_table_cell_is_resolvable(self):
        for cells in registry.TABLES.values():
            for cell in cells:
                if cell.check == "external":
                    continue
                if cell.metric.startswith("squared_l2_error"):
                    registry.get_function(cell.entry_id)
                else:
                    registry.get_problem(cell.entry_id)

    def test_table_numbers(self):
        assert sorted(registry.TABLES) == list(range(1, 9))


# the continuum characteristic value each fredholm_eigen entry's reference
# eigenfunction satisfies (krasnov2's is a double root)
EIGENVALUES = {"krasnov2": -3.0}
# the largest residual a reference solution may leave in its own equation
REFERENCE_TOL = 1e-8


def reference_residuals(pid, entry):
    """x and the residual of entry's reference solution in its own equation
    at 9 equispaced x, each integral over [a, b], or [a, x] for a causal
    kind, by 64 Gauss-Legendre panels of order 12."""
    lam = EIGENVALUES[pid] if entry.kind == "fredholm_eigen" else entry.lam
    a, b = entry.interval
    xs = np.linspace(a, b, 9)
    residuals = []
    for x in xs:
        integral = integrate_panels(lambda s: entry.kernel(x, s) * entry.reference(s),
                                    a, x if entry.causal else b, 64, gauss_legendre(12))
        forcing = 0.0 if entry.forcing is None else entry.forcing(x)
        if entry.kind == "volterra1":
            residuals.append(integral - forcing)
        else:
            residuals.append(entry.reference(x) - lam * integral - forcing)
    return xs, np.array(residuals)


class TestReferenceSolutions:
    """Each reference solution satisfies its own equation to REFERENCE_TOL,
    and that check sees a missing reference, a NaN or a shift of 1e-6."""

    @pytest.mark.parametrize("pid", sorted(registry.PROBLEMS))
    def test_satisfies_its_equation(self, pid):
        entry = registry.PROBLEMS[pid]
        assert entry.reference is not None
        xs, residuals = reference_residuals(pid, entry)
        bad = ~(np.abs(residuals) <= REFERENCE_TOL)  # NaN fails too
        assert not bad.any(), (xs[bad], residuals[bad])

    def test_nan_reference_fails(self):
        entry = registry.PROBLEMS["krasnov3"]
        exact = entry.reference

        def reference(x):
            return np.where(x == 0.5, np.nan, exact(x))

        xs, residuals = reference_residuals(
            "krasnov3", dataclasses.replace(entry, reference=reference))
        assert not (np.abs(residuals) <= REFERENCE_TOL).all()
        assert np.isnan(residuals[xs == 0.5]).all()

    @pytest.mark.parametrize("pid", sorted(registry.PROBLEMS))
    def test_shifted_reference_fails(self, pid):
        entry = registry.PROBLEMS[pid]
        exact = entry.reference
        shifted = dataclasses.replace(entry, reference=lambda x: exact(x) + 1e-6)
        _, residuals = reference_residuals(pid, shifted)
        assert not (np.abs(residuals) <= REFERENCE_TOL).all()


class TestChecks:
    def test_round_sigfigs(self):
        assert registry.round_sigfigs(-3.217850, 4) == pytest.approx(-3.218)
        assert registry.round_sigfigs(-3.043357, 4) == pytest.approx(-3.043)
        assert registry.round_sigfigs(0.0, 4) == 0.0
        assert registry.round_sigfigs(1.23456e-7, 3) == pytest.approx(1.23e-7)

    def test_cell_pass_semantics(self):
        cell = registry.TableCell("x", 1, "m", 1.0, "factor2")
        assert registry.cell_passes(cell, 1.9)
        assert registry.cell_passes(cell, 0.51)
        assert not registry.cell_passes(cell, 2.1)
        assert not registry.cell_passes(cell, None)
        order = registry.TableCell("x", 1, "m", 1.0, "order")
        assert registry.cell_passes(order, 9.0)
        assert not registry.cell_passes(order, 11.0)
        upper = registry.TableCell("x", 1, "m", 1.0, "order_upper")
        assert registry.cell_passes(upper, 1e-12)
        assert not registry.cell_passes(upper, 11.0)
        ext = registry.TableCell("x", 1, "m", 1.0, "external")
        assert registry.cell_passes(ext, None)

    def test_unknown_check_kind_raises(self):
        # when the cell is made, so that a typo in TABLES fails at import
        with pytest.raises(ValueError, match="unknown check kind 'sigfigs5'"):
            registry.TableCell("x", 1, "m", 1.0, "sigfigs5")

    def test_identity_problem_is_exact(self):
        r = registry.solve_entry("identity", 6)
        assert r.error_max <= 1e-12

    @pytest.mark.parametrize("pid", ["krasnov1", "krasnov3", "krasnov4"])
    def test_bracket_only_for_eigen_problems(self, pid):
        kind = registry.get_problem(pid).kind
        with pytest.raises(InvalidDomainError, match=f"'{kind}'"):
            registry.solve_entry(pid, 5, bracket=(0.0, 1.0))

    def test_interpolation_error_linear_is_zero(self):
        assert registry.interpolation_error("linear", 5) <= 1e-20

    def test_lagrange_error_linear_is_zero(self):
        assert registry.lagrange_error("linear", 3) <= 1e-20

    @pytest.mark.filterwarnings("error")
    @given(st.sampled_from(sorted(registry.FUNCTIONS)), st.integers(2, 64),
           extreme_intervals(), st.booleans())
    @example("abs", 64, (-4e155, 4e155), False)
    @example("linear", 46, (-8.18302704270468e+168, -8.18302704270449e+168), True)
    @example("abs", 54, (1.0, 1.0000000000000178), False)
    @settings(max_examples=300, deadline=None)
    def test_extreme_interval_is_refused_or_finite(self, fid, n, interval, lagrange):
        # every draw is refused by the package's own error, or its squared
        # L2 error is finite, and nothing warns. The second example has
        # quadrature panels narrower than an ulp of their ends
        try:
            if lagrange:
                err = registry.lagrange_error(fid, n, *interval)
            else:
                err = registry.spline_interpolant(fid, n, *interval)[1]
        except InvalidDomainError:
            return
        assert math.isfinite(err)


class TestSolveMetrics:
    @pytest.mark.parametrize("pid", ["krasnov1", "krasnov4"])  # fredholm2, volterra1
    def test_errors_of_an_equation(self, pid):
        r = registry.solve_entry(pid, 5)
        assert registry.solve_metrics(r) == [("l2_norm_error", r.error_l2),
                                             ("max_error", r.error_max)]

    def test_every_eigenvalue_smallest_first_then_its_errors(self):
        # krasnov2 at n = 5 has two roots in its bracket
        r = registry.solve_entry("krasnov2", 5)
        values = sorted(value for value, _sub in r.eigen)
        smallest = min(r.eigen, key=lambda p: p[0])[1]
        assert len(values) == 2
        assert registry.solve_metrics(r) == [
            ("eigenvalue", values[0]), ("eigenvalue", values[1]),
            ("l2_norm_error", smallest.error_l2), ("max_error", smallest.error_max)]

    def test_empty_bracket_gives_one_blank_eigenvalue(self):
        r = registry.solve_entry("krasnov2", 5, bracket=(5.0, 10.0))
        assert registry.solve_metrics(r) == [("eigenvalue", None)]

    @pytest.mark.parametrize("pid,want", [("krasnov1", []), ("krasnov2", ["eigenvalue"] * 2)])
    def test_no_reference_gives_no_errors(self, pid, want):
        problem = dataclasses.replace(registry.get_problem(pid), reference=None)
        assert [m for m, _v in registry.solve_metrics(solve(problem, 5))] == want


class TestComputeCell:
    def test_external_cells_not_computed(self):
        cell = registry.TABLES[3][0]
        assert cell.check == "external"
        assert registry.compute_cell(cell) is None

    def test_eigenvalue_cell(self):
        cell = registry.TableCell("krasnov2", 5, "eigenvalue", -3.21785, "sigfigs4")
        got = registry.compute_cell(cell)
        assert registry.cell_passes(cell, got)

    @pytest.mark.parametrize("metric", ["eigenvalue", "l2_norm_error", "max_error"])
    def test_eigen_cells_read_the_smallest_value(self, metric):
        # krasnov2 at n = 5 has two roots in its bracket
        value, sub = min(registry.solve_entry("krasnov2", 5).eigen, key=lambda p: p[0])
        want = {"eigenvalue": value, "l2_norm_error": sub.error_l2,
                "max_error": sub.error_max}[metric]
        assert registry.compute_cell(registry.TableCell("krasnov2", 5, metric, 1.0)) == want

    def test_interpolation_cell(self):
        cell = registry.TableCell("abs", 10, "squared_l2_error", 2.6e-3)
        got = registry.compute_cell(cell)
        assert got == pytest.approx(0.2**2 / 15, rel=1e-10)  # exact closed form

    def test_bad_metric_rejected(self):
        with pytest.raises(ValueError):
            registry.compute_cell(registry.TableCell("abs", 4, "nonsense", 1.0))
