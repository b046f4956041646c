import dataclasses

import numpy as np
import pytest

from quadspline import InvalidDomainError, registry


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

    def test_reference_is_required(self, monkeypatch):
        monkeypatch.setitem(registry.PROBLEMS, "krasnov1", dataclasses.replace(
            registry.PROBLEMS["krasnov1"], reference=None))
        with pytest.raises(AssertionError, match="entry 'krasnov1': no reference solution"):
            registry.verify_reference_solutions()

    def test_reference_solutions_satisfy_their_equations(self):
        registry.verify_reference_solutions()

    def test_nan_reference_fails_the_self_check(self, monkeypatch):
        entry = registry.PROBLEMS["krasnov3"]
        exact = entry.reference

        def reference(x):
            return np.where(x == 0.5, np.nan, exact(x))

        monkeypatch.setitem(registry.PROBLEMS, "krasnov3",
                            dataclasses.replace(entry, reference=reference))
        with pytest.raises(AssertionError,
                           match=r"entry 'krasnov3'.* at x=0\.5 \(residual nan\)"):
            registry.verify_reference_solutions()

    @pytest.mark.parametrize("pid", sorted(registry.PROBLEMS))
    def test_shifted_reference_fails_the_self_check(self, monkeypatch, pid):
        entry = registry.PROBLEMS[pid]
        exact = entry.reference
        monkeypatch.setitem(registry.PROBLEMS, pid, dataclasses.replace(
            entry, reference=lambda x: exact(x) + 1e-6))
        with pytest.raises(AssertionError, match=rf"entry '{pid}'.* at x="):
            registry.verify_reference_solutions()

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
        cell = registry.TableCell("x", 1, "m", 1.0, "sigfigs5")
        with pytest.raises(ValueError, match="unknown check kind 'sigfigs5'"):
            registry.cell_passes(cell, 1.0)

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
