"""Mutation check: deliberate one-line breaks of the code that the tests must catch.

Each entry of MUTANTS is (file, exact old text, new text, pytest node ids).
`python tests/mutants.py` first runs every listed test on an untouched
temporary copy of src, where all must pass, then applies one entry at a
time to that copy and runs only that entry's tests on it. A mutant is
killed when at least one of them fails; the run exits non-zero when a
mutant survives, when the tests fail or error otherwise, or when an old
text, here or in EQUIVALENT, does not occur exactly once in its file, so
that a change to the code must update the list.

Each pytest run is a child forked from this process, which has imported
numpy, pytest and hypothesis but never quadspline: the child puts the
copy of src first on sys.path, runs pytest.main and exits with its
status, so no run pays for a fresh interpreter and those imports. BLAS
is held to one thread, since forking after its threads start is unsafe.
The runs are made from a temporary working directory, where hypothesis
is imported, so hypothesis's example database in the repository never
stores a mutant's failures.

EQUIVALENT lists mutants that no test can kill, because the program
behaves the same with them, each with the reason; they are checked for
the exactly-once rule but not run.
"""
from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported
# no bytecode is cached, so a mutant of the same length as its old text is
# never run from the cache of the text it replaced
sys.dont_write_bytecode = True
import numpy  # noqa: E402,F401  (imported once, for every child)
import pytest  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
CORE = "src/quadspline/core.py"
OPERATOR = "src/quadspline/integral_eq.py"
QUADRATURE = "src/quadspline/quadrature.py"
SPLINE = "src/quadspline/spline.py"
LINSOLVE = "src/quadspline/linsolve.py"
LAGRANGE = "src/quadspline/lagrange.py"
CLI = "src/quadspline/cli.py"
POLICY = "tests/test_core.py::TestCallPolicy::"
ROWS = "tests/test_integral_eq.py::TestIntegralOperator::"
V1 = "tests/test_integral_eq.py::TestSolveVolterra1::"
EIGEN = "tests/test_linsolve.py::TestFindRealEigenvalues::"
DENSE = "tests/test_linsolve.py::TestSolveDense::"
PANELS = "tests/test_quadrature.py::TestIntegratePanels::"
L2 = "tests/test_quadrature.py::TestL2Error::"
MAX = "tests/test_quadrature.py::TestMaxError::"

MUTANTS = [
    # eval_many retries the package's own callables point by point
    (CORE, 'if isinstance(home, str) and home.partition(".")[0] == __package__:',
     "if False:",
     [POLICY + "test_array_callable_defect_raises_after_one_call[eval_many]",
      POLICY + "test_array_callable_defect_raises_after_one_call[l2_error approx]",
      POLICY + "test_where_a_function_is_defined_decides_the_retry[registry]",
      "tests/test_spline.py::test_array_path_defect_fails_at_once"]),
    # a module that merely starts with the package's name counts as inside
    (CORE, 'home.partition(".")[0] == __package__', "home.startswith(__package__)",
     [POLICY + "test_where_a_function_is_defined_decides_the_retry[lookalike]"]),
    # the package's domain errors are retried point by point
    (CORE, "except (OutOfDomainError, InvalidDomainError):", "except ():",
     [POLICY + "test_out_of_domain_raises_after_one_call",
      POLICY + "test_invalid_domain_raises_after_one_call"]),
    # an array from a per-point call left to float()'s TypeError
    (CORE, "if wrong is None:", "if True:",
     ["tests/test_core.py::TestEvalMany::test_array_at_a_single_point_is_named[constant_array]",
      "tests/test_integral_eq.py::TestSolveFredholm::"
      "test_kernel_that_gives_an_array_per_point_is_named"]),
    # a result of the wrong shape taken whenever it broadcasts
    (CORE, "if vals.ndim and all(vals.shape != a.shape for a in args):", "if False:",
     ["tests/test_core.py::TestEvalMany::test_array_at_a_single_point_is_named"
      "[broadcastable_array]",
      "tests/test_integral_eq.py::TestSolveFredholm::"
      "test_kernel_that_gives_an_array_per_point_is_named[3]"]),
    # a write into a read-only argument is retried point by point
    (CORE, 'if "read-only" in str(exc) and not all(a.flags.writeable for a in args):',
     "if False:",
     [POLICY + "test_kernel_writing_into_shared_node_stack_refused"]),
    # empty pieces keep the rows of a full piece
    (OPERATOR, "np.copyto(lrq, 0.0, where=empty)", "None",
     [ROWS + "test_empty_pieces_never_write_into_the_kernel_result[returns_s]",
      ROWS + "test_kernel_is_never_called_beyond_the_row_limit[nan-unsorted_nodes]",
      "tests/test_integral_eq.py::TestSolveVolterra2::test_product_kernel_benchmark"]),
    # the empty mask one piece short: each row's last reached piece zeroed
    (OPERATOR, "empty = count[:p] > r", "empty = count[:p] >= r",
     [ROWS + "test_rows_match_summed_piece_weights[3-polynomial-causal]",
      "tests/test_properties.py::test_operator_rows_match_summed_piece_weights[volterra]"]),
    # a 1e-9 asymmetry in W: each piece's left-node row scaled, so that the
    # mirror image of a row is no longer a row
    (OPERATOR, "Wb[:, :p] += left", "Wb[:, :p] += left * (1.0 + 1e-9)",
     ["tests/test_properties.py::test_solve_conserves_parity[even]",
      "tests/test_properties.py::test_solve_conserves_parity[odd]"]),
    # empty pieces left at their own nodes, beyond the row's limit
    (OPERATOR, "np.copyto(s, nodes[r], where=empty)", "None",
     [ROWS + "test_kernel_is_never_called_beyond_the_row_limit[raises-causal]",
      ROWS + "test_kernel_is_never_called_beyond_the_row_limit[raises-tail]",
      ROWS + "test_kernel_is_never_called_beyond_the_row_limit[raises-unsorted_nodes]"]),
    # a block of rows that reach one piece takes one column, which BLAS's
    # matrix-vector routine rounds differently
    (OPERATOR, "widest = np.maximum(reach, 2)", "widest = np.maximum(reach, 1)",
     [ROWS + "test_one_piece_rows_are_the_same_alone_or_in_a_wide_block[3]",
      ROWS + "test_one_piece_rows_are_the_same_alone_or_in_a_wide_block[8]"]),
    # the shared node stack copied per row instead of broadcast read-only
    (OPERATOR, "s = np.broadcast_to(shared[:, :, :p], (q, max_rows, p))",
     "s = np.broadcast_to(shared[:, :, :p], (q, max_rows, p)).copy()",
     [ROWS + "test_shared_limit_hands_the_kernel_one_broadcast_stack",
      POLICY + "test_kernel_writing_into_shared_node_stack_refused"]),
    # a shared count of 1 sent down the shared path: its blocks take one
    # piece, and a block of one row one column, which BLAS's matrix-vector
    # routine rounds differently
    (OPERATOR, "per_row = reach.ndim > 0 or reach < 2", "per_row = reach.ndim > 0 or reach < 1",
     [ROWS + "test_shared_limit_hands_the_kernel_one_broadcast_stack",
      ROWS + "test_one_piece_rows_are_the_same_alone_or_in_a_wide_block[3]"]),
    # the weights without their h: every row of a piece's width other than 1 wrong
    (OPERATOR, "weights = h * rule._piece_rows", "weights = rule._piece_rows",
     [ROWS + "test_rows_match_summed_piece_weights[8-polynomial-full]",
      ROWS + "test_rows_match_summed_piece_weights[8-polynomial-causal]"]),
    # a piece count outside 0..n taken: a negative one gives a row of zeros
    (OPERATOR, "if reach.size and not (reach.min() >= 0 and reach.max() <= n):", "if False:",
     [ROWS + "test_count_outside_0_to_n_is_refused[negative]",
      ROWS + "test_count_outside_0_to_n_is_refused[above_n_first]"]),
    # a W, or an A = I - lam W, that is not finite passed on to the solve
    (OPERATOR, "if not np.abs(W).sum(axis=1).max() < np.inf:", "if False:",
     [V1 + "test_operator_that_overflows_is_refused_by_name_without_warning",
      "tests/test_integral_eq.py::TestSolveFredholm::"
      "test_system_that_overflows_is_refused_by_name_without_warning"]),
    # a finite W whose row sums overflow passed on to the eigen search,
    # which refuses it without naming the problem
    (OPERATOR, "np.abs(W).sum(axis=1).max() < np.inf", "np.isfinite(W).all()",
     ["tests/test_properties.py::test_scaled_registry_problem_solves_or_names_the_bad_input"]),
    # a forcing that is not finite left for the solve to name by its row
    (OPERATOR, "f = checked_samples(grid, sample(problem.forcing, grid))",
     "f = sample(problem.forcing, grid)",
     ["tests/test_integral_eq.py::TestProblemValidation::"
      "test_forcing_that_is_not_finite_is_named_by_node[fredholm2]",
      "tests/test_integral_eq.py::TestProblemValidation::"
      "test_forcing_that_is_not_finite_is_named_by_node[volterra2]"]),
    # A = I - lam W formed in place without its identity
    (OPERATOR, "W.flat[::grid.n + 2] += 1.0", "pass",
     ["tests/test_integral_eq.py::TestSolveFredholm::test_zero_lambda_passthrough",
      "tests/test_integral_eq.py::TestSolveVolterra2::test_zero_lambda_passthrough"]),
    # a causal solve without y_0 (1, w): Volterra-2's y_0 = f_0 dropped
    (OPERATOR, 'if problem.kind == "volterra1" else f[0]',
     'if problem.kind == "volterra1" else 0.0',
     ["tests/test_integral_eq.py::TestSolveVolterra2::test_zero_lambda_passthrough",
      "tests/test_integral_eq.py::TestSolveVolterra2::test_data_scaled_up_solves[krasnov3-73-5]"]),
    # the trailing system's column 0 moved to the right-hand side without
    # its change of sign
    (OPERATOR, "-W[1:, 0]", "W[1:, 0]",
     ["tests/test_integral_eq.py::TestSolveVolterra2::"
      "test_rational_kernel_benchmark[5-0.00093-6.1e-05]",
      V1 + "test_constant_solution_benchmark[5-1.4e-09-6.3e-09]"]),
    # a bracket end that is not finite accepted by the problem
    (OPERATOR, "if not math.isfinite(end):", "if False:",
     ["tests/test_integral_eq.py::TestProblemValidation::"
      "test_bracket_end_that_is_not_finite_refused[both]"]),
    # the Volterra-1 closure without its part of the last piece
    (OPERATOR, "Kw = eval_many(problem.kernel, x, s) * (part * rule.weights)",
     "Kw = 0.0 * eval_many(problem.kernel, x, s)",
     [V1 + "test_closure_integrates_its_part_of_the_last_piece[affine-gauss8]",
      V1 + "test_closure_integrates_its_part_of_the_last_piece[krasnov4-gauss2]"]),
    # the closure's nodes on its part of the last piece left unclipped
    (OPERATOR, "s = np.minimum(last + part * (1.0 + rule.nodes), x)",
     "s = last + part * (1.0 + rule.nodes)",
     [V1 + "test_closure_integrates_its_part_of_the_last_piece[affine-lobatto3]"]),
    # the closure's absolute cutoff restored: a problem on a short interval
    # is refused
    (OPERATOR, "den > 0.0", "den > 1e-14",
     [V1 + "test_interval_scaled_by_a_power_of_two_gives_the_same_samples[5]"]),
    # the report's squared deviation that is NaN between the nodes taken
    # as an error of NaN
    (OPERATOR, "if math.isnan(e2):", "if False:",
     ["tests/test_integral_eq.py::TestSolveFredholm::"
      "test_reference_that_is_nan_between_the_nodes_is_refused"]),
    # the report's nodal deviation taken with its overflow warning let out
    (OPERATOR, 'with np.errstate(over="ignore"):  # a deviation that overflows',
     'with np.errstate():  # a deviation that overflows',
     ["tests/test_integral_eq.py::TestSolveFredholm::"
      "test_nodal_deviation_that_overflows_is_refused_without_warning"]),
    # the closure's overflow warnings let out
    (OPERATOR, '@np.errstate(over="ignore", invalid="ignore")\ndef _volterra1', "def _volterra1",
     [V1 + "test_closure_that_overflows_is_refused_without_warning[defect_overflows]",
      V1 + "test_closure_that_overflows_is_refused_without_warning[endpoint_value_overflows]"]),
    # the closure's defects squared at the data's own scale, which under- or
    # overflows
    (OPERATOR, "defect_u, defect_w = np.ldexp(defect_u, -e), np.ldexp(defect_w, -e)", "pass",
     [V1 + "test_data_scaled_by_a_power_of_two_gives_the_same_samples[21]",
      V1 + "test_interval_scaled_by_a_power_of_two_gives_the_same_samples[5]"]),
    # equispaced points without their underflow branch: k * 0 + lo when the
    # step underflows
    (QUADRATURE, "if step == 0:", "if False:",
     ["tests/test_properties.py::test_panel_points_are_the_linspace_form_bit_for_bit",
      "tests/test_quadrature.py::TestStreamedMesh::test_blocks_are_the_linspace_bit_for_bit"]),
    # the overflow warnings of an integrand and its sums left to escape
    (QUADRATURE, '@np.errstate(over="ignore", invalid="ignore")\ndef _integral', "def _integral",
     [PANELS + "test_finite_integral_whose_sums_overflow_is_finite[sums_overflow]"]),
    # a sum that overflows never taken again scaled
    (QUADRATURE, "if not math.isfinite(total) and np.isfinite(vals).all():", "if False:",
     [PANELS + "test_finite_integral_whose_sums_overflow_is_finite[sums_overflow]",
      L2 + "test_finite_integral_whose_squares_overflow_is_finite[squares_overflow]"]),
    # the half-widths left unscaled: a subnormal one rounds its panel's sum
    (QUADRATURE, "k = math.frexp(float(half.max()))[1]", "k = 0",
     [PANELS + "test_finite_integral_whose_sums_overflow_is_finite[subnormal_half]"]),
    # a scaled integral of squares scaled back as one of values
    (QUADRATURE, "power * e + k", "e + k",
     [L2 + "test_finite_integral_whose_squares_overflow_is_finite[sums_overflow]"]),
    # an integral beyond the largest double returned as inf
    (QUADRATURE, "if math.isinf(total) or (math.isnan(total) and not np.isnan(vals).any()):",
     "if False:",
     [PANELS + "test_integral_beyond_a_double_is_refused_by_its_range[1.5e+308]"]),
    # a NaN integrand refused instead of carried through
    (QUADRATURE, "math.isinf(total) or (math.isnan(total) and not np.isnan(vals).any())",
     "not math.isfinite(total)",
     [PANELS + "test_nan_integrand_is_carried_through"]),
    # a NaN squared deviation carried through by l2_error
    (QUADRATURE, "if math.isnan(total):", "if False:",
     [L2 + "test_deviation_that_is_not_finite_is_refused_by_its_range[nan]"]),
    # a max deviation that overflows returned as inf, or its warning let out
    (QUADRATURE, "if dev == np.inf:", "if False:",
     [MAX + "test_deviation_that_is_not_finite_is_refused_by_its_range[difference_overflows]"]),
    (QUADRATURE, 'with np.errstate(over="ignore", invalid="ignore"):\n        for start',
     "with np.errstate():\n        for start",
     [MAX + "test_deviation_that_is_not_finite_is_refused_by_its_range[difference_overflows]"]),
    # panel_points without its range check: a width that overflows warns,
    # and ends out of order give points
    (QUADRATURE, "_check_range(lo, hi)\n    edges = _equispaced(", "edges = _equispaced(",
     ["tests/test_quadrature.py::TestPanelPoints::test_range_that_is_not_one_is_refused"
      "[width_overflows]",
      "tests/test_quadrature.py::TestPanelPoints::test_range_that_is_not_one_is_refused"
      "[reversed]"]),
    # the panel ends' last index multiplied by the step before hi replaces
    # it: its overflow warning escapes
    (QUADRATURE, "k[-1] = 0.0", "pass",
     ["tests/test_quadrature.py::TestPanelPoints::test_last_end_whose_step_overflows_is_hi"]),
    # eigenvalue clusters broken one value early
    (LINSOLVE, "gaps.nonzero()[0] + 1", "gaps.nonzero()[0]",
     ["tests/test_properties.py::test_merged_roots_are_the_split_form_bit_for_bit"]),
    # the merge gap absolute for roots below 1: a pair of roots scaled down
    # merges into its mean
    (LINSOLVE, "1e-6 * np.abs(lams[:-1])", "1e-6 * (1.0 + np.abs(lams[:-1]))",
     [EIGEN + "test_scaled_pair_of_roots_is_exact[20]",
      "tests/test_properties.py::test_merged_roots_are_the_split_form_bit_for_bit"]),
    # the residual test without |lambda|: roots of a scaled-down alpha refused
    (LINSOLVE, "1e-8 * abs(lam) * norm", "1e-8 * norm",
     [EIGEN + "test_scaled_pair_of_roots_is_exact[-300]",
      EIGEN + "test_scaled_krasnov2_gives_the_scaled_roots[5]"]),
    # the two-grid's rho without ||B|| in its E term: a system whose
    # remainder makes it singular certified
    (LINSOLVE, "rho = (1 + g) * (b_norm * e_norm + t_norm * mc_norm)",
     "rho = (1 + g) * (e_norm + t_norm * mc_norm)",
     ["tests/test_linsolve.py::TestSolveDense::"
      "test_two_grid_refuses_a_system_its_remainder_makes_singular"]),
    # the two-grid's rho without its P (I - Z S) M_c term: a wrong inverse
    # of S certified
    (LINSOLVE, "rho = (1 + g) * (b_norm * e_norm + t_norm * mc_norm)",
     "rho = (1 + g) * (b_norm * e_norm)",
     ["tests/test_linsolve.py::TestSolveDense::test_two_grid_is_sound_for_a_wrong_inverse_of_s",
      "tests/test_linsolve.py::TestSolveDense::test_stalled_two_grid_solve_falls_back_to_lu"]),
    # eigenvalues at rounding level inverted into roots
    (LINSOLVE, "size > (len(alpha) + 1) * _EPS * norm", "size > 0",
     ["tests/test_integral_eq.py::TestSolveFredholmEigen::"
      "test_constant_kernel_has_one_root_at_any_scale[1e+300]"]),
    # every certificate judged at a quarter of RCOND_MIN: a diagonal system
    # just inside the gate certified by Varah's bound and solved without it
    (LINSOLVE, "gate = 2.0 * RCOND_MIN * (norm + slack)",
     "gate = 0.25 * RCOND_MIN * (norm + slack)",
     ["tests/test_linsolve.py::TestSolveDense::test_gate_boundary_is_cond_inf[diag-0.999999]",
      "tests/test_linsolve.py::TestSolveDense::test_gate_boundary_is_cond_inf[permuted-0.999999]"]),
    # Varah's margin as 2|a_ii| - r_i, which overflows to inf for |a_ii|
    # above half the largest double: a system of 1/cond_inf 2^-49 certified
    (LINSOLVE, "2.0 * (np.abs(A.diagonal()) - 0.5 * rows).min()",
     "(2.0 * np.abs(A.diagonal()) - rows).min()",
     [DENSE + "test_margin_near_the_largest_double_does_not_overflow"]),
    # a finite A whose row sums overflow carried on to the certificates and
    # the inverse path's LU, which reads rcond 0 only after it
    (LINSOLVE, 'raise SingularMatrixError(f"1/cond_inf(A) = 0 <= {RCOND_MIN}: '
     '||A||_inf overflows")', "pass",
     [DENSE + "test_matrix_is_scanned_only_when_its_row_sums_are_not_finite[row_sums_overflow]"]),
    # an alpha whose norm overflows searched with an infinite tolerance,
    # and one that is not finite handed to LAPACK unnamed
    (LINSOLVE, "if not math.isfinite(norm):", "if False:",
     [EIGEN + "test_alpha_whose_norm_overflows_refused_without_warning",
      EIGEN + "test_non_finite_alpha_named"]),
    # an A that is not finite taken on to the solve unnamed
    (LINSOLVE, "if not norm < np.inf:", "if False:",
     [DENSE + "test_non_finite_matrix_named[nan]",
      DENSE + "test_non_finite_matrix_named[inf]"]),
    # the two-grid never tried: certified Fredholm-2 systems take the
    # inverse path's n + 1 extra columns
    (LINSOLVE, "if not gate * bound < 1.0 and n >= _TWO_GRID_MIN_N:", "if False:",
     [DENSE + "test_dominant_systems_skip_the_inverse[krasnov1-False]",
      DENSE + "test_localized_kernels_skip_the_inverse[2.0-cos]"]),
    # B b returned unrefined, whatever its residual
    (LINSOLVE, "if ((np.abs(r).max(axis=0) <= limit) & (limit < np.inf)).all():", "if True:",
     [DENSE + "test_two_grid_certified_x_matches_the_inverse_path[krasnov1]",
      DENSE + "test_overflowing_solution_is_refused_without_warning[two_grid]"]),
    # no LU after refinement steps that miss the residual test
    (LINSOLVE, "return x\n        try:", "return x\n            return x\n        try:",
     [DENSE + "test_stalled_two_grid_solve_falls_back_to_lu",
      DENSE + "test_overflowing_solution_is_refused_without_warning[two_grid]"]),
    # refinement by the residual alone, without its P (V r) term
    (LINSOLVE, "x += P @ (V @ r)", "pass",
     [DENSE + "test_dominant_systems_skip_the_inverse[krasnov1-False]",
      DENSE + "test_localized_kernels_skip_the_inverse[2.0-cos]"]),
    # a bracket end that is not finite accepted by the eigen search
    (LINSOLVE, "if not math.isfinite(end):", "if False:",
     [EIGEN + "test_bracket_end_that_is_not_finite_refused[both]"]),
    # a solution taken as finite without its check
    (LINSOLVE, "if np.isfinite(x).all():", "if True:",
     ["tests/test_linsolve.py::TestSolveDense::"
      "test_overflowing_solution_is_refused_without_warning[varah]",
      "tests/test_linsolve.py::TestSolveDense::"
      "test_overflowing_solution_is_refused_without_warning[inverse]"]),
    # Lagrange's points taken as all finite: no node-hit fix-up
    (LAGRANGE, "if not finite.all():", "if False:",
     ["tests/test_lagrange.py::test_node_hit_returns_sample_exactly",
      "tests/test_lagrange.py::test_node_hit_in_a_later_block_returns_sample_exactly"]),
    # the node-hit fix-up dropped: a point on a node refused
    (LAGRANGE, "out[bad[hit]] = values[j[hit]]", "pass",
     ["tests/test_lagrange.py::test_node_hit_returns_sample_exactly",
      "tests/test_lagrange.py::test_node_hit_in_a_later_block_returns_sample_exactly"]),
    # Lagrange's sums over the even nodes first, then the odd: the same-sign
    # grouping whose cancellation the node order avoids
    (LAGRANGE, "for xj, wj, yj in terms:", "for xj, wj, yj in terms[::2] + terms[1::2]:",
     ["tests/test_lagrange.py::test_sums_run_in_node_order_bit_for_bit[100]",
      "tests/test_lagrange.py::test_cancelling_sums_stay_accurate[100-2e-12]",
      "tests/test_lagrange.py::test_cancelling_sums_stay_accurate[200-1e-06]"]),
    # Lagrange's denominator summing w_j y_j / (x - x_j), the numerator's terms
    (LAGRANGE, "den += t\n                t *= yj", "t *= yj\n                den += t",
     ["tests/test_lagrange.py::test_matches_per_point_reference[10]",
      "tests/test_lagrange.py::test_sums_run_in_node_order_bit_for_bit[20]"]),
    # the closed form without its mean removal
    (SPLINE, "c -= np.add.reduce(c, axis=0) / n", "pass",
     ["tests/test_spline.py::TestCoefficientPaths::test_closed_form_matches_recursion",
      "tests/test_properties.py::test_closed_form_is_the_mean_form_bit_for_bit[None]"]),
    # the transposed closed form without the sign of every other second
    # difference
    (SPLINE, "out=r[:, :0:-1])\n    r[:, 1::2] *= -1.0", "out=r[:, :0:-1])",
     ["tests/test_spline.py::TestCoefficientMatrix::test_adjoint_is_product_with_matrix[7]",
      ROWS + "test_rows_match_summed_piece_weights[8-polynomial-full]"]),
    # the adjoint's flat scatter without its third update: each row's
    # quadratic moments go to two of their three nodes
    (SPLINE, "flat[2:] += v[:-2]", "pass",
     [ROWS + "test_rows_match_summed_piece_weights[3-constant-full]"]),
    # a run of pieces starting after its first t = k: a node on a grid of
    # exact t takes the piece on its left
    (SPLINE, "edges[1:-1] = t.searchsorted(np.arange(first + 1, last + 1))",
     'edges[1:-1] = t.searchsorted(np.arange(first + 1, last + 1), side="right")',
     ["tests/test_spline.py::test_sorted_input_takes_each_node_from_the_piece_on_its_right"]),
    # the convergence bound without its rounding allowance: an affine
    # target, which deviates by rounding alone, fails it
    (SPLINE, " + 4 * (grid.n + 1) * _EPS * scale", "",
     ["tests/test_spline.py::TestConvergence::test_affine_rounding_within_allowance",
      "tests/test_cli.py::TestConverge::test_linear_within_bound_at_every_n"]),
    # the convergence bound's rounding allowance scaled by max|y_k| alone,
    # without the slopes times the ends' size: an affine target on a
    # narrow interval about its root fails it
    (SPLINE, "scale = np.abs(y).max() + max(abs(a), abs(b)) * np.abs(np.diff(y)).max() / grid.h",
     "scale = np.abs(y).max()",
     ["tests/test_spline.py::TestConvergence::test_affine_rounding_within_allowance"]),
    # the last run's piece left unclipped: sorted points that end at b run
    # one piece beyond the last
    (SPLINE, "min(int(t[-1]), g.n - 1)", "int(t[-1])",
     ["tests/test_spline.py::test_sorted_runs_match_scalar_form_and_gather_bit_for_bit",
      "tests/test_spline.py::test_sorted_input_takes_each_node_from_the_piece_on_its_right"]),
    # a value or slope that overflows returned as inf, its warning let out
    (SPLINE, 'with np.errstate(over="raise"):', "with np.errstate():",
     ["tests/test_spline.py::TestSplineModel::test_slope_beyond_the_doubles_named"]),
    # the value at b refused when the power form rounds beyond its sample
    (SPLINE, "if deriv or inner.all():", "if True:",
     ["tests/test_spline.py::TestSplineModel::"
      "test_value_at_b_is_its_sample_where_the_power_form_rounds_beyond_it"]),
    # the power form's c1 without its - a_k w_k
    (SPLINE, "power[1] -= a * (g.nodes[1:] - g.nodes[:-1])", "pass",
     ["tests/test_properties.py::test_power_form_matches_chord_plus_correction",
      "tests/test_properties.py::test_power_rows_are_the_diff_form_bit_for_bit"]),

    # a parser that keeps the last --bracket: each call's bracket becomes the
    # default of the next
    (CLI, "args = build_parser().parse_args(argv)\n",
     "args = build_parser().parse_args(argv)\n    build_parser()._subparsers._group_actions[0]"
     '.choices["solve"].set_defaults(bracket=getattr(args, "bracket", None))\n',
     ["tests/test_cli.py::TestParserReuse::test_bracket_does_not_stick"]),
]

EQUIVALENT = [
    (CORE, 'home = getattr(f, "__module__", None)', 'home = getattr(f, "__module__", "")',
     "a callable without __module__ then has the module name '', which is outside "
     "the package, as a missing one is"),
]


def pytest_status(src: Path, ids: list[str], show: bool = False) -> int:
    """pytest's exit status on `ids`, run in a child forked from this
    process with `src` first on its sys.path; its report is printed only
    when `show`."""
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        status = 3  # pytest's internal error, should pytest.main itself raise
        try:
            if not show:
                os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            sys.path.insert(0, str(src))
            status = int(pytest.main(["-q", "-x", "--tb=short", "-p", "no:cacheprovider",
                                      *(str(REPO / i) for i in ids)]))
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def main() -> int:
    counts = [(file, old, (REPO / file).read_text().count(old))
              for file, old, *_ in MUTANTS + EQUIVALENT]
    misplaced = [c for c in counts if c[2] != 1]
    for file, old, count in misplaced:
        print(f"{file}: {old!r} occurs {count} times, not once")
    if misplaced:
        return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        os.chdir(tmp)
        import hypothesis  # noqa: F401  (its database is under the working directory)
        src = tmp / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every = list(dict.fromkeys(i for *_, ids in MUTANTS for i in ids))
        status = pytest_status(src, every, show=True)
        if status != 0:
            print(f"the listed tests do not pass on the untouched source (pytest exit {status})")
            return 1
        survivors = 0
        for file, old, new, ids in MUTANTS:
            path = src / Path(file).relative_to("src")
            text = path.read_text()
            path.write_text(text.replace(old, new))
            status = pytest_status(src, ids)
            path.write_text(text)
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
            print(f"{verdict:8} {file}: {old!r} -> {new!r}")
            survivors += status != 1
        os.chdir(REPO)
    print(f"{len(MUTANTS)} mutants, {survivors} not killed, {len(EQUIVALENT)} equivalent "
          f"listed, {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
