"""Explicit variational quadratic splines and integral-equation solvers.

The interpolating spline needs no linear solve: its piece coefficients come
in closed form from one prefix sum over the second differences, in O(n).
On top of it sit collocation solvers for Fredholm (second-kind and
eigenvalue) and Volterra (second- and first-kind) equations, a benchmark
registry, and a CLI (`quadspline`) that reproduces the published error
tables. Everything is numpy; there is no compiled extension.
"""
from .core import (Grid, InvalidDomainError, OutOfDomainError, ScalarFunction,
                   make_grid, sample)
from .integral_eq import (DegenerateProblemError, IntegralProblem, Kernel,
                          SolveReport, assemble_fredholm, kernel_piece_weights,
                          solve_fredholm, solve_fredholm_eigen, solve_volterra1,
                          solve_volterra2)
from .linsolve import (EigenResult, SingularMatrixError, determinant,
                       find_real_eigenvalues, solve_dense)
from .quadrature import (QuadratureRule, gauss_legendre, integrate_panels,
                         l2_error, max_error)
from .spline import (CoeffMatrix, ConvergenceRecord, ConvergenceReport,
                     SplineModel, build_spline, coefficient_matrix,
                     coeffs_by_recursion, coeffs_closed_form,
                     convergence_study, fluctuation_energy,
                     optimal_first_coefficient, second_differences)

__version__ = "0.1.0"

__all__ = [
    "Grid", "InvalidDomainError", "OutOfDomainError", "ScalarFunction",
    "make_grid", "sample",
    "SplineModel", "CoeffMatrix", "ConvergenceRecord", "ConvergenceReport",
    "second_differences", "optimal_first_coefficient", "coeffs_by_recursion",
    "coeffs_closed_form", "coefficient_matrix", "build_spline",
    "fluctuation_energy", "convergence_study",
    "QuadratureRule", "gauss_legendre", "integrate_panels", "l2_error",
    "max_error",
    "SingularMatrixError", "EigenResult", "solve_dense", "determinant",
    "find_real_eigenvalues",
    "Kernel", "IntegralProblem", "SolveReport", "DegenerateProblemError",
    "kernel_piece_weights", "assemble_fredholm", "solve_fredholm",
    "solve_fredholm_eigen", "solve_volterra2", "solve_volterra1",
    "__version__",
]
