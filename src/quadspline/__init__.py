"""Explicit variational quadratic splines and integral-equation solvers.

The interpolating spline needs no linear solve: its piece coefficients come
in closed form from one prefix sum over the second differences, in O(n).
On top of it sit one collocation solver, `solve(problem, n, rule=None)`,
for Fredholm (second-kind and eigenvalue) and Volterra (second- and
first-kind) equations, a benchmark registry, and a CLI (`quadspline`) that
reproduces the published error tables. Everything is numpy; there is no compiled extension.
"""
from .core import (Grid, InvalidDomainError, OutOfDomainError, ScalarFunction,
                   make_grid, sample)
from .integral_eq import (DegenerateProblemError, IntegralProblem, Kernel,
                          SolveReport, solve)
from .linsolve import (EigenResult, SingularMatrixError, find_real_eigenvalues,
                       solve_dense)
from .quadrature import (QuadratureRule, gauss_legendre, integrate_panels,
                         l2_error, max_error)
from .spline import (ConvergenceRecord, ConvergenceReport, SplineModel,
                     build_spline, coeffs_closed_form, convergence_study,
                     fluctuation_energy, second_differences)

__version__ = "0.1.0"

__all__ = [
    "Grid", "InvalidDomainError", "OutOfDomainError", "ScalarFunction",
    "make_grid", "sample",
    "SplineModel", "ConvergenceRecord", "ConvergenceReport",
    "second_differences", "coeffs_closed_form", "build_spline",
    "fluctuation_energy", "convergence_study",
    "QuadratureRule", "gauss_legendre", "integrate_panels", "l2_error",
    "max_error",
    "SingularMatrixError", "EigenResult", "solve_dense", "find_real_eigenvalues",
    "Kernel", "IntegralProblem", "SolveReport", "DegenerateProblemError", "solve",
    "__version__",
]
