import json
import os
import subprocess
import sys
from pathlib import Path

import quadspline

PUBLIC = [
    "Grid", "InvalidDomainError", "OutOfDomainError", "ScalarFunction",
    "make_grid", "sample",
    "SplineModel", "ConvergenceRecord", "ConvergenceReport",
    "second_differences", "coeffs_closed_form", "build_spline",
    "fluctuation_energy", "convergence_study",
    "QuadratureRule", "gauss_legendre", "integrate_panels", "l2_error",
    "max_error",
    "SingularMatrixError", "EigenResult", "solve_dense", "find_real_eigenvalues",
    "Kernel", "IntegralProblem", "SolveReport", "DegenerateProblemError",
    "assemble_fredholm", "solve_fredholm", "solve_fredholm_eigen",
    "solve_volterra2", "solve_volterra1",
    "__version__",
]

# reference implementations that live in tests/oracles.py, not the package
ORACLES = ("CoeffMatrix", "coefficient_matrix", "coeffs_by_recursion",
           "optimal_first_coefficient", "determinant", "kernel_piece_weights")


def run_fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this quadspline."""
    env = dict(os.environ)
    src = str(Path(quadspline.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip()


def test_import_does_not_load_scipy():
    # importing scipy.linalg alone costs about as much as the whole package
    # setup; numpy.linalg covers every factorization the package needs
    assert run_fresh("import sys, quadspline; print('scipy' in sys.modules)") == "False"


def test_public_names_are_pinned():
    assert len(PUBLIC) == 33
    assert quadspline.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(quadspline, name) is not None


def test_oracles_are_not_in_the_package():
    # the CLI imports every module of the package
    code = ("import json, sys, quadspline.cli\n"
            "mods = {m: v for m, v in sys.modules.items() if m.split('.')[0] == 'quadspline'}\n"
            f"hits = [f'{{m}}.{{n}}' for m in mods for n in {ORACLES!r} if hasattr(mods[m], n)]\n"
            "print(json.dumps([sorted(mods), hits]))")
    loaded, hits = json.loads(run_fresh(code))
    files = Path(quadspline.__file__).parent.glob("*.py")
    assert loaded == sorted(f"quadspline.{p.stem}".removesuffix(".__init__") for p in files)
    assert hits == []
