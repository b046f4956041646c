import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    "Kernel", "IntegralProblem", "SolveReport", "DegenerateProblemError", "solve",
    "__version__",
]

PACKAGE = Path(quadspline.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")

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


def test_solve_does_not_load_numpy_random():
    # importing numpy.random costs about 16 ms and 6 MB; the sketch
    # certificate that krasnov1 takes at n = 200 draws its signs from a hash
    code = ("import contextlib, io, sys\n"
            "from quadspline import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(['solve', '-p', 'krasnov1', '--n', '200'])\n"
            "print(status, 'numpy.random' in sys.modules)")
    assert run_fresh(code) == "0 False"


def test_public_names_are_pinned():
    assert len(PUBLIC) == 29
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


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """Names that the module-level imports of `tree` bind."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def referenced_names(tree):
    """Identifiers `tree` reads: names, attributes and names imported from."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def private_definitions(tree):
    """Module-level functions, classes and assignments named _name."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = parsed(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [n for n in imported_names(tree) if n not in used] == []


def test_every_private_definition_is_referenced():
    trees = {path.stem: parsed(path) for path in MODULES}
    referenced = set().union(*map(referenced_names, trees.values()))
    dead = [f"{stem}.{name}" for stem, tree in trees.items()
            for name in private_definitions(tree) if name not in referenced]
    assert dead == []
