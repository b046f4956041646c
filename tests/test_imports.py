import os
import subprocess
import sys
from pathlib import Path

import quadspline


def test_import_does_not_load_scipy():
    # importing scipy.linalg alone costs about as much as the whole package
    # setup; numpy.linalg covers every factorization the package needs
    env = dict(os.environ)
    src = str(Path(quadspline.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, quadspline; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
