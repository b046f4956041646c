"""Set-up probe: a fresh interpreter imports quadspline and runs one op.

Usage: python3 perfbench/probe.py '<JSON list of CLI argument lists>'

Prints "done" once the op has finished, so the parent can time the span
from interpreter start to the end of the first op. Exits non-zero if any
command fails.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

from workloads import load_quadspline

load_quadspline(Path.cwd())
from quadspline import cli  # noqa: E402

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        sys.exit(f"probe: {' '.join(argv)} exited with {rc}")
print("done", flush=True)
