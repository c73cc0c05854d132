"""Importing the package and its entry modules does not load scipy.

Only the transient solver uses scipy (``lu_factor`` / ``lu_solve``),
and it imports them where it factors and pre-solves, so every run that
never steps a transient starts without scipy's import time and memory.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = (
    "repro",
    "repro.service",
    "repro.core.virusgen",
    "repro.ga.parallel",
    "repro.stability.vmin",
    "repro.io.serialization",
)


def test_importing_repro_does_not_load_scipy():
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in MODULES)
        + "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        + "assert 'scipy' not in sys.modules, sorted(loaded)[:5]\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr

