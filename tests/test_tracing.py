"""The benchmark's tracer (perfbench/tracing.py) still finds the package.

The tracer wraps package functions and methods by name and raises
LookupError for a name the package no longer has, so a refactor that
renames or deletes one breaks every `perfbench/run.py --trace 1` run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import deszeta, tracing; tracing.install(tracing.Tracer(), deszeta)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
