"""The traced benchmark still installs on the package as it stands.

perfbench/tracer.py wraps package functions and suites by name; a renamed or
deleted one would only show when a traced benchmark round runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import tracer
from digitsquares.suites import SUITES
missing = [name for name in tracer.SUITE_NAMES if name not in SUITES]
assert not missing, missing
tracer.Tracer().install()
"""


def test_tracer_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
