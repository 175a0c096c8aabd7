"""The benchmark harness's self-test, run as part of the suite.

``perfbench/selftest.py`` wraps public names of ``yukawa_ed`` by name, so a
renamed or removed layer function shows up here as a failing self-test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-tests passed" in proc.stdout
