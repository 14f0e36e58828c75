"""The benchmark's self-test: each output check passes clean outputs and
catches a corrupted copy. It leans on library behaviour (region equality,
a region's cells), so it runs with the tier-1 suite."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_reports_no_problems():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["problems"] == 0
