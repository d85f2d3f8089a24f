"""Smoke test of the narrative demos: each runs to completion.

The demos read the library's public surface (fusion state fields,
gradient audit, training results), so a change there that breaks one
shows up here.  Each runs in its own interpreter, as a reader would
run it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name", ["ccc_metric", "corruption_robustness", "fusion_modes", "gradient_check", "training_walkthrough"]
)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT / "demos",
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
