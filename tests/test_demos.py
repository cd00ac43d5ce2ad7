"""Smoke test: every script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapscope

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(gapscope.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if script.startswith("02_"):
        assert proc.stdout == (Path(__file__).parent / "data" / "demo02_stdout.txt").read_text()
    if script.startswith("04_"):
        assert "Builtin ledger: 43/43 claims hold" in proc.stdout
