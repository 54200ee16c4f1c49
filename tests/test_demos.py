"""The demos run from a plain checkout and exit 0.

Each demo runs in its own interpreter with ``src`` on the path and a
scratch directory as the working directory, where it writes its artifacts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_all_four_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
