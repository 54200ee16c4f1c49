"""The demos run from a plain checkout, exit 0 and print what they printed
when their output digests were recorded.

Each demo runs in its own interpreter with ``src`` on the path and a
scratch directory as the working directory, where it writes its artifacts.
The SHA-256 of each demo's stdout is the ``demos`` entry of
``golden_digests.json``; the demos are seeded, so a changed digest means a
changed result (or changed wording, which must re-record it and say so in
CHANGES.md).  ``tests/test_golden_digests.py`` prints a demo's digest for
re-recording.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())["demos"]


def test_all_four_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]
    assert sorted(GOLDEN) == [d.stem for d in DEMOS]


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    """Run one demo in its own interpreter with ``src`` on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, capture_output=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[demo.stem], proc.stdout.decode()
