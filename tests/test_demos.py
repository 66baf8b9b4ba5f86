"""Each demo's stdout is pinned byte for byte against tests/golden/demos/."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"

# the last line reports the plot, which depends on whether matplotlib is installed
_PLOT_LINE = ("plot saved", "matplotlib not available")


def demo_stdout(script: Path, workdir: Path) -> str:
    """Run a copy of the demo in a fresh interpreter, so any plot lands in `workdir`."""
    copy = workdir / script.name
    shutil.copy(script, copy)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(copy)],
        capture_output=True,
        text=True,
        cwd=workdir,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    lines = done.stdout.splitlines(keepends=True)
    if lines and lines[-1].startswith(_PLOT_LINE):
        lines.pop()
    return "".join(lines)


def test_every_demo_has_a_golden():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_stdout_matches_golden(script, tmp_path):
    assert demo_stdout(script, tmp_path) == (GOLDEN / f"{script.stem}.txt").read_text()
