"""Each demo prints its committed output.

``golden/demos/<name>.out`` holds the stdout of ``demos/<name>.py`` run
from the repo root.  To rewrite one after an intended output change:

    PYTHONPATH=src python demos/<name>.py > tests/golden/demos/<name>.out
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_output():
    golden = sorted(p.stem for p in (ROOT / "tests" / "golden" / "demos").glob("*.out"))
    assert golden == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_a_demo_prints_its_golden_output(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.out").read_text()
