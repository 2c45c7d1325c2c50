"""Byte-for-byte CLI output on the exact demo files, and scenario round trips.

``golden/cli_records.txt`` holds the records output of every exact CLI
invocation over ``demos/data/``, with the ``elapsed_ms`` record dropped.
The quantum files (``chsh_fixed_settings``, ``singlet.model``) are left
out because their float entries depend on the BLAS build.  To rewrite
the golden file after an intended output change, run from the repo root:

    PYTHONPATH=src:tests python -c "import test_cli_golden as g; g.GOLDEN.write_text(g.golden_text())"
"""

import io
import os
from fractions import Fraction
from pathlib import Path

import pytest

from ci_engine import cli, fileformat, nogo

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_records.txt"

F = Fraction

EXACT_DIAGRAMS = (
    "coin_dynamics.diagram",
    "omelette_constants.diagram",
    "omelette_reversible.diagram",
)

INVOCATIONS = (
    [[cmd, name] for cmd in ("eval", "normal-form", "qnf") for name in EXACT_DIAGRAMS]
    + [
        ["equiv", "omelette_constants.diagram", "omelette_reversible.diagram"],
        ["verify-axioms", "--max-carrier", "2"],
        ["bell-check", "--corr", "pr_box.correlation"],
    ]
    + [
        ["simplex-embed", "--fragment", f"{name}.fragment"]
        for name in ("bit", "hexagon", "octahedron")
    ]
    + [
        ["rep-check", "--rep", "bit_flip.rep", "--diagram", "coin_dynamics.diagram"],
        [
            "rep-check",
            "--rep",
            "bit_flip.rep",
            "--diagram",
            "coin_dynamics.diagram",
            "--leibniz-pairs",
            "prepare_then_sure_id.pairs",
        ],
    ]
)


def _render(argv):
    """One invocation's exit code and records, ``elapsed_ms`` dropped.

    Paths are given relative to ``demos/data`` so that the ``file``
    fields do not depend on where the repository is checked out.
    """
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(argv + ["--format", "records"], out=out, err=err)
    lines = [line for line in out.getvalue().splitlines() if "elapsed_ms:" not in line]
    return "\n".join([f"$ {' '.join(argv)}", f"exit {code}", *lines, err.getvalue()])


def golden_text():
    here = os.getcwd()
    os.chdir(DATA)
    try:
        return "".join(_render(argv) for argv in INVOCATIONS)
    finally:
        os.chdir(here)


def test_cli_records_match_the_golden_file(monkeypatch):
    monkeypatch.chdir(DATA)
    want = GOLDEN.read_text(encoding="utf-8").split("$ ")[1:]
    assert len(want) == len(INVOCATIONS)
    for argv, expected in zip(INVOCATIONS, want):
        assert "$ " + expected == _render(argv), " ".join(argv)


def _uniform(s):
    n = len(s.outcomes())
    return nogo.tabulate(s, lambda o, c: F(1, n))


@pytest.mark.parametrize(
    "spec, scenario",
    [
        ("bell:2,3,2,2", nogo.Bell(2, 3, 2, 2)),
        ("instrumental:3,2,2", nogo.Instrumental(3, 2, 2)),
        ("prepare-measure:3,2,2,2", nogo.PrepareMeasure(3, 2, 2, 2)),
        ("triangle:2,3,2,3", nogo.Triangle(2, 3, 2, 3)),
    ],
)
def test_each_scenario_kind_round_trips(spec, scenario):
    corr = _uniform(scenario)
    blob = fileformat.dump_correlation(corr)
    back = fileformat.load_correlation(blob)
    assert back == corr
    assert fileformat.dump_correlation(back) == blob
    assert cli._parse_scenario(spec) == back.scenario
