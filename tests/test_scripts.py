"""The two sweeps under ``scripts/`` print the bytes recorded for them.

Each script runs in-process at a small size and its stdout is compared
with recorded text, so a change to the searches behind them shows as a
changed histogram or count.
"""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

CROSS_CHECK = "60 pairs checked, 11 equivalent, 0 disagreements\n"

CONFLUENCE = """\
100 graphs, confluence violations: 0
deepest fold sequence: 7
stiff-size histogram:
   0 vertices: 10
   1 vertices: 46
   2 vertices: 18
   3 vertices: 9
   4 vertices: 8
   5 vertices: 7
   6 vertices: 2
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["equivalence_cross_check.py", "--pairs", "60"], CROSS_CHECK),
        (["confluence_sweep.py", "--count", "100"], CONFLUENCE),
    ],
)
def test_script_output_is_unchanged(argv, expected, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPTS / argv[0]), run_name="__main__")
    assert capsys.readouterr().out == expected
