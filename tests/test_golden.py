"""Byte-identity oracle: CLI output and claim verdicts against the recorded reference.

The commands, the capture helper and the reference file are the benchmark's
own (``perfbench/workloads.py`` and ``perfbench/golden_paper.json``), loaded
read-only, so the test suite and the benchmark check the same outputs.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from xhomotopy import claims

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

GOLDEN = json.loads(workloads.GOLDEN_PATH.read_text())
COMMANDS = [
    argv
    for variants in workloads.paper_catalogue(str(workloads.FIGURES_PATH)).values()
    for argv in variants
]


def test_catalogue_covers_the_reference():
    assert sorted(workloads.cli_key(argv) for argv in COMMANDS) == sorted(GOLDEN["cli"])


@pytest.mark.parametrize("argv", COMMANDS, ids=workloads.cli_key)
def test_cli_output_is_byte_identical(argv):
    code, stdout = workloads.run_cli_captured(argv)
    want = GOLDEN["cli"][workloads.cli_key(argv)]
    assert code == want["exit"]
    assert hashlib.sha256(stdout.encode()).hexdigest() == want["stdout_sha256"]


def test_claim_verdicts_match_the_reference():
    assert workloads.claim_verdicts(claims.verify_all()) == GOLDEN["claims"]
