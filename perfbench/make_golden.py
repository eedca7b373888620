#!/usr/bin/env python3
"""Record the reference outputs that the paper-suites oracle compares against.

For every CLI variant in the paper-suites catalogue this stores the exit code
and the SHA-256 of stdout, plus the claimId -> verdict map of
``claims.verify_all()``.  Rerun it only when a change to the program's output
is intended and recorded:

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

import hashlib
import json

from xhomotopy import claims

from workloads import FIGURES_PATH, GOLDEN_PATH, claim_verdicts, cli_key, paper_catalogue, run_cli_captured


def main() -> None:
    cli = {}
    for variants in paper_catalogue(str(FIGURES_PATH)).values():
        for argv in variants:
            code, stdout = run_cli_captured(argv)
            cli[cli_key(argv)] = {"exit": code, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    golden = {"claims": claim_verdicts(claims.verify_all()), "cli": cli}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cli)} CLI references and {len(golden['claims'])} claim verdicts to {GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()
