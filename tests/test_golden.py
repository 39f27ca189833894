"""Golden corpus: canonical CLI output must stay byte-identical.

``golden/cases.json`` maps a case name to the CLI arguments of one
README command.  ``golden/<name>.golden`` holds the line ``exit N``
followed by everything the command printed to stdout.  After a change
that is meant to alter output, regenerate with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from floersurgery.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def render(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, monkeypatch):
    monkeypatch.delenv("FSL_DEPTH", raising=False)
    expected = (GOLDEN / f"{name}.golden").read_bytes()
    assert render(CASES[name]).encode() == expected


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.golden").write_bytes(render(argv).encode())
        print(f"wrote {name}.golden")
