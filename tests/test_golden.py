"""Replay the recorded ``kmf`` corpus in-process, byte for byte.

The cases and their recorded exit codes and stdout live in ``perfbench/``
(``jobs.all_cli_cases()`` and ``cli_golden.json``); this test only reads
them.  Any change to what a command prints, or to how it fails, shows up
here as a mismatch on the named case.
"""

import io
import json
import os
import sys

import pytest

from kmfactor.cli import main

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench")
sys.path.insert(0, _PERFBENCH)
import jobs  # noqa: E402

with open(jobs.CLI_GOLDEN, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

CASES = jobs.all_cli_cases()


def test_corpus_covers_every_case():
    assert sorted(case["key"] for case in CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", CASES, ids=[case["key"] for case in CASES])
def test_golden_replay(case, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
    code = main(case["args"])
    expected = GOLDEN[case["key"]]
    assert (code, capsys.readouterr().out) == (expected["exit"], expected["stdout"])
