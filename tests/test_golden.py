"""Replay the recorded ``kmf`` corpus in-process, byte for byte.

The cases and their recorded exit codes and stdout live in ``perfbench/``
(``jobs.all_cli_cases()`` and ``cli_golden.json``); this test only reads
them.  Any change to what a command prints, or to how it fails, shows up
here as a mismatch on the named case.
"""

import io
import json
import os
import subprocess
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


# The modules each command executes, besides cli, cartan and errors: a
# module runs only when a command first reads one of its attributes.  The
# recorded schema errors stop while the input is parsed, so they run no
# other module; a domain error runs what its command ran until it was raised.
FOOTPRINT = {
    **dict.fromkeys(("validate", "schema-error"), ()),
    **dict.fromkeys(("orbits", "transversal", "lean-lifts"), ("folding",)),
    "numerator": ("series", "weyl"),
    **dict.fromkeys(("logseries", "character", "multiplicities", "leading-coeff"),
                    ("numerators", "series", "weyl")),
    **dict.fromkeys(("factor", "factor-folded", "verify"),
                    ("factorizer", "folding", "numerators", "series", "weyl")),
    "selftest": ("factorizer", "folding", "numerators", "selftest", "series", "weyl"),
}

# One kmf process that, after its command, writes to stderr the kmfactor
# modules whose namespace holds their own definitions, and which of argparse,
# gettext and locale it loaded; the namespace is read past the lazy module's
# attribute hook, so reading it executes nothing.
_KMF_FOOTPRINT = """
import sys, types
from kmfactor.cli import main
code = main()
sys.stdout.flush()
executed = [name for name, module in list(sys.modules.items())
            if name.startswith("kmfactor.")
            and any(getattr(value, "__module__", None) == name
                    for value in object.__getattribute__(module, "__dict__").values()
                    if not isinstance(value, types.ModuleType))]
executed += [name for name in ("argparse", "gettext", "locale") if name in sys.modules]
sys.stderr.write(" ".join(sorted(executed)))
sys.exit(code)
"""


@pytest.mark.parametrize("case", CASES, ids=[case["key"] for case in CASES])
def test_command_footprint(case):
    """Each recorded case, in a fresh process, executes only the modules its
    command calls into, loads no argparse, gettext or locale, and prints what
    it recorded."""
    src = os.path.dirname(os.path.dirname(sys.modules["kmfactor"].__file__))
    # -S: kmfactor needs nothing from site-packages, and 90 processes start faster
    done = subprocess.run([sys.executable, "-S", "-c", _KMF_FOOTPRINT, *case["args"]],
                          input=case["stdin"], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    expected = GOLDEN[case["key"]]
    assert (done.returncode, done.stdout) == (expected["exit"], expected["stdout"])
    kind = case["key"].split("/")[0]
    modules = {"cli", "cartan", "errors",
               *FOOTPRINT["schema-error" if kind == "schema-error" else case["args"][0]]}
    assert done.stderr.split() == sorted(f"kmfactor.{m}" for m in modules)
