"""Golden replies of the command line interface.

Each file in tests/golden/ holds a list of requests for one subcommand
(refusals.json holds the refused requests of every kind).  An entry gives
the command line after the program name, the request sent on standard
input ("payload" as JSON, or raw "stdin" text), and the expected exit
code, standard output and standard error.  Every subcommand is covered in
text, --json and --pretty mode, with one small request per rank pair.

`PYTHONPATH=src python tests/test_golden.py` rewrites every expected reply
from the current code; a change that alters a golden reply names it in
CHANGES.md.
"""

import io
import json
import os
import sys

import pytest

from ut4class import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _entries():
    for name in sorted(os.listdir(GOLDEN)):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            for i, entry in enumerate(json.load(fh)):
                yield name, i, entry


def _replay(entry) -> tuple:
    text = entry.get("stdin")
    if text is None:
        text = json.dumps(entry["payload"])
    argv = [entry["argv"][0], "-", *entry["argv"][1:]]
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = (io.StringIO(text), io.StringIO(),
                                         io.StringIO())
    try:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a bad command line
            rc = exc.code
        return rc, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


@pytest.mark.parametrize(
    "entry", [pytest.param(e, id=f"{n}:{i}:{' '.join(e['argv'])}:{e['name']}")
              for n, i, e in _entries()])
def test_golden_reply(entry):
    assert _replay(entry) == (entry["exit"], entry["stdout"], entry["stderr"])


if __name__ == "__main__":
    for name in sorted(os.listdir(GOLDEN)):
        path = os.path.join(GOLDEN, name)
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
        for entry in entries:
            entry["exit"], entry["stdout"], entry["stderr"] = _replay(entry)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
