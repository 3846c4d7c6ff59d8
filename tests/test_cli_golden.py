"""Byte-for-byte CLI transcripts: stdout, stderr and the exit code of every
subcommand, in text and in ``--json``, on success and on usage, expression
and precondition errors.

The expected bytes live in ``data/cli_golden.json``.  After a deliberate
change of output, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from wseries.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

#: argparse wraps usage lines at the terminal width
COLUMNS = "80"

_SPACE2 = ("--vars", "2", "--trunc", "8", "--var", "2")
_SEMIGROUP = ("semigroup", *_SPACE2, "-e", "x2^2 + x1*x2 + x1^3 + x1*x2^2")

#: runs that succeed, each recorded in text and in --json
SUCCESS = [
    ("prepare", *_SPACE2, "-e", "x2^2 + x1"),
    ("prepare", "--vars", "3", "--trunc", "7", "--var", "1",
     "-e", "1/2*x1^3 + x1*x2 + x3^2 - 2*x1^4"),
    ("divide", *_SPACE2, "-g", "x2^3", "-f", "x2^2 + x1"),
    ("divide", "--vars", "3", "--trunc", "6", "--var", "3",
     "-g", "1 + x1*x3^2 + 2/3*x2", "-f", "-1*x3^2 + x1*x3 + x2^2*x3"),
    ("implicit", "--vars", "2", "--trunc", "6", "--var", "2",
     "-e", "x2 - x1 - x1*x2"),
    ("implicit", "--vars", "3", "--trunc", "5", "--var", "2",
     "-e", "x2 - x1*x3 - x2^2 + 1/3*x1"),
    ("split", "--vars", "2", "--trunc", "6", "--var", "2", "-e", "(x1+x2)^2"),
    ("lemma", "--vars", "2", "--trunc", "12", "--var", "2",
     "-e", "(x1+x2)^2 + (x1+x2)^3"),
    ("holo", "--trunc", "12", "-e", "x1^2 + x1^3"),
    ("holo", "--trunc", "8", "--coeffs", "5,2,3"),
    ("holo", "--trunc", "7", "--coeffs", "-1, 0,2,1,2/3,0,-5/4"),
    ("cr-check", "--trunc", "6", "-g", "x1", "-f", "-1*x2"),
    ("cr-check", "--trunc", "6", "--coeffs", "0,0,1,1,-1/2"),
    ("cr-check", "--trunc", "8", "-e", "x1^2 + x1^3"),
    _SEMIGROUP,
    (*_SEMIGROUP, "--order-shift"),
]

#: runs that fail; the diagnostics are the same with --json
FAILURE = [
    # one missing required flag per subcommand
    ("prepare", *_SPACE2),
    ("divide", *_SPACE2, "-g", "x2^3"),
    ("implicit", "--vars", "2", "--trunc", "6", "-e", "x2 - x1"),
    ("split", "--trunc", "6", "--var", "2", "-e", "x2"),
    ("lemma", "--vars", "2", "--var", "2", "-e", "x2^2"),
    ("holo", "-e", "x1^2 + x1^3"),
    ("cr-check", "-g", "x1", "-f", "x2"),
    ("semigroup", *_SPACE2, "--order-shift"),
    # usage errors
    (),
    ("no-such-command",),
    ("divide", "--vars", "2", "--trunc", "-3", "--var", "2",
     "-g", "1", "-f", "x2"),
    ("prepare", "--vars", "0", "--trunc", "8", "--var", "1", "-e", "x1"),
    ("prepare", "--vars", "2", "--trunc", "8", "--var", "3", "-e", "x1"),
    ("semigroup", "--vars", "2", "--trunc", "3", "--var", "3", "-e", "x1"),
    ("lemma", "--vars", "2", "--trunc", "3", "--var", "2", "-e", "x2^2"),
    ("lemma", "--vars", "2", "--trunc", "3", "--var", "5", "-e", "x2^2"),
    ("holo", "--trunc", "3", "-e", "x1^2"),
    ("holo", "--trunc", "8"),
    ("holo", "--trunc", "8", "-e", "x1^2", "--coeffs", "0,0,1"),
    ("holo", "--trunc", "8", "--coeffs", "0,0,one"),
    ("holo", "--trunc", "8", "--coeffs", "0,,1"),
    ("cr-check", "--trunc", "8", "--coeffs", "0,0, 1/0"),
    ("cr-check", "--trunc", "8"),
    ("cr-check", "--trunc", "8", "-g", "x1"),
    ("cr-check", "--trunc", "8", "-g", "x1", "-f", "x2", "-e", "x1"),
    # expression errors
    ("prepare", *_SPACE2, "-e", "x1 + "),
    ("divide", *_SPACE2, "-g", "x3", "-f", "x2"),
    ("split", "--vars", "2", "--trunc", "4", "--var", "1",
     "-e", "(" * 2000 + "x1" + ")" * 2000),
    ("prepare", *_SPACE2, "-e", "x2 + 2^10000*2^10000*x1"),
    # precondition errors
    ("divide", *_SPACE2, "-g", "1", "-f", "x1"),
    ("implicit", *_SPACE2, "-e", "1 + x2"),
    ("lemma", *_SPACE2, "-e", "x2^2"),
    ("prepare", *_SPACE2, "-e", "inv(x1)"),
]

CASES = ([list(argv) for argv in SUCCESS]
         + [list(argv) + ["--json"] for argv in SUCCESS]
         + [list(argv) for argv in FAILURE]
         + [list(argv) + ["--json"] for argv in FAILURE if argv])


def transcript(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _case_id(argv: list) -> str:
    return " ".join(a if len(a) <= 40 else a[:37] + "..." for a in argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_records_every_case(golden):
    assert [r["argv"] for r in golden] == CASES


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[_case_id(a) for a in CASES])
def test_cli_transcript_is_unchanged(index, golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert transcript(CASES[index]) == golden[index]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([transcript(a) for a in CASES], indent=1)
                      + "\n")
