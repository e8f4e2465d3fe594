"""Byte-for-byte pins of the command line: stdout, stderr and exit code.

`golden_cli.json` holds, for every case below, what ``main(argv)``
printed and returned.  A case is a sequence of invocations that share one
fresh cache directory (``CACHE`` in an argv stands for it), so a cold
scan followed by a warm one is a single case.  Regenerate the file only
when an output change is intended, and say so where the change is
described:

    PYTHONPATH=src python tests/test_cli_golden.py

Usage errors that argparse words itself (unknown choices, missing
arguments, values of the wrong type) change across Python patch
releases; those cases pin only exit code 2, an empty stdout and the
``usage error:`` prefix, and are not in the file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from permorder.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
CACHE = "CACHE"

_COMMANDS = [
    ("kn", "--n", "2..12"),
    ("landau", "--n", "1..10"),
    ("pmf", "--n", "6"),
    ("mode", "--n", "2..8"),
    ("collision", "--n", "2..6"),
    ("eta-check", "--n", "10..14", "--k", "2"),
    ("verify", "thm11", "--n", "2..8"),
    ("verify", "thm12", "--n", "2..8"),
    ("verify", "ineq", "--n", "2..12"),
    ("tail-max", "--n", "5", "--eps", "1/10"),
    ("tail-max", "--n", "6", "--eps", "3/10"),
    ("sample", "p", "--n", "12", "--m", "12", "--trials", "2000", "--seed", "7"),
    ("sample", "collision", "--n", "12", "--trials", "2000", "--seed", "7"),
    ("bounds-check", "--n", "2..4"),
]
_SCAN = ("scan-counterexamples", "--n", "2..12", "--cache-dir", CACHE)

# Errors the package words itself; the order of the checks shows in the
# cases that break more than one rule.
_ERRORS = [
    ("mode", "--n", "5..4"),
    ("mode", "--n", "0..4"),
    ("sample", "collision", "--n", "5", "--trials", "0"),
    ("mode", "--n", "5", "--threads", "0"),
    ("pmf", "--n", "3..5"),
    ("sample", "p", "--n", "0..4", "--trials", "0", "--threads", "0"),
    ("sample", "p", "--n", "5", "--trials", "0", "--threads", "0"),
    ("sample", "p", "--n", "3..5", "--trials", "10"),
    ("sample", "p", "--n", "5", "--trials", "10"),
    ("tail-max", "--n", "5", "--eps", "0/1"),
    ("bounds-check", "--n", "2..12"),
    ("pmf", "--n", "101"),
]

CASES: dict[str, list[tuple[str, ...]]] = {}
for _fmt in ("table", "csv", "json"):
    for _argv in _COMMANDS:
        CASES[" ".join(_argv + ("--format", _fmt))] = [_argv + ("--format", _fmt)]
    CASES[f"scan cold then warm --format {_fmt}"] = [_SCAN + ("--format", _fmt)] * 2
for _argv in _ERRORS:
    CASES[" ".join(_argv)] = [_argv]

ARGPARSE_WORDED = [
    ("frobnicate",),
    ("mode",),
    ("mode", "--n", "5", "--format", "yaml"),
    ("verify", "thm99", "--n", "3"),
    ("sample", "p", "--n", "3", "--trials", "nope"),
    ("sample", "--n", "3"),
]


def run_case(argvs: list[tuple[str, ...]], cache_dir: Path) -> list[list]:
    """[exit code, stdout, stderr] of each invocation, in order."""
    results = []
    for argv in argvs:
        argv = [str(cache_dir) if a == CACHE else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results.append([code, out.getvalue(), err.getvalue()])
    return results


@pytest.fixture(scope="module")
def golden() -> dict[str, list[list]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_bytes(golden, name, tmp_path):
    assert run_case(CASES[name], tmp_path) == golden[name]


@pytest.mark.parametrize("argv", ARGPARSE_WORDED, ids=" ".join)
def test_argparse_worded_usage_error(argv, tmp_path):
    ((code, out, err),) = run_case([argv], tmp_path)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {}
        for i, (name, argvs) in enumerate(CASES.items()):
            cache = Path(tmp, str(i))
            doc[name] = run_case(argvs, cache)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}", file=sys.stderr)
