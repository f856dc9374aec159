"""Byte-for-byte golden outputs of the command line.

golden/cli_json.json holds, for every identity, the exact stdout and exit
code of a `scan --format json` over a small range, plus the counterexample
searches of acceptance criterion 8 and one (thm6 in the class 3 mod 6)
whose every left side has a term sharing a factor with the modulus.  It
also holds one `verify --format json` per identity code, plain and with
--exact-oracle, two verify calls that fail a precondition, and the raw
value commands bernoulli, fq and sum in json, csv and text.  Any change
to the arithmetic or the encoding that alters a single printed character
shows up here.

The scan and counterexample cases were written by the implementation that
did one extended-gcd inversion per term, the verify cases by the one that
still dispatched each identity through its own branch, the raw value
cases by the one that still printed each command's record by hand and
wrote every right-hand side out per d; regenerate the file
only from a revision whose output is trusted:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from lehmer_congruences.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli_json.json"


def _scan(identity: str, n_to: int, *extra: str) -> list[str]:
    return ["scan", "--identity", identity, "--from", "1", "--to", str(n_to),
            *extra, "--format", "json"]


def _verify(identity: str, *args: str) -> list[str]:
    return ["verify", "--identity", identity, *args, "--format", "json"]


# one verify per identity code (and the generic lemma2 code, and lemma1 at
# depth two), each run plainly and again with --exact-oracle
VERIFY_CASES = [
    _verify("lehmer-half", "--n", "13"),
    _verify("cai", "--n", "15"),
    _verify("lehmer-p3", "--n", "11"),
    _verify("lehmer-p4", "--n", "13"),
    _verify("lehmer-p6", "--n", "17"),
    _verify("thm3", "--n", "35"),
    _verify("thm4", "--n", "49", "--d", "4"),
    _verify("thm6", "--n", "55"),
    _verify("lemma1", "--p", "7"),
    _verify("lemma1", "--p", "5", "--alpha", "2"),
    _verify("lemma2", "--d", "3", "--n", "55", "--p", "11"),
    _verify("lemma2-d3", "--n", "35", "--p", "5"),
    _verify("lemma2-d4", "--n", "175", "--p", "5"),
    _verify("lemma2-d6", "--n", "77", "--p", "7"),
    _verify("lemma3", "--n", "25", "--a", "7"),
    _verify("lemma4", "--n", "35", "--a", "2", "--p", "7"),
    _verify("moebius", "--n", "55", "--d", "6", "--p", "5"),
]


RAW_CASES = [
    ["bernoulli", "--m", "20"],
    ["fq", "--n", "25", "--a", "2"],
    ["sum", "--n", "35", "--d", "3", "--p", "5"],
    ["sum", "--n", "5", "--d", "half"],
]


CASES = [
    _scan("lehmer-half", 400),
    _scan("cai", 300),
    _scan("lehmer-p3", 400),
    _scan("lehmer-p4", 400),
    _scan("lehmer-p6", 400),
    _scan("thm3", 400),
    _scan("thm4", 400),
    _scan("thm6", 400),
    _scan("lemma1", 40, "--bernoulli-cap", "400"),
    _scan("lemma1", 12, "--alpha", "2"),
    _scan("lemma2-d3", 400, "--p", "5"),
    _scan("lemma2-d4", 400, "--p", "5"),
    _scan("lemma2-d6", 400, "--p", "7"),
    _scan("lemma3", 300, "--a", "2"),
    _scan("lemma3", 200, "--a", "5"),
    _scan("lemma4", 400, "--a", "2", "--p", "5"),
    _scan("lemma4", 300, "--a", "3", "--p", "7"),
    _scan("moebius", 400, "--d", "3", "--p", "5"),
    _scan("moebius", 400, "--d", "4", "--p", "7"),
    _scan("moebius", 400, "--d", "6", "--p", "11"),
    ["counterexample", "--identity", "thm3", "--class", "4", "--format", "json"],
    ["counterexample", "--identity", "thm4", "--class", "3", "--format", "json"],
    ["counterexample", "--identity", "thm3", "--class", "2", "--to", "50",
     "--format", "json"],
    ["counterexample", "--identity", "thm6", "--class", "3", "--to", "60",
     "--format", "json"],
    *VERIFY_CASES,
    *(argv + ["--exact-oracle"] for argv in VERIFY_CASES),
    # precondition failures: exit 2 and nothing on stdout
    _verify("lehmer-half", "--n", "9"),
    _verify("thm6", "--n", "12"),
    # the raw value commands, in every format
    *([*argv, "--format", fmt] for argv in RAW_CASES for fmt in ("json", "csv", "text")),
]


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _golden() -> dict[str, dict]:
    cases = json.loads(GOLDEN.read_text())["cases"]
    return {" ".join(case["argv"]): case for case in cases}


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    expected = _golden()[" ".join(argv)]
    assert run(argv) == (expected["exit"], expected["stdout"])


def test_parallel_scan_matches_golden():
    argv = _scan("thm6", 400)
    expected = _golden()[" ".join(argv)]
    assert run(argv + ["--workers", "2"]) == (expected["exit"], expected["stdout"])


if __name__ == "__main__":
    cases = []
    for argv in CASES:
        code, stdout = run(argv)
        cases.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    sys.exit(0)
