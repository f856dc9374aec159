"""Byte-for-byte golden outputs of the command line.

golden/cli_json.json holds, for every identity, the exact stdout and exit
code of a `scan --format json` over a small range, plus the counterexample
searches of acceptance criterion 8 and one (thm6 in the class 3 mod 6)
whose every left side has a term sharing a factor with the modulus.  Any
change to the arithmetic that alters a single printed digit shows up here.

The file was written by the implementation that did one extended-gcd
inversion per term; regenerate it only from a revision whose output is
trusted:

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
