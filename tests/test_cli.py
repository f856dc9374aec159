"""The command line surface: parsing, serialization, exit codes."""

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from math import inf
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lehmer_congruences
from lehmer_congruences import quotients, sums, verifier
from lehmer_congruences.arith import Residue
from lehmer_congruences.cli import (
    _CSV_COLUMNS,
    _csv_row,
    _json_line,
    _watched,
    main,
    parse_report_json,
    report_to_dict,
    serialize_report,
    serialize_reports,
)
from lehmer_congruences.report import CongruenceReport, IdentityId
from lehmer_congruences.verifier import scan, verify


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "thm3", "--n", "5", "--format", "json"
    )
    assert code == 0
    assert out == (
        '{"identity":"thm3","params":{"n":5,"d":3},'
        '"modulus":"25","lhs":"13","rhs":"13","holds":true}\n'
    )


def test_verify_lemma1_fields(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "lemma1", "--p", "5", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["valuation"] == 3
    assert obj["required"] == 2
    assert obj["params"] == {"p": 5, "alpha": 1}
    # p = 13 needs B_156: over a cap of 100, within one of 200
    argv = ["verify", "--identity", "lemma1", "--p", "13", "--bernoulli-cap"]
    code, _, err = run_cli(capsys, *argv, "100")
    assert code == 1 and "capped at index 100" in err
    code, _, _ = run_cli(capsys, *argv, "200")
    assert code == 0


def test_scan_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--identity", "cai", "--from", "3", "--to", "99",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "identity", "n", "a", "p", "d", "alpha", "modulus", "lhs", "rhs",
        "holds", "skipped_reason", "valuation", "required",
    ]
    assert len(rows) == 1 + 49  # odd n in [3, 99]
    assert all(row[9] == "true" for row in rows[1:])
    assert rows[1][0] == "cai" and rows[1][1] == "3"


def test_scan_json_lines_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--identity", "thm4", "--from", "5", "--to", "120",
        "--format", "json",
    )
    assert code == 0
    lines = out.splitlines()
    reports = scan(IdentityId.THM_4, 5, 120)
    assert len(lines) == len(reports)
    for line, report in zip(lines, reports):
        assert parse_report_json(line) == report


def test_round_trip_all_identities():
    batches = [
        scan(IdentityId.LEHMER_HALF, 3, 40),
        scan(IdentityId.LEHMER_P3, 5, 60),
        scan(IdentityId.THM_6, 5, 60),
        scan(IdentityId.LEMMA_1, 3, 13),
        scan(IdentityId.LEMMA_2_D6, 5, 150, p=5),
        scan(IdentityId.LEMMA_3, 5, 60, a=5),
        scan(IdentityId.LEMMA_4, 10, 80, a=3, p=7),
        scan(IdentityId.MOEBIUS_DECOMP, 5, 150, p=5, d=4),
    ]
    for batch in batches:
        assert batch, "scan unexpectedly empty"
        for report in batch:
            assert parse_report_json(serialize_report(report, "json")) == report


@st.composite
def reports(draw) -> CongruenceReport:
    """Checked rows, skip rows with and without a modulus, p-adic rows."""
    keys = draw(st.lists(st.sampled_from(["n", "a", "p", "d", "alpha"]), unique=True))
    params = {key: draw(st.integers(-(10**30), 10**30)) for key in keys}
    modulus = draw(st.none() | st.integers(1, 10**40))
    sides = [None, None]
    if modulus is not None:
        residues = st.builds(Residue, st.integers(0, modulus - 1), st.just(modulus))
        sides = [draw(st.none() | residues) for _ in sides]
    return CongruenceReport(
        identity=draw(st.sampled_from(IdentityId)),
        params=params,
        modulus=modulus,
        lhs=sides[0],
        rhs=sides[1],
        holds=draw(st.none() | st.booleans()),
        skipped_reason=draw(st.none() | st.text()),
        valuation=draw(st.none() | st.integers(0, 10**6) | st.just(inf)),
        required=draw(st.none() | st.integers(0, 10**6)),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reports())
def test_json_round_trip_property(report):
    assert parse_report_json(serialize_report(report, "json")) == report


# quotes, backslashes, control characters, DEL, a line separator, non-ASCII
_ESCAPED = st.text(st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f \u2028aé€😀'))


@st.composite
def rows(draw) -> CongruenceReport:
    """Reports of every shape: each identity with the params its rows carry."""
    identity = draw(st.sampled_from(IdentityId))
    spec = verifier.IDENTITIES[identity]
    names = [*spec.required, *spec.defaults, *(["d"] if spec.d is not None else [])]
    if draw(st.booleans()):  # lemma2, lemma4 and moebius rows add alpha
        names.append("alpha")
    params = {name: draw(st.integers(-(10**30), 10**30)) for name in names}
    modulus = draw(st.none() | st.integers(1, 10**40))
    sides = [None, None]
    if modulus is not None:
        residues = st.builds(Residue, st.integers(0, modulus - 1), st.just(modulus))
        sides = [draw(st.none() | residues) for _ in sides]
    return CongruenceReport(
        identity=identity,
        params=params,
        modulus=modulus,
        lhs=sides[0],
        rhs=sides[1],
        holds=draw(st.none() | st.booleans()),
        skipped_reason=draw(st.none() | _ESCAPED | st.text()),
        valuation=draw(st.none() | st.integers(0, 10**6) | st.just(inf)),
        required=draw(st.none() | st.integers(0, 10**6)),
    )


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rows())
def test_json_line_writes_what_the_json_module_writes(report):
    expected = json.dumps(report_to_dict(report), separators=(",", ":")) + "\n"
    assert _json_line(report) == expected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows())
def test_csv_cells_print_ints_and_booleans_as_json_does(report):
    obj = report_to_dict(report)
    flat = {**obj.pop("params"), **obj}
    cells = [flat.get(key, "") for key in _CSV_COLUMNS]
    assert _csv_row(report) == [c if isinstance(c, str) else json.dumps(c) for c in cells]


def test_text_format_alignment(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "cai", "--n", "9", "--format", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "identity", "n", "a", "p", "d", "alpha", "modulus", "lhs", "rhs",
        "holds", "skipped_reason", "valuation", "required",
    ]
    assert lines[1].split()[:2] == ["cai", "9"]


def test_csv_skip_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--identity", "lemma1", "--from", "13", "--to", "13",
        "--bernoulli-cap", "100", "--format", "csv",
    )
    assert code == 1  # a skipped row was not checked
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][9] == ""  # holds empty
    assert "capped" in rows[1][10]


def test_scan_that_checks_nothing_exits_1(capsys):
    # every prime from 11 on outgrows the cap: only skip rows
    code, out, _ = run_cli(
        capsys,
        "scan", "--identity", "lemma1", "--from", "11", "--to", "40",
        "--bernoulli-cap", "100", "--format", "json",
    )
    assert code == 1 and out
    assert all("skipped_reason" in json.loads(line) for line in out.splitlines())
    # no admissible n in range: an empty scan
    code, out, _ = run_cli(
        capsys, "scan", "--identity", "thm3", "--from", "8", "--to", "10"
    )
    assert code == 1 and out.splitlines()[1:] == []


@pytest.mark.parametrize("argv", [
    ["--identity", "lemma2-d3", "--p", "0"],
    ["--identity", "lemma2-d3", "--p", "1"],
    ["--identity", "moebius", "--d", "3", "--p", "-5"],
    ["--identity", "lemma4", "--a", "2", "--p", "9"],
])
def test_scan_non_prime_p_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "scan", *argv, "--from", "5", "--to", "12")
    assert code == 2 and out == ""
    assert "p must be prime" in err


def test_exit_code_failure(capsys):
    # a corrupted right side must flip the scan exit code to 1
    real = verifier.theorem_rhs

    def corrupt(n, d):
        value = real(n, d)
        if n == 25:
            return Residue((value.rep + 1) % value.modulus, value.modulus)
        return value

    verifier.theorem_rhs = corrupt
    try:
        code, out, _ = run_cli(
            capsys,
            "scan", "--identity", "thm3", "--from", "5", "--to", "30",
            "--format", "json",
        )
    finally:
        verifier.theorem_rhs = real
    assert code == 1
    bad = [json.loads(line) for line in out.splitlines() if '"holds":false' in line]
    assert len(bad) == 1 and bad[0]["params"]["n"] == 25


def test_counterexample_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys,
        "counterexample", "--identity", "thm3", "--class", "4",
        "--format", "json",
    )
    assert code == 0
    last = json.loads(out.splitlines()[-1])
    assert last["params"]["n"] == 4
    assert last["lhs"] == "1" and last["rhs"] == "13"
    code, _, err = run_cli(
        capsys,
        "counterexample", "--identity", "thm3", "--class", "1", "--to", "40",
    )
    assert code == 1
    assert "no thm3 counterexample" in err


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "nope", "--n", "5")
    assert code == 2 and "unknown identity" in err
    code, _, err = run_cli(capsys, "verify", "--identity", "lemma2", "--n", "35")
    assert code == 2 and "--d" in err
    code, _, err = run_cli(capsys, "verify", "--identity", "thm3", "--n", "5", "--d", "4")
    assert code == 2 and "thm3 does not take d = 4" in err
    code, _, err = run_cli(capsys, "verify", "--identity", "thm3")
    assert code == 2 and "required" in err
    code, _, _ = run_cli(capsys, "scan", "--identity", "thm3", "--from", "5")
    assert code == 2  # argparse: missing --to
    code, _, _ = run_cli(capsys, "nope")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--identity", "lemma3", "--from", "5", "--to", "20"),
    ("--identity", "lemma4", "--from", "5", "--to", "30", "--p", "5"),
    ("--identity", "moebius", "--from", "5", "--to", "30", "--p", "5"),
], ids=lambda argv: argv[1])
def test_scan_missing_parameter_is_usage_error(capsys, argv):
    # checked once before the scan starts, not reported on every row
    code, out, err = run_cli(capsys, "scan", *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert "is required" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "--identity", "thm3", "--n", "35", "--a", "2", "--p", "7",
      "--alpha", "5"), "thm3 does not take a = 2; it reads n"),
    (("scan", "--identity", "lemma2-d3", "--from", "5", "--to", "40", "--p", "5",
      "--alpha", "9", "--a", "3"), "lemma2-d3 does not take a = 3; it reads n, p"),
    (("scan", "--identity", "lemma2-d3", "--from", "5", "--to", "40", "--p", "5",
      "--alpha", "9"), "lemma2-d3 does not take alpha = 9"),
    (("verify", "--identity", "lemma1", "--n", "7", "--p", "5"),
     "lemma1 does not take n = 7; it reads p, alpha"),
], ids=["verify-thm3", "scan-lemma2", "scan-lemma2-alpha", "verify-lemma1"])
def test_unread_parameter_is_usage_error(capsys, argv, message):
    # named instead of dropped: the first given parameter the identity does not read
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("command", [
    ("verify", "--n", "35"), ("scan", "--from", "5", "--to", "40"),
], ids=lambda command: command[0])
@pytest.mark.parametrize("code, d", [("thm3", "4"), ("thm4", "3"), ("lehmer-p6", "3")])
def test_a_d_the_identity_does_not_embed_is_refused_before_any_check(
    capsys, monkeypatch, command, code, d
):
    # the identity table judges --d, as it judges every other parameter
    checked = []
    monkeypatch.setattr(verifier, "_checked", lambda *args: checked.append(args))
    verb, *rest = command
    exit_code, out, err = run_cli(capsys, verb, "--identity", code, *rest, "--d", d)
    assert (exit_code, out, checked) == (2, "", [])
    assert f"{code} does not take d = {d}" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "thm4", "--n", "49", "--d", "4"),
    ("verify", "--identity", "lemma2", "--d", "3", "--n", "35", "--p", "5"),
    ("scan", "--identity", "thm4", "--from", "5", "--to", "40", "--d", "4"),
    ("scan", "--identity", "lemma2", "--d", "3", "--from", "5", "--to", "40", "--p", "5"),
], ids=["embedded-d", "lemma2-d", "scan-embedded-d", "scan-lemma2-d"])
def test_parameters_that_stand_for_a_read_one_are_accepted(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and out


@pytest.mark.parametrize("argv, message", [
    (("verify", "--identity", "lemma1", "--n", "7"),
     "lemma1 does not take n = 7; it reads p, alpha"),
    (("scan", "--identity", "lemma1", "--from", "3", "--to", "7", "--p", "5"),
     "a lemma1 scan walks p; it takes no fixed p"),
], ids=["lemma1-n", "scan-lemma1-p"])
def test_lemma1_takes_its_prime_as_p_alone(capsys, argv, message):
    # n is no alias for p, and a scan refuses a fixed value of what it walks
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_scan_alpha_below_one_is_usage_error(capsys, alpha):
    code, out, err = run_cli(
        capsys,
        "scan", "--identity", "lemma1", "--from", "1", "--to", "8",
        "--alpha", alpha, "--format", "json",
    )
    assert (code, out) == (2, "")
    assert f"alpha must be >= 1 for lemma1, got {alpha}" in err


def test_verify_failure_exit_1(capsys):
    # lemma1 at p = 2 is a faithful holds=false, not an error
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "lemma1", "--p", "2", "--format", "json"
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["holds"] is False and obj["valuation"] == 1


def test_lemma2_code_resolution(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "lemma2", "--d", "3", "--n", "35", "--p", "5",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["identity"] == "lemma2-d3"
    assert obj["lhs"] == "13" and obj["rhs"] == "13"
    # the full slug is accepted as well
    code2, out2, _ = run_cli(
        capsys,
        "verify", "--identity", "lemma2-d3", "--n", "35", "--p", "5",
        "--format", "json",
    )
    assert code2 == 0 and out2 == out


def test_raw_value_commands(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "--m", "0")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "bernoulli", "--m", "20")
    assert code == 0 and out.strip() == "-174611/330"
    code, out, _ = run_cli(capsys, "bernoulli", "--m", "20", "--format", "json")
    assert json.loads(out) == {"m": 20, "value": "-174611/330"}
    code, _, err = run_cli(capsys, "bernoulli", "--m", "700")
    assert code == 1 and "capped" in err
    code, out, _ = run_cli(capsys, "fq", "--n", "25", "--a", "2")
    assert code == 0 and out.strip() == "41943"
    code, out, _ = run_cli(capsys, "fq", "--n", "25", "--a", "2", "--format", "json")
    assert json.loads(out) == {"n": 25, "a": 2, "value": "41943"}
    code, out, _ = run_cli(capsys, "sum", "--n", "35", "--d", "3", "--p", "5")
    assert code == 0 and out.strip() == "13 (mod 25)"
    code, out, _ = run_cli(capsys, "sum", "--n", "5", "--d", "half")
    assert code == 0 and out.strip() == "14 (mod 25)"
    code, out, _ = run_cli(
        capsys, "sum", "--n", "5", "--d", "3", "--format", "json"
    )
    assert json.loads(out) == {"rep": "13", "modulus": "25"}
    for d in ("7", "x"):
        code, out, err = run_cli(capsys, "sum", "--n", "5", "--d", d)
        assert (code, out) == (2, "") and "invalid choice" in err
    # --p localizes a d-sum; the half-range sum has no such form
    code, out, err = run_cli(capsys, "sum", "--n", "5", "--d", "half", "--p", "5")
    assert (code, out) == (2, "") and "--d half takes none" in err


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv, code", [
    (["--identity", "thm6", "--from", "5", "--to", "200"], 0),
    # primes from 23 on outgrow the cap: skip rows among checked ones
    (["--identity", "lemma1", "--from", "1", "--to", "40", "--bernoulli-cap", "400"], 1),
    (["--identity", "thm3", "--from", "8", "--to", "10"], 1),  # no admissible n
], ids=["holds", "skips", "empty"])
def test_workers_flag_output_identical(capsys, monkeypatch, argv, code, fmt):
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 4)
    argv = ["scan", *argv, "--format", fmt]
    serial = run_cli(capsys, *argv)
    assert serial[0] == code
    assert run_cli(capsys, *argv, "--workers", "4") == serial


def test_scan_worker_failure_exit_1(capsys, monkeypatch):
    parent = os.getpid()
    real = verifier.rational_mod

    def corrupted(x, m):  # wrong only in the forked worker
        value = real(x, m)
        return value if os.getpid() == parent else Residue((value.rep + 1) % m, m)

    monkeypatch.setattr(verifier, "rational_mod", corrupted)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    argv = ["scan", "--identity", "thm3", "--from", "5", "--to", "60", "--exact-oracle"]
    code, out, err = run_cli(capsys, *argv, "--workers", "2")
    assert (code, out) == (1, "")
    assert "oracle divergence: thm3" in err


SUBCOMMANDS = {
    "verify": ["verify", "--identity", "thm3", "--n", "35"],
    "scan": ["scan", "--identity", "thm3", "--from", "5", "--to", "40"],
    "counterexample": [
        "counterexample", "--identity", "thm4", "--class", "3", "--to", "40",
    ],
    "bernoulli": ["bernoulli", "--m", "4"],
    "fq": ["fq", "--n", "7", "--a", "2"],
    "sum": ["sum", "--n", "5", "--d", "3"],
}

# the subcommands that read each flag; every subcommand takes --format
FLAG_READERS = {
    ("--workers", "1"): {"verify", "scan"},
    ("--bernoulli-cap", "10"): {"verify", "scan", "bernoulli"},
    ("--exact-oracle",): {"verify", "scan"},
}

# verify and scan read a Bernoulli cap only for lemma1 (B_6 here)
LEMMA1 = {
    "verify": ["verify", "--identity", "lemma1", "--p", "3"],
    "scan": ["scan", "--identity", "lemma1", "--from", "3", "--to", "4"],
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("flag", FLAG_READERS, ids=lambda flag: flag[0])
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command, flag):
    argv = SUBCOMMANDS[command]
    if flag[0] == "--bernoulli-cap":
        argv = LEMMA1.get(command, argv)
    code, out, err = run_cli(capsys, *argv, *flag)
    if command in FLAG_READERS[flag]:
        assert code == 0 and out
    else:
        assert (code, out) == (2, "") and "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "thm3", "--n", "35", "--bernoulli-cap", "10"],
    ["scan", "--identity", "cai", "--from", "3", "--to", "9", "--bernoulli-cap", "0"],
], ids=["verify", "scan"])
def test_bernoulli_cap_for_an_identity_that_reads_none_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "reads no Bernoulli number" in err


@pytest.mark.parametrize("command", ["verify", "scan"])
def test_workers_below_one_is_a_usage_error(capsys, command):
    argv = SUBCOMMANDS[command]
    code, out, err = run_cli(capsys, *argv, "--workers", "0")
    assert (code, out) == (2, "") and "workers must be >= 1, got 0" in err
    code, _, err = run_cli(capsys, *argv, "--workers", "x")
    assert code == 2 and "invalid int value: 'x'" in err


def test_term_count_limit_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(sums, "MAX_EXACT_TERMS", 10)
    code, out, err = run_cli(
        capsys, "verify", "--identity", "thm3", "--n", "35", "--exact-oracle"
    )
    assert (code, out) == (1, "")
    assert "over the budget of 10 terms" in err
    # a scan makes the refused oracle a skip row, and a skip row exits 1
    code, out, _ = run_cli(
        capsys, "scan", "--identity", "cai", "--from", "19", "--to", "25",
        "--exact-oracle", "--format", "json",
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and [row.get("holds") for row in rows] == [True, True, None, None]
    assert "over the budget of 10 terms" in rows[-1]["skipped_reason"]


def test_a_modular_sum_over_its_budget_exits_1_at_once(capsys):
    for n, terms in (
        # about 3.3 * 10^11 terms, a day of summing, refused before the first
        ("1000000000039", "333333333346"),
        # (10^19 + 51)(10^19 + 87), a semiprime refused before it is factored
        ("100000000000000001380000000000000004437", "33333333333333333793333333333333334812"),
    ):
        over = (
            f"a modular sum over {terms} values of r is over the budget of "
            f"{sums.MAX_MODULAR_TERMS} terms"
        )
        for argv in (["verify", "--identity", "thm3"], ["sum", "--d", "3"]):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv, "--n", n)
            assert time.perf_counter() - start < 1
            assert (code, out) == (1, "") and over in err


def test_power_size_limit_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(quotients, "MAX_POWER_BITS", 99)
    code, out, err = run_cli(capsys, "fq", "--n", "101", "--a", "2")
    assert (code, out) == (1, "")
    assert "budget of 99 bits" in err
    # a scan makes the refused oracle a skip row, and a skip row exits 1
    code, out, _ = run_cli(
        capsys, "scan", "--identity", "lemma3", "--a", "2", "--from", "5", "--to", "11",
        "--exact-oracle", "--format", "json",
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and [row.get("holds") for row in rows] == [True, True, None]


def test_exact_oracle_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "thm3", "--n", "35", "--exact-oracle",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_exact_oracle_divergence_exit_1(capsys, monkeypatch):
    real = verifier.theorem_rhs_exact
    monkeypatch.setattr(verifier, "theorem_rhs_exact", lambda n, d: real(n, d) + 1)
    code, out, err = run_cli(
        capsys, "verify", "--identity", "thm3", "--n", "35", "--exact-oracle"
    )
    assert (code, out) == (1, "")
    assert "oracle divergence: thm3" in err


def test_serialize_reports_batch():
    reports = scan(IdentityId.THM_3, 5, 25)
    doc = serialize_reports(reports, "csv")
    rows = list(csv.reader(io.StringIO(doc)))
    assert len(rows) == 1 + len(reports)
    doc = serialize_reports(reports, "text")
    assert len(doc.splitlines()) == 1 + len(reports)
    doc = serialize_reports(reports, "json")
    assert len(doc.splitlines()) == len(reports)
    with pytest.raises(Exception):
        serialize_reports(reports, "xml")


def _env() -> dict[str, str]:
    """This process's environment, with this package first on the path."""
    src = str(Path(lehmer_congruences.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _interpreter(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter on this package, run with args."""
    return subprocess.run(
        [sys.executable, *args],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=check,
    )


def _probe(code: str) -> list[str]:
    """The words code prints, run by a fresh interpreter on this package."""
    return _interpreter("-c", code).stdout.split()


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return _interpreter("-m", "lehmer_congruences", *argv, check=False)


def test_a_process_writes_what_main_returns(capsys):
    # 802 rows, 86,586 bytes: more than a pipe holds, all written before
    # the process ends without its teardown
    argv = ["scan", "--identity", "thm3", "--from", "5", "--to", "2410", "--format", "json"]
    done = _cli(*argv)
    assert (done.returncode, done.stderr) == (0, "")
    assert (len(done.stdout.splitlines()), len(done.stdout.encode())) == (802, 86586)
    assert run_cli(capsys, *argv) == (0, done.stdout, "")


@pytest.mark.parametrize("argv, code, last", [
    (["verify", "--identity", "lemma1", "--p", "13", "--bernoulli-cap", "100"], 1,
     "error: B_156 requested, but the cache is capped at index 100"),
    (["scan", "--identity", "thm3"], 2,
     "lehmer-congruences scan: error: the following arguments are required: --from, --to"),
], ids=["capped", "usage-error"])
def test_a_process_exits_with_what_main_returns(capsys, argv, code, last):
    done = _cli(*argv)
    assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, *argv)
    assert done.returncode == code and done.stderr.splitlines()[-1] == last


_ENTRY_PROBE = """\
import atexit, os, sys
class Mark:  # tells whether the interpreter tore down the modules
    def __del__(self, write=os.write):
        write(1, b'teardown\\n')
mark = Mark()
atexit.register(print, 'handler')
{trace}
sys.argv = ['lehmer-congruences', 'fq', '--n', '7', '--a', '2']
from lehmer_congruences.cli import run
run()
"""


@pytest.mark.parametrize("trace, words", [
    ("", ["9", "handler"]),
    ("sys.settrace(lambda *args: None)", ["9", "handler", "teardown"]),
    pytest.param(
        "sys.monitoring.use_tool_id(sys.monitoring.PROFILER_ID, 'probe')",
        ["9", "handler", "teardown"],
        marks=pytest.mark.skipif(sys.version_info < (3, 12), reason="no sys.monitoring"),
    ),
], ids=["plain", "traced", "monitored"])
def test_the_entry_runs_each_atexit_handler_once_and_skips_teardown(trace, words):
    # a handler registered before the entry (a coverage tool's, say) runs
    # once; the modules are torn down only when a tracer or profiler watches
    assert _probe(_ENTRY_PROBE.format(trace=trace)) == words


class _Monitoring:
    """A stand-in for the sys.monitoring of Python 3.12 and later."""

    DEBUGGER_ID, COVERAGE_ID, PROFILER_ID = 0, 1, 2

    def __init__(self, tools: dict[int, str]):
        self.tools = tools

    def get_tool(self, tool: int) -> str | None:
        return self.tools.get(tool)


@pytest.mark.parametrize("tools, watched", [
    ({}, False),
    ({2: "cProfile"}, True),
    ({0: "pdb"}, True),
    ({1: "coverage"}, False),  # it saves its data in an atexit handler, which runs
], ids=["none", "profiler", "debugger", "coverage"])
def test_a_sys_monitoring_profiler_or_debugger_watches_the_process(monkeypatch, tools, watched):
    # from Python 3.12 cProfile sets no profile function, only this tool
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(sys, "monitoring", _Monitoring(tools), raising=False)
    assert _watched() is watched


def test_a_profiled_process_ends_normally():
    done = _interpreter("-m", "cProfile", "-m", "lehmer_congruences", "--help")
    assert done.stdout.startswith("usage: lehmer-congruences")
    assert "function calls" in done.stdout and "Ordered by" in done.stdout


def _to_closed_pipe(*args: str, stream: str, unbuffered: bool) -> tuple[int, str]:
    """Exit status of an interpreter run with args whose stdout or stderr
    (stream) is a pipe nobody reads, and what it wrote to the other one."""
    read, write = os.pipe()
    os.close(read)
    env = {key: value for key, value in _env().items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    other = "stderr" if stream == "stdout" else "stdout"
    try:
        done = subprocess.run(
            [sys.executable, *args], **{stream: write, other: subprocess.PIPE},
            env=env, text=True, timeout=60,
        )
    finally:
        os.close(write)
    return done.returncode, getattr(done, other)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_1_with_one_error_line(unbuffered):
    lost = "error: output not written: [Errno 32] Broken pipe\n"
    for argv in (
        ["scan", "--identity", "thm3", "--from", "5", "--to", "2410", "--format", "json"],
        ["verify", "--identity", "thm3", "--n", "35"],
        ["--help"],
    ):
        done = _to_closed_pipe(
            "-m", "lehmer_congruences", *argv, stream="stdout", unbuffered=unbuffered
        )
        # argparse drops a help text it cannot write; one left in the
        # buffer is lost at the final flush
        assert done == ((0, "") if argv == ["--help"] and unbuffered else (1, lost)), argv


_KEPT_PROBE = """\
import sys
print('kept')
sys.argv = ['lehmer-congruences', *{argv!r}]
from lehmer_congruences.cli import run
run()
"""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "lemma1", "--p", "13", "--bernoulli-cap", "100"],
    ["verify", "--identity", "thm3", "--n", "35"],
], ids=["capped", "holds"])
def test_a_closed_stderr_keeps_what_stdout_holds(capsys, unbuffered, argv):
    # the capped check's error line goes to the closed stderr; what stdout
    # holds (a line printed before the entry, and the report) still gets out
    code, out, _ = run_cli(capsys, *argv)
    probe = _KEPT_PROBE.format(argv=argv)
    assert _to_closed_pipe("-c", probe, stream="stderr", unbuffered=unbuffered) == (
        code, "kept\n" + out
    )


def test_integers_past_the_decimal_conversion_limit():
    # Python 3.11 and later refuse to print an int of over 4,300 digits by
    # default; the CLI prints every value in full
    done = _cli("fq", "--n", "20011", "--a", "2")
    assert (done.returncode, done.stderr) == (0, "")
    digits = done.stdout.rstrip("\n")
    value = 0  # read 1,000 digits at a time, under this process's limit
    for k in range(0, len(digits), 1000):
        chunk = digits[k:k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == (2**20010 - 1) // 20011 and len(digits) == 6020
    done = _cli("bernoulli", "--m", "2200", "--bernoulli-cap", "3000")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("-") and "/" in done.stdout
    # phi(5^8000) is a Bernoulli index of 5,592 digits
    done = _cli("verify", "--identity", "lemma1", "--p", "5", "--alpha", "4000")
    assert (done.returncode, done.stdout) == (1, "")
    assert "capped" in done.stderr and "Traceback" not in done.stderr
    done = _cli(
        "scan", "--identity", "lemma1", "--from", "3", "--to", "7", "--alpha", "4000",
        "--format", "json",
    )
    assert (done.returncode, done.stderr) == (1, "")
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [row["params"]["p"] for row in rows] == [3, 5, 7]
    assert all("capped" in row["skipped_reason"] for row in rows)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit"
)
def test_main_restores_the_callers_int_max_str_digits(capsys):
    # main lifts the limit while it runs and puts the caller's value back on
    # every exit path: success, usage error, precondition error, other error
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        for argv, code in [
            (["fq", "--n", "20011", "--a", "2"], 0),  # prints 6,020 digits
            (["scan", "--identity", "thm3", "--from", "5", "--to", "7",
              "--format", "json"], 0),
            (["scan", "--identity", "nope"], 2),
            (["sum", "--n", "10", "--d", "half"], 2),
            (["verify", "--identity", "lemma1", "--p", "13",
              "--bernoulli-cap", "100"], 1),
        ]:
            assert main(argv) == code, argv
            assert sys.get_int_max_str_digits() == 5000, argv
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(capsys.readouterr().out.splitlines()[0]) == 6020


def _readme_examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) for every `$ lehmer-congruences` line of README.md."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples: list[tuple[list[str], str]] = []
    for line in readme.read_text().splitlines():
        if line.startswith("$ lehmer-congruences "):
            examples.append((shlex.split(line)[2:], ""))
        elif examples and line and not line.startswith(("$", "```")):
            argv, out = examples[-1]
            examples[-1] = (argv, out + line + "\n")
        elif examples and examples[-1][1]:
            examples.append(([], ""))  # the example's output has ended
    return [(argv, out) for argv, out in examples if argv]


def test_readme_examples():
    examples = _readme_examples()
    assert len(examples) == 7
    for argv, out in examples:
        done = _cli(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (0, out, ""), argv


def test_readme_library_names_are_package_exports():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("Lower-level pieces are exported too:")
    listed = readme[start:readme.index("value types.", start)]
    names = []
    for name in re.findall(r"`([A-Za-z_]\w*(?:\(_\w+\))?)`", listed):
        stem, _, suffix = name.partition("(")  # x(_y) names x and x_y
        names += [stem, stem + suffix.rstrip(")")] if suffix else [stem]
    assert len(names) == 19
    assert [name for name in names if not hasattr(lehmer_congruences, name)] == []


def test_import_loads_no_process_pool():
    # neither an import (--help included) nor a forked scan loads a pool
    probe = (
        "import sys, lehmer_congruences.cli\n"
        "from lehmer_congruences import verifier\n"
        "def pools(): return ['concurrent.futures' in sys.modules, "
        "'multiprocessing' in sys.modules]\n"
        "before = pools()\n"
        "verifier._usable_cpus = lambda: 2\n"
        "verifier.scan(verifier.IdentityId.THM_3, 5, 60, workers=2)\n"
        "print(*before, *pools())"
    )
    assert _probe(probe) == ["False"] * 4


def test_a_forked_scan_imports_pickle_only_after_the_callers_first_share():
    # pickle is off the path to the first share: each child imports it to
    # send its rows, the caller to read them, unless the interpreter had it
    probe = (
        "import os, sys\n"
        "bare = 'pickle' in sys.modules\n"
        "from lehmer_congruences import verifier\n"
        "caller, seen, real = os.getpid(), [], verifier._scan_chunk\n"
        "def chunk(*args):\n"
        "    if os.getpid() == caller:\n"
        "        seen.append('pickle' in sys.modules)\n"
        "    return real(*args)\n"
        "verifier._scan_chunk = chunk\n"
        "verifier._usable_cpus = lambda: 2\n"
        "rows = verifier.scan(verifier.IdentityId.THM_3, 5, 60, workers=2)\n"
        "print(bare, len(rows), 'pickle' in sys.modules, *seen)"
    )
    bare, rows, after, *seen = _probe(probe)
    assert (rows, after, seen) == ("19", "True", [bare])


def _imported(*args: str, code: int = 0) -> set[str]:
    """The modules a fresh interpreter run with args imports; it must exit with code."""
    done = _interpreter("-X", "importtime", *args, check=False)
    assert done.returncode == code, done.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines() if line.startswith("import time:")
    }


def test_cli_import_loads_no_random():
    # Brent's rho runs on fixed constants; -S keeps what site imports
    # (which may include random) out of the result
    assert "random" not in _imported("-S", "-c", "import lehmer_congruences.cli")


@pytest.mark.parametrize("argv", [
    ["--identity", "thm3"],
    ["--identity", "lemma4", "--a", "2", "--p", "5"],
], ids=["thm3", "lemma4"])
def test_modular_scans_load_no_fractions_decimal_or_json(argv):
    # no modular check forms a Fraction and JSON rows are written directly;
    # what a bare interpreter loads (a .pth file in site, say) is not counted
    heavy = {"fractions", "decimal", "json"}
    baseline = _imported("-c", "pass")
    scan = ["-m", "lehmer_congruences", "scan", *argv, "--from", "5", "--to", "60"]
    loaded = _imported(*scan, "--format", "json")
    assert "lehmer_congruences.cli" in loaded
    assert loaded & heavy <= baseline
    exact = _imported(*scan, "--format", "json", "--exact-oracle")
    assert "fractions" in exact | baseline


_CHECKS = {"arith", "cli", "errors", "quotients", "report", "verifier"}


@pytest.mark.parametrize("argv, loads", [
    (["--help"], {"cli", "errors"}),
    (["verify", "--identity", "thm3", "--n", "35"], _CHECKS | {"sums"}),
    (["scan", "--identity", "lemma3", "--a", "2", "--from", "5", "--to", "60"], _CHECKS),
    (["scan", "--identity", "thm3", "--from", "5", "--to", "60"], _CHECKS | {"sums", "sweep"}),
    (["verify", "--identity", "lemma3", "--a", "2", "--n", "35"], _CHECKS),
    (["scan", "--identity", "lemma4", "--a", "2", "--p", "5", "--from", "5", "--to", "60"],
     _CHECKS),
    (["scan", "--identity", "lemma1", "--from", "3", "--to", "11"], _CHECKS | {"bernoulli"}),
    (["verify", "--identity", "lemma1", "--p", "5", "--bernoulli-cap", "30"],
     _CHECKS | {"bernoulli"}),
    (["counterexample", "--identity", "thm3", "--class", "4"],
     _CHECKS | {"sums"}),
    (["fq", "--n", "7", "--a", "2"], {"arith", "cli", "errors", "quotients", "report"}),
    (["bernoulli", "--m", "12"], {"arith", "bernoulli", "cli", "errors"}),
    (["sum", "--n", "35", "--d", "3"], {"arith", "cli", "errors", "quotients", "report", "sums"}),
], ids=[
    "help", "verify", "lemma-scan", "sum-scan", "lemma3-verify", "lemma4-scan", "lemma1-scan",
    "lemma1-cap", "counterexample", "fq", "bernoulli", "sum",
])
def test_each_command_loads_only_the_layers_it_calls(argv, loads):
    # a command compiles the layers its routes call and no other: the lemma
    # checks take no sum and no Bernoulli number, only a scan that sums a
    # list loads sweep, and the raw-value commands load no verifier
    loaded = _imported("-m", "lehmer_congruences", *argv)
    ours = {name for name in loaded if name.startswith("lehmer_congruences.")}
    assert ours - {"lehmer_congruences.__main__"} == {f"lehmer_congruences.{name}" for name in loads}


@pytest.mark.parametrize("args, code, loads", [
    (["-m", "lehmer_congruences", "--help"], 0, {"cli", "errors"}),
    (["-m", "lehmer_congruences", "scan", "--identity", "thm3"], 2, {"cli", "errors"}),
    (["-c", "import lehmer_congruences"], 0, set()),
    (["-c", "from lehmer_congruences import errors"], 0, {"errors"}),
], ids=["help", "usage-error", "import", "submodule"])
def test_a_process_that_runs_no_check_loads_no_layer(args, code, loads):
    # the layers are compiled once a command runs (or an exported name is
    # read), not to parse arguments; -m runs __main__ without importing it
    loaded = _imported(*args, code=code)
    ours = {name for name in loaded if name.startswith("lehmer_congruences")}
    assert ours - {"lehmer_congruences.__main__"} == {"lehmer_congruences"} | {
        f"lehmer_congruences.{name}" for name in loads
    }


def test_dispatch_keeps_a_layer_name_bound_before_the_layers_load():
    # a wrapper set on cli (as bench/tracer.py sets its wrappers) is what runs
    probe = (
        "from lehmer_congruences import cli\n"
        "cli.scan = lambda *args, **kwargs: []\n"
        "print(cli.main(['scan', '--identity', 'thm3', '--from', '5', '--to', '60',\n"
        "                '--format', 'json']))"
    )
    assert _probe(probe) == ["1"]


def test_a_sum_name_bound_on_verifier_before_sums_loads_is_what_runs():
    # verifier binds the sums names on the first check that sums; one set
    # there before (a test double) is kept and called
    probe = (
        "from lehmer_congruences import verifier\n"
        "seen = []\n"
        "verifier.lehmer_sum = lambda n, d: seen.append(n) or verifier.theorem_rhs(n, d)\n"
        "print(verifier.verify(verifier.IdentityId.THM_3, n=49).holds, *seen)"
    )
    assert _probe(probe) == ["True", "49"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_json_scan_loads_no_dataclasses_inspect_or_csv(workers):
    # start-up time: dataclasses pulls in inspect, ast, dis and tokenize, and
    # csv serves the csv format only; neither the import nor a json scan,
    # serial or forked, may load them (those the interpreter loaded before
    # are not counted)
    probe = (
        "import io, sys\n"
        "heavy = {'dataclasses', 'inspect', 'csv'}\n"
        "before = heavy & set(sys.modules)\n"
        "from lehmer_congruences import verifier\n"
        "from lehmer_congruences.cli import main\n"
        "verifier._usable_cpus = lambda: 2\n"
        "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        "code = main(['scan', '--identity', 'thm3', '--from', '5', '--to', '60',\n"
        f"             '--format', 'json', '--workers', '{workers}'])\n"
        "rows = len(sys.stdout.getvalue().splitlines())\n"
        "sys.stdout = stdout\n"
        "print(code, rows, *sorted(heavy & set(sys.modules) - before))"
    )
    assert _probe(probe) == ["0", "19"]
