"""The command line surface: parsing, serialization, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lehmer_congruences
from lehmer_congruences import verifier
from lehmer_congruences.arith import Residue
from lehmer_congruences.cli import (
    main,
    parse_report_json,
    serialize_report,
    serialize_reports,
)
from lehmer_congruences.report import IdentityId
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
    assert code == 0  # a skip is not a failure
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][9] == ""  # holds empty
    assert "capped" in rows[1][10]


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
    assert code == 2 and "conflicts" in err
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
    code, _, err = run_cli(capsys, "sum", "--n", "5", "--d", "7")
    assert code == 2


def test_workers_flag_output_identical(capsys):
    argv = ["scan", "--identity", "thm6", "--from", "5", "--to", "200", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv, "--workers", "4")
    assert code1 == code2 == 0
    assert out1 == out2


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


def test_env_cap_respected(capsys, monkeypatch):
    monkeypatch.setenv("CONGRUENCE_BERNOULLI_CAP", "100")
    # fresh cache instances honor the environment; the flag overrides it
    code, _, err = run_cli(
        capsys, "verify", "--identity", "lemma1", "--p", "13",
        "--bernoulli-cap", "100",
    )
    assert code == 1 and "capped at index 100" in err
    code, _, _ = run_cli(
        capsys, "verify", "--identity", "lemma1", "--p", "13",
        "--bernoulli-cap", "200",
    )
    assert code == 0


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


def test_import_loads_no_process_pool():
    # serial runs, --help included, should not pay for multiprocessing
    src = str(Path(lehmer_congruences.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, lehmer_congruences.cli; "
        "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.split() == ["False", "False"]
