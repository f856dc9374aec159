"""Tests of the benchmark's own code: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def orc() -> oracle.Oracle:
    return oracle.Oracle(trial_bound=2000)


def program_output(argv: list[str]) -> tuple[int, str]:
    sys.path.insert(0, str(ROOT / "src"))
    from lehmer_congruences import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("identity,extra", [
    ("thm6", {}),
    ("cai", {}),
    ("lemma2-d4", {"p": 5}),
    ("moebius", {"p": 5, "d": 3}),
    ("lemma3", {"a": 2}),
    ("lemma4", {"a": 2, "p": 5}),
    ("lemma1", {}),
])
def test_real_output_passes_and_one_corrupted_lhs_digit_fails(orc, identity, extra):
    lo, hi = (3, 23) if identity == "lemma1" else (5, 160)  # B_506 is under the default cap
    op = workloads._scan(orc, identity, lo, hi, **extra)
    code, out = program_output(op.argv(1))
    everything = frozenset(op.ns)
    clean = checker.check_op(op, code, out, "", orc, everything)
    assert (clean.attempted, clean.failed, clean.wrong) == (len(op.ns), 0, 0)

    lines = out.splitlines()
    row = json.loads(lines[len(lines) // 2])
    last = row["lhs"][-1]
    row["lhs"] = row["lhs"][:-1] + ("1" if last != "1" else "2")
    lines[len(lines) // 2] = json.dumps(row, separators=(",", ":"))
    bad = checker.check_op(op, code, "\n".join(lines) + "\n", "", orc, everything)
    assert (bad.failed, bad.wrong) == (1, 1)


def test_missing_row_is_a_failed_check(orc):
    op = workloads._scan(orc, "thm3", 5, 200)
    code, out = program_output(op.argv(1))
    lines = out.splitlines()
    del lines[3]
    outcome = checker.check_op(op, code, "\n".join(lines) + "\n", "", orc)
    assert (outcome.failed, outcome.wrong) == (1, 0)
    assert outcome.reasons == {"missing row": 1}


def test_row_outside_the_admissible_set_is_wrong(orc):
    op = workloads._scan(orc, "thm4", 5, 40)
    code, out = program_output(op.argv(1))
    extra = json.dumps(orc.expected("thm4", 43), separators=(",", ":"))
    outcome = checker.check_op(op, code, out + extra + "\n", "", orc)
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (len(op.ns) + 1, 1, 1)


def test_skip_rows_and_exit_codes_fail_without_being_wrong(orc):
    op = workloads._scan(orc, "thm3", 5, 30)
    code, out = program_output(op.argv(1))
    lines = out.splitlines()
    row = json.loads(lines[0])
    lines[0] = json.dumps({"identity": row["identity"], "params": row["params"],
                           "skipped_reason": "cap"})
    skipped = checker.check_op(op, 0, "\n".join(lines), "", orc)
    assert (skipped.failed, skipped.wrong) == (1, 0)
    exited = checker.check_op(op, 1, out, "", orc)
    assert (exited.failed, exited.wrong) == (len(op.ns), 0)


def test_known_fault_is_counted_as_its_own_failure(orc):
    ops = workloads.build("large-moduli", 3, oracle.Oracle())
    (fault,) = [op for op in ops if op.known_fault]
    err = f"error: {checker.RHO_BUDGET_MESSAGE} while splitting 1000000000078000000001521\n"
    outcome = checker.check_op(fault, 1, "", err, orc)
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (1, 1, 0)
    assert outcome.reasons == {f"known fault: {workloads.KNOWN_FAULT}": 1}


def test_same_seed_same_inputs_other_seed_other_inputs():
    orc = oracle.Oracle()
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 11, orc) == workloads.build(workload, 11, orc)
    for workload in ("sweep-serial", "lemma-oracle", "large-moduli"):
        assert workloads.build(workload, 11, orc) != workloads.build(workload, 12, orc)
    serial = workloads.build("sweep-serial", 5, orc)
    assert serial == workloads.build("sweep-parallel", 5, orc)


def test_tangent_number_bernoulli_matches_akiyama_tanigawa():
    table = oracle.bernoulli_even(20)
    for m in range(2, 41, 2):
        assert table[m] == oracle.akiyama_tanigawa(m)
    assert table[12] == Fraction(-691, 2730)


def test_factorizer_and_quotients(orc):
    assert orc.fz.factor(2 * 3**4 * 1999) == {2: 1, 3: 4, 1999: 1}
    assert orc.fz.phi(1999 * 1997) == 1998 * 1996
    assert oracle.quotient_mod(7, 2, 49, 6) == (2**6 - 1) // 7 % 49


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        ((1, 1), None, "verifier.scan", 0.0, 10.0, 0),
        ((2, 1), (1, 1), "verifier.scan_chunk", 1.0, 6.0, 0),
        ((3, 1), (1, 1), "verifier.scan_chunk", 2.0, 8.0, 0),
        ((2, 2), (2, 1), "sums.exact", 1.0, 3.0, 0),
        ((2, 3), (2, 2), "sums.exact", 1.5, 2.5, 0),
    ]
    summary = tracer.summarize(spans)
    assert summary["verifier.scan"]["self_s"] == pytest.approx(3.0)
    assert summary["sums.exact"]["s"] == pytest.approx(2.0)  # the nested one is inside
    assert summary["sums.exact"]["calls"] == 2


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
