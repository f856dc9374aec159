"""Compare one CLI invocation's output with the oracle and count failures.

A check is one expected row.  It fails when its row is missing or skipped,
when the invocation exits with an unexpected code, or when the row disagrees
with the oracle (a wrong answer, which also clears `correct`).  A row the
admissibility rule does not admit is counted as one more failed, wrong check.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from oracle import Oracle
from workloads import Op

# What the CLI prints when Brent's rho runs out of steps.
RHO_BUDGET_MESSAGE = "rho iteration budget exhausted"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # checks whose printed values contradict the oracle
    reasons: Counter = field(default_factory=Counter)

    @property
    def confirmed(self) -> int:
        return self.attempted - self.failed

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.reasons.update(other.reasons)


def _fail(outcome: Outcome, reason: str, *, wrong: bool = False) -> None:
    outcome.failed += 1
    outcome.wrong += wrong
    outcome.reasons[reason] += 1


def check_op(op: Op, code: int, out: str, err: str, oracle: Oracle,
             sample: frozenset[int] = frozenset()) -> Outcome:
    """Account for every check of one invocation.

    sample names the rows whose left side is also recomputed as an exact
    Fraction sum; every other row is checked against the oracle's right side,
    which must equal the printed lhs, rhs and holds = true.
    """
    outcome = Outcome(attempted=len(op.ns))
    if op.known_fault and code == 1 and not out and RHO_BUDGET_MESSAGE in err:
        for _ in op.ns:
            _fail(outcome, f"known fault: {op.known_fault}")
        return outcome
    key = "p" if op.identity == "lemma1" else "n"
    expected = set(op.ns)
    rows: dict[int, dict] = {}
    order: list[int] = []
    for line in out.splitlines():
        try:
            row = json.loads(line)
            n = row["params"][key]
        except (ValueError, KeyError, TypeError):
            outcome.attempted += 1
            _fail(outcome, "unparsable row", wrong=True)
            continue
        if n not in expected or n in rows:
            outcome.attempted += 1
            _fail(outcome, "row outside the admissible set", wrong=True)
            continue
        rows[n] = row
        order.append(n)
    if order != sorted(order):
        outcome.reasons["rows out of order"] += 1
        outcome.wrong += 1
    if code != 0:
        for _ in op.ns:
            _fail(outcome, f"exit code {code}")
        return outcome
    for n in op.ns:
        row = rows.get(n)
        if row is None:
            _fail(outcome, "missing row")
        elif "skipped_reason" in row:
            _fail(outcome, "skip row")
        else:
            want = oracle.expected(op.identity, n, op.a, op.p, op.d)
            if {k: row.get(k) for k in want} != want:
                _fail(outcome, "row differs from the oracle", wrong=True)
            elif n in sample:
                exact = oracle.exact_lhs(op.identity, n, op.p, op.d)
                if exact is not None and str(exact) != row["lhs"]:
                    _fail(outcome, "lhs differs from the exact Fraction sum", wrong=True)
    return outcome
