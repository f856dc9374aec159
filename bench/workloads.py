"""The four workloads: which CLI operations a round runs, generated from a seed.

An operation is one `python -m lehmer_congruences` invocation.  Every round
of a run repeats the same operations, so the share of failed checks is the
same in every run whatever its length.  The seed moves the upper ends of the
scanned ranges by up to 2% and the start of the lemma4 window, and orders the
large-moduli operations; it leaves the cost of a round within about two
percent, so the spread between seeds measures the program, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import Oracle

WORKLOADS = ("sweep-serial", "sweep-parallel", "lemma-oracle", "large-moduli")

# Sweep size: n <= SWEEP_TO + jitter, 2 to 3.5 s per serial round on 2 vCPUs.
SWEEP_TO = 2400
SWEEP_JITTER = 24

# lemma3 spends nearly all its time factorizing n^2 (trial division to 10^6,
# then Brent's rho on the square of the largest prime factor), so the cost of
# a window of n is set by the largest prime factors of its members: windows
# of 30 numbers drawn near 10^11 differed in cost by 33% (coefficient of
# variation over 20 windows).  The lemma3 window is therefore fixed; the
# lemma4 window, whose cost varied by 12% on a tenth of the round, is drawn.
LEMMA3_WINDOW = (100_000_000_000, 100_000_000_029)
LEMMA4_BASE, LEMMA4_SPAN, LEMMA4_WIDTH = 100_000_000_000, 10**9, 1000
# n = 10^12 + 39 is prime; lemma3 factorizes n^2 from scratch and Brent's rho
# runs out of its 2,000,000-step budget on it.  This is the one operation
# expected to fail.
LEMMA3_FAULT_N = 1_000_000_000_039
KNOWN_FAULT = "lemma3-rho-budget"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the checks its output must contain, in order."""

    identity: str
    args: tuple[str, ...]  # everything after the module name except --workers
    ns: tuple[int, ...]  # the scanned variable of each expected row
    a: int | None = None
    p: int | None = None
    d: int | None = None
    known_fault: str | None = None

    @property
    def is_scan(self) -> bool:
        return self.args[0] == "scan"

    def argv(self, workers: int) -> list[str]:
        return [*self.args, "--workers", str(workers)]


def _scan(oracle: Oracle, identity: str, lo: int, hi: int, *, a=None, p=None,
          d=None, extra: tuple[str, ...] = ()) -> Op:
    args = ["scan", "--identity", identity, "--from", str(lo), "--to", str(hi)]
    for flag, value in (("--a", a), ("--p", p), ("--d", d)):
        if value is not None:
            args += [flag, str(value)]
    ns = tuple(n for n in range(lo, hi + 1) if oracle.admissible(identity, n, a, p))
    return Op(identity, (*args, *extra, "--format", "json"), ns, a, p, d)


def workers_for(workload: str) -> int:
    return 2 if workload == "sweep-parallel" else 1


def build(workload: str, seed: int, oracle: Oracle) -> list[Op]:
    """The operations of one round; the same seed gives the same list."""
    sweep = workload in ("sweep-serial", "sweep-parallel")
    # Both sweeps draw the same ranges for a seed, so their outputs can be
    # compared byte for byte.
    rng = random.Random(f"{'sweep' if sweep else workload}/{seed}")
    if sweep:
        return [
            _scan(oracle, identity, 3 if identity == "cai" else 5,
                  SWEEP_TO + rng.randrange(SWEEP_JITTER))
            for identity in ("thm3", "thm4", "thm6", "cai")
        ]
    if workload == "lemma-oracle":
        exact = ("--exact-oracle",)

        def jitter(hi: int) -> int:
            return hi + rng.randrange(hi // 50)

        return [
            # B_{p(p-1)} up to B_930 for p = 31; the cap admits it.
            _scan(oracle, "lemma1", 3, 31, extra=("--bernoulli-cap", "1000", *exact)),
            _scan(oracle, "lemma2-d3", 5, jitter(700), p=5, extra=exact),
            _scan(oracle, "lemma2-d4", 5, jitter(700), p=5, extra=exact),
            _scan(oracle, "lemma2-d6", 5, jitter(700), p=7, extra=exact),
            _scan(oracle, "moebius", 5, jitter(500), p=5, d=3, extra=exact),
            _scan(oracle, "lemma3", 5, jitter(150), a=2, extra=exact),
            _scan(oracle, "lemma4", 5, jitter(600), a=2, p=5, extra=exact),
            _scan(oracle, "lehmer-half", 3, jitter(800), extra=exact),
            _scan(oracle, "thm4", 5, jitter(600), extra=exact),
        ]
    if workload == "large-moduli":
        lo4 = LEMMA4_BASE + rng.randrange(LEMMA4_SPAN)
        ops = [
            _scan(oracle, "lemma3", *LEMMA3_WINDOW, a=2),
            _scan(oracle, "lemma4", lo4, lo4 + LEMMA4_WIDTH - 1, a=2, p=5),
            Op("lemma3",
               ("verify", "--identity", "lemma3", "--a", "2",
                "--n", str(LEMMA3_FAULT_N), "--format", "json"),
               (LEMMA3_FAULT_N,), a=2, known_fault=KNOWN_FAULT),
        ]
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
