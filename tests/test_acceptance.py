"""Acceptance suite: one end-to-end check per shipping requirement.

Every test funnels through _line so the run emits a single PASS/FAIL
line per criterion (visible with pytest -s or in captured output).
The expected constants here were derived independently of the library:
classical Bernoulli values, hand-reduced Fermat quotients, and exact
rational arithmetic over fractions.Fraction.
"""

import random
import time
from fractions import Fraction
from math import gcd

from lehmer_congruences.arith import (
    factorize,
    is_prime,
    p_adic_valuation,
    padic_congruent,
    rational_mod,
)
from lehmer_congruences.bernoulli import (
    bernoulli_number,
    bernoulli_poly,
    power_sum,
    special_value,
    von_staudt_clausen,
)
from lehmer_congruences.quotients import fermat_quotient
from lehmer_congruences.report import IdentityId
from lehmer_congruences.sums import (
    HALF,
    SumSpec,
    exact_sum,
    modular_sum,
    moebius_decomposition_check,
)
from lehmer_congruences.verifier import (
    counterexample_search,
    crt_reassembly_check,
    scan,
    verify,
)


def _line(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _admissible(limit: int):
    return [n for n in range(5, limit + 1) if gcd(n, 6) == 1]


def _composite(values):
    return [n for n in values if not is_prime(n)]


def test_criterion_01_theorem_sweep():
    started = time.perf_counter()
    failures = 0
    counts = []
    for identity in (IdentityId.THM_3, IdentityId.THM_4, IdentityId.THM_6):
        reports = scan(identity, 5, 10_000)
        counts.append(len(reports))
        failures += sum(report.holds is not True for report in reports)
    elapsed = time.perf_counter() - started
    ok = counts == [3332, 3332, 3332] and failures == 0 and elapsed < 180.0
    _line(
        ok,
        "criterion 1: theorem sweep d in {3,4,6}, gcd(n,6)=1, n <= 10000: "
        f"{sum(counts)} checks, {failures} failures, {elapsed:.1f}s "
        "(budget 180s single-threaded)",
    )


def test_criterion_02_cai_sweep():
    reports = scan(IdentityId.CAI_HALF, 3, 10_000)
    failures = sum(report.holds is not True for report in reports)
    ok = len(reports) == 4999 and failures == 0
    _line(
        ok,
        f"criterion 2: half-range sweep, odd n <= 10000: {len(reports)} checks, "
        f"{failures} failures",
    )


def test_criterion_03_prime_sweeps():
    batches = [
        scan(IdentityId.LEHMER_HALF, 3, 5000),
        scan(IdentityId.LEHMER_P3, 5, 5000),
        scan(IdentityId.LEHMER_P4, 5, 5000),
        scan(IdentityId.LEHMER_P6, 5, 5000),
    ]
    counts = [len(batch) for batch in batches]
    failures = sum(
        report.holds is not True for batch in batches for report in batch
    )
    ok = counts == [668, 667, 667, 667] and failures == 0
    _line(
        ok,
        "criterion 3: prime congruences p <= 5000 (half-range also at p=3): "
        f"{sum(counts)} checks, {failures} failures",
    )


def test_criterion_04_totient_bernoulli_link():
    reports = {p: verify(IdentityId.LEMMA_1, p=p) for p in (5, 7, 11, 13)}
    all_hold = all(
        report.holds and report.required == 2 for report in reports.values()
    )
    # independent oracle for the worked p=5 case: classical B_20
    frozen_b20 = Fraction(-174611, 330)
    difference = 4 - 5 * frozen_b20  # phi(5) - 5 B_20 = 174875/66
    exact_valuation = (
        bernoulli_number(20) == frozen_b20
        and p_adic_valuation(difference, 5) == 3
        and reports[5].valuation == 3
    )
    ok = all_hold and exact_valuation
    _line(
        ok,
        "criterion 4: totient/Bernoulli congruence at p in {5,7,11,13}, "
        "worked p=5 valuation exactly 3 against frozen B_20 = -174611/330",
    )


def test_criterion_04_deep_prime_power():
    report = verify(IdentityId.LEMMA_1, p=5, alpha=2)
    ok = (
        report.holds is True
        and report.required == 4
        and report.valuation >= 4
    )
    _line(
        ok,
        "criterion 4: totient/Bernoulli congruence at p=5, alpha=2 "
        f"(index 500): valuation {report.valuation} >= 4",
    )


def test_criterion_05_restricted_sum_localization():
    identities = (
        IdentityId.LEMMA_2_D3,
        IdentityId.LEMMA_2_D4,
        IdentityId.LEMMA_2_D6,
    )
    total = failures = 0
    for n in _admissible(2000):
        for p, _ in factorize(n).factors:
            if p not in (5, 7, 11, 13):
                continue
            for identity in identities:
                total += 1
                if verify(identity, n=n, p=p).holds is not True:
                    failures += 1
    pinned = verify(IdentityId.LEMMA_2_D3, n=35, p=5)
    half_quotient = rational_mod(Fraction(fermat_quotient(25, 3), 2), 25)
    pinned_ok = (
        pinned.lhs.rep == 13
        and pinned.rhs.rep == 13
        and half_quotient.rep == 13
    )
    ok = total == 1020 and failures == 0 and pinned_ok
    _line(
        ok,
        "criterion 5: restricted sums at prime powers, n <= 2000, "
        f"p in {{5,7,11,13}}: {total} checks, {failures} failures; "
        "pinned n=35, p=5, d=3 gives 13 = (1/2) q_25(3) mod 25",
    )


def test_criterion_06_quotient_lifting():
    total = failures = 0
    for a in (2, 3, 5):
        for n in range(2, 301):
            if gcd(n, 6 * a) != 1:
                continue
            total += 1
            if verify(IdentityId.LEMMA_3, n=n, a=a).holds is not True:
                failures += 1
    pinned = verify(IdentityId.LEMMA_3, n=5, a=2)
    pinned_ok = pinned.lhs.rep == 18 and pinned.rhs.rep == 18
    ok = total > 0 and failures == 0 and pinned_ok
    _line(
        ok,
        f"criterion 6: quotient lifting n <= 300, a in {{2,3,5}}: {total} "
        f"checks, {failures} failures; pinned n=5, a=2 gives 18 mod 25",
    )


def test_criterion_07_quotient_localization():
    total = failures = 0
    for n in _composite(range(4, 2001)):
        for a in (2, 3):
            if gcd(a, n) != 1:
                continue
            for p, _ in factorize(n).factors:
                if p < 5:
                    continue
                total += 1
                if verify(IdentityId.LEMMA_4, n=n, a=a, p=p).holds is not True:
                    failures += 1
    pinned = verify(IdentityId.LEMMA_4, n=35, a=2, p=5)
    pinned_ok = pinned.lhs.rep == 13 and pinned.rhs.rep == 13
    ok = total == 2861 and failures == 0 and pinned_ok
    _line(
        ok,
        f"criterion 7: composite quotient localization n <= 2000: {total} "
        f"checks, {failures} failures; pinned n=35, a=2, p=5 gives 13 mod 25",
    )


def test_criterion_08_hypothesis_sharpness():
    trail = counterexample_search(IdentityId.THM_3, 4)
    at_four = trail[-1]
    four_ok = (
        at_four.params["n"] == 4
        and at_four.holds is False
        and at_four.lhs.rep == 1
        and at_four.rhs.rep == 13
        and at_four.modulus == 16
    )
    trail = counterexample_search(IdentityId.THM_4, 3)
    at_three = trail[-1]
    three_ok = (
        at_three.params["n"] == 3
        and at_three.holds is False
        and at_three.lhs.rep == 0
        and at_three.rhs.rep == 3
        and at_three.modulus == 9
    )
    trail = counterexample_search(IdentityId.THM_3, 2, n_to=50)
    in_class_two = trail[-1]
    class_two_ok = (
        in_class_two.holds is False
        and in_class_two.params["n"] <= 50
        and in_class_two.params["n"] == 8
        and in_class_two.lhs.rep == 13
        and in_class_two.rhs.rep == 61
    )
    ok = four_ok and three_ok and class_two_ok
    _line(
        ok,
        "criterion 8: d=3 fails at n=4 (1 vs 13 mod 16), d=4 fails at n=3 "
        "(0 vs 3 mod 9), class 2 mod 6 fails at n=8 <= 50 (13 vs 61 mod 64)",
    )


def test_criterion_09_oracle_equivalence():
    checked = diverged = 0
    for n in range(3, 501):
        specs = []
        if n % 2 == 1:
            specs.append(SumSpec(n, HALF, None, n * n))
        if gcd(n, 6) == 1 and n >= 5:
            specs.extend(SumSpec(n, d, None, n * n) for d in (3, 4, 6))
            for p, alpha in factorize(n).factors:
                modulus = p ** (2 * alpha)
                specs.extend(SumSpec(n, d, p, modulus) for d in (3, 4, 6))
        for spec in specs:
            residue = modular_sum(spec)
            exact = exact_sum(spec)
            for p, exponent in factorize(spec.modulus).factors:
                checked += 1
                if not padic_congruent(Fraction(residue.rep), exact, p, exponent):
                    diverged += 1
    ok = checked >= 1800 and diverged == 0
    _line(
        ok,
        "criterion 9: modular sums against exact rationals, n <= 500: "
        f"{checked} prime-power comparisons, {diverged} divergences",
    )


def test_criterion_10_bernoulli_suite():
    mismatches = 0
    for m in range(2, 61, 2):
        for d in (3, 4, 6):
            if special_value(d, m) != bernoulli_poly(m, Fraction(1, d)):
                mismatches += 1
        integer_part, primes = von_staudt_clausen(m)
        value = bernoulli_number(m)
        if value + sum(Fraction(1, p) for p in primes) != integer_part:
            mismatches += 1
        denominator = 1
        for p in primes:
            denominator *= p
        if value.denominator != denominator:
            mismatches += 1
    rng = random.Random(0x5EED)
    for _ in range(200):
        x = Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
        count = rng.randrange(0, 40)
        m = rng.randrange(0, 12)
        direct = sum((x + r) ** m for r in range(count))
        if power_sum(x, count, m) != direct:
            mismatches += 1
    ok = mismatches == 0
    _line(
        ok,
        "criterion 10: Bernoulli special values, von Staudt-Clausen, and "
        f"200 random power sums: {mismatches} mismatches",
    )


def test_criterion_11_decomposition_and_reassembly():
    admissible = _admissible(2000)
    moebius_total = moebius_failures = 0
    for n in admissible:
        for p, _ in factorize(n).factors:
            for d in (3, 4, 6):
                moebius_total += 1
                if not moebius_decomposition_check(n, p, d):
                    moebius_failures += 1
    crt_total = crt_failures = 0
    for n in _composite(admissible):
        for d in (3, 4, 6):
            crt_total += 1
            if not crt_reassembly_check(n, d):
                crt_failures += 1
    ok = (
        moebius_total == 3138
        and crt_total == 1095
        and moebius_failures == 0
        and crt_failures == 0
    )
    _line(
        ok,
        "criterion 11: Moebius decomposition "
        f"({moebius_total} checks, {moebius_failures} failures) and CRT "
        f"reassembly ({crt_total} checks, {crt_failures} failures), n <= 2000",
    )
