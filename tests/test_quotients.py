"""Fermat quotients: exact, reduced, and the lemma checks built on them."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lehmer_congruences.arith import euler_phi, factorize, mod_inv
from lehmer_congruences.bernoulli import BernoulliCache, bernoulli_number, rational_mod
from lehmer_congruences.errors import (
    IndexCapExceeded,
    NotCoprimeError,
    PowerSizeExceeded,
    PreconditionError,
    PrimeDivisibilityError,
)
from lehmer_congruences import quotients
from lehmer_congruences.quotients import (
    QuotientValue,
    fermat_quotient,
    fermat_quotient_mod,
    lemma1_check,
    lemma3_check,
    lemma3_exact_sides,
    lemma4_check,
    lemma4_exact_sides,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def test_fermat_quotient_values():
    assert fermat_quotient(5, 2) == QuotientValue(5, 2, 3)
    assert fermat_quotient(5, 3).value == 16
    assert fermat_quotient(25, 2).value == 41943
    assert fermat_quotient(9, 2).value == 7
    assert fermat_quotient(7, 1).value == 0
    assert fermat_quotient(2, 3).value == 1
    with pytest.raises(NotCoprimeError):
        fermat_quotient(6, 2)
    with pytest.raises(PreconditionError):
        fermat_quotient(1, 2)


def test_fermat_quotient_refuses_an_oversized_power(monkeypatch):
    # phi(101) * log2(2) = 100 bits; the check comes before a^phi is formed
    monkeypatch.setattr(quotients, "MAX_POWER_BITS", 99)
    with pytest.raises(PowerSizeExceeded, match="2\\^phi\\(101\\)"):
        fermat_quotient(101, 2)
    with pytest.raises(PowerSizeExceeded):
        lemma3_exact_sides(11, 2)  # q_{121}(2) needs 2^110
    assert fermat_quotient(101, 1).value == 0  # log2(1) = 0
    monkeypatch.setattr(quotients, "MAX_POWER_BITS", 100)
    assert fermat_quotient(101, 2).value == (2**100 - 1) // 101


def test_fermat_quotient_exactness_invariant():
    for n in range(2, 1001):
        phi = euler_phi(factorize(n))
        for a in (2, 3, 5, 7):
            if gcd(a, n) != 1:
                continue
            q = fermat_quotient(n, a)
            assert n * q.value == a**phi - 1, (n, a)


def test_euler_divisibility_sweep():
    # the integrality behind the quotient, over the full range
    for n in range(2, 3001):
        phi = euler_phi(factorize(n))
        for a in (2, 3, 5, 7):
            if gcd(a, n) == 1:
                assert pow(a, phi, n) == 1, (n, a)


def test_fermat_quotient_mod_agrees_with_exact():
    for n in range(2, 501):
        for a in (2, 3):
            if gcd(a, n) != 1:
                continue
            exact = fermat_quotient(n, a).value
            for m in (n, n * n, 7):
                assert fermat_quotient_mod(n, a, m).rep == exact % m, (n, a, m)


def test_fermat_quotient_mod_values():
    assert fermat_quotient_mod(25, 2, 25).rep == 18
    assert fermat_quotient_mod(25, 3, 25).rep == 1
    assert fermat_quotient_mod(35, 2, 25).rep == 24
    assert fermat_quotient_mod(5, 2, 1).rep == 0
    with pytest.raises(PreconditionError):
        fermat_quotient_mod(5, 2, 0)


def test_quotient_log_property():
    # q_n(ab) = q_n(a) + q_n(b) mod n when all three quotients exist
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randrange(2, 400)
        a = rng.randrange(2, 50)
        b = rng.randrange(2, 50)
        if gcd(a * b, n) != 1:
            continue
        lhs = fermat_quotient_mod(n, a * b, n).rep
        rhs = (fermat_quotient_mod(n, a, n).rep + fermat_quotient_mod(n, b, n).rep) % n
        assert lhs == rhs, (n, a, b)


def test_lemma1_small_primes():
    for p in (5, 7, 11, 13):
        report = lemma1_check(p, 1)
        assert report.holds, p
        assert report.required == 2
        assert report.modulus == p * p
        assert report.lhs.rep == (p - 1) % (p * p)


def test_lemma1_exact_valuation_at_5():
    # phi(5) - 5 B_20 = 4 + 174611/66 = 174875/66 = 5^3 * 1399 / 66
    report = lemma1_check(5, 1)
    assert report.valuation == 3
    diff = Fraction(4) - 5 * bernoulli_number(20)
    assert diff == Fraction(174875, 66)


def test_lemma1_boundary_primes():
    # the stated congruence is checked faithfully, and it genuinely fails
    # at (2, 1): phi(2) - 2 B_2 = 1 - 1/3 = 2/3 has v_2 = 1 < 2
    report = lemma1_check(2, 1)
    assert report.holds is False
    assert report.valuation == 1 and report.required == 2
    # (2, 2): phi(4) - 4 B_8 = 2 + 2/15 = 32/15 has v_2 = 5 >= 4
    report = lemma1_check(2, 2)
    assert report.holds and report.valuation == 5
    # (3, 1): phi(3) - 3 B_6 = 2 - 1/14 = 27/14 has v_3 = 3 >= 2
    report = lemma1_check(3, 1)
    assert report.holds and report.valuation == 3


def test_lemma1_cap_propagates():
    cache = BernoulliCache(max_index=10)
    with pytest.raises(IndexCapExceeded):
        lemma1_check(5, 1, cache)
    with pytest.raises(PreconditionError):
        lemma1_check(4, 1)
    with pytest.raises(PreconditionError):
        lemma1_check(5, 0)


def test_lemma1_depth_two_at_5():
    # needs B_500: index phi(5^4) = 500
    cache = BernoulliCache(max_index=500)
    report = lemma1_check(5, 2, cache)
    assert report.holds
    assert report.required == 4
    assert report.valuation >= 4
    assert report.modulus == 625


def test_lemma3_pinned_and_sweep():
    report = lemma3_check(5, 2)
    assert report.holds
    assert report.lhs.rep == 18 and report.rhs.rep == 18
    assert report.modulus == 25
    for n in range(5, 101):
        for a in (2, 3, 5):
            if gcd(n, 6 * a) != 1:
                continue
            assert lemma3_check(n, a).holds, (n, a)
    with pytest.raises(NotCoprimeError):
        lemma3_check(9, 2)  # 3 divides n
    with pytest.raises(NotCoprimeError):
        lemma3_check(25, 5)  # shared factor with a


def test_lemma3_large_prime_within_rho_budget():
    # Factorizing n^2 from scratch exhausted Brent's rho budget on P^2 here;
    # phi(n^2) = n phi(n) needs only the factorization of n itself.
    n = 1000000000039  # prime, so phi(n) = n - 1
    nsq = n * n
    expected = (pow(2, n * (n - 1), nsq * nsq) - 1) % (nsq * nsq) // nsq
    report = lemma3_check(n, 2)  # raised FactorizationLimitExceeded before
    assert report.holds
    assert report.lhs.rep == report.rhs.rep == expected


def test_lemma_checks_factorize_n_once(monkeypatch):
    calls = []

    def counting(n, **kwargs):
        calls.append(n)
        return factorize(n, **kwargs)

    monkeypatch.setattr(quotients, "factorize", counting)
    assert lemma3_check(5 * 7 * 11, 2).holds
    assert calls == [385]
    calls.clear()
    assert lemma4_check(5**2 * 7 * 11, 2, 5).holds
    assert calls == [1925]


def test_lemma4_pinned():
    report = lemma4_check(35, 2, 5)
    assert report.holds
    assert report.lhs.rep == 13 and report.rhs.rep == 13
    assert report.modulus == 25
    assert report.params["alpha"] == 1


def test_lemma4_prime_power_degenerate():
    # n = p^alpha means q = 1 and both sides coincide literally
    report = lemma4_check(25, 2, 5)
    assert report.holds
    assert report.lhs == report.rhs


def test_lemma4_small_sweep():
    for n in range(6, 300):
        factors = factorize(n).factors
        for a in (2, 3):
            if gcd(a, n) != 1:
                continue
            for p, _ in factors:
                if p < 5:
                    continue
                assert lemma4_check(n, a, p).holds, (n, a, p)


def test_lemma4_preconditions():
    with pytest.raises(PrimeDivisibilityError):
        lemma4_check(35, 2, 11)
    with pytest.raises(NotCoprimeError):
        lemma4_check(35, 7, 5)
    with pytest.raises(PreconditionError):
        lemma4_check(35, 2, 4)


def _exact_matches(report, sides) -> None:
    lhs, rhs = (rational_mod(side, report.modulus) for side in sides)
    assert (report.lhs, report.rhs) == (lhs, rhs), report.params


@PROPERTY
@given(st.integers(2, 300), st.integers(-12, 12))
def test_lemma3_check_matches_its_exact_sides(n, a):
    assume(gcd(n, 6 * a) == 1)
    _exact_matches(lemma3_check(n, a), lemma3_exact_sides(n, a))


@PROPERTY
@given(st.integers(2, 2000), st.integers(-12, 12), st.data())
def test_lemma4_check_matches_its_exact_sides(n, a, data):
    assume(gcd(a, n) == 1)
    p = data.draw(st.sampled_from([p for p, _ in factorize(n).factors]))  # p = 2 too
    _exact_matches(lemma4_check(n, a, p), lemma4_exact_sides(n, a, p))
