"""Fermat quotients: exact, reduced, and the lemma checks built on them."""

import random
from fractions import Fraction
from math import gcd
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lehmer_congruences.arith import FactoredInteger, euler_phi, factorize, rational_mod
from lehmer_congruences.bernoulli import BernoulliCache, bernoulli_number
from lehmer_congruences.errors import (
    IndexCapExceeded,
    InvalidDenominatorError,
    NotCoprimeError,
    PowerSizeExceeded,
    PreconditionError,
    PrimeDivisibilityError,
)
from lehmer_congruences import quotients, sums
from lehmer_congruences.quotients import (
    fermat_quotient,
    fermat_quotient_mod,
    lemma1_check,
    lemma3_check,
    lemma3_exact_sides,
    lemma4_check,
    lemma4_exact_sides,
)
from lehmer_congruences.sums import lemma2_rhs, lemma2_rhs_exact

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
P = 1000000000039  # prime
SMALL_PRIMES = [5, 7, 11, 13, 101, 997, 1009]


def test_fermat_quotient_values():
    assert fermat_quotient(5, 2) == 3 and type(fermat_quotient(5, 2)) is int
    assert fermat_quotient(5, 3) == 16
    assert fermat_quotient(25, 2) == 41943
    assert fermat_quotient(9, 2) == 7
    assert fermat_quotient(7, 1) == 0
    assert fermat_quotient(2, 3) == 1
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
    assert fermat_quotient(101, 1) == 0  # log2(1) = 0
    monkeypatch.setattr(quotients, "MAX_POWER_BITS", 100)
    assert fermat_quotient(101, 2) == (2**100 - 1) // 101


def test_fermat_quotient_exactness_invariant():
    for n in range(2, 1001):
        phi = euler_phi(factorize(n))
        for a in (2, 3, 5, 7):
            if gcd(a, n) != 1:
                continue
            assert n * fermat_quotient(n, a) == a**phi - 1, (n, a)


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
            exact = fermat_quotient(n, a)
            assert fermat_quotient(factorize(n), a) == exact, (n, a)
            for m in (n, n * n, n**3, 7):
                for modulus in (n, factorize(n)):
                    got = fermat_quotient_mod(modulus, a, m)
                    assert type(got) is int and got == exact % m, (n, a, m)


def test_fermat_quotient_mod_values():
    assert fermat_quotient_mod(25, 2, 25) == 18
    assert fermat_quotient_mod(25, 3, 25) == 1
    assert fermat_quotient_mod(35, 2, 25) == 24
    assert fermat_quotient_mod(5, 2, 1) == 0
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
        lhs = fermat_quotient_mod(n, a * b, n)
        rhs = (fermat_quotient_mod(n, a, n) + fermat_quotient_mod(n, b, n)) % n
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
        if not isinstance(n, FactoredInteger):  # returned as it is, with no work done
            calls.append(n)
        return factorize(n, **kwargs)

    monkeypatch.setattr(quotients, "factorize", counting)
    assert lemma3_check(5 * 7 * 11, 2).holds
    assert calls == [385]
    calls.clear()
    assert lemma4_check(5**2 * 7 * 11, 2, 5).holds
    assert calls == [1925]
    # the exact twins read phi of n^2, p^alpha and q from that one factorization
    calls.clear()
    lhs, rhs = lemma3_exact_sides(5 * 7 * 11, 2)
    assert rational_mod(lhs - rhs, (5 * 7 * 11) ** 2).rep == 0
    assert calls == [385]
    calls.clear()
    lhs, rhs = lemma4_exact_sides(5**2 * 7 * 11, 2, 5)
    assert rational_mod(lhs - rhs, 5**4).rep == 0
    assert calls == [1925]


def test_a_factored_modulus_is_not_factored_again(monkeypatch):
    calls = []

    def counting(n):
        if not isinstance(n, FactoredInteger):  # returned as it is, with no work done
            calls.append(n)
        return factorize(n)

    monkeypatch.setattr(quotients, "factorize", counting)
    n = factorize(5**2 * 7 * 11)
    for m in (n, n * n, 7):
        assert fermat_quotient_mod(n, 2, m) == fermat_quotient(n, 2) % m
    # factoring P^2 afresh would send Brent's rho after a prime square
    big = FactoredInteger(P * P, ((P, 2),))
    start = perf_counter()
    got = fermat_quotient_mod(big, 2, big)
    assert perf_counter() - start < 1
    q = fermat_quotient_mod(P, 2, big)
    assert got == (q - P * q * q * pow(2, -1, big)) % big  # lemma3's lift
    assert calls == [P]


@PROPERTY
@given(st.integers(2, 10**7), st.sampled_from(SMALL_PRIMES), st.integers(1, 4))
def test_hand_built_factorizations_match_factorize(n, p, alpha):
    # FactoredInteger checks only the product, so a wrong prime or exponent
    # here would pass silently and give a wrong phi
    if gcd(n, 6) == 1:
        factored, square = quotients._lemma3_args(n, 1)
        assert factored.factors == factorize(n).factors
        assert square.factors == factorize(n * n).factors
    factors = factorize(n).factors
    for q, e in factors:
        alpha, cofactor, factored, prime_power = quotients._lemma4_args(n, 1, q)
        assert alpha == e and factored.factors == factors
        assert factorize(cofactor).factors == tuple(f for f in factors if f[0] != q)
        assert prime_power.factors == factorize(q**e).factors
    m = sums._lemma2_rhs_args(p, alpha, 3)
    assert m == p ** (2 * alpha) and m.factors == factorize(p ** (2 * alpha)).factors


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


@pytest.mark.parametrize(
    "modular, exact, args, error",
    [
        (lemma3_check, lemma3_exact_sides, (1, 2), PreconditionError),
        (lemma3_check, lemma3_exact_sides, (9, 2), NotCoprimeError),  # 3 divides n
        (lemma3_check, lemma3_exact_sides, (5, 5), NotCoprimeError),  # a shares 5
        (lemma4_check, lemma4_exact_sides, (35, 7, 5), NotCoprimeError),
        (lemma4_check, lemma4_exact_sides, (35, 2, 9), PreconditionError),
        (lemma4_check, lemma4_exact_sides, (35, 2, 11), PrimeDivisibilityError),
        (lemma2_rhs, lemma2_rhs_exact, (5, 0, 3), PreconditionError),  # alpha = 0
        (lemma2_rhs, lemma2_rhs_exact, (3, 1, 3), PreconditionError),  # p = 3
        (lemma2_rhs, lemma2_rhs_exact, (5, 1, 5), InvalidDenominatorError),  # d = 5
    ],
)
def test_exact_twin_refuses_as_its_modular_route(modular, exact, args, error):
    with pytest.raises(error) as refused:
        modular(*args)
    with pytest.raises(error) as twin:
        exact(*args)
    assert (type(twin.value), str(twin.value)) == (type(refused.value), str(refused.value))


@pytest.mark.parametrize("n", [5, 25, 35, 49, 1001, 3125, 5005, 2 * 17**3 + 1, 10**6 + 3])
def test_the_lemma_arguments_build_their_powers_as_the_validated_constructor(n):
    # _lemma3_args, _lemma4_args and _lemma2_rhs_args build n^2, p^alpha and
    # p^{2 alpha} from known factors, without the constructor's checks
    a = next(a for a in (5, 7, 11, 13, 17) if gcd(a, n) == 1)
    factored, square = quotients._lemma3_args(n, a)
    assert type(square) is FactoredInteger
    assert square == FactoredInteger(n * n, square.factors) == n * n
    assert square.factors == factorize(n * n).factors
    for p, alpha in factored.factors:
        *_, prime_power = quotients._lemma4_args(n, 2, p)
        assert type(prime_power) is FactoredInteger
        assert prime_power == FactoredInteger(p**alpha, prime_power.factors) == p**alpha
        assert prime_power.factors == factorize(p**alpha).factors
        if p >= 5:
            local = sums._lemma2_rhs_args(p, alpha, 3)
            assert local.factors == factorize(p ** (2 * alpha)).factors
            assert local == FactoredInteger(p ** (2 * alpha), local.factors)
