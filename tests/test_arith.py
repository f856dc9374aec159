"""Modular arithmetic, factorization and CRT."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lehmer_congruences import arith
from lehmer_congruences.arith import (
    FactoredInteger,
    Residue,
    crt_combine,
    divisors,
    euler_phi,
    factorize,
    is_prime,
)
from lehmer_congruences.errors import (
    FactorizationLimitExceeded,
    ModuliNotCoprimeError,
    PreconditionError,
)


def test_residue_canonical_range():
    r = Residue(3, 7)
    assert r.rep == 3 and r.modulus == 7
    assert str(r) == "3 (mod 7)"
    with pytest.raises(PreconditionError):
        Residue(7, 7)
    with pytest.raises(PreconditionError):
        Residue(-1, 7)
    with pytest.raises(PreconditionError):
        Residue(0, 0)


def test_factored_integer_validates():
    f = FactoredInteger(12, ((2, 2), (3, 1)))
    with pytest.raises(PreconditionError):
        FactoredInteger(12, ((3, 1), (2, 2)))  # out of order
    with pytest.raises(PreconditionError):
        FactoredInteger(12, ((2, 2),))  # wrong product
    with pytest.raises(PreconditionError):
        FactoredInteger(12, ((2, 0), (3, 1)))  # zero exponent


@pytest.mark.parametrize("value, factors, message", [
    (0, (), "value must be >= 1, got 0"),
    (-12, ((2, 2), (3, 1)), "value must be >= 1, got -12"),
    (12, ((3, 1), (2, 2)), "primes must be strictly increasing"),
    (12, ((2, 2), (2, 0), (3, 1)), "primes must be strictly increasing"),
    (12, ((1, 1), (2, 2), (3, 1)), "primes must be strictly increasing"),
    (12, ((2, 0), (3, 1)), "exponent of 2 must be >= 1, got 0"),
    (12, ((2, 2),), "factors multiply to 4, not 12"),
    (1, ((2, 1),), "factors multiply to 2, not 1"),
])
def test_the_public_factored_integer_constructor_still_validates(value, factors, message):
    # factorize and the lemma arguments take an unchecked route; this one checks
    with pytest.raises(PreconditionError) as caught:
        FactoredInteger(value, factors)
    assert str(caught.value) == message


def test_factorize_builds_what_the_validated_constructor_builds():
    for n in range(1, 20_000):
        factored = factorize(n)
        validated = FactoredInteger(n, factored.factors)
        assert type(factored) is FactoredInteger and factored == validated == n
        assert factored.factors == validated.factors == reference_factors(n), n


def test_is_prime_small_and_carmichael():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n], n
    # Carmichael numbers must not fool the test
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


# the least strong pseudoprimes to the first 12 and the first 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_is_exact_below_psi_13():
    assert not is_prime(PSI_12)
    assert factorize(PSI_12).factors == ((399165290221, 1), (798330580441, 1))


def test_factorize_refuses_a_prime_it_cannot_certify():
    q = 10**25 + 13  # the least prime above 10^25; it passes Miller-Rabin
    assert is_prime(q)
    with pytest.raises(FactorizationLimitExceeded, match=f"{q} is a probable prime"):
        factorize(7 * q)
    with pytest.raises(FactorizationLimitExceeded, match=f"{PSI_13} is a probable prime"):
        factorize(PSI_13)


def test_factorize_values():
    assert factorize(1).factors == ()
    assert factorize(35).factors == ((5, 1), (7, 1))
    assert factorize(174875).factors == ((5, 3), (1399, 1))
    assert factorize(2**10).factors == ((2, 10),)
    with pytest.raises(PreconditionError):
        factorize(0)


def test_factorize_roundtrip_sweep():
    for n in range(1, 3001):
        f = factorize(n)
        assert f == n
        product = 1
        previous = 1
        for p, alpha in f.factors:
            assert p > previous
            assert is_prime(p)
            product *= p**alpha
            previous = p
        assert product == n


def test_factorize_rho_path():
    # both primes exceed the trial division bound, forcing the rho stage
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q)
    assert f.factors == ((p, 1), (q, 1))
    # deterministic: repeated calls agree
    assert factorize(p * q) == f


def test_factorize_rho_retries_a_collapsed_cycle(monkeypatch):
    # from y = 2 the whole cycle collapses mod 1031 * 2389 for c = 1 and
    # c = 2, so the split comes from c = 3
    runs = []
    brent_rho = arith._brent_rho

    def recording(m, c, budget):
        divisor, budget = brent_rho(m, c, budget)
        runs.append((c, divisor))
        return divisor, budget

    monkeypatch.setattr(arith, "_brent_rho", recording)
    n = 1031 * 2389
    f = factorize(n)
    assert f.factors == ((1031, 1), (2389, 1))
    assert [c for c, _ in runs] == [1, 2, 3]
    assert runs[0][1] == runs[1][1] == n and runs[2][1] in (1031, 2389)
    # deterministic: a repeated call takes the same runs to the same result
    assert factorize(n) == f and runs[3:] == runs[:3]


def test_factorize_budget_exhaustion(monkeypatch):
    p, q = 1_000_003, 1_000_033
    monkeypatch.setattr(arith, "_RHO_BUDGET", 1)
    with pytest.raises(FactorizationLimitExceeded):
        factorize(p * q)


def _sieve(limit: int) -> list[int]:
    """The primes below limit, by the sieve of Eratosthenes."""
    mask = bytearray(b"\x01") * limit
    mask[:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if mask[p]]


REFERENCE_PRIMES = _sieve(1_100_000)


def reference_factors(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n by trial division over the sieved primes:
    the reference that factorize is checked against.  Whatever is left once
    p * p exceeds it is 1 or a prime."""
    factors = []
    for p in REFERENCE_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            alpha = 0
            while n % p == 0:
                n //= p
                alpha += 1
            factors.append((p, alpha))
    else:
        raise AssertionError("the reference sieve is too short for this n")
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def _next_prime(n: int) -> int:
    while reference_factors(n) != ((n, 1),):
        n += 1
    return n


# primes on both sides of the trial-division bound of 1000
STRADDLING = st.sampled_from([2, 3, 5, 7, 991, 997, 1009, 1013, 1019])
NEAR_MILLION = st.integers(990_000, 1_010_000).map(_next_prime)
LARGE_PART = st.one_of(
    st.just(1),
    # squares and cubes of primes just above the bound
    st.tuples(st.integers(1001, 1200).map(_next_prime), st.integers(2, 3)).map(
        lambda pe: pe[0] ** pe[1]
    ),
    # a semiprime of primes near 10^6, and a prime near 10^12
    st.tuples(NEAR_MILLION, NEAR_MILLION).map(lambda pq: pq[0] * pq[1]),
    st.integers(10**12, 10**12 + 10**5).map(_next_prime),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(STRADDLING, max_size=5), LARGE_PART)
def test_factorize_matches_trial_division_reference(small, large):
    n = large
    for p in small:
        n *= p
    assert factorize(n).factors == reference_factors(n)


def test_factorize_below_a_million_never_reaches_rho(monkeypatch):
    def no_rho(*args):
        raise AssertionError("the rho stage was entered")

    monkeypatch.setattr(arith, "_rho_factor", no_rho)
    rng = random.Random(20061)
    # 997^2 = 994,009 and the prime 999,983 end the loop only as f passes 1000
    sample = rng.sample(range(1, 10**6), 20_000) + [994_009, 999_983, 999_999]
    for n in sample:
        assert factorize(n).factors == reference_factors(n), n
    with pytest.raises(AssertionError, match="rho stage"):
        factorize(1009 * 1013)  # no factor up to the bound: only rho splits it


def test_euler_phi_counting_oracle():
    for n in range(1, 2001):
        counted = sum(1 for r in range(1, n + 1) if gcd(r, n) == 1)
        assert euler_phi(factorize(n)) == counted, n


def test_divisors_sorted_complete():
    assert divisors(factorize(1)) == [1]
    assert divisors(factorize(28)) == [1, 2, 4, 7, 14, 28]
    for n in (36, 100, 210, 1225):
        divs = divisors(factorize(n))
        assert divs == sorted(divs)
        assert divs == [d for d in range(1, n + 1) if n % d == 0]


def test_crt_combine_values():
    assert crt_combine([Residue(2, 3), Residue(3, 5)]) == Residue(8, 15)
    assert crt_combine([Residue(13, 25), Residue(22, 49)]) == Residue(463, 1225)
    assert crt_combine([Residue(4, 9)]) == Residue(4, 9)
    with pytest.raises(ModuliNotCoprimeError):
        crt_combine([Residue(1, 6), Residue(3, 4)])
    with pytest.raises(PreconditionError):
        crt_combine([])


def test_crt_combine_random_roundtrip():
    rng = random.Random(17)
    moduli_sets = [(3, 5, 7), (4, 9, 25), (8, 27, 125, 7), (25, 49, 121)]
    for moduli in moduli_sets:
        for _ in range(50):
            target = rng.randrange(0, 10**6)
            parts = [Residue(target % m, m) for m in moduli]
            combined = crt_combine(parts)
            product = 1
            for m in moduli:
                product *= m
            assert combined.modulus == product
            assert combined.rep == target % product
