"""Modular arithmetic, factorization and CRT."""

import random
from math import gcd

import pytest

from lehmer_congruences.arith import (
    FactoredInteger,
    Residue,
    crt_combine,
    divisors,
    euler_phi,
    extended_gcd,
    factorize,
    is_prime,
    mod_inv,
    mod_pow,
    moebius,
)
from lehmer_congruences.errors import (
    FactorizationLimitExceeded,
    ModuliNotCoprimeError,
    NotInvertibleError,
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
    assert f.exponent_of(2) == 2
    assert f.exponent_of(5) == 0
    assert f.cofactor(2) == 3
    assert f.cofactor(7) == 12
    with pytest.raises(PreconditionError):
        FactoredInteger(12, ((3, 1), (2, 2)))  # out of order
    with pytest.raises(PreconditionError):
        FactoredInteger(12, ((2, 2),))  # wrong product
    with pytest.raises(PreconditionError):
        FactoredInteger(12, ((2, 0), (3, 1)))  # zero exponent


def test_extended_gcd_bezout():
    rng = random.Random(11)
    for _ in range(500):
        a = rng.randrange(-10**9, 10**9)
        b = rng.randrange(-10**9, 10**9)
        g, x, y = extended_gcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g


def test_mod_pow_values():
    assert mod_pow(2, 10, 1000) == Residue(24, 1000)
    assert mod_pow(2, 0, 7) == Residue(1, 7)
    assert mod_pow(3, 20, 625) == Residue(26, 625)
    # cross-check against full integer powers
    rng = random.Random(5)
    for _ in range(200):
        b = rng.randrange(-50, 50)
        e = rng.randrange(0, 40)
        m = rng.randrange(1, 10**6)
        assert mod_pow(b, e, m).rep == b**e % m
    with pytest.raises(PreconditionError):
        mod_pow(2, -1, 7)
    with pytest.raises(PreconditionError):
        mod_pow(2, 3, 0)


def test_mod_inv_values():
    assert mod_inv(2, 25).rep == 13
    assert mod_inv(7, 25).rep == 18
    assert mod_inv(8, 25).rep == 22
    assert mod_inv(3, 1).rep == 0  # the zero ring
    with pytest.raises(NotInvertibleError, match=r"^gcd\(5, 25\) = 5; 5 is not a unit$"):
        mod_inv(5, 25)
    with pytest.raises(NotInvertibleError):
        mod_inv(0, 7)


def test_mod_inv_is_total_on_units():
    for m in (2, 9, 25, 49, 121, 169, 1225):
        for a in range(1, m):
            if gcd(a, m) != 1:
                continue
            assert a * mod_inv(a, m).rep % m == 1
    # negative and oversized inputs reduce first
    assert (-3) * mod_inv(-3, 25).rep % 25 == 1
    assert mod_inv(27, 25) == mod_inv(2, 25)


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
        assert f.value == n
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


def test_factorize_budget_exhaustion():
    p, q = 1_000_003, 1_000_033
    with pytest.raises(FactorizationLimitExceeded):
        factorize(p * q, rho_iterations=1)


def test_euler_phi_counting_oracle():
    for n in range(1, 2001):
        counted = sum(1 for r in range(1, n + 1) if gcd(r, n) == 1)
        assert euler_phi(factorize(n)) == counted, n


def test_moebius_values_and_indicator():
    assert moebius(factorize(1)) == 1
    assert moebius(factorize(30)) == -1
    assert moebius(factorize(35)) == 1
    assert moebius(factorize(12)) == 0
    # sum of mu over divisors is the indicator of n = 1
    for n in range(1, 2001):
        total = sum(moebius(factorize(s)) for s in divisors(factorize(n)))
        assert total == (1 if n == 1 else 0), n


def test_moebius_phi_ratio():
    # sum over squarefree divisors of mu(s)/s equals phi(q)/q
    from fractions import Fraction

    for q in (1, 7, 11, 77, 91, 143, 1001):
        f = factorize(q)
        total = sum(
            Fraction(moebius(factorize(s)), s) for s in divisors(f)
        )
        assert total == Fraction(euler_phi(f), q)


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
