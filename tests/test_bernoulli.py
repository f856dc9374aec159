"""Bernoulli numbers, polynomials, power sums and p-adic helpers."""

import functools
import random
import threading
from fractions import Fraction
from math import comb, inf, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lehmer_congruences.bernoulli import (
    BernoulliCache,
    CAP_ENV_VAR,
    DEFAULT_MAX_INDEX,
    bernoulli_number,
    bernoulli_poly,
    default_cap,
    p_adic_valuation,
    padic_congruent,
    power_sum,
    rational_mod,
    special_value,
    von_staudt_clausen,
)
from lehmer_congruences.errors import (
    IndexCapExceeded,
    InvalidDenominatorError,
    NotInvertibleError,
    PreconditionError,
)

# classical values, straight from the recurrence by hand
KNOWN = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    20: Fraction(-174611, 330),
}


def test_bernoulli_known_values():
    for m, value in KNOWN.items():
        assert bernoulli_number(m) == value, m


def test_odd_indices_vanish():
    for m in range(3, 60, 2):
        assert bernoulli_number(m) == 0


def test_defining_recurrence():
    # sum_{k=0}^{m} C(m+1, k) B_k = 0 for every m >= 1
    for m in range(1, 61):
        total = sum(comb(m + 1, k) * bernoulli_number(k) for k in range(m + 1))
        assert total == 0, m


@functools.cache
def reference_table(m):
    """B_0 .. B_m by the defining recurrence over Fractions: the O(m^2)
    reference that the boustrophedon table is checked against."""
    table = [Fraction(1)]
    for j in range(1, m + 1):
        if j % 2 and j > 1:
            table.append(Fraction(0))
            continue
        acc = Fraction(0)
        for k in range(j):
            if k % 2 and k > 1:
                continue
            acc += comb(j + 1, k) * table[k]
        table.append(-acc / (j + 1))
    return table


def test_table_matches_reference_recurrence():
    cache = BernoulliCache(max_index=400)
    assert [cache.get(m) for m in range(401)] == reference_table(400)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 300), st.integers(0, 300))
def test_cache_keeps_extending_from_its_row(i, j):
    # a cache filled to i goes on extending from the row it kept
    i, j = sorted((i, j))
    cache = BernoulliCache(max_index=300)
    cache.get(i)
    assert cache.get(j) == BernoulliCache(max_index=300).get(j)
    assert len(cache) == j + 1
    assert [cache.get(m) for m in range(j + 1)] == reference_table(400)[: j + 1]


def test_full_table_releases_the_row():
    # at the cap the table cannot grow, so the triangle row is dropped
    cache = BernoulliCache(max_index=120)
    cache.get(60)
    assert cache._row
    cache.get(120)
    assert cache._row == []
    assert [cache.get(m) for m in range(121)] == reference_table(120)


def test_cache_cap_enforced():
    cache = BernoulliCache(max_index=10)
    assert cache.get(10) == Fraction(5, 66)
    with pytest.raises(IndexCapExceeded):
        cache.get(12)
    with pytest.raises(PreconditionError):
        cache.get(-1)


def test_cache_env_cap(monkeypatch):
    monkeypatch.setenv(CAP_ENV_VAR, "42")
    assert default_cap() == 42
    cache = BernoulliCache()
    assert cache.max_index == 42
    with pytest.raises(IndexCapExceeded):
        cache.get(44)
    monkeypatch.setenv(CAP_ENV_VAR, "-3")
    with pytest.raises(PreconditionError):
        default_cap()
    monkeypatch.delenv(CAP_ENV_VAR)
    assert default_cap() == DEFAULT_MAX_INDEX


def test_cache_concurrent_extension():
    cache = BernoulliCache(max_index=300)
    results = []

    def worker():
        results.append(cache.get(200))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == bernoulli_number(200)
    assert len(cache) == 201


def test_bernoulli_poly_values():
    for m in (0, 1, 2, 5, 8):
        assert bernoulli_poly(m, 0) == bernoulli_number(m)
    assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli_poly(3, 1) == 0
    assert bernoulli_poly(1, 1) == Fraction(1, 2)
    # B_m(x + 1) - B_m(x) = m x^{m-1}
    rng = random.Random(23)
    for _ in range(100):
        m = rng.randrange(1, 15)
        x = Fraction(rng.randrange(-30, 30), rng.randrange(1, 12))
        assert bernoulli_poly(m, x + 1) - bernoulli_poly(m, x) == m * x ** (m - 1)


def test_power_sum_matches_direct():
    assert power_sum(1, 10, 2) == 385
    assert power_sum(0, 5, 0) == 5
    assert power_sum(Fraction(1, 2), 0, 3) == 0  # empty sum
    rng = random.Random(29)
    for _ in range(150):
        m = rng.randrange(0, 12)
        count = rng.randrange(0, 25)
        x = Fraction(rng.randrange(-20, 20), rng.randrange(1, 20))
        direct = sum((x + r) ** m for r in range(count))
        assert power_sum(x, count, m) == direct


def test_special_values_match_polynomial():
    assert special_value(3, 2) == Fraction(-1, 18)
    assert special_value(4, 2) == Fraction(-1, 48)
    assert special_value(6, 2) == Fraction(1, 36)
    for m in range(2, 31, 2):
        for d in (3, 4, 6):
            closed = special_value(d, m)
            assert closed == bernoulli_poly(m, Fraction(1, d)), (d, m)
            assert closed == bernoulli_poly(m, Fraction(d - 1, d)), (d, m)
    with pytest.raises(InvalidDenominatorError):
        special_value(5, 2)
    with pytest.raises(PreconditionError):
        special_value(3, 3)
    with pytest.raises(PreconditionError):
        special_value(3, 0)


def test_von_staudt_clausen():
    assert von_staudt_clausen(2) == (1, [2, 3])
    assert von_staudt_clausen(4) == (1, [2, 3, 5])
    assert von_staudt_clausen(12) == (1, [2, 3, 5, 7, 13])
    # the denominators come from the divisors of m alone, so this audits the
    # table independently of how it was filled
    cache = BernoulliCache(max_index=600)
    for m in range(2, 601, 2):
        integer, primes = von_staudt_clausen(m, cache)
        value = cache.get(m)
        assert value + sum(Fraction(1, p) for p in primes) == integer
        assert value.denominator == prod(primes), m
    with pytest.raises(PreconditionError):
        von_staudt_clausen(3)


def test_p_adic_valuation():
    assert p_adic_valuation(0, 5) == inf
    assert p_adic_valuation(250, 5) == 3
    assert p_adic_valuation(Fraction(3, 5), 5) == -1
    assert p_adic_valuation(Fraction(-174611, 330), 5) == -1
    assert p_adic_valuation(Fraction(7, 4), 2) == -2
    with pytest.raises(PreconditionError):
        p_adic_valuation(10, 4)


def test_padic_congruent():
    assert padic_congruent(1, 26, 5, 2)
    assert not padic_congruent(1, 26, 5, 3)
    assert padic_congruent(Fraction(1, 3), Fraction(1, 3) + 125, 5, 3)
    # agrees with integer congruence when both sides are integers
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice((5, 7))
        k = rng.randrange(1, 4)
        x = rng.randrange(-(10**6), 10**6)
        y = rng.randrange(-(10**6), 10**6)
        assert padic_congruent(x, y, p, k) == ((x - y) % p**k == 0)
    with pytest.raises(PreconditionError):
        padic_congruent(1, 2, 5, 0)


def test_rational_mod():
    assert rational_mod(Fraction(1, 2), 25).rep == 13
    assert rational_mod(Fraction(-3, 8), 9).rep == 3
    assert rational_mod(7, 5).rep == 2
    with pytest.raises(NotInvertibleError):
        rational_mod(Fraction(1, 5), 25)
