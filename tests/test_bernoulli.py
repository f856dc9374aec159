"""Bernoulli numbers, polynomials, power sums and p-adic helpers."""

import functools
import random
import threading
import time
from fractions import Fraction
from itertools import accumulate
from math import comb, inf, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lehmer_congruences import bernoulli
from lehmer_congruences.arith import is_prime, p_adic_valuation, padic_congruent, rational_mod
from lehmer_congruences.bernoulli import (
    BernoulliCache,
    DEFAULT_MAX_INDEX,
    bernoulli_number,
    bernoulli_poly,
    power_sum,
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
    reference that the single-index route is checked against."""
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


@functools.cache
def seidel_table(m):
    """B_0 .. B_m from Seidel's boustrophedon triangle (L. Seidel, 1877).

    A second reference, sharing nothing with the recurrence or the route:
    row n of the triangle is built from row n - 1 by integer additions and
    ends in the zigzag number E_n, and for even j = 2k >= 2
    B_j = (-1)^(k-1) j E_{j-1} / (4^k (4^k - 1)).
    """
    table, row = [Fraction(1)], [1]
    for j in range(1, m + 1):
        if j % 2:
            table.append(Fraction(-1, 2) if j == 1 else Fraction(0))
            continue
        while len(row) < j:  # row j - 1 has j entries and ends in E_{j-1}
            row = list(accumulate(reversed(row), initial=0))
        k = j // 2
        value = Fraction(j * row[-1], 4**k * (4**k - 1))
        table.append(value if k % 2 else -value)
    return table


def test_table_matches_reference_recurrence():
    cache = BernoulliCache(max_index=400)
    assert [cache.get(m) for m in range(401)] == reference_table(400)


def test_table_matches_seidel_triangle():
    cache = BernoulliCache(max_index=1200)
    assert [cache.get(m) for m in range(1201)] == seidel_table(1200)


SHARED = BernoulliCache(max_index=1200)  # filled across the examples below


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 600).map(lambda k: 2 * k), min_size=1, max_size=6))
def test_any_request_order_gives_the_same_values(indices):
    # one cache asked in any order agrees with a fresh cache per index
    for m in indices:
        fresh = BernoulliCache(max_index=1200)
        assert SHARED.get(m) == fresh.get(m) == seidel_table(1200)[m], m
        assert len(fresh) == 1


def _count_computations(monkeypatch, delay=0.0):
    """Record every index the route computes, in order, each after delay s."""
    computed = []
    real = bernoulli._numerator

    def counting(m, den):
        computed.append(m)
        time.sleep(delay)
        return real(m, den)

    monkeypatch.setattr(bernoulli, "_numerator", counting)
    return computed


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 300), max_size=12))
def test_cache_computes_each_index_once(indices):
    with pytest.MonkeyPatch.context() as monkeypatch:
        computed = _count_computations(monkeypatch)
        cache = BernoulliCache(max_index=300)
        for m in indices + indices:
            assert cache.get(m) == reference_table(300)[m]
    # B_0, B_1 and the odd indices are constants and never computed
    expected = {m for m in indices if m >= 2 and m % 2 == 0}
    assert sorted(computed) == sorted(expected)
    assert len(cache) == len(expected)


def test_cache_holds_only_the_indices_asked_for():
    cache = BernoulliCache(max_index=120)
    cache.get(60)
    assert len(cache) == 1
    cache.get(120)
    assert len(cache) == 2
    assert [cache.get(m) for m in (0, 1, 3, 119)] == [1, Fraction(-1, 2), 0, 0]
    assert len(cache) == 2
    assert [cache.get(m) for m in range(121)] == reference_table(120)
    assert len(cache) == 60


def test_too_low_starting_precision_retries_to_the_exact_value(monkeypatch):
    # the first bracket has 1 bit and holds many integers; the route doubles
    # the precision until one is left, and that one is exact
    monkeypatch.setattr(bernoulli, "_GUARD_BITS", -(10**6))
    monkeypatch.setattr(bernoulli, "_pi", (0, 0, 0))
    tried = []
    real = bernoulli._pi_bounds
    monkeypatch.setattr(bernoulli, "_pi_bounds", lambda bits: tried.append(bits) or real(bits))
    cache = BernoulliCache(max_index=1200)
    for m in (2, 4, 12, 20, 156, 930, 1200):
        tried.clear()
        assert cache.get(m) == seidel_table(1200)[m], m
        assert len(tried) > 1 and tried == [2**i for i in range(len(tried))], m


def test_cache_cap_enforced():
    cache = BernoulliCache(max_index=10)
    assert cache.get(10) == Fraction(5, 66)
    with pytest.raises(IndexCapExceeded):
        cache.get(12)
    with pytest.raises(PreconditionError):
        cache.get(-1)
    with pytest.raises(PreconditionError, match="max_index must be >= 0"):
        BernoulliCache(max_index=-3)


def test_cache_cap_ignores_the_environment(monkeypatch):
    # the cap is set by max_index alone; no environment variable reaches it
    monkeypatch.setenv("CONGRUENCE_BERNOULLI_CAP", "42")
    assert BernoulliCache().max_index == DEFAULT_MAX_INDEX


def test_cache_concurrent_extension(monkeypatch):
    # the sleep keeps the first thread computing while the others find the
    # index missing and queue on the lock
    computed = _count_computations(monkeypatch, delay=0.05)
    cache = BernoulliCache(max_index=300)
    start = threading.Barrier(8)
    results = []

    def worker():
        start.wait()
        results.append(cache.get(200))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert results == [reference_table(400)[200]] * 8
    assert computed == [200]  # the other threads read the one computed entry
    assert len(cache) == 1


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
    # the primes against a walk over every e <= m, and the denominators
    # against the triangle, which never sees a prime
    cache = BernoulliCache(max_index=600)
    for m in range(2, 601, 2):
        integer, primes = von_staudt_clausen(m, cache)
        assert primes == [e + 1 for e in range(1, m + 1) if m % e == 0 and is_prime(e + 1)]
        value = cache.get(m)
        assert value + sum(Fraction(1, p) for p in primes) == integer
        assert seidel_table(1200)[m].denominator == prod(primes), m
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
    # the modulus is checked before the denominator
    with pytest.raises(PreconditionError, match=r"^modulus must be >= 1, got 0$"):
        rational_mod(Fraction(1, 3), 0)
    with pytest.raises(PreconditionError, match=r"^modulus must be >= 1, got -4$"):
        rational_mod(Fraction(1, 2), -4)
