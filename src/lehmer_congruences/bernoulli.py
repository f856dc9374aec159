"""Exact Bernoulli numbers and polynomials, plus p-adic congruence tests.

Convention: B_1 = -1/2, i.e. the generating function t/(e^t - 1), so the
defining recurrence is sum_{k=0}^{m} C(m+1, k) B_k = 0 for m >= 1.  The
cache does not run that recurrence: it fills its table from Seidel's
boustrophedon triangle (L. Seidel, 1877), whose rows are built by integer
additions alone and end in the zigzag numbers E_n; for even m = 2k >= 2,

    B_m = (-1)^(k-1) m E_{m-1} / (4^k (4^k - 1)).

Everything here is an exact fractions.Fraction or int; no float appears
anywhere.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, inf

from .arith import Residue, is_prime, mod_inv
from .errors import (
    IndexCapExceeded,
    InvalidDenominatorError,
    NotInvertibleError,
    PreconditionError,
)

__all__ = [
    "BernoulliCache",
    "DEFAULT_MAX_INDEX",
    "bernoulli_number",
    "bernoulli_poly",
    "p_adic_valuation",
    "padic_congruent",
    "power_sum",
    "rational_mod",
    "shared_cache",
    "special_value",
    "von_staudt_clausen",
]

DEFAULT_MAX_INDEX = 600

Rational = Fraction | int


class BernoulliCache:
    """Growable memo table of B_0 .. B_max_index.

    The table is filled from Seidel's boustrophedon triangle; the cache
    keeps the last row it built, so a later extension continues where this
    one stopped.  Once the table reaches max_index the row is released.
    Extension happens under a lock and is append-only, so concurrent
    readers never observe a partially computed entry.
    """

    def __init__(self, max_index: int = DEFAULT_MAX_INDEX) -> None:
        self.max_index = max_index
        if self.max_index < 0:
            raise PreconditionError(
                f"max_index must be >= 0, got {self.max_index}"
            )
        self._table: list[Fraction] = [Fraction(1)]
        self._row: list[int] = [1]  # row n of the triangle ends in E_n
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._table)

    def get(self, m: int) -> Fraction:
        if m < 0:
            raise PreconditionError(f"Bernoulli index must be >= 0, got {m}")
        if m > self.max_index:
            raise IndexCapExceeded(
                f"B_{m} requested, but the cache is capped at index {self.max_index}"
            )
        table = self._table
        if m < len(table):
            return table[m]
        with self._lock:
            self._extend_to(m)
        return self._table[m]

    def _extend_to(self, m: int) -> None:
        table = self._table
        for j in range(len(table), m + 1):
            if j % 2:
                # B_1 = -1/2; the other odd Bernoulli numbers vanish
                table.append(Fraction(-1, 2) if j == 1 else Fraction(0))
                continue
            row = self._row
            while len(row) < j:  # row j - 1 has j entries and ends in E_{j-1}
                row = list(accumulate(reversed(row), initial=0))
                self._row = row
            k = j // 2
            value = Fraction(j * row[-1], 4**k * (4**k - 1))
            table.append(value if k % 2 else -value)
        if len(table) > self.max_index:
            self._row = []  # the table is full and never needs another row


_shared: BernoulliCache | None = None
_shared_guard = threading.Lock()


def shared_cache() -> BernoulliCache:
    """The process-wide default cache, created on first use."""
    global _shared
    with _shared_guard:
        if _shared is None:
            _shared = BernoulliCache()
        return _shared


def _resolve(cache: BernoulliCache | None) -> BernoulliCache:
    return shared_cache() if cache is None else cache


def bernoulli_number(m: int, cache: BernoulliCache | None = None) -> Fraction:
    """The exact Bernoulli number B_m."""
    return _resolve(cache).get(m)


def bernoulli_poly(m: int, x: Rational, cache: BernoulliCache | None = None) -> Fraction:
    """B_m(x) = sum_k C(m, k) B_{m-k} x^k, evaluated exactly by Horner."""
    if m < 0:
        raise PreconditionError(f"polynomial degree must be >= 0, got {m}")
    resolved = _resolve(cache)
    point = Fraction(x)
    acc = Fraction(0)
    for k in range(m, -1, -1):
        acc = acc * point + comb(m, k) * resolved.get(m - k)
    return acc


def power_sum(x: Rational, count: int, m: int, cache: BernoulliCache | None = None) -> Fraction:
    """sum_{r=0}^{count-1} (x + r)^m, via the Bernoulli telescope.

    Equals (B_{m+1}(x + count) - B_{m+1}(x)) / (m + 1); an empty sum is 0.
    """
    if count < 0:
        raise PreconditionError(f"count must be >= 0, got {count}")
    if m < 0:
        raise PreconditionError(f"exponent must be >= 0, got {m}")
    resolved = _resolve(cache)
    point = Fraction(x)
    upper = bernoulli_poly(m + 1, point + count, resolved)
    lower = bernoulli_poly(m + 1, point, resolved)
    return (upper - lower) / (m + 1)


def special_value(d: int, m: int, cache: BernoulliCache | None = None) -> Fraction:
    """Closed form for B_m(1/d) = B_m((d-1)/d) with d in {3, 4, 6}, even m > 0."""
    if d not in (3, 4, 6):
        raise InvalidDenominatorError(f"d must be 3, 4 or 6, got {d}")
    if m <= 0 or m % 2:
        raise PreconditionError(f"m must be a positive even integer, got {m}")
    b = _resolve(cache).get(m)
    if d == 3:
        return Fraction(1 - 3 ** (m - 1), 2 * 3 ** (m - 1)) * b
    if d == 4:
        return Fraction(1 - 2 ** (m - 1), 2 ** (2 * m - 1)) * b
    return Fraction(
        (1 - 2 ** (m - 1)) * (1 - 3 ** (m - 1)), 2**m * 3 ** (m - 1)
    ) * b


def von_staudt_clausen(m: int, cache: BernoulliCache | None = None) -> tuple[int, list[int]]:
    """The integer part and prime list of the B_m decomposition.

    For even m >= 2, B_m + sum(1/p for primes p with p-1 dividing m) is an
    integer z; returns (z, primes).  In particular the denominator of B_m is
    exactly the product of those primes.
    """
    if m < 2 or m % 2:
        raise PreconditionError(f"m must be even and >= 2, got {m}")
    primes = [e + 1 for e in range(1, m + 1) if m % e == 0 and is_prime(e + 1)]
    total = _resolve(cache).get(m) + sum(Fraction(1, p) for p in primes)
    if total.denominator != 1:  # the theorem guarantees integrality
        raise ArithmeticError(f"decomposition of B_{m} failed to be integral")
    return int(total), primes


def p_adic_valuation(x: Rational, p: int) -> int | float:
    """The exponent of p in the rational x; +inf for x = 0."""
    if not is_prime(p):
        raise PreconditionError(f"p must be prime, got {p}")
    value = Fraction(x)
    if value == 0:
        return inf
    num = value.numerator
    den = value.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_congruent(x: Rational, y: Rational, p: int, k: int) -> bool:
    """Whether x and y agree mod p^k in the p-adic sense: v_p(x - y) >= k."""
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    return p_adic_valuation(Fraction(x) - Fraction(y), p) >= k


def rational_mod(x: Rational, modulus: int) -> Residue:
    """Reduce a rational to a residue; its denominator must be a unit."""
    value = Fraction(x)
    den = value.denominator
    g = gcd(den, modulus)
    if g != 1:
        raise NotInvertibleError(
            f"denominator {den} shares the factor {g} with modulus {modulus}"
        )
    inverse = mod_inv(den, modulus).rep
    return Residue(value.numerator * inverse % modulus, modulus)
