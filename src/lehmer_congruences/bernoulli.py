"""Exact Bernoulli numbers and polynomials.

Convention: B_1 = -1/2, i.e. the generating function t/(e^t - 1), so the
defining recurrence is sum_{k=0}^{m} C(m+1, k) B_k = 0 for m >= 1.  The
cache does not run it: it computes each even B_m, m >= 2, alone from
|B_m| = 2 m! zeta(m) / (2 pi)^m (Fillebrown, 1992).  Times the product of
the primes p with (p - 1) | m this is an integer (von Staudt-Clausen);
integer brackets of pi (Machin), (2 pi)^m and zeta(m) (an Euler product)
enclose it, and the precision doubles until they hold one integer, so
every value is certified exact, never estimated.  No float appears here.
The functions that form a Fraction import the fractions module where they
run, so a process that reads no Bernoulli number never loads it.
"""

from __future__ import annotations

import threading
from math import comb, factorial, prod

from .arith import divisors, factorize, is_prime
from .errors import (
    DEFAULT_MAX_INDEX,
    IndexCapExceeded,
    InvalidDenominatorError,
    PreconditionError,
)

TYPE_CHECKING = False  # typing is not imported for this alone
if TYPE_CHECKING:
    from fractions import Fraction

    Rational = Fraction | int

__all__ = [
    "BernoulliCache",
    "DEFAULT_MAX_INDEX",
    "bernoulli_number",
    "bernoulli_poly",
    "power_sum",
    "special_value",
    "von_staudt_clausen",
]


class BernoulliCache:
    """Memo of the Bernoulli numbers B_m, 0 <= m <= max_index, asked for so far.

    B_0, B_1 and the odd indices are constants.  An even m >= 2 is computed
    alone the first time it is asked for, under a lock, so each index is
    computed once and no reader sees a partial entry; len() counts them.
    """

    def __init__(self, max_index: int = DEFAULT_MAX_INDEX) -> None:
        self.max_index = max_index
        if self.max_index < 0:
            raise PreconditionError(f"max_index must be >= 0, got {self.max_index}")
        self._table: dict[int, Fraction] = {}
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
        if m % 2 or m == 0:  # B_0 = 1, B_1 = -1/2; the other odd B_m vanish
            from fractions import Fraction

            return Fraction(1) if m == 0 else Fraction(-1, 2) if m == 1 else Fraction(0)
        if m not in self._table:
            with self._lock:
                self._extend_to(m)
        return self._table[m]

    def _extend_to(self, m: int) -> None:
        if m not in self._table:  # another thread may have computed it
            from fractions import Fraction

            den = prod(_clausen_primes(m))
            self._table[m] = Fraction(_numerator(m, den), den)


def _clausen_primes(m: int) -> list[int]:
    """The primes p with (p - 1) | m, increasing: B_m's denominator (even m)."""
    return [e + 1 for e in divisors(factorize(m)) if is_prime(e + 1)]


_GUARD_BITS = 2  # added to the bit length of |B_m| D_m for the first try
# (bits, lo, hi): lo <= pi 2^bits <= hi at the top precision so far, shared by
# every cache; threads that race on it only compute the same bounds twice
_pi = (0, 0, 0)


def _numerator(m: int, den: int) -> int:
    """B_m den for even m >= 2, where den is the denominator of B_m."""
    scaled = 2 * factorial(m) * den  # |B_m| den = scaled zeta(m) / (2 pi)^m
    # zeta(m) < 2 and (2 pi)^m > 2^(53 m / 20) bound the result's bit length
    bits = max(1, scaled.bit_length() - 53 * m // 20 + m.bit_length() + _GUARD_BITS)
    while True:
        pi_lo, pi_hi = _pi_bounds(bits)
        t_lo = t_hi = 1 << bits  # (2 pi)^m 2^bits, by floor and ceiling products
        for bit in bin(m)[2:]:
            t_lo, t_hi = t_lo * t_lo >> bits, -(-t_hi * t_hi >> bits)
            if bit == "1":
                t_lo, t_hi = t_lo * 2 * pi_lo >> bits, -(-t_hi * 2 * pi_hi >> bits)
        # zeta(m) 2^(bits+k): the Euler product over the primes p <= 2^k is below
        # it, and the n > 2^k it misses add at most 2^(k(1-m))/(m-1) <= 2^-(bits+2)
        k = -(-(bits + 2) // (m - 1))
        z_lo = z_hi = 1 << (bits + k)  # k guard bits absorb the < 2^k roundings
        for p in range(2, (1 << k) + 1):
            if is_prime(p):
                q = p**m - 1  # the factor p^m / (p^m - 1) is 1 + 1/q
                z_lo, z_hi = z_lo + z_lo // q, z_hi - (-z_hi // q)
        z_hi -= -z_hi // ((m - 1) << k * (m - 1))
        lo, hi = -(-scaled * z_lo // (t_hi << k)), scaled * z_hi // (t_lo << k)
        if lo == hi:  # the bracket holds one integer, so it is |B_m| den
            return lo if m % 4 else -lo
        bits *= 2


def _pi_bounds(bits: int) -> tuple[int, int]:
    """lo <= pi 2^bits <= hi from Machin's 16 arctan(1/5) - 4 arctan(1/239)."""
    global _pi
    top, lo, hi = _pi
    if top < bits:
        top = max(bits, top + top // 2)  # a rising precision recomputes rarely
        guard = top.bit_length() + 4
        total = error = 0
        for coeff, x in ((16, 5), (-4, 239)):
            # each term floor(2^(top+guard) / (k x^k)) is short by less than 1,
            # and the alternating tail after the last nonzero term is below 1
            power, k, terms = (1 << top + guard) // x, 1, 0
            while power:
                terms += power // k if k % 4 == 1 else -(power // k)
                power //= x * x
                k += 2
            total, error = total + coeff * terms, error + abs(coeff) * (k // 2 + 1)
        lo, hi = total - error >> guard, -(-(total + error) >> guard)
        _pi = (top, lo, hi)
    return lo >> top - bits, -(-hi >> top - bits)


_shared = BernoulliCache()  # the process-wide default cache


def _resolve(cache: BernoulliCache | None) -> BernoulliCache:
    return _shared if cache is None else cache


def bernoulli_number(m: int, cache: BernoulliCache | None = None) -> Fraction:
    """The exact Bernoulli number B_m."""
    return _resolve(cache).get(m)


def bernoulli_poly(m: int, x: Rational, cache: BernoulliCache | None = None) -> Fraction:
    """B_m(x) = sum_k C(m, k) B_{m-k} x^k, evaluated exactly by Horner."""
    from fractions import Fraction

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
    from fractions import Fraction

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
    from fractions import Fraction

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
    from fractions import Fraction

    if m < 2 or m % 2:
        raise PreconditionError(f"m must be even and >= 2, got {m}")
    primes = _clausen_primes(m)
    total = _resolve(cache).get(m) + sum(Fraction(1, p) for p in primes)
    if total.denominator != 1:  # the theorem guarantees integrality
        raise ArithmeticError(f"decomposition of B_{m} failed to be integral")
    return int(total), primes
