"""Integer and modular arithmetic primitives.

Everything works on plain Python ints (arbitrary precision) and is a pure
function of its inputs; the dataclasses are immutable value types.  The
factorizer is deterministic: trial division below a fixed bound, then
Brent's rho driven by a fixed-seed generator, with every reported prime
certified by Miller-Rabin.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd

from .errors import (
    FactorizationLimitExceeded,
    ModuliNotCoprimeError,
    NotInvertibleError,
    PreconditionError,
)

__all__ = [
    "FactoredInteger",
    "Residue",
    "crt_combine",
    "divisors",
    "euler_phi",
    "extended_gcd",
    "factorize",
    "is_prime",
    "mod_inv",
    "mod_pow",
    "moebius",
]


@dataclass(frozen=True)
class Residue:
    """A canonical residue class representative: 0 <= rep < modulus."""

    rep: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise PreconditionError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.rep < self.modulus:
            raise PreconditionError(
                f"rep must lie in [0, {self.modulus}), got {self.rep}"
            )

    def __str__(self) -> str:
        return f"{self.rep} (mod {self.modulus})"


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its complete prime factorization.

    factors holds (prime, exponent) pairs with strictly increasing primes
    and positive exponents; their product must equal value.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise PreconditionError(f"value must be >= 1, got {self.value}")
        product = 1
        previous = 1
        for p, alpha in self.factors:
            if p <= previous:
                raise PreconditionError("primes must be strictly increasing")
            if alpha < 1:
                raise PreconditionError(f"exponent of {p} must be >= 1, got {alpha}")
            product *= p**alpha
            previous = p
        if product != self.value:
            raise PreconditionError(
                f"factors multiply to {product}, not {self.value}"
            )

    def exponent_of(self, p: int) -> int:
        for q, alpha in self.factors:
            if q == p:
                return alpha
        return 0

    def cofactor(self, p: int) -> int:
        """The part of value coprime to p, i.e. value / p^exponent_of(p)."""
        return self.value // p ** self.exponent_of(p)


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def mod_pow(base: int, exponent: int, modulus: int) -> Residue:
    """base**exponent reduced into [0, modulus); exponent must be >= 0."""
    if modulus < 1:
        raise PreconditionError(f"modulus must be >= 1, got {modulus}")
    if exponent < 0:
        raise PreconditionError(f"exponent must be >= 0, got {exponent}")
    return Residue(pow(base, exponent, modulus), modulus)


def mod_inv(a: int, modulus: int) -> Residue:
    """The inverse of a mod modulus, by the built-in pow(a, -1, modulus).

    Raises NotInvertibleError when gcd(a, modulus) > 1; the message names
    the offending gcd.  Modulo 1 every a has the inverse 0.
    """
    if modulus < 1:
        raise PreconditionError(f"modulus must be >= 1, got {modulus}")
    try:
        return Residue(pow(a, -1, modulus), modulus)
    except ValueError:
        raise NotInvertibleError(
            f"gcd({a}, {modulus}) = {gcd(a, modulus)}; {a} is not a unit"
        ) from None


# Deterministic Miller-Rabin base set; correct for all n < 3.3e24, which
# covers every modulus this package touches.  Larger inputs get the same
# bases and a probable-prime verdict.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_TRIAL_BOUND = 10**6
_RHO_SEED = 0x6A09E667  # fixed so factorizations are reproducible


def factorize(n: int, *, rho_iterations: int = 2_000_000) -> FactoredInteger:
    """Factor n completely: trial division up to 10^6, then Brent's rho.

    The rho stage is seeded with a package constant, so repeated calls give
    identical traces.  rho_iterations bounds the total number of rho steps
    per call; running out raises FactorizationLimitExceeded.
    """
    if n < 1:
        raise PreconditionError(f"cannot factor {n}; need n >= 1")
    value = n
    counts: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    f = 5
    step = 2
    while f <= _TRIAL_BOUND and f * f <= n:
        while n % f == 0:
            counts[f] = counts.get(f, 0) + 1
            n //= f
        f += step
        step = 6 - step
    if n > 1:
        if f * f > n:
            counts[n] = counts.get(n, 0) + 1
        else:
            _rho_factor(n, counts, rho_iterations)
    return FactoredInteger(value, tuple(sorted(counts.items())))


def _rho_factor(m: int, counts: dict[int, int], budget: int) -> None:
    rng = random.Random(_RHO_SEED)
    stack = [m]
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        factor, budget = _brent_rho(m, rng, budget)
        stack.append(factor)
        stack.append(m // factor)


def _brent_rho(m: int, rng: random.Random, budget: int) -> tuple[int, int]:
    # m is odd, composite, and has no prime factor <= 10^6 here.
    while True:
        y = rng.randrange(1, m)
        c = rng.randrange(1, m)
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                limit = min(128, r - k)
                for _ in range(limit):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += limit
                budget -= limit
                if budget <= 0 and g == 1:
                    raise FactorizationLimitExceeded(
                        f"rho iteration budget exhausted while splitting {m}"
                    )
            r *= 2
        if g == m:
            # batched gcd overshot the collision; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g, budget
        # the whole cycle collapsed; retry with fresh parameters


def euler_phi(n: FactoredInteger) -> int:
    """Euler's totient from the factorization; phi(1) = 1."""
    result = 1
    for p, alpha in n.factors:
        result *= p ** (alpha - 1) * (p - 1)
    return result


def moebius(n: FactoredInteger) -> int:
    """The Moebius function: 0 on non-squarefree n, else (-1)^(#primes)."""
    for _, alpha in n.factors:
        if alpha >= 2:
            return 0
    return -1 if len(n.factors) % 2 else 1


def divisors(n: FactoredInteger) -> list[int]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for p, alpha in n.factors:
        powers = [p**e for e in range(1, alpha + 1)]
        divs += [d * q for d in divs for q in powers]
    return sorted(divs)


def crt_combine(parts: Sequence[Residue]) -> Residue:
    """The unique residue mod the product agreeing with every part.

    Moduli must be pairwise coprime; the first shared factor found is
    reported in the error.
    """
    if not parts:
        raise PreconditionError("crt_combine needs at least one residue")
    rep = parts[0].rep
    modulus = parts[0].modulus
    for part in parts[1:]:
        g = gcd(modulus, part.modulus)
        if g != 1:
            raise ModuliNotCoprimeError(
                f"moduli {modulus} and {part.modulus} share the factor {g}"
            )
        diff = (part.rep - rep) % part.modulus
        rep += modulus * (diff * pow(modulus, -1, part.modulus) % part.modulus)
        modulus *= part.modulus
    return Residue(rep % modulus, modulus)
