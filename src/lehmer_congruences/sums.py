"""Restricted inverse sums and the quotient polynomials they reduce to.

The left-hand side of every congruence here is a sum of inverses over a
filtered range of r: either the half-range harmonic sum of 1/r, or a sum of
1/(n - d*r) for d in {3, 4, 6}.  SumSpec pins one such sum down (bound,
filter, modulus).  modular_sum is the production path: a sieve mask picks
the kept r block by block, the running sum is held as one fraction mod the
target, and a single modular inverse finishes it.  exact_sum forms the very
same terms through SumSpec.denominators() as an exact rational and is kept
deliberately independent (gcd filter, no mask, no modular inverse), so the
two can audit each other.

The right-hand sides are polynomials in Fermat quotients q_n(2), q_n(3).
Each modular one is a weighted sum of L_n(a) = 2 q_n(a) - n q_n(a)^2 read
from _RHS_WEIGHTS; each exact-rational twin is written out as stated.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, compress
from math import gcd, prod

from .arith import Residue, euler_phi, factorize, is_prime
from .errors import (
    EvenModulusError,
    InvalidDenominatorError,
    NotCoprimeError,
    NotInvertibleError,
    PreconditionError,
    PrimeDivisibilityError,
)
from .quotients import _combination, fermat_quotient
# unused here, but bench/tracer.py wraps sums.fermat_quotient_mod by name
from .quotients import fermat_quotient_mod  # noqa: F401

__all__ = [
    "HALF",
    "SumSpec",
    "exact_sum",
    "half_harmonic",
    "half_rhs",
    "half_rhs_exact",
    "lehmer_prime_rhs",
    "lehmer_sum",
    "lemma2_rhs",
    "lemma2_rhs_exact",
    "lemma2_sum",
    "modular_sum",
    "modular_sum_lenient",
    "moebius_decomposition_check",
    "moebius_decomposition_sides",
    "theorem_rhs",
    "theorem_rhs_exact",
]

HALF = "half"  # marker selecting the half-range harmonic sum


@dataclass(frozen=True)
class SumSpec:
    """One restricted sum: which r are kept, what the term is, where it lives.

    With d = HALF the terms are 1/r for 1 <= r <= (n-1)//2; with d in
    {3, 4, 6} they are 1/(n - d*r) for 1 <= r <= n//d.  exclude_prime
    switches the filter from gcd(r, n) = 1 (when None) to "p does not
    divide r".  modulus is carried explicitly since the lemma sums reduce
    mod p^{2 alpha}, not mod n^2.
    """

    n: int
    d: int | str
    exclude_prime: int | None
    modulus: int

    def bound(self) -> int:
        if self.d == HALF:
            return (self.n - 1) // 2
        return self.n // self.d

    def denominators(self) -> Iterator[int]:
        """The retained term denominators, in increasing r."""
        n = self.n
        p = self.exclude_prime
        half = self.d == HALF
        d = 0 if half else self.d
        for r in range(1, self.bound() + 1):
            if (gcd(r, n) == 1) if p is None else r % p:
                yield r if half else n - d * r


# r values per mask block: the mask's memory stays flat in n
_MASK_BLOCK = 1 << 14


def _kept_terms(spec: SumSpec) -> Iterator[int]:
    """denominators() again, filtered by a sieve mask instead of a gcd per r.

    Each block of r gets a bytearray with the multiples of every excluded
    prime cleared (the primes of n, or exclude_prime alone) and compress
    walks the survivors; the terms and their order are those of
    denominators().
    """
    bound = spec.bound()
    if bound < 1:  # empty sum; n may be below 1, where factorize refuses
        return iter(())
    if spec.exclude_prime is None:
        primes = [p for p, _ in factorize(spec.n).factors]
    else:
        primes = [spec.exclude_prime]
    return chain.from_iterable(_term_blocks(spec, bound, primes))


def _term_blocks(
    spec: SumSpec, bound: int, primes: list[int]
) -> Iterator[Iterator[int]]:
    n, d = spec.n, spec.d
    for lo in range(1, bound + 1, _MASK_BLOCK):
        hi = min(lo + _MASK_BLOCK, bound + 1)
        mask = bytearray(b"\x01") * (hi - lo)
        for p in primes:
            start = -lo % p
            mask[start::p] = bytes(len(range(start, hi - lo, p)))
        terms = range(lo, hi) if d == HALF else range(n - d * lo, n - d * hi, -d)
        yield compress(terms, mask)


def _inverse_sum(spec: SumSpec) -> tuple[int, int | None]:
    """(sum of the terms' inverses mod m, None), or (0, first non-unit term).

    Montgomery's simultaneous inversion: the running sum is one fraction
    num/den mod m, so a single inverse of den replaces one per term.  den
    is a unit exactly when every term is, so only a failed sum rescans the
    terms for the one to blame.
    """
    m = spec.modulus
    num, den = 0, 1
    for t in _kept_terms(spec):
        num = (num * t + den) % m
        den = den * t % m
    if gcd(den, m) == 1:
        return num * pow(den, -1, m) % m, None
    return 0, next(t for t in _kept_terms(spec) if gcd(t, m) != 1)


def modular_sum(spec: SumSpec) -> Residue:
    """Sum of the inverses of the spec's terms mod the spec's modulus.

    Raises NotInvertibleError naming the first term that is not a unit.
    """
    value, culprit = _inverse_sum(spec)
    if culprit is not None:
        g = gcd(culprit, spec.modulus)
        raise NotInvertibleError(
            f"gcd({culprit}, {spec.modulus}) = {g}; {culprit} is not a unit"
        )
    return Residue(value, spec.modulus)


def exact_sum(spec: SumSpec) -> Fraction:
    """The same sum as an exact rational: the oracle for modular_sum."""
    total = Fraction(0)
    for term in spec.denominators():
        total += Fraction(1, term)
    return total


def modular_sum_lenient(spec: SumSpec) -> tuple[Residue | None, str | None]:
    """modular_sum, but a non-unit term yields (None, reason) instead of raising.

    Used by the counterexample search, where terms sharing a factor with the
    modulus are expected and must surface as an auditable skip.
    """
    m = spec.modulus
    value, culprit = _inverse_sum(spec)
    if culprit is not None:
        g = gcd(culprit, m)
        return None, f"term {culprit} shares the factor {g} with modulus {m}"
    return Residue(value, m), None


def _check_d(d: int) -> None:
    if d not in (3, 4, 6):
        raise InvalidDenominatorError(f"d must be 3, 4 or 6, got {d}")


def _check_n(n: int) -> None:
    if n < 2:
        raise PreconditionError(f"n must be > 1, got {n}")


def _prime_valuation(n: int, p: int) -> int:
    alpha = 0
    while n % p == 0:
        n //= p
        alpha += 1
    return alpha


def _lemma2_args(n: int, p: int, d: int) -> int:
    """Validate the shared lemma2 hypotheses; returns alpha = v_p(n)."""
    _check_d(d)
    _check_n(n)
    if p < 5 or not is_prime(p):
        raise PreconditionError(f"p must be a prime >= 5, got {p}")
    if n % p:
        raise PrimeDivisibilityError(f"{p} does not divide {n}")
    g = gcd(n, 6)
    if g != 1:
        raise NotCoprimeError(f"gcd({n}, 6) = {g}; need gcd(n, 6) = 1")
    return _prime_valuation(n, p)


def half_harmonic(n: int) -> Residue:
    """Sum of 1/r mod n^2 over 1 <= r <= (n-1)/2 with gcd(r, n) = 1."""
    _check_n(n)
    if n % 2 == 0:
        raise EvenModulusError(f"the half-range sum needs odd n, got {n}")
    return modular_sum(SumSpec(n, HALF, None, n * n))


def lehmer_sum(n: int, d: int) -> Residue:
    """Sum of 1/(n - d*r) mod n^2 over 1 <= r <= n//d with gcd(r, n) = 1.

    Requires gcd(n, d) = 1, which makes every retained denominator a unit
    mod n^2: gcd(n - d*r, n) = gcd(d*r, n) = 1 since both d and r are
    coprime to n.
    """
    _check_d(d)
    _check_n(n)
    g = gcd(n, d)
    if g != 1:
        raise NotCoprimeError(f"gcd({n}, {d}) = {g}; the d-sum needs gcd(n, d) = 1")
    return modular_sum(SumSpec(n, d, None, n * n))


def lemma2_sum(n: int, p: int, d: int) -> Residue:
    """Sum of 1/(n - d*r) mod p^{2 v_p(n)} over r <= n//d with p not dividing r.

    Stated for primes p >= 5 dividing n and gcd(n, 6) = 1.
    """
    alpha = _lemma2_args(n, p, d)
    return modular_sum(SumSpec(n, d, p, p ** (2 * alpha)))


# The modular right-hand side for d is sum of w_a * L_n(a) over its (a, w_a),
# L_n(a) = 2 q_n(a) - n q_n(a)^2; HALF is Lehmer's half-range sum.
_RHS_WEIGHTS: dict[int | str, tuple[tuple[int, Fraction], ...]] = {
    HALF: ((2, Fraction(-1)),),
    3: ((3, Fraction(1, 4)),),
    4: ((2, Fraction(3, 8)),),
    6: ((2, Fraction(1, 6)), (3, Fraction(1, 8))),
}


def _weighted_rhs(n: int, d: int | str, m: int, phi: int) -> Residue:
    """sum of w_a * L_n(a) mod m over the weights of d, given phi = phi(n).

    The weights' denominators must be units mod m.
    """
    total = 0
    for a, w in _RHS_WEIGHTS[d]:
        total += w.numerator * pow(w.denominator, -1, m) * _combination(n, a, m, phi)
    return Residue(total % m, m)


def half_rhs(n: int) -> Residue:
    """-2 q_n(2) + n q_n(2)^2 mod n^2 for odd n > 1.

    Integer coefficients only, so this side needs no inverses and exists
    for every odd n, prime or not.
    """
    _check_n(n)
    if n % 2 == 0:
        raise EvenModulusError(f"the half-range identity needs odd n, got {n}")
    return _weighted_rhs(n, HALF, n * n, euler_phi(factorize(n)))


def half_rhs_exact(n: int) -> Fraction:
    """half_rhs from the fully materialized quotient (oracle route)."""
    _check_n(n)
    if n % 2 == 0:
        raise EvenModulusError(f"the half-range identity needs odd n, got {n}")
    q2 = fermat_quotient(n, 2).value
    return Fraction(-2 * q2 + n * q2 * q2)


def theorem_rhs(n: int, d: int) -> Residue:
    """The quotient polynomial congruent to the d-sum mod n^2.

    d=3:  q_n(3)/2 - n q_n(3)^2/4
    d=4:  3 q_n(2)/4 - 3 n q_n(2)^2/8
    d=6:  q_n(2)/3 + q_n(3)/4 - n (q_n(2)^2/6 + q_n(3)^2/8)

    The constant denominators are inverted mod n^2, hence gcd(n, 6) = 1.
    """
    _check_d(d)
    _check_n(n)
    g = gcd(n, 6)
    if g != 1:
        raise NotCoprimeError(f"gcd({n}, 6) = {g}; need gcd(n, 6) = 1")
    return _weighted_rhs(n, d, n * n, euler_phi(factorize(n)))


def theorem_rhs_exact(n: int, d: int) -> Fraction:
    """theorem_rhs as an exact rational in the full-size quotients.

    Defined whenever the needed quotients exist (base coprime to n), even if
    the constant denominators are not units mod n^2; callers reduce or
    compare p-adically themselves.
    """
    _check_d(d)
    _check_n(n)
    if d == 3:
        q3 = Fraction(fermat_quotient(n, 3).value)
        return q3 / 2 - n * q3 * q3 / 4
    if d == 4:
        q2 = Fraction(fermat_quotient(n, 2).value)
        return 3 * q2 / 4 - 3 * n * q2 * q2 / 8
    q2 = Fraction(fermat_quotient(n, 2).value)
    q3 = Fraction(fermat_quotient(n, 3).value)
    return q2 / 3 + q3 / 4 - n * (q2 * q2 / 6 + q3 * q3 / 8)


def lehmer_prime_rhs(p: int, d: int | str) -> Residue:
    """The prime-modulus right-hand side; d = HALF selects the harmonic one."""
    if d == HALF:
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise PreconditionError(f"need an odd prime, got {p}")
        return half_rhs(p)
    _check_d(d)
    if p < 5 or not is_prime(p):
        raise PreconditionError(f"need a prime >= 5, got {p}")
    return theorem_rhs(p, d)


def lemma2_rhs(p: int, alpha: int, d: int) -> Residue:
    """The localized right-hand side mod p^{2 alpha}.

    Quotients are taken at n = p^{2 alpha} itself:
    d=3: q(3)/2;  d=4: 3 q(2)/4;  d=6: q(2)/3 + q(3)/4.
    """
    _check_d(d)
    if alpha < 1:
        raise PreconditionError(f"alpha must be >= 1, got {alpha}")
    if p < 5 or not is_prime(p):
        raise PreconditionError(f"p must be a prime >= 5, got {p}")
    m = p ** (2 * alpha)
    # phi(p^{2 alpha}) needs no factorization, and n q^2 vanishes mod m = n
    return _weighted_rhs(m, d, m, m // p * (p - 1))


def lemma2_rhs_exact(p: int, alpha: int, d: int) -> Fraction:
    """lemma2_rhs from fully materialized quotients (oracle route)."""
    _check_d(d)
    if alpha < 1:
        raise PreconditionError(f"alpha must be >= 1, got {alpha}")
    if p < 5 or not is_prime(p):
        raise PreconditionError(f"p must be a prime >= 5, got {p}")
    m = p ** (2 * alpha)
    if d == 3:
        return Fraction(fermat_quotient(m, 3).value, 2)
    if d == 4:
        return Fraction(3 * fermat_quotient(m, 2).value, 4)
    return Fraction(fermat_quotient(m, 2).value, 3) + Fraction(
        fermat_quotient(m, 3).value, 4
    )


def moebius_decomposition_sides(n: int, p: int, d: int) -> tuple[Residue, Residue]:
    """Both sides of the divisor rearrangement mod p^{2 v_p(n)}.

    Left: the gcd(r, n) = 1 filtered d-sum.  Right: over the squarefree
    divisors s of the p-free part of n, mu(s)/s times the p-excluding d-sum
    taken at n/s.  The identity is an exact rearrangement, so the two sides
    must agree for every admissible (n, p, d).
    """
    alpha = _lemma2_args(n, p, d)
    modulus = p ** (2 * alpha)
    q = n // p**alpha
    lhs = modular_sum(SumSpec(n, d, None, modulus))
    primes = [f for f, _ in factorize(q).factors]
    total = 0
    for size in range(len(primes) + 1):
        sign = -1 if size % 2 else 1
        for combo in combinations(primes, size):
            s = prod(combo)
            inner = modular_sum(SumSpec(n // s, d, p, modulus)).rep
            total += sign * (pow(s, -1, modulus) * inner % modulus)
    return lhs, Residue(total % modulus, modulus)


def moebius_decomposition_check(n: int, p: int, d: int) -> bool:
    """Whether the divisor rearrangement holds at (n, p, d)."""
    lhs, rhs = moebius_decomposition_sides(n, p, d)
    return lhs.rep == rhs.rep


def moebius_decomposition_sides_exact(n: int, p: int, d: int) -> tuple[Fraction, Fraction]:
    """Exact-rational twins of both decomposition sides (oracle route)."""
    alpha = _lemma2_args(n, p, d)
    modulus = p ** (2 * alpha)
    q = n // p**alpha
    lhs = exact_sum(SumSpec(n, d, None, modulus))
    primes = [f for f, _ in factorize(q).factors]
    total = Fraction(0)
    for size in range(len(primes) + 1):
        sign = -1 if size % 2 else 1
        for combo in combinations(primes, size):
            s = prod(combo)
            total += Fraction(sign, s) * exact_sum(SumSpec(n // s, d, p, modulus))
    return lhs, total
