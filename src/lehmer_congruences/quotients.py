"""Euler-Fermat quotients and their lifting and localization congruences.

q_n(a) denotes (a^phi(n) - 1) / n, an integer whenever gcd(a, n) = 1.  The
lemma checks relate q at different moduli: lemma1 ties phi(p^alpha) to a
Bernoulli number p-adically, lemma3 lifts q_n to q_{n^2}, and lemma4
localizes the combination 2 q_n - n q_n^2 at one prime-power part of n.
"""

from __future__ import annotations

from math import gcd, log2

from .arith import Residue, _Value, euler_phi, factorize, is_prime
from .bernoulli import BernoulliCache, bernoulli_number, p_adic_valuation, rational_mod
from .errors import (
    NotCoprimeError,
    PowerSizeExceeded,
    PreconditionError,
    PrimeDivisibilityError,
)
from .report import CongruenceReport, IdentityId

TYPE_CHECKING = False  # typing is not imported for this alone
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "QuotientValue",
    "fermat_quotient",
    "fermat_quotient_mod",
    "lemma1_check",
    "lemma3_check",
    "lemma4_check",
]

# fermat_quotient refuses to build a^phi(n) beyond this many bits; 3**(2**22),
# about 6.6 million bits, takes about a second in CPython.
MAX_POWER_BITS = 1 << 23


class QuotientValue(_Value):
    """q_n(a), held exactly: n * value == a^phi(n) - 1."""

    __slots__ = ("n", "a", "value")

    def __init__(self, n: int, a: int, value: int) -> None:
        _Value.__init__(self, n, a, value)


def _require_modulus(n: int) -> None:
    if n < 2:
        raise PreconditionError(f"n must be > 1, got {n}")


def _require_coprime(a: int, n: int) -> None:
    g = gcd(a, n)
    if g != 1:
        raise NotCoprimeError(f"gcd({a}, {n}) = {g}; need coprime arguments")


def fermat_quotient(n: int, a: int) -> QuotientValue:
    """The exact Euler-Fermat quotient (a^phi(n) - 1) / n.

    Integrality is Euler's theorem.  This path materializes a^phi(n) in
    full, so it is the oracle route; the checks reduce through
    _quotient_mod and _combination instead.  Raises PowerSizeExceeded,
    before the power is formed, when a^phi(n) would have more than
    MAX_POWER_BITS bits.
    """
    _require_modulus(n)
    _require_coprime(a, n)
    phi = euler_phi(factorize(n))
    bits = phi * log2(abs(a))
    if bits > MAX_POWER_BITS:
        raise PowerSizeExceeded(
            f"{a}^phi({n}) has about {bits:.3g} bits, over the budget of "
            f"{MAX_POWER_BITS} bits for an exact power"
        )
    quotient, remainder = divmod(a**phi - 1, n)
    if remainder:  # unreachable for coprime a; guards the type invariant
        raise ArithmeticError(f"{n} does not divide {a}^{phi} - 1")
    return QuotientValue(n, a, quotient)


def fermat_quotient_mod(n: int, a: int, m: int) -> Residue:
    """q_n(a) mod m without materializing a^phi(n).

    Computes a^phi(n) mod n*m; subtracting 1 leaves a multiple of n whose
    quotient is exactly q_n(a) reduced mod m.
    """
    _require_modulus(n)
    if m < 1:
        raise PreconditionError(f"modulus must be >= 1, got {m}")
    _require_coprime(a, n)
    return Residue(_quotient_mod(n, a, m, euler_phi(factorize(n))), m)


def _quotient_mod(n: int, a: int, m: int, phi: int) -> int:
    """fermat_quotient_mod's value, given phi = phi(n) and gcd(a, n) = 1.

    For callers that already hold phi(n), so that one factorization serves
    several quotients.
    """
    nm = n * m
    return (pow(a, phi, nm) - 1) % nm // n


def _combination(n: int, a: int, m: int, phi: int) -> int:
    """L_n(a) = 2 q_n(a) - n q_n(a)^2 mod m, given phi = phi(n) and gcd(a, n) = 1.

    The combination lemma4 localizes; by lemma3 it is 2 q_{n^2}(a) mod n^2,
    and every right-hand side in sums is a weighted sum of it.
    """
    q = _quotient_mod(n, a, m, phi)
    return (2 * q - n % m * (q * q % m)) % m


def lemma1_check(
    p: int, alpha: int, cache: BernoulliCache | None = None
) -> CongruenceReport:
    """Check phi(p^alpha) == p^alpha * B_{phi(p^{2 alpha})} mod p^{2 alpha}.

    The comparison is p-adic: the Bernoulli number carries exactly one p in
    its denominator, so p^alpha * B is p-integral but not an integer, and
    modular inversion does not apply.  The report records the valuation of
    the difference and the required lower bound 2*alpha.
    """
    if not is_prime(p):
        raise PreconditionError(f"p must be prime, got {p}")
    if alpha < 1:
        raise PreconditionError(f"alpha must be >= 1, got {alpha}")
    modulus = p ** (2 * alpha)
    lhs_value = p ** (alpha - 1) * (p - 1)  # phi(p^alpha)
    index = modulus // p * (p - 1)  # phi(p^{2 alpha})
    rhs_value = p**alpha * bernoulli_number(index, cache)
    valuation = p_adic_valuation(lhs_value - rhs_value, p)
    required = 2 * alpha
    return CongruenceReport(
        identity=IdentityId.LEMMA_1,
        params={"p": p, "alpha": alpha},
        modulus=modulus,
        lhs=Residue(lhs_value % modulus, modulus),
        rhs=rational_mod(rhs_value, modulus),
        holds=valuation >= required,
        valuation=valuation,
        required=required,
    )


def lemma3_check(n: int, a: int) -> CongruenceReport:
    """Check the lift q_{n^2}(a) == q_n(a) - (n/2) q_n(a)^2 mod n^2.

    Stated for gcd(n, 6a) = 1, so both 2 and the quotients exist mod n^2.
    """
    _require_modulus(n)
    g = gcd(n, 6 * a)
    if g != 1:
        raise NotCoprimeError(f"gcd({n}, 6*{a}) = {g}; need gcd(n, 6a) = 1")
    nsq = n * n
    phi = euler_phi(factorize(n))
    lhs = Residue(_quotient_mod(nsq, a, nsq, n * phi), nsq)  # phi(n^2) = n phi(n)
    rhs = pow(2, -1, nsq) * _combination(n, a, nsq, phi) % nsq
    return CongruenceReport(
        identity=IdentityId.LEMMA_3,
        params={"n": n, "a": a},
        modulus=nsq,
        lhs=lhs,
        rhs=Residue(rhs, nsq),
        holds=lhs.rep == rhs,
    )


def lemma4_check(n: int, a: int, p: int) -> CongruenceReport:
    """Check localization of 2 q_n(a) - n q_n(a)^2 at the p-part of n.

    Writing n = p^alpha * q with p not dividing q, the combination is
    congruent to (phi(q)/q) * (2 q_{p^alpha}(a) - p^alpha q_{p^alpha}(a)^2)
    mod p^{2 alpha}.  alpha is derived from n and p.
    """
    _require_modulus(n)
    _require_coprime(a, n)
    if not is_prime(p):
        raise PreconditionError(f"p must be prime, got {p}")
    if n % p:
        raise PrimeDivisibilityError(f"{p} does not divide {n}")
    factored = factorize(n)
    alpha = factored.exponent_of(p)
    q = factored.cofactor(p)
    modulus = p ** (2 * alpha)
    phi_n = euler_phi(factored)
    lhs = _combination(n, a, modulus, phi_n)
    prime_power = p**alpha
    phi_p = prime_power // p * (p - 1)
    local = _combination(prime_power, a, modulus, phi_p)
    phi_q = phi_n // phi_p  # phi is multiplicative and gcd(p^alpha, q) = 1
    rhs = phi_q * pow(q, -1, modulus) % modulus * local % modulus
    return CongruenceReport(
        identity=IdentityId.LEMMA_4,
        params={"n": n, "a": a, "p": p, "alpha": alpha},
        modulus=modulus,
        lhs=Residue(lhs, modulus),
        rhs=Residue(rhs, modulus),
        holds=lhs == rhs,
    )


def lemma3_exact_sides(n: int, a: int) -> tuple[Fraction, Fraction]:
    """Both sides of lemma3 from fully materialized quotients (oracle route)."""
    from fractions import Fraction  # the exact routes alone load it

    _require_modulus(n)
    g = gcd(n, 6 * a)
    if g != 1:
        raise NotCoprimeError(f"gcd({n}, 6*{a}) = {g}; need gcd(n, 6a) = 1")
    lhs = Fraction(fermat_quotient(n * n, a).value)
    q = Fraction(fermat_quotient(n, a).value)
    rhs = q - Fraction(n, 2) * q * q
    return lhs, rhs


def lemma4_exact_sides(n: int, a: int, p: int) -> tuple[Fraction, Fraction]:
    """Both sides of lemma4 from fully materialized quotients (oracle route)."""
    from fractions import Fraction

    _require_modulus(n)
    _require_coprime(a, n)
    if not is_prime(p):
        raise PreconditionError(f"p must be prime, got {p}")
    if n % p:
        raise PrimeDivisibilityError(f"{p} does not divide {n}")
    factored = factorize(n)
    alpha = factored.exponent_of(p)
    q = factored.cofactor(p)
    qn = Fraction(fermat_quotient(n, a).value)
    lhs = 2 * qn - n * qn * qn
    prime_power = p**alpha
    qp = Fraction(fermat_quotient(prime_power, a).value)
    local = 2 * qp - prime_power * qp * qp
    rhs = Fraction(euler_phi(factorize(q)), q) * local
    return lhs, rhs
