"""Euler-Fermat quotients and their lifting and localization congruences.

q_n(a) denotes (a^phi(n) - 1) / n, an integer whenever gcd(a, n) = 1.  The
lemma checks relate q at different moduli: lemma1 ties phi(p^alpha) to a
Bernoulli number p-adically, lemma3 lifts q_n to q_{n^2}, and lemma4
localizes the combination 2 q_n - n q_n^2 at one prime-power part of n.

fermat_quotient (exact) and fermat_quotient_mod (mod m) are the only routes
to a quotient; both read phi(n) from arith.factorize, which returns a
FactoredInteger as it is, so the checks build n^2 and p^alpha factored.
"""

from __future__ import annotations

from math import gcd, log2

from .arith import (
    FactoredInteger, Residue, _factored, euler_phi, factorize, is_prime, p_adic_valuation,
    rational_mod,
)
from .errors import (
    NotCoprimeError,
    PowerSizeExceeded,
    PreconditionError,
    PrimeDivisibilityError,
    _layers,
)
from .report import CongruenceReport, IdentityId, _modular_report

TYPE_CHECKING = False  # typing is not imported for this alone
if TYPE_CHECKING:
    from fractions import Fraction

    from .bernoulli import BernoulliCache

__all__ = [
    "fermat_quotient",
    "fermat_quotient_mod",
    "lemma1_check",
    "lemma3_check",
    "lemma3_exact_sides",
    "lemma4_check",
    "lemma4_exact_sides",
]

# fermat_quotient refuses to build a^phi(n) beyond this many bits; 3**(2**22),
# about 6.6 million bits, takes about a second in CPython.
MAX_POWER_BITS = 1 << 23


_load, __getattr__ = _layers(globals(), {"bernoulli": ("bernoulli_number",)})  # lemma1's


def _require_modulus(n: int) -> None:
    if n < 2:
        raise PreconditionError(f"n must be > 1, got {n}")


def _require_coprime(a: int, n: int) -> None:
    g = gcd(a, n)
    if g != 1:
        raise NotCoprimeError(f"gcd({a}, {n}) = {g}; need coprime arguments")


def fermat_quotient(n: int, a: int) -> int:
    """The exact Euler-Fermat quotient (a^phi(n) - 1) / n.

    Integrality is Euler's theorem.  phi(n) is read from factorize(n), so
    a FactoredInteger n is not factored again.  This path materializes
    a^phi(n) in full, so it is the oracle route; the checks reduce through
    fermat_quotient_mod instead.  Raises PowerSizeExceeded, before the
    power is formed, when a^phi(n) would have more than MAX_POWER_BITS bits.
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
    if remainder:  # unreachable for coprime a; enforces n * q == a^phi(n) - 1
        raise ArithmeticError(f"{n} does not divide {a}^{phi} - 1")
    return quotient


def fermat_quotient_mod(n: int, a: int, m: int) -> int:
    """q_n(a) mod m, in [0, m), without materializing a^phi(n).

    Computes a^phi(n) mod n*m; subtracting 1 leaves a multiple of n whose
    quotient is exactly q_n(a) reduced mod m.  phi(n) is read from
    factorize(n), so a FactoredInteger n is not factored again.
    """
    if n < 2 or m < 1 or gcd(a, n) != 1:  # only then say which test failed
        _require_modulus(n)
        if m < 1:
            raise PreconditionError(f"modulus must be >= 1, got {m}")
        _require_coprime(a, n)
    nm = n * m
    return (pow(a, euler_phi(factorize(n)), nm) - 1) // n  # the pow is 1 mod n, so not 0


def _combination(n: int, q: int, m: int) -> int:
    """L_n(a) = 2 q - n q^2 mod m, for q = q_n(a) mod m.

    The combination lemma4 localizes; by lemma3 it is 2 q_{n^2}(a) mod n^2,
    and every right-hand side in sums is a weighted sum of it.
    """
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
    _load("bernoulli")
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


def _lemma3_args(n: int, a: int) -> tuple[FactoredInteger, FactoredInteger]:
    """Validate the lemma3 hypotheses n > 1 and gcd(n, 6a) = 1.

    Returns n and n^2 factored, the square from the factors of n: factoring
    n^2 afresh would make rho split a prime square.
    """
    _require_modulus(n)
    g = gcd(n, 6 * a)
    if g != 1:
        raise NotCoprimeError(f"gcd({n}, 6*{a}) = {g}; need gcd(n, 6a) = 1")
    factored = factorize(n)
    return factored, _factored(n * n, tuple((p, 2 * e) for p, e in factored.factors))


def _lemma4_args(n: int, a: int, p: int) -> tuple[int, int, FactoredInteger, FactoredInteger]:
    """Validate the lemma4 hypotheses; returns alpha, n / p^alpha, n and p^alpha factored."""
    _require_modulus(n)
    _require_coprime(a, n)
    alpha = p_adic_valuation(n, p)  # refuses a p that is not prime
    if not alpha:
        raise PrimeDivisibilityError(f"{p} does not divide {n}")
    prime_power = _factored(p**alpha, ((p, alpha),))
    return alpha, n // prime_power, factorize(n), prime_power


def lemma3_check(n: int, a: int) -> CongruenceReport:
    """Check the lift q_{n^2}(a) == q_n(a) - (n/2) q_n(a)^2 mod n^2.

    Stated for gcd(n, 6a) = 1, so both 2 and the quotients exist mod n^2.
    """
    factored, nsq = _lemma3_args(n, a)
    lhs = Residue(fermat_quotient_mod(nsq, a, nsq), nsq)
    q = fermat_quotient_mod(factored, a, nsq)
    rhs = pow(2, -1, nsq) * _combination(n, q, nsq) % nsq
    return _modular_report(IdentityId.LEMMA_3, {"n": n, "a": a}, lhs, Residue(rhs, nsq))


def lemma4_check(n: int, a: int, p: int) -> CongruenceReport:
    """Check localization of 2 q_n(a) - n q_n(a)^2 at the p-part of n.

    Writing n = p^alpha * q with p not dividing q, the combination is
    congruent to (phi(q)/q) * (2 q_{p^alpha}(a) - p^alpha q_{p^alpha}(a)^2)
    mod p^{2 alpha}.  alpha is derived from n and p.
    """
    alpha, q, factored, prime_power = _lemma4_args(n, a, p)
    modulus = p ** (2 * alpha)
    lhs = _combination(n, fermat_quotient_mod(factored, a, modulus), modulus)
    local = _combination(prime_power, fermat_quotient_mod(prime_power, a, modulus), modulus)
    phi_q = euler_phi(factored) // euler_phi(prime_power)  # gcd(p^alpha, q) = 1
    rhs = Residue(phi_q * pow(q, -1, modulus) % modulus * local % modulus, modulus)
    params = {"n": n, "a": a, "p": p, "alpha": alpha}
    return _modular_report(IdentityId.LEMMA_4, params, Residue(lhs, modulus), rhs)


def lemma3_exact_sides(n: int, a: int) -> tuple[Fraction, Fraction]:
    """Both sides of lemma3 from fully materialized quotients (oracle route)."""
    from fractions import Fraction  # the exact routes alone load it

    factored, nsq = _lemma3_args(n, a)
    lhs = Fraction(fermat_quotient(nsq, a))
    q = Fraction(fermat_quotient(factored, a))
    rhs = q - Fraction(n, 2) * q * q
    return lhs, rhs


def lemma4_exact_sides(n: int, a: int, p: int) -> tuple[Fraction, Fraction]:
    """Both sides of lemma4 from fully materialized quotients (oracle route)."""
    from fractions import Fraction

    alpha, q, factored, prime_power = _lemma4_args(n, a, p)
    qn = Fraction(fermat_quotient(factored, a))
    lhs = 2 * qn - n * qn * qn
    qp = Fraction(fermat_quotient(prime_power, a))
    local = 2 * qp - prime_power * qp * qp
    rhs = Fraction(euler_phi(factored) // euler_phi(prime_power), q) * local  # phi(q) / q
    return lhs, rhs
