"""Restricted inverse sums and the quotient polynomials they reduce to.

The left-hand side of every congruence here is a sum of inverses over a
filtered range of r: either the half-range harmonic sum of 1/r, or a sum of
1/(n - d*r) for d in {3, 4, 6}.  SumSpec pins one such sum down (bound,
filter, modulus).  modular_sum is the production path: a sieve mask picks
the kept r block by block, the running sum is held as one fraction mod the
target, and a single modular inverse finishes it.  exact_sum forms the very
same terms through SumSpec.denominators() as an exact rational and is kept
deliberately independent (gcd filter, no mask, no modular inverse), so the
two can audit each other.  Each refuses a sum over more values of r than
its budget, MAX_MODULAR_TERMS or MAX_EXACT_TERMS, before its first term.

coprime_sums forms the gcd(r, n) = 1 sums mod n^2 at a whole list of n
(half_harmonic and lehmer_sum are its one-value case): modular_sum at
each n or, when _sweeps prices it cheaper from the values alone, the
sweep module's one ascending sweep of exact prefix sums L/j,
L = lcm(1..top), read by every n at its Moebius cut points.

The right-hand sides are polynomials in Fermat quotients q_n(2), q_n(3).
Each modular one is a weighted sum of L_n(a) = 2 q_n(a) - n q_n(a)^2 read
from _RHS_WEIGHTS, every q_n(a) from quotients.fermat_quotient_mod; each
exact-rational twin is written out as stated over fermat_quotient.

Every n is read through arith.factorize: coprime_sums factors each n
of its list once, after it has priced the route, and each right side
factors n once and hands the FactoredInteger to every quotient it takes,
which reads phi(n) from it.
An n that is already a FactoredInteger, as a scan share passes them, is
not factored again; lemma2's right sides build p^{2 alpha} factored.

Only the exact-rational twins form a Fraction, so the fractions module is
imported where they run.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from itertools import chain, compress
from math import gcd

from .arith import (
    FactoredInteger, Residue, _factored, _Value, _moebius_terms, factorize, is_prime,
    p_adic_valuation,
)
from .errors import (
    HALF,
    EvenModulusError,
    InvalidDenominatorError,
    NotCoprimeError,
    NotInvertibleError,
    PreconditionError,
    PrimeDivisibilityError,
    TermCountExceeded,
)
from .quotients import _combination, _require_modulus, fermat_quotient, fermat_quotient_mod

TYPE_CHECKING = False  # typing is not imported for this alone
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "HALF",
    "SumSpec",
    "coprime_sums",
    "exact_sum",
    "half_harmonic",
    "half_rhs",
    "half_rhs_exact",
    "lehmer_sum",
    "lemma2_rhs",
    "lemma2_rhs_exact",
    "lemma2_sum",
    "modular_sum",
    "moebius_decomposition_check",
    "moebius_decomposition_sides",
    "moebius_decomposition_sides_exact",
    "theorem_rhs",
    "theorem_rhs_exact",
]

# exact_sum refuses a sum over more values of r than this.  At 30,000 the
# d = 3 sum (n = 90,001) takes about 0.45 s, the d = 6 sum 0.56 s and the
# half-range sum 0.26 s in CPython 3.11 on one vCPU of a 2-vCPU virtual
# machine (2.1 s, 2.8 s and 0.75 s with one Fraction per term); the time
# grows a little less than quadratically with the number of terms.
MAX_EXACT_TERMS = 30_000

# modular_sum refuses a sum over more values of r than this: about 25 s at
# the 240-275 ns per value of r that the d = 3 sum at n = 7 * 1000003 takes
# in CPython 3.11 on one vCPU of a 2-vCPU virtual machine.
MAX_MODULAR_TERMS = 10**8

# coprime_sums refuses a list of two or more values priced over MAX_LIST_NS
# at its cheaper route: ten minutes, a thm3 scan from 5 to about 860,000.
# The loop costs _LOOP_NS per r up to SumSpec.bound() (fitted with the
# sweep's prices, see sweep._STEP_NS).
MAX_LIST_NS, _LOOP_NS = 600 * 10**9, 158


class SumSpec(_Value):
    """One restricted sum: which r are kept, what the term is, where it lives.

    With d = HALF the terms are 1/r for 1 <= r <= (n-1)//2; with d in
    {3, 4, 6} they are 1/(n - d*r) for 1 <= r <= n//d.  exclude_prime
    switches the filter from gcd(r, n) = 1 (when None) to "p does not
    divide r".  modulus is carried explicitly since the lemma sums reduce
    mod p^{2 alpha}, not mod n^2.
    """

    __slots__ = ("n", "d", "exclude_prime", "modulus")

    def __init__(
        self, n: int, d: int | str, exclude_prime: int | None, modulus: int
    ) -> None:
        set_n, set_d, set_exclude_prime, set_modulus = SumSpec._setters
        set_n(self, n)
        set_d(self, d)
        set_exclude_prime(self, exclude_prime)
        set_modulus(self, modulus)

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


def modular_sum(spec: SumSpec) -> Residue:
    """Sum of the inverses of the spec's terms mod the spec's modulus.

    Montgomery's simultaneous inversion: the running sum is one fraction
    num/den mod m, so one inverse of den replaces one per term.  Raises
    TermCountExceeded before any term when the sum runs over more than
    MAX_MODULAR_TERMS values of r, and NotInvertibleError naming the first
    non-unit term: den is a unit exactly when every term is, so only a
    failed sum rescans the terms.
    """
    _check_terms(spec, MAX_MODULAR_TERMS, "a modular")
    m = spec.modulus
    num, den = 0, 1
    for t in _kept_terms(spec):
        num = (num * t + den) % m
        den = den * t % m
    if gcd(den, m) != 1:
        t = next(t for t in _kept_terms(spec) if gcd(t, m) != 1)
        raise NotInvertibleError(f"gcd({t}, {m}) = {gcd(t, m)}; {t} is not a unit")
    return Residue(num * pow(den, -1, m) % m, m)


def _check_terms(spec: SumSpec, budget: int, kind: str) -> None:
    """Raise TermCountExceeded when the spec's sum runs over more than budget r."""
    bound = spec.bound()
    if bound > budget:
        raise TermCountExceeded(
            f"{kind} sum over {bound} values of r is over the budget of {budget} terms"
        )


def exact_sum(spec: SumSpec) -> Fraction:
    """The same sum as an exact rational: the oracle for modular_sum.

    The inverses of the terms are added as unreduced integer pairs over a
    balanced binary-splitting tree, and one Fraction reduces the total,
    instead of one normalising gcd per term.  Raises TermCountExceeded,
    before any term is summed, when the sum runs over more than
    MAX_EXACT_TERMS values of r.
    """
    from fractions import Fraction  # the exact routes alone load it

    _check_terms(spec, MAX_EXACT_TERMS, "an exact")
    terms = list(spec.denominators())
    if not terms:
        return Fraction(0)
    return Fraction(*_inverse_pair(terms, 0, len(terms)))


def _inverse_pair(terms: list[int], lo: int, hi: int) -> tuple[int, int]:
    """(num, den) with num/den = sum of 1/t over terms[lo:hi], not reduced.

    Binary splitting: the two halves' fractions are added by cross
    multiplication, so the big products stay balanced and no gcd is taken.
    """
    if hi - lo == 1:
        return 1, terms[lo]
    mid = (lo + hi) // 2
    a, b = _inverse_pair(terms, lo, mid)
    c, d = _inverse_pair(terms, mid, hi)
    return a * d + c * b, b * d


def _check_d(d: int) -> None:
    if d not in (3, 4, 6):
        raise InvalidDenominatorError(f"d must be 3, 4 or 6, got {d}")


def _lemma2_args(n: int, p: int, d: int) -> int:
    """Validate the shared lemma2 hypotheses; returns alpha = v_p(n)."""
    _check_d(d)
    _require_modulus(n)
    if p < 5 or not is_prime(p):
        raise PreconditionError(f"p must be a prime >= 5, got {p}")
    if n % p:
        raise PrimeDivisibilityError(f"{p} does not divide {n}")
    if (g := gcd(n, 6)) != 1:
        raise NotCoprimeError(f"gcd({n}, 6) = {g}; need gcd(n, 6) = 1")
    return p_adic_valuation(n, p)


def half_harmonic(n: int) -> Residue:
    """Sum of 1/r mod n^2 over 1 <= r <= (n-1)/2 with gcd(r, n) = 1."""
    return coprime_sums([n], HALF)[0]


def lehmer_sum(n: int, d: int) -> Residue:
    """Sum of 1/(n - d*r) mod n^2 over 1 <= r <= n//d with gcd(r, n) = 1.

    Requires gcd(n, d) = 1, which makes every retained denominator a unit
    mod n^2: gcd(n - d*r, n) = gcd(d*r, n) = 1 since both d and r are
    coprime to n.
    """
    return coprime_sums([n], d)[0]


def coprime_sums(ns: Sequence[int], d: int | str) -> list[Residue]:
    """The gcd(r, n) = 1 sums mod n^2 at every n of ns, in order.

    d = HALF gives half_harmonic(n) and d in {3, 4, 6} gives lehmer_sum(n,
    d), with the same errors; every n is checked before any sum is formed,
    and the largest n's term budget and the list's price (see _sweeps)
    before any n is factored.  The cheaper route serves the whole list:
    modular_sum at each n, or sweep.swept_sums.  Each n is factored once
    here, unless it already is a FactoredInteger.
    """
    if d != HALF:
        _check_d(d)
    for n in ns:
        if n < 2 or (n % 2 == 0 if d == HALF else gcd(n, d) != 1):  # only then say which failed
            _require_modulus(n)
            if d == HALF:
                raise EvenModulusError(f"the half-range sum needs odd n, got {n}")
            raise NotCoprimeError(f"gcd({n}, {d}) = {gcd(n, d)}; the d-sum needs gcd(n, d) = 1")
    top = max(ns, default=0)  # its sum has the most terms
    _check_terms(SumSpec(top, d, None, top * top), MAX_MODULAR_TERMS, "a modular")
    swept = _sweeps(ns, d)
    ns = [factorize(n) for n in ns]
    if swept:
        from . import sweep  # _sweeps has compiled it
        return sweep.swept_sums(ns, d)
    return [modular_sum(SumSpec(n, d, None, n * n)) for n in ns]


def _sweeps(ns: Sequence[int], d: int | str) -> bool:
    """Whether the sweep is priced below the loop for ns, from the values alone.

    A single value takes the loop unpriced.  Raises TermCountExceeded when
    a list's cheaper route is priced over MAX_LIST_NS.
    """
    if len(ns) < 2:
        return False
    from . import sweep  # compiled only by a process that sums a list
    loop = _LOOP_NS * sum(SumSpec(n, d, None, n).bound() for n in ns)
    if (cheaper := min(loop, sweep.price(ns, d))) > MAX_LIST_NS:
        raise TermCountExceeded(f"{len(ns)} sums priced at {cheaper / 1e9:.4g} s are over "
                                f"the budget of {MAX_LIST_NS / 1e9:g} s for a list")
    return cheaper < loop


def _summable(ns: Sequence[int], d: int | str) -> int:
    """How many leading values of the ascending ns fit coprime_sums's term budget.

    A sum's count of r never falls as n grows, so the values that fit lead.
    Raises TermCountExceeded when their list is priced over MAX_LIST_NS.
    """
    fit = bisect_right(ns, MAX_MODULAR_TERMS, key=lambda n: SumSpec(n, d, None, n * n).bound())
    _sweeps(ns[:fit], d)
    return fit


def lemma2_sum(n: int, p: int, d: int) -> Residue:
    """Sum of 1/(n - d*r) mod p^{2 v_p(n)} over r <= n//d with p not dividing r.

    Stated for primes p >= 5 dividing n and gcd(n, 6) = 1.
    """
    alpha = _lemma2_args(n, p, d)
    return modular_sum(SumSpec(n, d, p, p ** (2 * alpha)))


# The modular right-hand side for d is (sum of c_a * L_n(a)) / D over the
# entry (D, ((a, c_a), ...)) of d, with L_n(a) = 2 q_n(a) - n q_n(a)^2 and
# D the weights' common denominator; HALF is Lehmer's half-range sum.
_RHS_WEIGHTS: dict[int | str, tuple[int, tuple[tuple[int, int], ...]]] = {
    HALF: (1, ((2, -1),)),  # -L_n(2)
    3: (4, ((3, 1),)),  # L_n(3) / 4
    4: (8, ((2, 3),)),  # 3 L_n(2) / 8
    6: (24, ((2, 4), (3, 3))),  # L_n(2) / 6 + L_n(3) / 8
}


def _weighted_rhs(n: FactoredInteger, d: int | str, m: int) -> Residue:
    """sum of c_a * L_n(a) / D mod m over the weights of d.

    The numerator is formed mod D m, and the factor it shares with D is
    divided out, so the result is the exact rational reduced mod m.  Raises
    NotCoprimeError when some q_n(a) does not exist, and NotInvertibleError
    when what is left of D is not a unit mod m.
    """
    den, weights = _RHS_WEIGHTS[d]
    dm = den * m
    total = 0
    for a, c in weights:
        total += c * _combination(n, fermat_quotient_mod(n, a, dm), dm)
    g = gcd(total, den)  # D divides D m, so total mod D m shares g with D too
    rest, total = den // g, total % dm // g
    if gcd(rest, m) != 1:
        raise NotInvertibleError(f"right-side denominator {rest} is not a unit mod {m}")
    # rest divides 24, so the unit m is its own inverse mod rest: adding
    # m (-total m mod rest) makes total divisible by rest
    return Residue((total + m * (-total * m % rest)) // rest % m, m)


def half_rhs(n: int) -> Residue:
    """-2 q_n(2) + n q_n(2)^2 mod n^2 for odd n > 1.

    Integer coefficients only, so this side needs no inverses and exists
    for every odd n, prime or not.
    """
    if n < 2 or n % 2 == 0:  # only then say which test failed
        _require_modulus(n)
        raise EvenModulusError(f"the half-range identity needs odd n, got {n}")
    return _weighted_rhs(factorize(n), HALF, n * n)


def half_rhs_exact(n: int) -> Fraction:
    """half_rhs from the fully materialized quotient (oracle route)."""
    from fractions import Fraction

    _require_modulus(n)
    if n % 2 == 0:
        raise EvenModulusError(f"the half-range identity needs odd n, got {n}")
    q2 = fermat_quotient(n, 2)
    return Fraction(-2 * q2 + n * q2 * q2)


def theorem_rhs(n: int, d: int) -> Residue:
    """The quotient polynomial congruent to the d-sum mod n^2.

    d=3:  q_n(3)/2 - n q_n(3)^2/4
    d=4:  3 q_n(2)/4 - 3 n q_n(2)^2/8
    d=6:  q_n(2)/3 + q_n(3)/4 - n (q_n(2)^2/6 + q_n(3)^2/8)

    The constant denominators are inverted mod n^2, hence gcd(n, 6) = 1.
    """
    if d not in (3, 4, 6) or n < 2 or (g := gcd(n, 6)) != 1:  # only then say which test failed
        _check_d(d)
        _require_modulus(n)
        raise NotCoprimeError(f"gcd({n}, 6) = {g}; need gcd(n, 6) = 1")
    return _weighted_rhs(factorize(n), d, n * n)


def theorem_rhs_exact(n: int, d: int) -> Fraction:
    """theorem_rhs as an exact rational in the full-size quotients.

    Defined whenever the needed quotients exist (base coprime to n), even if
    the constant denominators are not units mod n^2; callers reduce or
    compare p-adically themselves.
    """
    from fractions import Fraction

    _check_d(d)
    _require_modulus(n)
    n = factorize(n)  # one factorization serves both quotients of d = 6
    if d == 3:
        q3 = Fraction(fermat_quotient(n, 3))
        return q3 / 2 - n * q3 * q3 / 4
    if d == 4:
        q2 = Fraction(fermat_quotient(n, 2))
        return 3 * q2 / 4 - 3 * n * q2 * q2 / 8
    q2 = Fraction(fermat_quotient(n, 2))
    q3 = Fraction(fermat_quotient(n, 3))
    return q2 / 3 + q3 / 4 - n * (q2 * q2 / 6 + q3 * q3 / 8)


def _lemma2_rhs_args(p: int, alpha: int, d: int) -> FactoredInteger:
    """Validate the lemma2 right-side arguments; returns p^{2 alpha}, factored."""
    _check_d(d)
    if alpha < 1:
        raise PreconditionError(f"alpha must be >= 1, got {alpha}")
    if p < 5 or not is_prime(p):
        raise PreconditionError(f"p must be a prime >= 5, got {p}")
    return _factored(p ** (2 * alpha), ((p, 2 * alpha),))


def lemma2_rhs(p: int, alpha: int, d: int) -> Residue:
    """The localized right-hand side mod p^{2 alpha}.

    Quotients are taken at n = p^{2 alpha} itself:
    d=3: q(3)/2;  d=4: 3 q(2)/4;  d=6: q(2)/3 + q(3)/4.
    """
    m = _lemma2_rhs_args(p, alpha, d)
    return _weighted_rhs(m, d, m)  # n q^2 vanishes mod m = n


def lemma2_rhs_exact(p: int, alpha: int, d: int) -> Fraction:
    """lemma2_rhs from fully materialized quotients (oracle route)."""
    from fractions import Fraction

    m = _lemma2_rhs_args(p, alpha, d)
    if d == 3:
        return Fraction(fermat_quotient(m, 3), 2)
    if d == 4:
        return Fraction(3 * fermat_quotient(m, 2), 4)
    return Fraction(fermat_quotient(m, 2), 3) + Fraction(fermat_quotient(m, 3), 4)


def moebius_decomposition_sides(n: int, p: int, d: int) -> tuple[Residue, Residue]:
    """Both sides of the divisor rearrangement mod p^{2 v_p(n)}.

    Left: the gcd(r, n) = 1 filtered d-sum.  Right: over the squarefree
    divisors s of the p-free part of n, mu(s)/s times the p-excluding d-sum
    taken at n/s.  The identity is an exact rearrangement, so the two sides
    must agree for every admissible (n, p, d).
    """
    alpha = _lemma2_args(n, p, d)
    modulus = p ** (2 * alpha)
    lhs = modular_sum(SumSpec(n, d, None, modulus))
    total = sum(
        mu * pow(s, -1, modulus) * modular_sum(SumSpec(n // s, d, p, modulus)).rep
        for mu, s in _moebius_terms(factorize(n // p**alpha))
    )
    return lhs, Residue(total % modulus, modulus)


def moebius_decomposition_check(n: int, p: int, d: int) -> bool:
    """Whether the divisor rearrangement holds at (n, p, d)."""
    lhs, rhs = moebius_decomposition_sides(n, p, d)
    return lhs.rep == rhs.rep


def moebius_decomposition_sides_exact(n: int, p: int, d: int) -> tuple[Fraction, Fraction]:
    """Exact-rational twins of both decomposition sides (oracle route)."""
    from fractions import Fraction

    alpha = _lemma2_args(n, p, d)
    modulus = p ** (2 * alpha)
    lhs = exact_sum(SumSpec(n, d, None, modulus))
    total = sum(
        Fraction(mu, s) * exact_sum(SumSpec(n // s, d, p, modulus))
        for mu, s in _moebius_terms(factorize(n // p**alpha))
    )
    return lhs, total
