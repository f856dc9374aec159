"""Integer and modular arithmetic primitives.

Everything works on plain Python ints (arbitrary precision) and is a pure
function of its inputs.  Residue is an immutable value type on _Value,
the slotted base of the package's value types.  FactoredInteger is an int
that carries its factorization, and factorize returns one unchanged, so
a value factored once is passed on as itself and never factored again.
The factorizer is deterministic: trial division up to 1000, then Brent's
rho with fixed constants on whatever cofactor is left, with every reported
prime certified: by trial division below 10^6, by Miller-Rabin below
_MR_EXACT_BELOW, and a larger cofactor is refused.  p_adic_valuation,
padic_congruent and rational_mod read a rational p-adically or mod m.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, inf

from .errors import (
    FactorizationLimitExceeded,
    ModuliNotCoprimeError,
    NotInvertibleError,
    PreconditionError,
)

TYPE_CHECKING = False  # typing is not imported for this alone
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "FactoredInteger",
    "Residue",
    "crt_combine",
    "divisors",
    "euler_phi",
    "factorize",
    "is_prime",
    "p_adic_valuation",
    "padic_congruent",
    "rational_mod",
]


class _Value:
    """Base of the immutable value types: fields are the slots of the class chain.

    Equality holds between instances of the same type with equal fields,
    the hash is that of the field tuple, the repr is Name(field=value, ...),
    and assignment or deletion raises AttributeError, as for a frozen
    dataclass.  __init_subclass__ records, once per class, the field names
    over the class chain and the slot setters of the class's own fields, so
    a subclass that adds no slots keeps its base's fields.  A subclass's
    __init__ validates its arguments, then calls each of its own setters.
    Pickling re-calls the constructor, so an unpickled value is validated
    like a new one.
    """

    __slots__ = ()
    _names: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = cls.__dict__.get("__slots__", ())
        cls._names += tuple(own)
        cls._setters = tuple(getattr(cls, name).__set__ for name in own)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._names, self._fields())
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


class Residue(_Value):
    """A canonical residue class representative: 0 <= rep < modulus."""

    __slots__ = ("rep", "modulus")

    def __init__(self, rep: int, modulus: int) -> None:
        if modulus < 1:
            raise PreconditionError(f"modulus must be >= 1, got {modulus}")
        if not 0 <= rep < modulus:
            raise PreconditionError(f"rep must lie in [0, {modulus}), got {rep}")
        set_rep, set_modulus = Residue._setters
        set_rep(self, rep)
        set_modulus(self, modulus)

    def __str__(self) -> str:
        return f"{self.rep} (mod {self.modulus})"


class FactoredInteger(int):
    """A positive int that carries its complete prime factorization.

    It compares, hashes, prints and formats as its value.  factors holds
    (prime, exponent) pairs with strictly increasing primes and positive
    exponents; their product must equal the value.  As on _Value, fields
    cannot be assigned or deleted, and unpickling re-validates.
    """

    def __new__(cls, value: int, factors: tuple[tuple[int, int], ...]) -> FactoredInteger:
        if value < 1:
            raise PreconditionError(f"value must be >= 1, got {value}")
        product = 1
        previous = 1
        for p, alpha in factors:
            if p <= previous:
                raise PreconditionError("primes must be strictly increasing")
            if alpha < 1:
                raise PreconditionError(f"exponent of {p} must be >= 1, got {alpha}")
            product *= p**alpha
            previous = p
        if product != value:
            raise PreconditionError(f"factors multiply to {product}, not {value}")
        return _factored(value, factors, cls)

    __setattr__ = _Value.__setattr__
    __delattr__ = _Value.__delattr__

    def __reduce__(self) -> tuple:
        return type(self), (int(self), self.factors)


def _factored(value: int, factors: tuple, cls: type = FactoredInteger) -> FactoredInteger:
    """FactoredInteger(value, factors) unchecked, for factors known to be right."""
    self = int.__new__(cls, value)
    self.__dict__["factors"] = factors
    return self


# The first 13 primes.  The least strong pseudoprime to all of them is
# psi_13 = 3317044064679887385961981, so is_prime is exact below it (the
# 12 primes to 37 pass psi_12 = 399165290221 * 798330580441); above it the
# verdict is probable-prime only, and factorize refuses such a cofactor.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


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


# Trial division to 1000 alone factors every n below 10^6 (the loop ends
# once p*p > n).  Beyond it Brent's rho, which finds a prime factor f in
# about sqrt(f) steps against f/3 divisions, is the cheaper route: on 1,031
# integers near 10^11 a bound of 10^6 made factorize 15 times slower.
_TRIAL_BOUND = 1000
_RHO_BUDGET = 2_000_000  # rho steps one factorize call may take


# 2, 3 and every 6k +- 1 below _TRIAL_BOUND: the divisors factorize tries
_TRIAL_DIVISORS = (2, 3, *[f for f in range(5, _TRIAL_BOUND, 2) if f % 3])


def factorize(n: int) -> FactoredInteger:
    """Factor n completely: trial division up to 1000, then Brent's rho.

    A FactoredInteger is returned as it is.  Every n below 10^6 is
    factored by trial division alone.  The rho stage starts each cofactor
    at y = 2 with c = 1, 2, ..., so repeated calls give identical traces.
    _RHO_BUDGET bounds the total number of rho steps per call; running out
    raises FactorizationLimitExceeded, as does a cofactor of at least
    _MR_EXACT_BELOW that Miller-Rabin passes.
    """
    if isinstance(n, FactoredInteger):
        return n
    if n < 1:
        raise PreconditionError(f"cannot factor {n}; need n >= 1")
    value = n
    factors = []
    for p in _TRIAL_DIVISORS:
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            alpha = 1
            while n % p == 0:
                n //= p
                alpha += 1
            factors.append((p, alpha))
    if n >= _TRIAL_BOUND**2:  # no divisor was left untried: n has no factor below 1000
        counts: dict[int, int] = {}
        _rho_factor(n, counts, _RHO_BUDGET)
        return _factored(value, (*factors, *sorted(counts.items())))
    if n > 1:
        factors.append((n, 1))
    return _factored(value, tuple(factors))


def _rho_factor(m: int, counts: dict[int, int], budget: int) -> None:
    stack = [m]
    while stack:
        m = stack.pop()
        if is_prime(m):
            if m >= _MR_EXACT_BELOW:  # Miller-Rabin certifies no prime this large
                raise FactorizationLimitExceeded(f"{m} is a probable prime, not a certified one")
            counts[m] = counts.get(m, 0) + 1
            continue
        factor, c = m, 0
        while factor == m:  # c = 1, then the next c after a collapsed cycle
            c += 1
            factor, budget = _brent_rho(m, c, budget)
        stack.append(factor)
        stack.append(m // factor)


def _brent_rho(m: int, c: int, budget: int) -> tuple[int, int]:
    """One run of Brent's rho on y -> y^2 + c from y = 2: (divisor, budget).

    The divisor is m itself when the whole cycle collapsed.  m is odd,
    composite, and has no prime factor <= 1000 here.
    """
    y = 2
    g = r = q = 1
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
    return g, budget


def euler_phi(n: FactoredInteger) -> int:
    """Euler's totient from the factorization; phi(1) = 1."""
    result = 1
    for p, alpha in n.factors:
        result *= p ** (alpha - 1) * (p - 1)
    return result


def divisors(n: FactoredInteger) -> list[int]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for p, alpha in n.factors:
        powers = [p**e for e in range(1, alpha + 1)]
        divs += [d * q for d in divs for q in powers]
    return sorted(divs)


def _moebius_terms(n: FactoredInteger) -> list[tuple[int, int]]:
    """(mu(s), s) for every squarefree divisor s of n; each prime p doubles the list."""
    terms = [(1, 1)]
    for p, _ in n.factors:
        for mu, s in terms.copy():
            terms.append((-mu, s * p))
    return terms


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


def p_adic_valuation(x: Fraction | int, p: int) -> int | float:
    """The exponent of p in the rational x; +inf for x = 0.

    An int x is read as it is, so the modular routes form no Fraction.
    """
    if not is_prime(p):
        raise PreconditionError(f"p must be prime, got {p}")
    if isinstance(x, int):
        num, den = x, 1
    else:
        from fractions import Fraction

        value = Fraction(x)
        num, den = value.numerator, value.denominator
    if num == 0:
        return inf
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_congruent(x: Fraction | int, y: Fraction | int, p: int, k: int) -> bool:
    """Whether x and y agree mod p^k in the p-adic sense: v_p(x - y) >= k."""
    from fractions import Fraction

    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    return p_adic_valuation(Fraction(x) - Fraction(y), p) >= k


def rational_mod(x: Fraction | int, modulus: int) -> Residue:
    """Reduce a rational to a residue; its denominator must be a unit."""
    from fractions import Fraction

    if modulus < 1:
        raise PreconditionError(f"modulus must be >= 1, got {modulus}")
    value = Fraction(x)
    den = value.denominator
    g = gcd(den, modulus)
    if g != 1:
        raise NotInvertibleError(
            f"denominator {den} shares the factor {g} with modulus {modulus}"
        )
    return Residue(value.numerator * pow(den, -1, modulus) % modulus, modulus)
