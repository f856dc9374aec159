"""Independent recomputation of every value the benchmark asks the program for.

Nothing here imports the package under test.  Totients come from this
module's own trial division, Fermat quotients from three-argument pow,
Bernoulli numbers from the tangent-number recurrence (Brent and Harvey,
"Fast computation of Bernoulli, tangent and secant numbers", 2011), and the
left-hand sums from exact Fraction arithmetic.  The program uses extended-gcd
inverses, Brent's rho and the defining Bernoulli recurrence instead, so an
agreement between the two is evidence, not an echo.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

# The identities the workloads run that carry their d in their name.
THEOREM_D = {"thm3": 3, "thm4": 4, "thm6": 6}
LEMMA2_D = {"lemma2-d3": 3, "lemma2-d4": 4, "lemma2-d6": 6}
HALF_RANGE = ("cai", "lehmer-half")


def primes_upto(limit: int) -> list[int]:
    """Primes <= limit by the sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


class Factorizer:
    """Trial division by a fixed table of primes; complete for n <= bound^2."""

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.primes = primes_upto(bound)

    def factor(self, n: int) -> dict[int, int]:
        if n < 1:
            raise ValueError(f"cannot factor {n}")
        if n > self.bound * self.bound:
            raise ValueError(f"{n} exceeds the trial-division range {self.bound}^2")
        out: dict[int, int] = {}
        for p in self.primes:
            if p * p > n:
                break
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out[p] = e
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    def phi(self, n: int) -> int:
        result = 1
        for p, e in self.factor(n).items():
            result *= p ** (e - 1) * (p - 1)
        return result

    def is_prime(self, n: int) -> bool:
        return n > 1 and self.factor(n) == {n: 1}


def valuation(x: int | Fraction, p: int) -> int | float:
    """The exponent of p in the rational x; inf for 0."""
    x = Fraction(x)
    if x == 0:
        return float("inf")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def reduce_mod(x: int | Fraction, m: int) -> int:
    """A rational with unit denominator, as its residue in [0, m)."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, m) % m


def quotient_mod(n: int, a: int, m: int, phi: int) -> int:
    """q_n(a) = (a^phi(n) - 1) / n reduced mod m, via a^phi mod n*m."""
    return (pow(a, phi, n * m) - 1) // n % m


def bernoulli_even(kmax: int) -> dict[int, Fraction]:
    """B_2 .. B_{2 kmax} from the tangent numbers T_1 .. T_kmax.

    B_{2k} = (-1)^(k-1) 2k T_k / (2^{2k} (2^{2k} - 1)); the tangent numbers
    come from the in-place integer recurrence of Brent and Harvey, which
    never forms a fraction.
    """
    t = [0] * (kmax + 1)
    if kmax >= 1:
        t[1] = 1
    for k in range(2, kmax + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, kmax + 1):
        for j in range(k, kmax + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = {}
    for k in range(1, kmax + 1):
        sign = 1 if k % 2 else -1
        out[2 * k] = Fraction(sign * 2 * k * t[k], 4**k * (4**k - 1))
    return out


def akiyama_tanigawa(m: int) -> Fraction:
    """B_m (with B_1 = +1/2) by the Akiyama-Tanigawa triangle; a slow cross-check."""
    row = [Fraction(0)] * (m + 1)
    for i in range(m + 1):
        row[i] = Fraction(1, i + 1)
        for j in range(i, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def restricted_terms(n: int, d: int | None, exclude_p: int | None) -> list[int]:
    """Denominators of a restricted sum; d=None is the half range 1/r."""
    if d is None:
        rs = range(1, (n - 1) // 2 + 1)
    else:
        rs = range(1, n // d + 1)
    keep = (lambda r: gcd(r, n) == 1) if exclude_p is None else (lambda r: r % exclude_p)
    return [r if d is None else n - d * r for r in rs if keep(r)]


def exact_sum_mod(n: int, d: int | None, exclude_p: int | None, m: int) -> int:
    """The restricted sum as one exact Fraction, then reduced mod m."""
    total = sum((Fraction(1, t) for t in restricted_terms(n, d, exclude_p)), Fraction(0))
    return reduce_mod(total, m)


def modular_sum(n: int, d: int | None, exclude_p: int | None, m: int) -> int:
    """The restricted sum mod m with built-in pow inverses."""
    return sum(pow(t, -1, m) for t in restricted_terms(n, d, exclude_p)) % m


def _theorem_rhs(d: int, n: int, q2: int, q3: int) -> Fraction:
    if d == 3:
        return Fraction(q3, 2) - Fraction(n * q3 * q3, 4)
    if d == 4:
        return Fraction(3 * q2, 4) - Fraction(3 * n * q2 * q2, 8)
    return Fraction(q2, 3) + Fraction(q3, 4) - n * (Fraction(q2 * q2, 6) + Fraction(q3 * q3, 8))


def _lemma2_rhs(d: int, q2: int, q3: int) -> Fraction:
    if d == 3:
        return Fraction(q3, 2)
    if d == 4:
        return Fraction(3 * q2, 4)
    return Fraction(q2, 3) + Fraction(q3, 4)


class Oracle:
    """Expected rows for every identity the workloads scan or verify."""

    def __init__(self, trial_bound: int = 1_100_000) -> None:
        self.fz = Factorizer(trial_bound)
        self._bernoulli: dict[int, Fraction] = {}

    def bernoulli(self, m: int) -> Fraction:
        # Recomputes the whole table on a miss; the tangent numbers behind
        # B_930 take about 0.1 s, and a lemma1 scan misses ten times.
        if m not in self._bernoulli:
            self._bernoulli = bernoulli_even(m // 2)
        return self._bernoulli[m]

    def admissible(self, identity: str, n: int, a: int | None, p: int | None) -> bool:
        """The admissibility rule of each identity, as the paper states it."""
        if identity in THEOREM_D:
            return n > 1 and gcd(n, 6) == 1
        if identity == "cai":
            return n >= 3 and n % 2 == 1
        if identity == "lehmer-half":
            return n >= 3 and n % 2 == 1 and self.fz.is_prime(n)
        if identity == "lemma1":
            return self.fz.is_prime(n)
        if identity in LEMMA2_D or identity == "moebius":
            return n > 1 and n % p == 0 and gcd(n, 6) == 1
        if identity == "lemma3":
            return n > 1 and gcd(n, 6 * a) == 1
        if identity == "lemma4":
            return n > 1 and n % p == 0 and gcd(a, n) == 1
        raise ValueError(f"no admissibility rule for {identity}")

    def q(self, n: int, a: int, m: int) -> int:
        return quotient_mod(n, a, m, self.fz.phi(n))

    def expected(self, identity: str, n: int, a: int | None = None,
                 p: int | None = None, d: int | None = None) -> dict:
        """The whole JSON row a correct program prints for this check.

        Every identity is a theorem on its admissible inputs, so holds is
        true and lhs equals rhs; the value is computed from the right-hand
        side (or, for the divisor rearrangement, from the direct sum).
        """
        if identity in THEOREM_D:
            d = THEOREM_D[identity]
            m = n * n
            q2 = self.q(n, 2, m) if d in (4, 6) else 0
            q3 = self.q(n, 3, m) if d in (3, 6) else 0
            value = reduce_mod(_theorem_rhs(d, n, q2, q3), m)
            params = {"n": n, "d": d}
        elif identity in HALF_RANGE:
            m = n * n
            q2 = self.q(n, 2, m)
            value = (-2 * q2 + n * q2 * q2) % m
            params = {"n": n}
        elif identity in LEMMA2_D:
            d = LEMMA2_D[identity]
            alpha = int(valuation(n, p))
            m = p ** (2 * alpha)
            value = reduce_mod(_lemma2_rhs(d, self.q(m, 2, m), self.q(m, 3, m)), m)
            params = {"n": n, "p": p, "d": d, "alpha": alpha}
        elif identity == "moebius":
            alpha = int(valuation(n, p))
            m = p ** (2 * alpha)
            value = modular_sum(n, d, None, m)
            params = {"n": n, "p": p, "d": d, "alpha": alpha}
        elif identity == "lemma3":
            m = n * n
            lhs_q = quotient_mod(m, a, m, n * self.fz.phi(n))  # phi(n^2) = n phi(n)
            q = self.q(n, a, m)
            value = reduce_mod(q - Fraction(n * q * q, 2), m)
            if lhs_q != value:
                raise ArithmeticError(f"lemma3 oracle sides disagree at n={n}")
            params = {"n": n, "a": a}
        elif identity == "lemma4":
            alpha = int(valuation(n, p))
            m = p ** (2 * alpha)
            pa = p**alpha
            cof = n // pa
            qn = self.q(n, a, m)
            qp = self.q(pa, a, m)
            value = (2 * qn - n * qn * qn) % m
            local = 2 * qp - pa * qp * qp
            if value != reduce_mod(Fraction(self.fz.phi(cof), cof) * local, m):
                raise ArithmeticError(f"lemma4 oracle sides disagree at n={n}")
            params = {"n": n, "a": a, "p": p, "alpha": alpha}
        elif identity == "lemma1":
            m = n * n
            lhs = n - 1  # phi(p)
            rhs = n * self.bernoulli(n * (n - 1))
            v = valuation(lhs - rhs, n)
            return {
                "identity": identity, "params": {"p": n, "alpha": 1},
                "modulus": str(m), "lhs": str(lhs % m), "rhs": str(reduce_mod(rhs, m)),
                "holds": v >= 2, "valuation": "inf" if v == float("inf") else v,
                "required": 2,
            }
        else:
            raise ValueError(f"no oracle for {identity}")
        return {
            "identity": identity, "params": params, "modulus": str(m),
            "lhs": str(value), "rhs": str(value), "holds": True,
        }

    def exact_lhs(self, identity: str, n: int, p: int | None = None,
                  d: int | None = None) -> int | None:
        """The left side as an exact Fraction sum reduced mod its modulus.

        None for identities whose left side is not a restricted sum.
        """
        if identity in THEOREM_D:
            return exact_sum_mod(n, THEOREM_D[identity], None, n * n)
        if identity in HALF_RANGE:
            return exact_sum_mod(n, None, None, n * n)
        if identity in LEMMA2_D:
            return exact_sum_mod(n, LEMMA2_D[identity], p, p ** (2 * int(valuation(n, p))))
        if identity == "moebius":
            return exact_sum_mod(n, d, None, p ** (2 * int(valuation(n, p))))
        return None
