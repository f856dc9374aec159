"""The shared prefix sweep: coprime sums mod n^2 at a whole list of n.

sums._sweeps imports this module to price a list of two or more n
against the loop, so a process that verifies single values alone never
compiles it.  swept_sums is the sweep: one ascending pass over the j of
each unit class mod D adds the exact sums L/j, L = lcm(1..top), to that
class's prefix sum, and every n reads it at its Moebius cut points.  L
is the product of _top_powers(top), and each n, an arith.FactoredInteger,
reads its part of L from that same map and its primes from n.factors.
The result is certified: a quotient that does not divide out exactly
raises instead of returning a value.  It imports arith and errors alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress
from math import gcd, isqrt, lcm, prod

from .arith import FactoredInteger, Residue, _moebius_terms
from .errors import HALF

# swept_sums's cost in ns per 30-bit digit of L: a step, and a value (its
# requests and finish).  Fitted with sums._LOOP_NS on CPython 3.11.7 (2 vCPUs)
# to the thm3, cai and lehmer-p3 values in [a, a + w], a in {5, 2000, 10000,
# 40000}, w in {30, 300, 3000, 30000}, a + w <= 45000, by relative least squares.
_STEP_NS, _VALUE_NS = 3.8, 43

# swept_sums reads a request at k <= _TABLE_BOUND from an exact table
# (lcm(1..22) = 232792560 is the largest lcm(1..b) below 2^30, one CPython
# digit), and adds _WINDOW steps of a class per division of L (16 was the
# fastest of 4 to 32 for the four scans to 2410 and for n to 40000).
_TABLE_BOUND, _WINDOW = 22, 16


def price(ns: Sequence[int], d: int | str) -> float:
    """swept_sums(ns, d)'s cost in ns: steps and values times L's digits, about top / 21."""
    modulus, (top,) = _shape([max(ns)], d)  # K grows with n
    steps = top * sum(gcd(c, modulus) == 1 for c in range(modulus)) // modulus
    return (steps * _STEP_NS + len(ns) * _VALUE_NS) * (top // 21 + 1)


def _shape(ns: Sequence[int], d: int | str) -> tuple[int, list[int]]:
    """(D, [K at every n]): the sum at n runs over 0 < t <= K, t = n mod D.

    t is r for HALF, with D = 1 and K = (n-1)//2, and n - d r otherwise,
    with D = d and K = n - 1.
    """
    if d == HALF:
        return 1, [(n - 1) // 2 for n in ns]
    return d, [n - 1 for n in ns]


def _top_powers(top: int) -> dict[int, int]:
    """{p: its largest power <= top} for every prime p <= top: the parts of L."""
    sieve = bytearray([1]) * (top + 1)
    sieve[:2] = bytes(min(2, top + 1))
    for p in range(2, isqrt(top) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
    powers = {}
    for p in compress(range(top + 1), sieve):
        q = p
        while q * p <= top:
            q *= p
        powers[p] = q
    return powers


def swept_sums(ns: Sequence[FactoredInteger], d: int | str) -> list[Residue]:
    """sums.coprime_sums(ns, d) from one ascending sweep of exact prefix sums.

    The sum at n is that of 1/t over 0 < t <= K, t = n mod D, gcd(t, n) = 1
    (see _shape).  Moebius over the squarefree s | R = rad(n) makes
    it sum mu(s)/s P_{n/s mod D}(K // s), where P_c(k) is the sum of 1/j
    over j <= k, j = c mod D.  With L = lcm(1..top), top the largest K but
    at least _TABLE_BOUND, I_c(k) = L P_c(k) is an integer.  One pass over
    the j of each unit class c adds to I_c, per window of _WINDOW steps,
    the exact L/B times B's sum over the window, B the window's lcm, and
    at the last j <= k of class c reduces I_c mod n^2 G for every (k, c)
    that an n requests, from two remainders the window's requests share.
    At k <= _TABLE_BOUND it reads I_c(k) as L/T times the exact table
    entry T P_c(k) instead, T = lcm(1..22).  G is the product over the
    primes p of n of p^(1 + v_p(L)).  So Y = sum mu(s) (R/s) I is R L
    times the sum exactly, G divides Y, and the sum is Y/G over R L/G, a
    unit mod n^2.  A G that does not divide Y raises ArithmeticError.  The
    reductions of L/T mod n^2 G for 16 values of n share one remainder by
    the product of their moduli; T times one is L mod T n^2 G.
    """
    modulus, bounds = _shape(ns, d)
    top = max([_TABLE_BOUND, *bounds])  # so that T divides L
    powers = _top_powers(top)
    full = prod(powers.values())
    base = lcm(*range(1, _TABLE_BOUND + 1))
    table = [0] * (_TABLE_BOUND + 1)  # j -> T P_{j mod D}(j), exact
    for j in range(1, _TABLE_BOUND + 1):
        table[j] = base // j + table[max(j - modulus, 0)]
    wanted = [[] for _ in range(top + 1)]  # j -> (the terms of Y at n, mu(s) R/s, n^2 G)
    moduli = [1] * (top + 1)  # j -> the product of the n^2 G requested at j
    scales = []  # (n^2 G, n, n^2, G, the p-part of L, the terms of Y, the table's term)
    for n, bound in zip(ns, bounds):
        rad = local = 1
        for p, _ in n.factors:
            rad *= p
            local *= powers.get(p, 1)  # a p above top is not in L
        nsq = n * n
        ng = nsq * rad * local
        terms: list[int] = []
        near = 0  # Y's terms at j <= _TABLE_BOUND over L/T, exact
        for mu, s in _moebius_terms(n):
            k = bound // s
            # every unit mod D | 24 is its own inverse, so n s is the class
            # n/s mod D, and j the last of that class <= k, if any
            j = k - (k - n * s) % modulus
            if j > _TABLE_BOUND:
                wanted[j].append((terms, mu * (rad // s), ng))
                moduli[j] *= ng
            elif j > 0:
                near += mu * (rad // s) * table[j]
        scales.append((ng, n, nsq, rad * local, local, terms, near))
    for c in range(modulus):
        if gcd(c, modulus) == 1:
            partial = 0  # I_c at the last j before the window
            steps = range(c or modulus, top + 1, modulus)
            for lo in range(0, len(steps), _WINDOW):
                window = steps[lo : lo + _WINDOW]
                b = lcm(*window)
                step = full // b
                shared = prod(moduli[j] for j in window)
                partial_rest, step_rest = partial % shared, step % shared
                a = 0  # b times the sum of 1/j over the window up to j
                for j in window:
                    a += b // j
                    if requests := wanted[j]:
                        rest = (partial_rest + step_rest * a) % moduli[j]
                        for terms, weight, m in requests:
                            terms.append(weight * (rest % m))
                partial += step * a
    out = []
    cofactor = full // base  # L/T
    # 16 moduli of 45-75 bits made these remainders fastest for the thm3 scan to 2410
    for lo in range(0, len(ns), 16):
        block = scales[lo : lo + 16]
        rest = cofactor % prod(entry[0] for entry in block)
        for ng, n, nsq, g, local, terms, near in block:
            scale = rest % ng  # L/T mod n^2 G
            quotient, remainder = divmod(sum(terms) + scale * near, g)
            if remainder:
                raise ArithmeticError(f"the swept sum at n = {n} is not divisible by {g}")
            # T scale is L mod T n^2 G, so T scale // local is L/local mod n^2
            out.append(Residue(quotient * pow(base * scale // local, -1, nsq) % nsq, nsq))
    return out
