"""The shared prefix sweep: coprime sums mod n^2 at a whole list of n.

sums.coprime_sums imports this module when it is given more than one n,
so a process that only verifies single values never compiles it.
is_cheaper weighs the sweep against sums.modular_sum at every n, and
swept_sums is the sweep: one ascending pass over the j of each unit
class mod D adds the exact integers L // j, L = lcm(1..top), to that
class's prefix sum, and every n reads it at its Moebius cut points.  L is
the product of _top_powers(top), and each n reads its part of L from
that same map.  Both take every n as an arith.FactoredInteger and read
its primes from n.factors.  The sweep's result is certified: a quotient
that does not divide out exactly raises instead of returning a value.
It imports arith and errors alone, never sums.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress
from math import gcd, isqrt, prod

from .arith import FactoredInteger, Residue, _moebius_terms, euler_phi
from .errors import HALF

# Costs in ns, fitted on CPython 3.11.7 (one vCPU of a 2-vCPU virtual
# machine) to lists of the admissible n in [5, 8000], [3000, 3100],
# [8000, 8060] and [20000, 20030] for every d: a kept term of
# sums.modular_sum (250-330 ns), and per CPython digit of L one sweep step
# (an exact L // j and an addition, 10.6-11.8 ns) and one Moebius request
# (a remainder by a 2- to 4-digit modulus, 38-48 ns).
_LOOP_NS = 250
_SWEEP_STEP_NS = 11
_SWEEP_REQUEST_NS = 40


def is_cheaper(ns: Sequence[FactoredInteger], d: int | str) -> bool:
    """Whether swept_sums(ns, d) should cost less than sums.modular_sum at each n.

    The loop costs _LOOP_NS per kept term, about K phi(n) / (D n) at n;
    the sweep costs its steps and its Moebius requests times the CPython
    digits of L = lcm(1..top), which has about 1.44 top bits (the
    Chebyshev function psi(top) ~ top).
    """
    modulus, bounds = _shape(ns, d)
    top = max(bounds)
    steps = top * sum(gcd(c, modulus) == 1 for c in range(modulus)) // modulus
    requests = sum(1 << len(n.factors) for n in ns)
    sweep = (steps * _SWEEP_STEP_NS + requests * _SWEEP_REQUEST_NS) * (top // 21 + 1)
    kept = 0.0
    for n, k in zip(ns, bounds):  # kept only grows: the first n that tips it decides
        kept += k * euler_phi(n) / (modulus * n)
        if sweep < kept * _LOOP_NS:
            return True
    return False


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
    over j <= k, j = c mod D.  With L = lcm(1..top) and top the largest K,
    I_c(k) = L P_c(k) is an integer.  One pass over the j of each unit
    class c adds L // j to I_c, and at the last j <= k of class c reduces
    I_c mod n^2 G for every (k, c) that an n requests; G is the product
    over the primes p of n of p^(1 + v_p(L)), the p-part of R L.  So
    Y = sum mu(s) (R/s) I is R L times the sum exactly, G divides Y, and
    the sum is Y/G over R L/G, a unit mod n^2.  A G that does not divide Y
    raises ArithmeticError.  The requests at one j, and the reductions of
    L for 16 values of n, share one remainder of the full-size integer by
    the product of their moduli.
    """
    modulus, bounds = _shape(ns, d)
    top = max(bounds, default=0)
    powers = _top_powers(top)
    lcm = prod(powers.values())
    wanted = [[] for _ in range(top + 1)]  # j -> (the terms of Y at n, mu(s) R/s, n^2 G)
    moduli = [1] * (top + 1)  # j -> the product of the n^2 G requested at j
    scales = []  # (n, n^2, G, the p-part of L, the terms of Y) at every n
    for n, bound in zip(ns, bounds):
        rad = local = 1
        for p, _ in n.factors:
            rad *= p
            local *= powers.get(p, 1)  # a p above top is not in L
        nsq = n * n
        ng = nsq * rad * local
        terms: list[int] = []
        scales.append((n, nsq, rad * local, local, terms))
        for mu, s in _moebius_terms(n):
            k = bound // s
            # every unit mod D | 24 is its own inverse, so n s is the class
            # n/s mod D, and j the last of that class <= k, if any
            j = k - (k - n * s) % modulus
            if j > 0:
                wanted[j].append((terms, mu * (rad // s), ng))
                moduli[j] *= ng
    for c in range(modulus):
        if gcd(c, modulus) == 1:
            partial = 0
            for j in range(c or modulus, top + 1, modulus):
                partial += lcm // j
                if requests := wanted[j]:
                    rest = partial % moduli[j]
                    for terms, weight, m in requests:
                        terms.append(weight * (rest % m))
    out = []
    # 16 moduli of 30-60 bits made the remainders of L fastest for the thm3 scan to 2410
    for lo in range(0, len(ns), 16):
        block = scales[lo : lo + 16]
        rest = lcm % prod(nsq * local for _, nsq, _, local, _ in block)
        for n, nsq, g, local, terms in block:
            quotient, remainder = divmod(sum(terms) % (nsq * g), g)
            if remainder:
                raise ArithmeticError(f"the swept sum at n = {n} is not divisible by {g}")
            # (L / local) mod n^2, without forming the full-size quotient L / local
            unit = rest % (nsq * local) // local
            out.append(Residue(quotient * pow(unit, -1, nsq) % nsq, nsq))
    return out
