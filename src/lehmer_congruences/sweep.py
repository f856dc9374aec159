"""The shared prefix sweep: coprime sums mod n^2 at a whole list of n.

sums.coprime_sums imports this module when it is given more than one n,
so a process that only verifies single values never compiles it.
is_cheaper weighs the sweep against sums.modular_sum at every n, and
swept_sums is the sweep: one ascending pass over j adds the exact
integers L // j, L = lcm(1..top), to one prefix sum per unit class mod
D, and every n reads those prefix sums at its Moebius cut points.  Its
result is certified: a quotient that does not divide out exactly raises
instead of returning a value.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress
from math import gcd, isqrt, prod

from .arith import FactoredInteger, Residue, euler_phi
from .sums import HALF, _moebius_terms

# Costs in ns, fitted on CPython 3.11.7 (one vCPU of a 2-vCPU virtual
# machine) to lists of the admissible n in [5, 8000], [3000, 3100],
# [8000, 8060] and [20000, 20030] for every d: a kept term of
# sums.modular_sum (250-330 ns), and per CPython digit of L one sweep step
# (an exact L // j and an addition, 10.6-11.8 ns) and one Moebius request
# (a remainder by a 2- to 4-digit modulus, 38-48 ns).
_LOOP_NS = 250
_SWEEP_STEP_NS = 11
_SWEEP_REQUEST_NS = 40


def is_cheaper(
    ns: Sequence[int], d: int | str, factored: list[FactoredInteger]
) -> bool:
    """Whether swept_sums(ns, d) should cost less than sums.modular_sum at each n.

    The loop costs _LOOP_NS per kept term, about K phi(n) / (D n) at n;
    the sweep costs its steps and its Moebius requests times the CPython
    digits of L = lcm(1..top), which has about 1.44 top bits (the
    Chebyshev function psi(top) ~ top).
    """
    modulus, bounds = _shape(ns, d)
    kept = sum(
        k * euler_phi(f) / (modulus * n) for n, f, k in zip(ns, factored, bounds)
    )
    top = max(bounds)
    steps = top * sum(gcd(c, modulus) == 1 for c in range(modulus)) // modulus
    requests = sum(1 << len(f.factors) for f in factored)
    digits = top // 21 + 1
    sweep = (steps * _SWEEP_STEP_NS + requests * _SWEEP_REQUEST_NS) * digits
    return sweep < kept * _LOOP_NS


def _shape(ns: Sequence[int], d: int | str) -> tuple[int, list[int]]:
    """(D, [K at every n]): the sum at n runs over 0 < t <= K, t = n mod D.

    t is r for HALF, with D = 1 and K = (n-1)//2, and n - d r otherwise,
    with D = d and K = n - 1.
    """
    if d == HALF:
        return 1, [(n - 1) // 2 for n in ns]
    return d, [n - 1 for n in ns]


def _lcm_upto(top: int) -> int:
    """lcm(1, ..., top): every prime up to top to its largest power <= top."""
    sieve = bytearray([1]) * (top + 1)
    sieve[:2] = bytes(min(2, top + 1))
    for p in range(2, isqrt(top) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
    return prod(_top_power(p, top) for p in compress(range(top + 1), sieve))


def _top_power(p: int, top: int) -> int:
    """The largest power of p that is at most top: p^(v_p(lcm(1..top)))."""
    q = 1
    while q * p <= top:
        q *= p
    return q


def swept_sums(
    ns: Sequence[int], d: int | str, factored: list[FactoredInteger]
) -> list[Residue]:
    """sums.coprime_sums(ns, d) from one ascending sweep of exact prefix sums.

    The sum at n is that of 1/t over 0 < t <= K, t = n mod D, gcd(t, n) = 1
    (see _shape).  Moebius over the squarefree s | R = rad(n) makes
    it sum mu(s)/s P_{n/s mod D}(K // s), where P_c(k) is the sum of 1/j
    over j <= k, j = c mod D.  With L = lcm(1..top) and top the largest K,
    I_c(k) = L P_c(k) is an integer, and one sweep over j adds L // j to
    I_{j mod D}, reducing it mod n^2 G at every k that n requests; G is
    the product over the primes p of n of p^(1 + v_p(L)), the p-part of
    R L.  So Y = sum mu(s) (R/s) I is R L times the sum exactly, G divides
    Y, and the sum is Y/G over R L/G, a unit mod n^2.  A G that does not
    divide Y raises ArithmeticError.
    """
    modulus, bounds = _shape(ns, d)
    top = max(bounds, default=0)
    lcm = _lcm_upto(top)
    units = [gcd(c, modulus) == 1 for c in range(modulus)]
    # the inverse of every unit class mod D; s | n is a unit, as gcd(n, D) = 1
    inverse = [pow(c, -1, modulus) if unit else 0 for c, unit in enumerate(units)]
    tops: dict[int, int] = {}  # p -> _top_power(p, top), each p worked out once
    # k -> the requests at k: (index of n, class c, mu(s) R/s, n^2 G)
    wanted: dict[int, list[tuple[int, int, int, int]]] = {}
    scales = []  # (G, the p-part of L) at every n
    for i, (n, f, bound) in enumerate(zip(ns, factored, bounds)):
        primes = [p for p, _ in f.factors]
        rad = prod(primes)
        local = 1
        for p in primes:
            if p not in tops:
                tops[p] = _top_power(p, top)
            local *= tops[p]
        g = rad * local
        scales.append((g, local))
        ng = n * n * g
        for mu, s in _moebius_terms(f):
            k = bound // s
            if k:
                c = n * inverse[s % modulus] % modulus
                wanted.setdefault(k, []).append((i, c, mu * (rad // s), ng))
    partial = [0] * modulus
    totals = [0] * len(ns)
    for j in range(1, top + 1):
        c = j % modulus
        if units[c]:
            partial[c] += lcm // j
        for i, cls, weight, m in wanted.get(j, ()):
            totals[i] += weight * (partial[cls] % m)
    out = []
    for n, total, (g, local) in zip(ns, totals, scales):
        nsq = n * n
        total %= nsq * g
        if total % g:
            raise ArithmeticError(f"the swept sum at n = {n} is not divisible by {g}")
        # (L / local) mod n^2, without forming the full-size quotient L / local
        unit = lcm % (nsq * local) // local
        out.append(Residue(total // g * pow(unit, -1, nsq) % nsq, nsq))
    return out
