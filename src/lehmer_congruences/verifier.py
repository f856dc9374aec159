"""Identity catalog and orchestration: verify, scan, search, reassembly.

verify runs one congruence check and returns a CongruenceReport.  scan maps
it over a range of n, keeping admissible n only (by a per-identity default
predicate, or a caller-supplied one) and converting in-range precondition
failures into skip reports so the output stays auditable.  The
counterexample search deliberately relaxes the hypotheses: left-hand terms
are inverted one by one, and the right-hand side is evaluated as an exact
rational first, reduced only when its denominator is a unit.
"""

from __future__ import annotations

from collections.abc import Callable
from math import ceil, gcd

from .arith import Residue, crt_combine, factorize, is_prime
from .bernoulli import BernoulliCache, rational_mod
from .errors import (
    FactorizationLimitExceeded,
    IndexCapExceeded,
    NoCounterexampleInRange,
    NotCoprimeError,
    NotInvertibleError,
    OracleDivergence,
    PreconditionError,
)
from .quotients import (
    lemma1_check,
    lemma3_check,
    lemma3_exact_sides,
    lemma4_check,
    lemma4_exact_sides,
)
from .report import CongruenceReport, IdentityId
from .sums import (
    HALF,
    SumSpec,
    _prime_valuation,
    exact_sum,
    half_harmonic,
    half_rhs,
    half_rhs_exact,
    lehmer_sum,
    lemma2_rhs,
    lemma2_rhs_exact,
    lemma2_sum,
    modular_sum_lenient,
    moebius_decomposition_sides,
    moebius_decomposition_sides_exact,
    theorem_rhs,
    theorem_rhs_exact,
)

__all__ = [
    "CongruenceReport",
    "IdentityId",
    "counterexample_search",
    "crt_reassembly_check",
    "scan",
    "verify",
]

_THEOREM_D = {IdentityId.THM_3: 3, IdentityId.THM_4: 4, IdentityId.THM_6: 6}
_PRIME_D = {
    IdentityId.LEHMER_P3: 3,
    IdentityId.LEHMER_P4: 4,
    IdentityId.LEHMER_P6: 6,
}
_LEMMA2_D = {
    IdentityId.LEMMA_2_D3: 3,
    IdentityId.LEMMA_2_D4: 4,
    IdentityId.LEMMA_2_D6: 6,
}


def _need(value: int | None, name: str, identity: IdentityId) -> int:
    if value is None:
        raise PreconditionError(f"{name} is required for {identity.value}")
    return value


def _modular_report(
    identity: IdentityId, params: dict[str, int], lhs: Residue, rhs: Residue
) -> CongruenceReport:
    if lhs.modulus != rhs.modulus:
        raise ArithmeticError("left and right sides use different moduli")
    return CongruenceReport(
        identity=identity,
        params=params,
        modulus=lhs.modulus,
        lhs=lhs,
        rhs=rhs,
        holds=lhs.rep == rhs.rep,
    )


def verify(
    identity: IdentityId,
    *,
    n: int | None = None,
    a: int | None = None,
    p: int | None = None,
    d: int | None = None,
    alpha: int | None = None,
    cache: BernoulliCache | None = None,
    exact_oracle: bool = False,
) -> CongruenceReport:
    """Run one congruence check and report both sides.

    Which keyword parameters are required depends on the identity; the
    lemma2 variants and the theorem/prime identities carry their d in the
    identity itself, while the Moebius decomposition takes d explicitly.
    With exact_oracle=True both sides are recomputed over the exact
    rationals and any disagreement with the modular route raises
    OracleDivergence.
    """
    if identity is IdentityId.LEHMER_HALF:
        nn = _need(n, "n", identity)
        if nn < 3 or nn % 2 == 0 or not is_prime(nn):
            raise PreconditionError(f"n = {nn} is not an odd prime")
        report = _modular_report(identity, {"n": nn}, half_harmonic(nn), half_rhs(nn))
    elif identity is IdentityId.CAI_HALF:
        nn = _need(n, "n", identity)
        report = _modular_report(identity, {"n": nn}, half_harmonic(nn), half_rhs(nn))
    elif identity in _PRIME_D:
        nn = _need(n, "n", identity)
        dd = _PRIME_D[identity]
        if nn < 5 or not is_prime(nn):
            raise PreconditionError(f"n = {nn} is not a prime >= 5")
        report = _modular_report(
            identity, {"n": nn, "d": dd}, lehmer_sum(nn, dd), theorem_rhs(nn, dd)
        )
    elif identity in _THEOREM_D:
        nn = _need(n, "n", identity)
        dd = _THEOREM_D[identity]
        rhs = theorem_rhs(nn, dd)  # enforces gcd(n, 6) = 1 up front
        report = _modular_report(
            identity, {"n": nn, "d": dd}, lehmer_sum(nn, dd), rhs
        )
    elif identity is IdentityId.LEMMA_1:
        pp = p if p is not None else _need(n, "p", identity)
        report = lemma1_check(pp, 1 if alpha is None else alpha, cache)
    elif identity in _LEMMA2_D:
        nn = _need(n, "n", identity)
        pp = _need(p, "p", identity)
        dd = _LEMMA2_D[identity]
        lhs = lemma2_sum(nn, pp, dd)
        aa = _prime_valuation(nn, pp)
        report = _modular_report(
            identity,
            {"n": nn, "p": pp, "d": dd, "alpha": aa},
            lhs,
            lemma2_rhs(pp, aa, dd),
        )
    elif identity is IdentityId.LEMMA_3:
        nn = _need(n, "n", identity)
        report = lemma3_check(nn, _need(a, "a", identity))
    elif identity is IdentityId.LEMMA_4:
        nn = _need(n, "n", identity)
        report = lemma4_check(nn, _need(a, "a", identity), _need(p, "p", identity))
    elif identity is IdentityId.MOEBIUS_DECOMP:
        nn = _need(n, "n", identity)
        pp = _need(p, "p", identity)
        dd = _need(d, "d", identity)
        lhs, rhs = moebius_decomposition_sides(nn, pp, dd)
        report = _modular_report(
            identity,
            {"n": nn, "p": pp, "d": dd, "alpha": _prime_valuation(nn, pp)},
            lhs,
            rhs,
        )
    else:  # pragma: no cover - the enum is closed
        raise PreconditionError(f"unhandled identity {identity}")
    if exact_oracle:
        _exact_recheck(report)
    return report


def _exact_recheck(report: CongruenceReport) -> None:
    """Recompute both report sides over the rationals; raise on divergence.

    lemma1 already compares p-adically on exact values, so it has nothing
    separate to recheck.
    """
    identity = report.identity
    if identity is IdentityId.LEMMA_1:
        return
    params = report.params
    m = report.modulus
    if identity in (IdentityId.LEHMER_HALF, IdentityId.CAI_HALF):
        n = params["n"]
        lhs = rational_mod(exact_sum(SumSpec(n, HALF, None, m)), m)
        rhs = rational_mod(half_rhs_exact(n), m)
    elif identity in _PRIME_D or identity in _THEOREM_D:
        n, d = params["n"], params["d"]
        lhs = rational_mod(exact_sum(SumSpec(n, d, None, m)), m)
        rhs = rational_mod(theorem_rhs_exact(n, d), m)
    elif identity in _LEMMA2_D:
        n, p, d = params["n"], params["p"], params["d"]
        alpha = params["alpha"]
        lhs = rational_mod(exact_sum(SumSpec(n, d, p, m)), m)
        rhs = rational_mod(lemma2_rhs_exact(p, alpha, d), m)
    elif identity is IdentityId.LEMMA_3:
        exact_lhs, exact_rhs = lemma3_exact_sides(params["n"], params["a"])
        lhs = rational_mod(exact_lhs, m)
        rhs = rational_mod(exact_rhs, m)
    elif identity is IdentityId.LEMMA_4:
        exact_lhs, exact_rhs = lemma4_exact_sides(
            params["n"], params["a"], params["p"]
        )
        lhs = rational_mod(exact_lhs, m)
        rhs = rational_mod(exact_rhs, m)
    else:  # Moebius decomposition
        exact_lhs, exact_rhs = moebius_decomposition_sides_exact(
            params["n"], params["p"], params["d"]
        )
        lhs = rational_mod(exact_lhs, m)
        rhs = rational_mod(exact_rhs, m)
    if lhs.rep != report.lhs.rep or rhs.rep != report.rhs.rep:
        raise OracleDivergence(
            f"{identity.value} at {params}: modular route gave "
            f"lhs={report.lhs.rep}, rhs={report.rhs.rep}, exact route gave "
            f"lhs={lhs.rep}, rhs={rhs.rep} (mod {m})"
        )


def _default_predicate(
    identity: IdentityId, a: int | None, p: int | None
) -> Callable[[int], bool]:
    """The admissibility filter scan applies when none is supplied."""
    if identity is IdentityId.LEHMER_HALF:
        return lambda n: n >= 3 and n % 2 == 1 and is_prime(n)
    if identity is IdentityId.CAI_HALF:
        return lambda n: n >= 3 and n % 2 == 1
    if identity in _PRIME_D:
        return lambda n: n >= 5 and is_prime(n)
    if identity in _THEOREM_D:
        return lambda n: n > 1 and gcd(n, 6) == 1
    if identity is IdentityId.LEMMA_1:
        return lambda n: is_prime(n)
    if identity in _LEMMA2_D or identity is IdentityId.MOEBIUS_DECOMP:
        if p is None:
            raise PreconditionError(f"p is required to scan {identity.value}")
        return lambda n: n > 1 and n % p == 0 and gcd(n, 6) == 1
    if identity is IdentityId.LEMMA_3:
        base = 2 if a is None else a
        return lambda n: n > 1 and gcd(n, 6 * base) == 1
    if identity is IdentityId.LEMMA_4:
        if p is None:
            raise PreconditionError(f"p is required to scan {identity.value}")
        base = 2 if a is None else a
        return lambda n: n > 1 and n % p == 0 and gcd(base, n) == 1
    raise PreconditionError(f"unhandled identity {identity}")  # pragma: no cover


def _skip_report(
    identity: IdentityId,
    n: int,
    a: int | None,
    p: int | None,
    alpha: int | None,
    reason: str,
) -> CongruenceReport:
    if identity is IdentityId.LEMMA_1:
        # the scanned variable is the prime itself
        params: dict[str, int] = {"p": n, "alpha": 1 if alpha is None else alpha}
    else:
        params = {"n": n}
        if a is not None:
            params["a"] = a
        if p is not None:
            params["p"] = p
        if identity in _THEOREM_D:
            params["d"] = _THEOREM_D[identity]
        elif identity in _PRIME_D:
            params["d"] = _PRIME_D[identity]
        elif identity in _LEMMA2_D:
            params["d"] = _LEMMA2_D[identity]
        if alpha is not None:
            params["alpha"] = alpha
    modulus: int | None = None
    if identity is IdentityId.LEMMA_1:
        modulus = n ** (2 * (1 if alpha is None else alpha))
    elif identity in _LEMMA2_D or identity is IdentityId.MOEBIUS_DECOMP:
        if p is not None and n % p == 0:
            modulus = p ** (2 * _prime_valuation(n, p))
    elif identity is IdentityId.LEMMA_4:
        if p is not None and n % p == 0:
            modulus = p ** (2 * _prime_valuation(n, p))
    else:
        modulus = n * n
    return CongruenceReport(
        identity=identity,
        params=params,
        modulus=modulus,
        lhs=None,
        rhs=None,
        holds=None,
        skipped_reason=reason,
    )


def _scan_serial(
    identity: IdentityId,
    n_from: int,
    n_to: int,
    a: int | None,
    p: int | None,
    d: int | None,
    alpha: int | None,
    predicate: Callable[[int], bool] | None,
    cache: BernoulliCache | None,
    exact_oracle: bool,
) -> list[CongruenceReport]:
    keep = predicate if predicate is not None else _default_predicate(identity, a, p)
    out: list[CongruenceReport] = []
    for n in range(n_from, n_to + 1):
        if not keep(n):
            continue
        try:
            out.append(
                verify(
                    identity,
                    n=n,
                    a=a,
                    p=p,
                    d=d,
                    alpha=alpha,
                    cache=cache,
                    exact_oracle=exact_oracle,
                )
            )
        except (PreconditionError, IndexCapExceeded, FactorizationLimitExceeded) as exc:
            out.append(_skip_report(identity, n, a, p, alpha, str(exc)))
    return out


def _scan_chunk(args: tuple) -> list[CongruenceReport]:
    return _scan_serial(*args)


def scan(
    identity: IdentityId,
    n_from: int,
    n_to: int,
    *,
    a: int | None = None,
    p: int | None = None,
    d: int | None = None,
    alpha: int | None = None,
    predicate: Callable[[int], bool] | None = None,
    workers: int = 1,
    cache: BernoulliCache | None = None,
    exact_oracle: bool = False,
) -> list[CongruenceReport]:
    """One report per retained n in [n_from, n_to], in ascending n.

    n is retained when the predicate accepts it (default: the identity's
    admissibility filter).  A retained n whose check still cannot run, for
    instance under a permissive custom predicate or a tight Bernoulli cap,
    produces a report with skipped_reason instead of disappearing.  With
    workers > 1 the range is split across processes; the merged result is
    identical to the single-process one, and the predicate (if given) must
    be picklable.
    """
    if n_to < n_from:
        return []
    if workers > 1:
        # imported here so that a serial run does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        count = n_to - n_from + 1
        chunk = max(1, ceil(count / (workers * 4)))
        spans = [
            (lo, min(lo + chunk - 1, n_to)) for lo in range(n_from, n_to + 1, chunk)
        ]
        jobs = [
            (identity, lo, hi, a, p, d, alpha, predicate, cache, exact_oracle)
            for lo, hi in spans
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_chunk, jobs))
        return [report for part in parts for report in part]
    return _scan_serial(
        identity, n_from, n_to, a, p, d, alpha, predicate, cache, exact_oracle
    )


def counterexample_search(
    identity: IdentityId,
    class_filter: int | Callable[[int], bool],
    *,
    n_to: int = 1000,
    cache: BernoulliCache | None = None,
) -> list[CongruenceReport]:
    """Scan n = 2, 3, ... for the first failure of a theorem congruence.

    class_filter is either a residue class mod 6 or an arbitrary predicate
    on n.  The hypotheses are deliberately relaxed: left-hand terms are
    inverted individually, and n is skipped (with a report) when a term is
    not a unit mod n^2; the right-hand side is evaluated as an exact
    rational, reduced only when its denominator is a unit.  Returns the
    trail of reports, ending with the first failure; raises
    NoCounterexampleInRange when the bound is exhausted.
    """
    if identity not in _THEOREM_D:
        raise PreconditionError(
            "counterexample search covers thm3, thm4 and thm6 only"
        )
    d = _THEOREM_D[identity]
    if isinstance(class_filter, int):
        residue = class_filter % 6
        keep: Callable[[int], bool] = lambda n: n % 6 == residue
    else:
        keep = class_filter
    trail: list[CongruenceReport] = []
    for n in range(2, n_to + 1):
        if not keep(n):
            continue
        nsq = n * n
        params = {"n": n, "d": d}
        lhs, reason = modular_sum_lenient(SumSpec(n, d, None, nsq))
        if lhs is None:
            trail.append(_skip_report(identity, n, None, None, None, reason))
            continue
        try:
            rhs_value = theorem_rhs_exact(n, d)
        except NotCoprimeError as exc:
            trail.append(_skip_report(identity, n, None, None, None, str(exc)))
            continue
        try:
            rhs = rational_mod(rhs_value, nsq)
        except NotInvertibleError as exc:
            trail.append(
                _skip_report(
                    identity, n, None, None, None, f"right side: {exc}"
                )
            )
            continue
        report = CongruenceReport(
            identity=identity,
            params=params,
            modulus=nsq,
            lhs=lhs,
            rhs=rhs,
            holds=lhs.rep == rhs.rep,
        )
        trail.append(report)
        if not report.holds:
            return trail
    raise NoCounterexampleInRange(
        f"no {identity.value} counterexample in the class up to n = {n_to}"
    )


def crt_reassembly_check(
    n: int, d: int, cache: BernoulliCache | None = None
) -> bool:
    """Rebuild the theorem verdict mod n^2 from its prime-power parts.

    The difference of the two sides is reduced mod p^{2 alpha} for every
    p^alpha exactly dividing n, the residues are recombined, and the
    combination must vanish mod n^2 exactly when the direct comparison
    holds.  For prime n this degenerates to the single congruence.
    """
    identity = {3: IdentityId.THM_3, 4: IdentityId.THM_4, 6: IdentityId.THM_6}.get(d)
    if identity is None:
        raise PreconditionError(f"d must be 3, 4 or 6, got {d}")
    report = verify(identity, n=n, cache=cache)
    diff = (report.lhs.rep - report.rhs.rep) % report.modulus
    parts = [
        Residue(diff % p ** (2 * alpha), p ** (2 * alpha))
        for p, alpha in factorize(n).factors
    ]
    combined = crt_combine(parts)
    if combined.modulus != n * n:  # unreachable: the p^{2a} rebuild n^2
        raise ArithmeticError("prime-power moduli do not rebuild n^2")
    zero = combined.rep == 0
    if zero != report.holds:  # unreachable: CRT is an isomorphism
        raise ArithmeticError("CRT verdict diverged from the direct comparison")
    return zero
