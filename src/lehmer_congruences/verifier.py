"""Identity catalog and orchestration: verify, scan, search, reassembly.

IDENTITIES holds one IdentitySpec per IdentityId: the parameters its check
reads, scan's admissibility filter, the modulus a skip report carries,
the modular check, the exact-rational sides for the oracle, and the
embedded d.  verify and scan read the table and branch on no identity;
its entries look the layer functions up in this module when they run, so a
wrapper set here (a tracer, a test double) sees every call; those that sum
load the sums layer first, so a lemma check never loads it.  scan keeps the
admissible values of the scanned variable and turns a check that hits a
cap or a budget into a skip report, so the output stays auditable.  With
several workers it deals those values round-robin to processes forked
from the caller, one pipe each, and every share (the caller's own
included) runs through _scan_chunk, looked up here at call time.  Given
a render function, each share renders its own reports, so a child sends
back rendered rows with their verdicts, not reports.  For an identity
whose spec has a left function (the half-range and d-sum identities,
prime forms included) a share factors the leading values whose sums fit
the term budget, as arith.FactoredIntegers, and sums them in one
sums.coprime_sums call; their checks form only the right sides, reading
phi(n) from the value, and each later value's check refuses it unfactored.
So a scanned value is factored once, fallback included, while verify
factors its one value once per side.  One builder, _sum, makes these
eight identities: its admissible states their hypothesis once, as scan's
filter and as the refusal verify meets before either side is formed, and
its check forms the left side, whose term budget coprime_sums checks
before it factors n, before the right.  The counterexample search
deliberately relaxes the hypothesis gcd(n, 6) = 1 but keeps the modular
routes of both sides; the right-hand side cancels what its numerator
shares with its weights' denominator before it inverts the rest.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from math import gcd

from .arith import (
    Residue, _Value, crt_combine, factorize, is_prime, p_adic_valuation, rational_mod,
)
from .errors import (
    HALF,
    CongruenceError,
    FactorizationLimitExceeded,
    IndexCapExceeded,
    NoCounterexampleInRange,
    NotCoprimeError,
    NotInvertibleError,
    OracleDivergence,
    PowerSizeExceeded,
    PreconditionError,
    TermCountExceeded,
    _layers,
)
from .quotients import (
    lemma1_check,
    lemma3_check,
    lemma3_exact_sides,
    lemma4_check,
    lemma4_exact_sides,
)
from .report import CongruenceReport, IdentityId, _modular_report

TYPE_CHECKING = False  # typing is not imported for this alone
if TYPE_CHECKING:
    from fractions import Fraction

    from .bernoulli import BernoulliCache

__all__ = [
    "IDENTITIES",
    "IdentitySpec",
    "counterexample_search",
    "crt_reassembly_check",
    "scan",
    "verify",
]

Params = dict[str, int]

_load, __getattr__ = _layers(globals(), {"sums": (
    "SumSpec", "_check_d", "_summable", "_weighted_rhs", "coprime_sums", "exact_sum",
    "half_harmonic", "half_rhs", "half_rhs_exact", "lehmer_sum", "lemma2_rhs",
    "lemma2_rhs_exact", "lemma2_sum", "modular_sum", "moebius_decomposition_sides",
    "moebius_decomposition_sides_exact", "theorem_rhs", "theorem_rhs_exact",
)})


class IdentitySpec(_Value):
    """What verify, scan and the oracle need to know about one identity.

    The table is the one list of parameters: verify and scan declare none.
    required names those the check reads, in the order a missing one is
    reported, and a scan walks the first; defaults names the optional ones
    with their values, and d is the denominator the identity embeds (None
    when it takes none, or takes it as a parameter).  admissible is scan's
    filter for a walked value, and for the sum identities also the test by
    which verify refuses n; modulus gives the modulus a skipped check
    reports, check runs the modular route, and exact returns the exact
    rationals of both sides given the report's params and modulus (None
    when check already compares exact values).  bernoulli tells whether
    check reads a Bernoulli number, and so whether it takes a cache.  left,
    when not None, takes a scan share's ascending walked values and returns
    them with their left sides: each value whose sum fits the term budget
    factored and summed, each later one as it is with None for its side,
    and, where a cap stops that, None for every side.  The share calls it
    before its checks and hands check each value's left side as lhs.  check
    forms the left side itself when lhs is None.
    """

    __slots__ = (
        "required", "admissible", "modulus", "check", "exact", "d", "defaults", "bernoulli",
        "left",
    )

    def __init__(
        self,
        required: tuple[str, ...],
        admissible: Callable[[int, Params], bool],
        modulus: Callable[[Params], int | None],
        check: Callable[
            [IdentityId, Params, BernoulliCache | None, Residue | None], CongruenceReport
        ],
        exact: Callable[[Params, int], tuple[Fraction, Fraction]] | None,
        d: int | None = None,
        defaults: Params | None = None,
        bernoulli: bool = False,
        left: Callable[[list[int]], tuple[list[int], list[Residue | None]]] | None = None,
    ) -> None:
        _Value.__init__(
            self, required, admissible, modulus, check, exact, d,
            {} if defaults is None else defaults, bernoulli, left,
        )


def _square(q: Params) -> int:
    return q["n"] * q["n"]


def _local_modulus(q: Params) -> int:
    """p^{2 v_p(n)}."""
    return q["p"] ** (2 * p_adic_valuation(q["n"], q["p"]))


def _localized(n: int, q: Params) -> bool:
    return n > 1 and n % q["p"] == 0 and gcd(n, 6) == 1


def _sum(d: int | str, prime: bool) -> IdentitySpec:
    """The half-range sum (d = HALF) or the d-sum, at a prime or at any n.

    check refuses an n that admissible rejects, unless a scan share, which
    holds admissible values only, hands it the left side.  left factors and
    sums, in one coprime_sums call, exactly the leading values that fit the
    term budget, and leaves each later one unfactored for its check to refuse.
    """
    half = d == HALF
    least, coprime = (3, 2) if half else (5, 6)
    need = f"an odd prime >= {least}" if prime else f"n > 1 with gcd(n, {coprime}) = 1"

    def admissible(n: int, q: Params) -> bool:
        return n >= least and is_prime(n) if prime else n > 1 and gcd(n, coprime) == 1

    def left(ns: list[int]) -> tuple[list[int], list[Residue | None]]:
        _load("sums")
        fit = _summable(ns, d)
        sides: list[Residue | None] = [None] * len(ns)
        try:
            ns = [factorize(n) for n in ns[:fit]] + ns[fit:]
            sides[:fit] = coprime_sums(ns[:fit], d)
        except _SKIPPED:
            pass  # each check forms its own left side, from the factorizations made
        return ns, sides

    def check(identity: IdentityId, q: Params, cache, lhs) -> CongruenceReport:
        _load("sums")
        n = q["n"]
        if lhs is None:
            if not admissible(n, q):
                raise PreconditionError(f"{identity.value} needs {need}, got n = {n}")
            lhs = half_harmonic(n) if half else lehmer_sum(n, d)
        return _modular_report(identity, q, lhs, half_rhs(n) if half else theorem_rhs(n, d))

    def exact(q: Params, m: int) -> tuple[Fraction, Fraction]:
        _load("sums")
        lhs = exact_sum(SumSpec(q["n"], d, None, m))
        return lhs, half_rhs_exact(q["n"]) if half else theorem_rhs_exact(q["n"], d)

    return IdentitySpec(
        ("n",), admissible, _square, check, exact, d=None if half else d, left=left
    )


def _lemma2(d: int) -> IdentitySpec:
    """The d-sum localized at p^{2 alpha}, alpha = v_p(n)."""

    def check(identity: IdentityId, q: Params, cache, lhs) -> CongruenceReport:
        _load("sums")
        n, p = q["n"], q["p"]
        lhs = lemma2_sum(n, p, d)
        q = {**q, "alpha": p_adic_valuation(n, p)}
        return _modular_report(identity, q, lhs, lemma2_rhs(p, q["alpha"], d))

    def exact(q: Params, m: int) -> tuple[Fraction, Fraction]:
        _load("sums")
        n, p = q["n"], q["p"]
        return exact_sum(SumSpec(n, d, p, m)), lemma2_rhs_exact(p, q["alpha"], d)

    return IdentitySpec(("n", "p"), _localized, _local_modulus, check, exact, d=d)


def _moebius(identity: IdentityId, q: Params, cache, lhs) -> CongruenceReport:
    _load("sums")
    n, p = q["n"], q["p"]
    lhs, rhs = moebius_decomposition_sides(n, p, q["d"])
    return _modular_report(identity, {**q, "alpha": p_adic_valuation(n, p)}, lhs, rhs)


def _moebius_exact(q: Params, m: int) -> tuple[Fraction, Fraction]:
    _load("sums")
    return moebius_decomposition_sides_exact(q["n"], q["p"], q["d"])


IDENTITIES: dict[IdentityId, IdentitySpec] = {
    IdentityId.LEHMER_HALF: _sum(HALF, prime=True),
    IdentityId.CAI_HALF: _sum(HALF, prime=False),
    IdentityId.LEHMER_P3: _sum(3, prime=True),
    IdentityId.LEHMER_P4: _sum(4, prime=True),
    IdentityId.LEHMER_P6: _sum(6, prime=True),
    IdentityId.THM_3: _sum(3, prime=False),
    IdentityId.THM_4: _sum(4, prime=False),
    IdentityId.THM_6: _sum(6, prime=False),
    IdentityId.LEMMA_1: IdentitySpec(
        ("p",),
        lambda n, q: is_prime(n),
        lambda q: q["p"] ** (2 * q["alpha"]),
        lambda identity, q, cache, lhs: lemma1_check(q["p"], q["alpha"], cache),
        None,  # the p-adic comparison is already exact
        defaults={"alpha": 1},
        bernoulli=True,
    ),
    IdentityId.LEMMA_2_D3: _lemma2(3),
    IdentityId.LEMMA_2_D4: _lemma2(4),
    IdentityId.LEMMA_2_D6: _lemma2(6),
    IdentityId.LEMMA_3: IdentitySpec(
        ("n", "a"),
        lambda n, q: n > 1 and gcd(n, 6 * q["a"]) == 1,
        _square,
        lambda identity, q, cache, lhs: lemma3_check(q["n"], q["a"]),
        lambda q, m: lemma3_exact_sides(q["n"], q["a"]),
    ),
    IdentityId.LEMMA_4: IdentitySpec(
        ("n", "a", "p"),
        lambda n, q: n > 1 and n % q["p"] == 0 and gcd(q["a"], n) == 1,
        _local_modulus,
        lambda identity, q, cache, lhs: lemma4_check(q["n"], q["a"], q["p"]),
        lambda q, m: lemma4_exact_sides(q["n"], q["a"], q["p"]),
    ),
    IdentityId.MOEBIUS_DECOMP: IdentitySpec(
        ("n", "p", "d"),
        _localized,
        _local_modulus,
        _moebius,
        _moebius_exact,
    ),
}


def _params(
    identity: IdentityId, given: dict[str, int | None], cache: BernoulliCache | None
) -> Params:
    """The parameters identity reads, taken from given.

    Raises PreconditionError naming the first given value (not None) that
    the identity does not read, then the first required one missing, or
    when a cache is given to an identity that reads no Bernoulli number; a
    d equal to the identity's embedded d is accepted.
    """
    spec = IDENTITIES[identity]
    if cache is not None and not spec.bernoulli:
        raise PreconditionError(
            f"{identity.value} reads no Bernoulli number, so it takes no Bernoulli cap"
        )
    reads = (*spec.required, *spec.defaults)
    for name, value in given.items():
        if value is not None and name not in reads and (name, value) != ("d", spec.d):
            raise PreconditionError(
                f"{identity.value} does not take {name} = {value}; it reads {', '.join(reads)}"
            )
    params: Params = {}
    for name in spec.required:
        if given.get(name) is None:
            raise PreconditionError(f"{name} is required for {identity.value}")
        params[name] = given[name]
    for name, default in spec.defaults.items():
        value = given.get(name)
        params[name] = default if value is None else value
    if spec.d is not None:
        params["d"] = spec.d
    return params


def verify(
    identity: IdentityId,
    *,
    cache: BernoulliCache | None = None,
    exact_oracle: bool = False,
    **given: int | None,
) -> CongruenceReport:
    """Run one congruence check and report both sides.

    given holds the parameters by name; IDENTITIES lists which ones each
    identity reads.  A missing required one, a given one (not None) that
    the identity does not read, and a cache given to an identity that reads
    no Bernoulli number (only lemma1 does) raise PreconditionError; a d
    equal to the identity's embedded d is accepted.  With exact_oracle=True
    both sides are recomputed over the exact rationals and any
    disagreement with the modular route raises OracleDivergence.
    """
    params = _params(identity, given, cache)
    return _checked(identity, params, cache, exact_oracle, None)


def _checked(
    identity: IdentityId,
    params: Params,
    cache: BernoulliCache | None,
    exact_oracle: bool,
    lhs: Residue | None,
) -> CongruenceReport:
    """verify on validated params.

    lhs, the left side, comes from a scan share; the check forms it when
    it is None.
    """
    report = IDENTITIES[identity].check(identity, params, cache, lhs)
    if exact_oracle:
        _exact_recheck(report)
    return report


def _exact_recheck(report: CongruenceReport) -> None:
    """Recompute both report sides over the rationals; raise on divergence."""
    exact = IDENTITIES[report.identity].exact
    if exact is None:
        return
    m = report.modulus
    lhs, rhs = (rational_mod(side, m) for side in exact(report.params, m))
    if lhs.rep != report.lhs.rep or rhs.rep != report.rhs.rep:
        raise OracleDivergence(
            f"{report.identity.value} at {report.params}: modular route gave "
            f"lhs={report.lhs.rep}, rhs={report.rhs.rep}, exact route gave "
            f"lhs={lhs.rep}, rhs={rhs.rep} (mod {m})"
        )


def _skip_report(identity: IdentityId, params: Params, reason: str) -> CongruenceReport:
    return CongruenceReport(
        identity=identity,
        params=params,
        modulus=IDENTITIES[identity].modulus(params),
        lhs=None,
        rhs=None,
        holds=None,
        skipped_reason=reason,
    )


# a check that raises one of these yields a skip report in a scan
_SKIPPED = (
    IndexCapExceeded, FactorizationLimitExceeded, PowerSizeExceeded, TermCountExceeded,
)


def _scan_chunk(
    identity: IdentityId, values: list[int], params: Params, cache: BernoulliCache | None,
    exact_oracle: bool, render: Callable[[CongruenceReport], object] | None,
) -> list:
    """The reports of one share of a scan, in the order of its values.

    params are validated by scan.  When the identity forms its left sides
    together, spec.left factors the values that fit the term budget and
    forms their left sides in one call.  Should the factoring or that call
    hit a cap, every check forms its left side itself (from the
    factorizations, when they were made).  A value whose check
    hits a cap or a budget still yields a report, with skipped_reason, so
    every value yields exactly one.
    Unless render is None, each report is replaced by (render(report),
    report.holds is True).
    """
    spec = IDENTITIES[identity]
    lefts = [None] * len(values)
    if spec.left is not None:
        values, lefts = spec.left(values)
    out: list = []
    for value, lhs in zip(values, lefts):
        row = {**params, spec.required[0]: value}
        try:
            report = _checked(identity, row, cache, exact_oracle, lhs)
        except _SKIPPED as exc:
            report = _skip_report(identity, row, str(exc))
        out.append(report if render is None else (render(report), report.holds is True))
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fan_out(
    workers: int, identity: IdentityId, values: list[int], params: Params,
    cache: BernoulliCache | None, exact_oracle: bool,
    render: Callable[[CongruenceReport], object] | None,
) -> list:
    """_scan_chunk over values dealt round-robin to workers processes.

    Share k is values[k::workers], run where the platform allows on the
    k-th CPU this process may use.  The caller forks a child for every
    share but the first and computes that one itself, so a given cache is
    filled by that share alone.  A child pickles (ok, rows or exception)
    into a pipe and leaves by os._exit, never returning into the caller.
    The caller reads each child's whole payload, reaps it and merges its
    rows in value order, raising the first failing share in share order.
    However the call ends, interrupts included, one finally closes every
    pipe and kills and reaps every child not yet reaped, so no worker
    outlives it, and gives the caller its CPU affinity back.
    """
    # Left to the scheduler, a forked child stayed on its parent's CPU for
    # a whole 0.15 s scan on a 2-vCPU Linux VM, so the shares ran one after
    # the other; pinning each share to a CPU of its own makes them overlap.
    saved = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None

    def share(k: int) -> list:
        """Pin this process to share k's CPU and compute share k."""
        if saved is not None:
            cpus = sorted(saved)
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        return _scan_chunk(identity, values[k::workers], params, cache, exact_oracle, render)

    pipes: list = []  # the read end of every child's pipe, in share order
    pids: list[int] = []  # the children not yet reaped, in share order
    try:
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as sink:  # the caller's copy closes once forked
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        import pickle  # in the child; the caller's waits for share 0

                        try:
                            payload = pickle.dumps((True, share(k)))
                        except Exception as exc:
                            payload = pickle.dumps((False, exc))
                        sink.write(payload)
                        sink.flush()
                        status = 0
                    finally:
                        os._exit(status)
                pids.append(pid)
        out: list = [None] * len(values)
        out[0::workers] = share(0)
        import pickle  # only now, so share 0 does not wait for it

        for k, pipe in enumerate(pipes, start=1):
            payload = pipe.read()  # all of it first: a child blocks on a full pipe
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            pid = pids.pop(0)  # reaped, so the finally leaves it be
            if code:  # a child exits 0 only once its whole payload is written
                raise CongruenceError(
                    f"scan worker {pid} exited with status {code} before sending its share"
                )
            ok, part = pickle.loads(payload)
            if not ok:
                raise part
            out[k::workers] = part
        return out
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:  # left only when the call raises
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if saved is not None:
            os.sched_setaffinity(0, saved)


def scan(
    identity: IdentityId,
    n_from: int,
    n_to: int,
    *,
    workers: int = 1,
    cache: BernoulliCache | None = None,
    exact_oracle: bool = False,
    render: Callable[[CongruenceReport], object] | None = None,
    **given: int | None,
) -> list:
    """One report per retained value in [n_from, n_to], in ascending order.

    The scan walks the first parameter IDENTITIES requires of the identity
    (n, or p for lemma1), and given holds the others by name.  Giving the
    walked one, leaving out another required one, giving one the identity
    does not read, or a cache unless its check reads Bernoulli numbers, a
    fixed p that is not prime, or a fixed alpha or workers below 1 raises
    PreconditionError before any check runs.  A value is retained when the
    identity's admissibility filter accepts it.  A retained value whose
    check hits a cap or a budget, for instance a tight Bernoulli cap,
    produces a report with skipped_reason instead of disappearing.
    With workers > 1 the retained values are dealt round-robin to
    min(workers, retained values, usable CPUs) processes forked from this
    one; the merged result is identical to the single-process one, only
    this process's share fills a given cache, and no worker outlives the
    call, even when it raises or is interrupted.  Where os.fork does not
    exist the scan runs in this process.
    With render, each report becomes (render(report), report.holds is True)
    in the process that computed it, so a share sends back its rows and
    verdicts rather than its reports.
    """
    spec = IDENTITIES[identity]
    var, *fixed = spec.required
    if given.get(var) is not None:
        raise PreconditionError(f"a {identity.value} scan walks {var}; it takes no fixed {var}")
    # n_from stands in for the walked value, which each row replaces
    params = _params(identity, {**given, var: n_from}, cache)
    if "p" in fixed and not is_prime(params["p"]):
        raise PreconditionError(f"p must be prime for {identity.value}, got {params['p']}")
    if params.get("alpha", 1) < 1:
        raise PreconditionError(
            f"alpha must be >= 1 for {identity.value}, got {params['alpha']}"
        )
    if workers < 1:
        raise PreconditionError(f"workers must be >= 1, got {workers}")
    values = [v for v in range(n_from, n_to + 1) if spec.admissible(v, params)]
    workers = min(workers, len(values), _usable_cpus())
    if workers > 1 and hasattr(os, "fork"):
        return _fan_out(workers, identity, values, params, cache, exact_oracle, render)
    return _scan_chunk(identity, values, params, cache, exact_oracle, render)


def counterexample_search(
    identity: IdentityId, residue: int, *, n_to: int = 1000
) -> list[CongruenceReport]:
    """Scan n = 2, 3, ... with n = residue mod 6 for a theorem's first failure.

    The hypothesis gcd(n, 6) = 1 is deliberately relaxed, and both sides
    take their modular routes at every n: the left-hand terms are summed
    as one running fraction mod n^2, and the right-hand side is formed
    over its weights' common denominator, so only the part of that
    denominator its numerator does not cancel must be a unit.  n is
    skipped, with a report, when a left-hand term is not a unit mod n^2, a
    quotient q_n(a) of the right side does not exist, or that part of the
    denominator is not a unit.  Returns the trail of reports, ending with
    the first failure; raises NoCounterexampleInRange when the bound is
    exhausted.
    """
    if identity not in (IdentityId.THM_3, IdentityId.THM_4, IdentityId.THM_6):
        raise PreconditionError(
            "counterexample search covers thm3, thm4 and thm6 only"
        )
    _load("sums")
    d = IDENTITIES[identity].d
    trail: list[CongruenceReport] = []
    for n in range(2 + (residue - 2) % 6, n_to + 1, 6):
        nsq = n * n
        params = {"n": n, "d": d}
        try:
            factored = factorize(n)
            lhs = modular_sum(SumSpec(factored, d, None, nsq))
            rhs = _weighted_rhs(factored, d, nsq)
        except (NotCoprimeError, NotInvertibleError) as exc:
            trail.append(_skip_report(identity, params, str(exc)))
            continue
        report = _modular_report(identity, params, lhs, rhs)
        trail.append(report)
        if not report.holds:
            return trail
    raise NoCounterexampleInRange(
        f"no {identity.value} counterexample in the class up to n = {n_to}"
    )


def crt_reassembly_check(n: int, d: int) -> bool:
    """Rebuild the theorem verdict mod n^2 from its prime-power parts.

    The difference of the two sides is reduced mod p^{2 alpha} for every
    p^alpha exactly dividing n, the residues are recombined, and the
    combination must vanish mod n^2 exactly when the direct comparison
    holds.  For prime n this degenerates to the single congruence.
    """
    _load("sums")
    _check_d(d)
    report = verify(IdentityId(f"thm{d}"), n=n)
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
