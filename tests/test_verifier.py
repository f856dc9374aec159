"""verify/scan orchestration, counterexample search and CRT reassembly."""

import errno
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lehmer_congruences import arith, quotients, sums, sweep, verifier
from lehmer_congruences.arith import FactoredInteger, Residue
from lehmer_congruences.bernoulli import BernoulliCache
from lehmer_congruences.cli import main
from lehmer_congruences.errors import (
    CongruenceError,
    FactorizationLimitExceeded,
    NoCounterexampleInRange,
    OracleDivergence,
    PreconditionError,
    TermCountExceeded,
)
from lehmer_congruences.report import CongruenceReport, IdentityId
from lehmer_congruences.verifier import (
    IDENTITIES,
    counterexample_search,
    crt_reassembly_check,
    scan,
    verify,
)

ALL_IDENTITIES = list(IdentityId)

# the CPUs the test process may use, read before any scan has pinned it
AFFINITY = getattr(os, "sched_getaffinity", lambda pid: None)
START_CPUS = AFFINITY(0)


def test_verify_pinned_examples():
    report = verify(IdentityId.THM_3, n=5)
    assert (report.lhs.rep, report.rhs.rep, report.modulus) == (13, 13, 25)
    assert report.holds and report.params == {"n": 5, "d": 3}
    report = verify(IdentityId.THM_6, n=5)
    assert (report.lhs.rep, report.rhs.rep) == (0, 0)
    report = verify(IdentityId.CAI_HALF, n=9)
    assert (report.lhs.rep, report.rhs.rep) == (22, 22)
    report = verify(IdentityId.LEHMER_HALF, n=3)
    assert report.holds
    report = verify(IdentityId.LEMMA_2_D3, n=35, p=5)
    assert (report.lhs.rep, report.rhs.rep) == (13, 13)
    assert report.params == {"n": 35, "p": 5, "d": 3, "alpha": 1}
    report = verify(IdentityId.MOEBIUS_DECOMP, n=35, p=5, d=3)
    assert report.holds and report.modulus == 25


def test_verify_preconditions_name_the_predicate():
    with pytest.raises(PreconditionError, match="gcd"):
        verify(IdentityId.THM_3, n=4)
    with pytest.raises(PreconditionError, match="odd prime"):
        verify(IdentityId.LEHMER_HALF, n=9)
    with pytest.raises(PreconditionError, match="prime >= 5"):
        verify(IdentityId.LEHMER_P3, n=9)
    with pytest.raises(PreconditionError, match="prime >= 5"):
        verify(IdentityId.LEHMER_P3, n=3)  # the d-sums need p >= 5
    with pytest.raises(PreconditionError, match="required"):
        verify(IdentityId.THM_3)
    with pytest.raises(PreconditionError, match="required"):
        verify(IdentityId.LEMMA_3, n=5)
    with pytest.raises(PreconditionError, match="required"):
        verify(IdentityId.MOEBIUS_DECOMP, n=35, p=5)


# the half-range and d-sum identities, prime forms included
SUM_IDENTITIES = [identity for identity, spec in IDENTITIES.items() if spec.left is not None]


@pytest.mark.parametrize("identity", SUM_IDENTITIES)
def test_a_sum_identity_states_its_hypothesis_once(identity):
    # verify refuses exactly the n that scan's filter drops
    admissible = [n for n in range(-1, 200) if IDENTITIES[identity].admissible(n, {})]
    for n in range(-1, 200):
        if n in admissible:
            assert verify(identity, n=n).holds
        else:
            with pytest.raises(PreconditionError):
                verify(identity, n=n)
    assert [r.params["n"] for r in scan(identity, -1, 199)] == admissible


# one admissible parameter set per identity
ADMISSIBLE = {
    IdentityId.LEHMER_HALF: dict(n=5),
    IdentityId.CAI_HALF: dict(n=9),
    IdentityId.LEHMER_P3: dict(n=7),
    IdentityId.LEHMER_P4: dict(n=7),
    IdentityId.LEHMER_P6: dict(n=7),
    IdentityId.THM_3: dict(n=25),
    IdentityId.THM_4: dict(n=25),
    IdentityId.THM_6: dict(n=25),
    IdentityId.LEMMA_1: dict(p=7),
    IdentityId.LEMMA_2_D3: dict(n=35, p=5),
    IdentityId.LEMMA_2_D4: dict(n=35, p=7),
    IdentityId.LEMMA_2_D6: dict(n=25, p=5),
    IdentityId.LEMMA_3: dict(n=7, a=2),
    IdentityId.LEMMA_4: dict(n=55, a=3, p=11),
    IdentityId.MOEBIUS_DECOMP: dict(n=35, p=5, d=4),
}


def test_verify_every_identity_dispatches():
    # the catalog is closed
    assert set(ADMISSIBLE) == set(ALL_IDENTITIES)
    for identity, kwargs in ADMISSIBLE.items():
        report = verify(identity, **kwargs)
        assert report.holds, identity
        assert report.identity is identity


@pytest.mark.parametrize("identity", ALL_IDENTITIES, ids=lambda i: i.value)
def test_registry_names_every_required_parameter(identity):
    assert set(IDENTITIES) == set(ALL_IDENTITIES)
    spec = IDENTITIES[identity]
    kwargs = ADMISSIBLE[identity]
    assert set(spec.required) <= set(kwargs)
    for name in spec.required:
        rest = {k: v for k, v in kwargs.items() if k != name}
        with pytest.raises(PreconditionError, match=f"{name} is required"):
            verify(identity, **rest)
        if name == spec.required[0]:
            continue  # scan supplies the scanned variable itself
        fixed = {k: v for k, v in rest.items() if k != spec.required[0]}
        with pytest.raises(PreconditionError, match=f"{name} is required"):
            scan(identity, 1, 60, **fixed)


@pytest.mark.parametrize("identity", ALL_IDENTITIES, ids=lambda i: i.value)
def test_unread_parameter_raises(identity):
    spec = IDENTITIES[identity]
    kwargs = ADMISSIBLE[identity]
    read = {*spec.required, *spec.defaults}
    for name in ("n", "a", "p", "d", "alpha"):
        if name in read:
            continue
        value = 5
        if name == "d":
            value = 4 if spec.d == 3 else 3
        with pytest.raises(PreconditionError, match=f"does not take {name} = {value}"):
            verify(identity, **kwargs, **{name: value})
        if name != "n":  # scan has no n to take
            fixed = {k: v for k, v in kwargs.items() if k != spec.required[0]}
            with pytest.raises(PreconditionError, match=f"does not take {name}"):
                scan(identity, 1, 60, **fixed, **{name: value})
    if spec.d is not None:  # the embedded d itself is accepted
        assert verify(identity, **kwargs, d=spec.d) == verify(identity, **kwargs)


@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
def test_cache_for_an_identity_that_reads_no_bernoulli_number_raises(identity):
    spec = IDENTITIES[identity]
    kwargs = ADMISSIBLE[identity]
    fixed = {k: v for k, v in kwargs.items() if k != spec.required[0]}
    cache = BernoulliCache(max_index=100)
    if spec.bernoulli:
        assert verify(identity, **kwargs, cache=cache).holds
        assert scan(identity, 2, 13, **fixed, cache=cache)
        return
    with pytest.raises(PreconditionError, match="reads no Bernoulli number"):
        verify(identity, **kwargs, cache=cache)
    with pytest.raises(PreconditionError, match="reads no Bernoulli number"):
        scan(identity, 1, 60, **fixed, cache=cache)
    assert len(cache) == 0


def test_only_lemma1_reads_bernoulli_numbers():
    assert [i for i, spec in IDENTITIES.items() if spec.bernoulli] == [IdentityId.LEMMA_1]


def test_registry_embeds_d_where_the_identity_fixes_it():
    embedded = {i: spec.d for i, spec in IDENTITIES.items() if spec.d is not None}
    assert embedded == {
        IdentityId.LEHMER_P3: 3, IdentityId.LEHMER_P4: 4, IdentityId.LEHMER_P6: 6,
        IdentityId.THM_3: 3, IdentityId.THM_4: 4, IdentityId.THM_6: 6,
        IdentityId.LEMMA_2_D3: 3, IdentityId.LEMMA_2_D4: 4, IdentityId.LEMMA_2_D6: 6,
    }


def test_verify_exact_oracle_spotchecks():
    for identity, kwargs in (
        (IdentityId.THM_3, dict(n=35)),
        (IdentityId.THM_6, dict(n=49)),
        (IdentityId.CAI_HALF, dict(n=15)),
        (IdentityId.LEHMER_HALF, dict(n=13)),
        (IdentityId.LEMMA_2_D4, dict(n=35, p=5)),
        (IdentityId.LEMMA_3, dict(n=25, a=7)),
        (IdentityId.LEMMA_4, dict(n=35, a=2, p=7)),
        (IdentityId.MOEBIUS_DECOMP, dict(n=55, p=5, d=6)),
        (IdentityId.LEMMA_1, dict(p=11)),
    ):
        report = verify(identity, exact_oracle=True, **kwargs)
        assert report.holds, identity


def test_exact_oracle_divergence_raises(monkeypatch):
    # an exact route that reduces to a different residue must be caught
    real = verifier.rational_mod
    monkeypatch.setattr(
        verifier, "rational_mod", lambda x, m: Residue((real(x, m).rep + 1) % m, m)
    )
    for identity, kwargs in ADMISSIBLE.items():
        if IDENTITIES[identity].exact is None:  # lemma1 compares exact values
            assert verify(identity, exact_oracle=True, **kwargs).holds
            continue
        with pytest.raises(OracleDivergence, match=identity.value) as info:
            verify(identity, exact_oracle=True, **kwargs)
        assert isinstance(info.value, CongruenceError)


def test_scan_theorem_range():
    reports = scan(IdentityId.THM_3, 5, 55)
    # admissible n: gcd(n, 6) = 1 in [5, 55], inclusive on both ends
    assert len(reports) == 18
    assert [r.params["n"] for r in reports] == [
        5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37, 41, 43, 47, 49, 53, 55,
    ]
    assert all(r.holds for r in reports)
    assert scan(IdentityId.THM_3, 10, 9) == []


def test_scan_prime_identities():
    reports = scan(IdentityId.LEHMER_P6, 5, 100)
    assert [r.params["n"] for r in reports] == [
        5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
        73, 79, 83, 89, 97,
    ]
    assert all(r.holds for r in reports)
    # the half-range identity includes p = 3
    reports = scan(IdentityId.LEHMER_HALF, 3, 30)
    assert [r.params["n"] for r in reports] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert all(r.holds for r in reports)


def test_scan_lemma2_needs_p():
    reports = scan(IdentityId.LEMMA_2_D3, 2, 200, p=5)
    assert [r.params["n"] for r in reports] == [5, 25, 35, 55, 65, 85, 95, 115, 125, 145, 155, 175, 185]
    assert all(r.holds for r in reports)
    with pytest.raises(PreconditionError, match="p is required"):
        scan(IdentityId.LEMMA_2_D3, 2, 100)


def test_scan_missing_parameter_raises_before_any_check():
    # a missing a is a usage error, even over a range no check would run on
    with pytest.raises(PreconditionError, match="a is required for lemma3"):
        scan(IdentityId.LEMMA_3, 5, 20)
    with pytest.raises(PreconditionError, match="a is required for lemma4"):
        scan(IdentityId.LEMMA_4, 30, 5, p=5)
    with pytest.raises(PreconditionError, match="d is required for moebius"):
        scan(IdentityId.MOEBIUS_DECOMP, 5, 30, p=5, workers=2)


def test_scan_lemma1_walks_p():
    reports = scan(IdentityId.LEMMA_1, 3, 13)
    assert [r.params["p"] for r in reports] == [3, 5, 7, 11, 13]
    # p is the one name of lemma1's prime: a fixed p is refused, and so is n
    with pytest.raises(PreconditionError, match="a lemma1 scan walks p; it takes no fixed p"):
        scan(IdentityId.LEMMA_1, 3, 13, p=5)
    with pytest.raises(PreconditionError, match="lemma1 does not take n = 7; it reads p, alpha"):
        verify(IdentityId.LEMMA_1, n=7)


@pytest.mark.parametrize("identity", ALL_IDENTITIES, ids=lambda i: i.value)
def test_scan_refuses_the_parameter_it_walks(identity):
    spec = IDENTITIES[identity]
    var = spec.required[0]
    fixed = {k: v for k, v in ADMISSIBLE[identity].items() if k != var}
    with pytest.raises(PreconditionError, match=f"scan walks {var}; it takes no fixed {var}"):
        scan(identity, 1, 60, **fixed, **{var: ADMISSIBLE[identity][var]})


def test_a_name_no_identity_reads_is_the_table_refusal():
    with pytest.raises(PreconditionError, match="thm3 does not take m = 35; it reads n"):
        verify(IdentityId.THM_3, m=35)
    with pytest.raises(PreconditionError, match="lemma3 does not take m = 2; it reads n, a"):
        scan(IdentityId.LEMMA_3, 5, 20, a=2, m=2)


@pytest.mark.parametrize("alpha", [0, -1])
def test_scan_alpha_below_one_raises_before_any_check(alpha):
    # else every row is a skip row whose modulus p^(2 alpha) is 1 or a fraction
    message = f"alpha must be >= 1 for lemma1, got {alpha}"
    with pytest.raises(PreconditionError, match=message):
        scan(IdentityId.LEMMA_1, 1, 8, alpha=alpha)


def test_scan_skip_rows_carry_the_identity_params(monkeypatch):
    # a fixed p that is not prime is refused before any row is made
    with pytest.raises(PreconditionError, match="p must be prime"):
        scan(IdentityId.LEMMA_2_D3, 5, 12, p=1)
    # the exact oracle's sums at n = 25, d = 3 run over 8 values of r
    monkeypatch.setattr(sums, "MAX_EXACT_TERMS", 6)
    (report,) = scan(IdentityId.LEMMA_2_D3, 25, 25, p=5, exact_oracle=True)
    assert report.params == {"n": 25, "p": 5, "d": 3} and report.modulus == 625
    assert "over the budget of 6 terms" in report.skipped_reason
    (report,) = scan(IdentityId.MOEBIUS_DECOMP, 25, 25, p=5, d=3, exact_oracle=True)
    assert report.params == {"n": 25, "p": 5, "d": 3} and report.modulus == 625
    assert "over the budget of 6 terms" in report.skipped_reason
    # 3^phi(10) has about 6.3 bits
    monkeypatch.setattr(quotients, "MAX_POWER_BITS", 3)
    (report,) = scan(IdentityId.LEMMA_4, 10, 10, a=3, p=5, exact_oracle=True)
    assert report.params == {"n": 10, "a": 3, "p": 5} and report.modulus == 25
    assert "bits" in report.skipped_reason


def test_scan_raises_precondition_errors():
    # a skip row means a cap or a budget was hit; a check called outside its
    # contract is an error of the caller
    with pytest.raises(PreconditionError, match="d must be 3, 4 or 6"):
        scan(IdentityId.MOEBIUS_DECOMP, 5, 40, p=5, d=5)


def test_scan_skip_reports_under_cap():
    # B_{p(p-1)} outgrows a tight cap; the scan must say so, not vanish
    cache = BernoulliCache(max_index=120)
    reports = scan(IdentityId.LEMMA_1, 5, 13, cache=cache)
    by_p = {r.params["p"]: r for r in reports}
    assert set(by_p) == {5, 7, 11, 13}
    assert by_p[5].holds and by_p[7].holds and by_p[11].holds
    assert by_p[13].holds is None
    assert "capped" in by_p[13].skipped_reason
    assert by_p[13].modulus == 169


def test_scan_deterministic():
    a = scan(IdentityId.CAI_HALF, 3, 151)
    b = scan(IdentityId.CAI_HALF, 3, 151)
    assert a == b


def test_scan_workers_match_serial():
    serial = scan(IdentityId.THM_4, 5, 251)
    parallel = scan(IdentityId.THM_4, 5, 251, workers=4)
    assert serial == parallel
    serial = scan(IdentityId.LEMMA_1, 3, 23, workers=1)
    parallel = scan(IdentityId.LEMMA_1, 3, 23, workers=3)
    assert serial == parallel


SCANNED = [
    (IdentityId.THM_6, {}),
    (IdentityId.CAI_HALF, {}),
    (IdentityId.LEMMA_1, {}),  # walks p; primes past 23 are skip rows at the cap
    (IdentityId.LEMMA_2_D3, {"p": 5}),
]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(SCANNED), st.integers(1, 300), st.integers(0, 60),
    st.integers(2, 4),
)
def test_scan_workers_match_serial_property(case, lo, width, workers):
    identity, params = case
    serial = scan(identity, lo, lo + width, **params)
    # as many CPUs as workers, so every host deals the values the same way
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "_usable_cpus", lambda: workers)
        assert scan(identity, lo, lo + width, workers=workers, **params) == serial
        # rendered in the share that computed it, each row keeps its verdict
        rows = scan(identity, lo, lo + width, workers=workers, render=repr, **params)
        assert rows == [(repr(r), r.holds is True) for r in serial]


def test_scan_forks_at_most_one_process_per_value_and_cpu(monkeypatch):
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    # the 9 admissible n in [5, 29]: the usable CPUs bound the processes
    assert scan(IdentityId.THM_6, 5, 29, workers=64) == scan(IdentityId.THM_6, 5, 29)
    assert len(forks) == min(9, verifier._usable_cpus()) - 1
    assert AFFINITY(0) == START_CPUS  # the caller's CPUs are given back
    # with CPUs to spare, the 3 admissible n in [5, 11] bound them
    forks.clear()
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 64)
    assert scan(IdentityId.THM_6, 5, 11, workers=64) == scan(IdentityId.THM_6, 5, 11)
    assert len(forks) == 2
    with pytest.raises(PreconditionError, match="workers must be >= 1"):
        scan(IdentityId.THM_6, 5, 11, workers=0)
    assert len(forks) == 2


@pytest.mark.skipif(
    START_CPUS is None or len(START_CPUS) < 2, reason="needs two CPUs to pin to"
)
def test_scan_pins_each_share_to_a_cpu_of_its_own(monkeypatch):
    serial = scan(IdentityId.THM_3, 5, 60)
    parent = os.getpid()
    real = verifier._scan_chunk
    first, second = sorted(START_CPUS)[:2]

    def checking(*args):
        expected = {first} if os.getpid() == parent else {second}
        if os.sched_getaffinity(0) != expected:
            raise AssertionError(f"share ran on {os.sched_getaffinity(0)}, not {expected}")
        return real(*args)

    monkeypatch.setattr(verifier, "_scan_chunk", checking)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    assert scan(IdentityId.THM_3, 5, 60, workers=2) == serial
    assert AFFINITY(0) == START_CPUS


def test_scan_without_fork_runs_serially(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 4)
    assert scan(IdentityId.THM_4, 5, 101, workers=4) == scan(IdentityId.THM_4, 5, 101)


def test_scan_fans_out_unpinned_without_the_affinity_calls(monkeypatch):
    # as on macOS, where os.fork exists and os.sched_getaffinity does not
    serial = scan(IdentityId.THM_3, 5, 60)
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    assert verifier._usable_cpus() == 2
    assert scan(IdentityId.THM_3, 5, 60, workers=2) == serial
    assert len(forks) == 1


@pytest.mark.parametrize("where", ["parent", "worker"])
def test_scan_failure_in_any_share_reaches_the_caller(monkeypatch, where):
    parent = os.getpid()
    real = verifier.rational_mod

    def corrupted(x, m):  # wrong in the caller's share or in the worker's only
        value = real(x, m)
        if (os.getpid() == parent) == (where == "parent"):
            return Residue((value.rep + 1) % m, m)
        return value

    monkeypatch.setattr(verifier, "rational_mod", corrupted)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    with pytest.raises(OracleDivergence, match="thm3 at"):
        scan(IdentityId.THM_3, 5, 60, workers=2, exact_oracle=True)
    assert os.getpid() == parent
    assert AFFINITY(0) == START_CPUS
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_scan_render_failure_in_a_worker_reaches_the_caller(monkeypatch):
    parent = os.getpid()

    def render(report):  # fails in the forked worker only
        if os.getpid() != parent:
            raise ValueError(f"cannot render n = {report.params['n']}")
        return repr(report)

    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    # the worker's share of the admissible n in [5, 60] starts at n = 7
    with pytest.raises(ValueError, match=r"^cannot render n = 7$"):
        scan(IdentityId.THM_3, 5, 60, workers=2, render=render)
    assert os.getpid() == parent
    assert AFFINITY(0) == START_CPUS
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_scan_worker_that_dies_raises_a_typed_error(monkeypatch):
    parent = os.getpid()
    real = verifier._scan_chunk

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(verifier, "_scan_chunk", dying)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    with pytest.raises(CongruenceError, match="exited with status 3"):
        scan(IdentityId.THM_3, 5, 60, workers=2)
    assert os.getpid() == parent


def test_scan_fork_failure_kills_and_reaps_the_started_workers(monkeypatch):
    real_fork = os.fork
    calls = []

    def failing_fork():  # the second fork finds no process slot
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    fds = "/proc/self/fd"
    open_fds = len(os.listdir(fds)) if os.path.isdir(fds) else None
    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 3)
    with pytest.raises(OSError) as info:
        scan(IdentityId.THM_3, 5, 600, workers=3)
    assert info.value.errno == errno.EAGAIN and len(calls) == 2
    with pytest.raises(ChildProcessError):  # the one real worker was reaped
        os.waitpid(-1, os.WNOHANG)
    if open_fds is not None:  # both pipes are closed
        assert len(os.listdir(fds)) == open_fds
    assert AFFINITY(0) == START_CPUS


def test_scan_interrupted_while_reaping_leaves_no_worker_behind(monkeypatch):
    real_waitpid = os.waitpid
    interrupted = []

    def interrupting_waitpid(pid, options):  # as if Ctrl-C struck the first reap
        if pid > 0 and not interrupted:
            interrupted.append(pid)
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    fds = "/proc/self/fd"
    open_fds = len(os.listdir(fds)) if os.path.isdir(fds) else None
    monkeypatch.setattr(os, "waitpid", interrupting_waitpid)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    with pytest.raises(KeyboardInterrupt):
        scan(IdentityId.THM_3, 5, 60, workers=2)
    assert len(interrupted) == 1
    with pytest.raises(ChildProcessError):  # the worker was reaped, not left a zombie
        os.waitpid(-1, os.WNOHANG)
    if open_fds is not None:  # its pipe is closed
        assert len(os.listdir(fds)) == open_fds
    assert AFFINITY(0) == START_CPUS


def test_scan_turns_an_oversized_exact_power_into_a_skip(monkeypatch):
    # 3^phi(n) passes a 20-bit budget up to n = 13 (phi = 12, 19.02 bits)
    monkeypatch.setattr(quotients, "MAX_POWER_BITS", 20)
    reports = scan(IdentityId.THM_3, 5, 19, exact_oracle=True)
    assert [r.params["n"] for r in reports] == [5, 7, 11, 13, 17, 19]
    assert all(r.holds for r in reports[:4])
    assert all(r.holds is None and "bits" in r.skipped_reason for r in reports[4:])


def record_routes(monkeypatch) -> list[str]:
    """Replace both left-side routes of sums by doubles that log their use."""
    routes: list[str] = []
    real_sweep, real_loop = sweep.swept_sums, sums.modular_sum

    def swept(ns, d):
        routes.append("sweep")
        return real_sweep(ns, d)

    def loop(spec):
        routes.append("loop")
        return real_loop(spec)

    monkeypatch.setattr(sweep, "swept_sums", swept)
    monkeypatch.setattr(sums, "modular_sum", loop)
    return routes


def test_left_sides_take_the_cheaper_route(monkeypatch):
    routes = record_routes(monkeypatch)
    for n in (5, 7, 35, 10007):
        verify(IdentityId.THM_3, n=n)
        verify(IdentityId.CAI_HALF, n=n)
        sums.coprime_sums([n], 6)
    (report,) = scan(IdentityId.THM_3, 10007, 10008)  # a one-value share
    assert report.holds and set(routes) == {"loop"}
    routes.clear()
    # a narrow window high up: the sweep's L would have about 960 digits
    assert all(r.holds for r in scan(IdentityId.THM_3, 20000, 20030))
    assert set(routes) == {"loop"}
    routes.clear()
    assert all(r.holds for r in scan(IdentityId.THM_3, 5, 2410))
    assert routes == ["sweep"]


@pytest.mark.parametrize(
    "identity, lo, hi",
    [
        (IdentityId.THM_4, 5, 400),
        (IdentityId.CAI_HALF, 3, 400),
        (IdentityId.LEHMER_HALF, 3, 600),
    ],
)
def test_swept_scans_pass_the_exact_oracle(monkeypatch, identity, lo, hi):
    routes = record_routes(monkeypatch)
    reports = scan(identity, lo, hi, exact_oracle=True)
    assert routes == ["sweep"]
    assert reports and all(r.holds for r in reports)


def test_scan_falls_back_to_each_check_when_the_shared_left_sides_fail(monkeypatch):
    expected = scan(IdentityId.THM_6, 5, 120)

    def capped(ns, d):
        raise FactorizationLimitExceeded("rho iteration budget exhausted")

    monkeypatch.setattr(verifier, "coprime_sums", capped)
    assert scan(IdentityId.THM_6, 5, 120) == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_a_loop_route_scan_skips_each_value_over_the_term_budget(
    monkeypatch, tmp_path, workers
):
    # a narrow window high up takes the loop, and n // 6 > 3338 from n = 20034
    expected = scan(IdentityId.THM_6, 20000, 20060)
    monkeypatch.setattr(sums, "MAX_MODULAR_TERMS", 3338)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    log, factored = tmp_path / "sums.log", tmp_path / "factorize.log"  # forked shares append too
    real, real_factorize = sums.modular_sum, arith.factorize

    def logged(spec):
        with open(log, "a") as sink:
            sink.write(f"{spec.n}\n")
        return real(spec)

    def logged_factorize(n):
        if not isinstance(n, FactoredInteger):  # a FactoredInteger is returned as it is
            with open(factored, "a") as sink:
                sink.write(f"{n}\n")
        return real_factorize(n)

    monkeypatch.setattr(sums, "modular_sum", logged)
    replace_factorize(monkeypatch, logged_factorize)
    reports = scan(IdentityId.THM_6, 20000, 20060, workers=workers)
    assert [r.params for r in reports] == [r.params for r in expected]
    for got, want in zip(reports, expected):
        if got.params["n"] < 20034:
            assert got == want
        else:
            assert got.holds is None and "over the budget of 3338" in got.skipped_reason
    # each share checks every budget before its first sum, so no value is summed twice
    summed = sorted(map(int, log.read_text().split()))
    assert summed == [r.params["n"] for r in expected if r.params["n"] < 20034]
    # the checks that form their own left sides read the share's factorizations
    assert sorted(map(int, factored.read_text().split())) == [r.params["n"] for r in expected]
    with pytest.raises(TermCountExceeded, match="over the budget of 3338"):
        counterexample_search(IdentityId.THM_6, 5, n_to=20060)


def replace_factorize(monkeypatch, double) -> None:
    """Put double in place of factorize wherever the package looks it up."""
    real = arith.factorize
    for name, module in list(sys.modules.items()):
        if name.startswith("lehmer_congruences") and getattr(module, "factorize", None) is real:
            monkeypatch.setattr(module, "factorize", double)


def record_factorizations(monkeypatch) -> list[int]:
    """Log every n that factorize is called on and has to factor.

    factorize returns a FactoredInteger as it is, with no work done, so
    such calls are left out.
    """
    real = arith.factorize
    calls: list[int] = []

    def recording(n):
        if not isinstance(n, FactoredInteger):
            calls.append(n)
        return real(n)

    replace_factorize(monkeypatch, recording)
    return calls


@pytest.mark.parametrize("identity", [IdentityId.THM_3, IdentityId.THM_6, IdentityId.CAI_HALF])
def test_a_scan_share_factors_each_value_once(monkeypatch, identity):
    calls = record_factorizations(monkeypatch)
    reports = scan(identity, 5, 400)
    assert all(r.holds for r in reports)
    assert sorted(calls) == [r.params["n"] for r in reports]
    calls.clear()
    verify(identity, n=35)  # verify factors n for each side, as before
    assert calls == [35, 35]


@pytest.mark.parametrize(
    "identity, n, terms",
    [(IdentityId.THM_3, 35, 11), (IdentityId.CAI_HALF, 35, 17), (IdentityId.LEHMER_P6, 67, 11)],
)
def test_verify_checks_the_term_budget_before_it_factors(monkeypatch, identity, n, terms):
    monkeypatch.setattr(sums, "MAX_MODULAR_TERMS", 10)
    calls = record_factorizations(monkeypatch)
    with pytest.raises(TermCountExceeded, match=f"over {terms} values of r"):
        verify(identity, n=n)
    assert calls == []


def test_a_share_with_no_value_under_the_term_budget_factors_none(monkeypatch, capsys):
    # from 10^38 every sum is over the budget, and rho would take seconds
    calls = record_factorizations(monkeypatch)
    low, high = 10**38, 10**38 + 182
    reports = scan(IdentityId.THM_3, low, high)
    assert len(reports) == 61
    assert all(r.holds is None and "over the budget of" in r.skipped_reason for r in reports)
    argv = ["scan", "--identity", "thm3", "--from", str(low), "--to", str(high)]
    assert main([*argv, "--format", "json"]) == 1
    assert len(capsys.readouterr().out.splitlines()) == 61
    assert calls == []


def test_the_exact_oracle_of_verify_factors_n_once(monkeypatch):
    calls = record_factorizations(monkeypatch)
    assert verify(IdentityId.THM_6, n=35, exact_oracle=True).holds
    # the left side, the right side, and the exact right side for both quotients
    assert calls == [35, 35, 35]


def test_the_exact_oracle_reads_the_share_s_factorizations(monkeypatch):
    calls = record_factorizations(monkeypatch)
    reports = scan(IdentityId.THM_4, 5, 600, exact_oracle=True)
    assert reports and all(r.holds for r in reports)
    # one factorization per row: the oracle's q_n(2) reads the share's
    assert sorted(calls) == [r.params["n"] for r in reports]


def test_the_counterexample_search_factors_each_value_once(monkeypatch):
    calls = record_factorizations(monkeypatch)
    with pytest.raises(NoCounterexampleInRange):
        counterexample_search(IdentityId.THM_3, 1, n_to=200)
    assert calls == list(range(7, 201, 6))  # 33 values, each factored once


@pytest.mark.parametrize("workers", [1, 2])
def test_a_value_the_share_cannot_factor_becomes_its_own_skip_row(monkeypatch, workers):
    expected = scan(IdentityId.THM_6, 5, 120)
    real = arith.factorize

    def capped(n):
        if n == 35:
            raise FactorizationLimitExceeded(f"rho iteration budget exhausted while splitting {n}")
        return real(n)

    replace_factorize(monkeypatch, capped)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    reports = scan(IdentityId.THM_6, 5, 120, workers=workers)
    assert [r.params for r in reports] == [r.params for r in expected]
    (skipped,) = [r for r in reports if r.holds is None]
    assert skipped.params == {"n": 35, "d": 6} and skipped.modulus == 35 * 35
    assert skipped.skipped_reason == "rho iteration budget exhausted while splitting 35"
    assert [r for r in reports if r is not skipped] == [
        r for r in expected if r.params["n"] != 35
    ]


def test_counterexample_thm3_class4():
    trail = counterexample_search(IdentityId.THM_3, 4)
    last = trail[-1]
    assert last.params["n"] == 4
    assert (last.lhs.rep, last.rhs.rep, last.modulus) == (1, 13, 16)
    assert last.holds is False


def test_counterexample_thm4_class3():
    trail = counterexample_search(IdentityId.THM_4, 3)
    last = trail[-1]
    assert last.params["n"] == 3
    assert (last.lhs.rep, last.rhs.rep, last.modulus) == (0, 3, 9)
    assert last.holds is False


def test_counterexample_thm3_class2():
    trail = counterexample_search(IdentityId.THM_3, 2, n_to=50)
    last = trail[-1]
    # first failure: derived once via the exact-rational route, frozen here
    assert last.params["n"] == 8
    assert (last.lhs.rep, last.rhs.rep, last.modulus) == (13, 61, 64)
    # n = 2 holds trivially on the way (both sides vanish mod 4)
    first = trail[0]
    assert first.params["n"] == 2 and first.holds


def test_counterexample_skip_reports():
    # class 0 mod 6: q_n(3) never exists, so every n is skipped and the
    # search exhausts its range
    with pytest.raises(NoCounterexampleInRange):
        counterexample_search(IdentityId.THM_3, 0, n_to=60)
    # a class is taken mod 6
    trail = counterexample_search(IdentityId.THM_4, -3, n_to=100)
    assert trail[-1].holds is False
    assert trail[-1].params["n"] == 3
    # thm6 is accepted, but its right side needs both q_n(2) and q_n(3),
    # so every n in a failing class is a skip and the bound runs out
    with pytest.raises(NoCounterexampleInRange):
        counterexample_search(IdentityId.THM_6, 2, n_to=60)
    with pytest.raises(PreconditionError):
        counterexample_search(IdentityId.LEMMA_3, 1)


def test_counterexample_search_uses_no_oracle_code(monkeypatch):
    def oracle(*args):
        raise AssertionError("the search reached the exact oracle")

    monkeypatch.setattr(verifier, "theorem_rhs_exact", oracle)
    monkeypatch.setattr(verifier, "rational_mod", oracle)
    monkeypatch.setattr(sums, "fermat_quotient", oracle)
    monkeypatch.setattr(quotients, "fermat_quotient", oracle)
    test_counterexample_thm3_class4()
    test_counterexample_thm4_class3()
    test_counterexample_thm3_class2()
    test_counterexample_skip_reports()
    test_counterexample_exhaustion()


def test_counterexample_exhaustion():
    with pytest.raises(NoCounterexampleInRange):
        counterexample_search(IdentityId.THM_3, 1, n_to=40)


def test_crt_reassembly():
    assert crt_reassembly_check(35, 3)
    assert crt_reassembly_check(55, 6)
    assert crt_reassembly_check(7, 4)  # degenerate single prime
    assert crt_reassembly_check(1225, 3)
    with pytest.raises(PreconditionError):
        crt_reassembly_check(35, 5)
    with pytest.raises(PreconditionError):
        crt_reassembly_check(15, 3)  # gcd(n, 6) > 1


def test_reports_are_value_objects():
    a = verify(IdentityId.THM_3, n=5)
    b = verify(IdentityId.THM_3, n=5)
    assert a == b and a is not b
    assert isinstance(a, CongruenceReport)
