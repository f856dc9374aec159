"""The restricted inverse sums and their quotient-polynomial right sides."""

import random
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lehmer_congruences import arith, sums, sweep
from lehmer_congruences.arith import rational_mod
from lehmer_congruences.errors import (
    EvenModulusError,
    InvalidDenominatorError,
    NotCoprimeError,
    NotInvertibleError,
    PreconditionError,
    PrimeDivisibilityError,
    TermCountExceeded,
)
from lehmer_congruences.quotients import fermat_quotient_mod
from lehmer_congruences.arith import (
    FactoredInteger, Residue, divisors, euler_phi, factorize, is_prime,
)
from lehmer_congruences.sums import (
    HALF,
    SumSpec,
    exact_sum,
    half_harmonic,
    half_rhs,
    half_rhs_exact,
    lehmer_sum,
    lemma2_rhs,
    lemma2_rhs_exact,
    lemma2_sum,
    modular_sum,
    moebius_decomposition_check,
    moebius_decomposition_sides,
    theorem_rhs,
    theorem_rhs_exact,
)


def brute_sum(spec: SumSpec) -> int:
    # independent mini-oracle: one pow(-1) inverse per term, no mask
    total = 0
    for term in spec.denominators():
        total += pow(term, -1, spec.modulus)
    return total % spec.modulus


def reference_inverse(a: int, m: int) -> int:
    # a non-unit raises the error modular_sum raises for its first non-unit
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(
            f"gcd({a}, {m}) = {gcd(a, m)}; {a} is not a unit"
        ) from None


def reference_modular_sum(spec: SumSpec) -> Residue:
    # the per-term loop modular_sum used before the running fraction: one
    # inverse per kept r, filtered by gcd(r, n) or r % p
    n, m = spec.n, spec.modulus
    acc = 0
    if spec.d == HALF:
        if spec.exclude_prime is None:
            for r in range(1, (n - 1) // 2 + 1):
                if gcd(r, n) == 1:
                    acc = (acc + reference_inverse(r, m)) % m
        else:
            p = spec.exclude_prime
            for r in range(1, (n - 1) // 2 + 1):
                if r % p:
                    acc = (acc + reference_inverse(r, m)) % m
    else:
        d = spec.d
        if spec.exclude_prime is None:
            for r in range(1, n // d + 1):
                if gcd(r, n) == 1:
                    acc = (acc + reference_inverse(n - d * r, m)) % m
        else:
            p = spec.exclude_prime
            for r in range(1, n // d + 1):
                if r % p:
                    acc = (acc + reference_inverse(n - d * r, m)) % m
    return Residue(acc, m)


def outcome(fn, spec: SumSpec) -> int | str:
    try:
        return fn(spec).rep
    except NotInvertibleError as exc:
        return str(exc)


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
# small blocks put block edges inside small sums; the real size is covered too
BLOCKS = st.sampled_from([1, 2, 3, 7, 64, sums._MASK_BLOCK])


@st.composite
def specs(draw) -> SumSpec:
    """Theorem, lemma2, unit and arbitrary moduli over every d."""
    d = draw(st.sampled_from([HALF, 3, 4, 6]))
    n = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(["n^2", "p^2alpha", "one", "any"]))
    if kind == "p^2alpha":
        factors = factorize(n).factors
        if factors:
            p, alpha = draw(st.sampled_from(factors))
            return SumSpec(n, d, p, p ** (2 * alpha))
    if kind == "one":
        return SumSpec(n, d, None, 1)
    if kind == "any":
        return SumSpec(n, d, None, draw(st.integers(1, 10**6)))
    return SumSpec(n, d, None, n * n)


@PROPERTY
@given(specs(), BLOCKS)
def test_modular_sum_matches_reference_loop(spec, block):
    with patch.object(sums, "_MASK_BLOCK", block):
        result = outcome(modular_sum, spec)
        assert result == outcome(reference_modular_sum, spec), spec
    terms = list(spec.denominators())
    if isinstance(result, int) and 0 not in terms:
        assert rational_mod(exact_sum(spec), spec.modulus).rep == result, spec


@PROPERTY
@given(st.integers(1, 2000), st.sampled_from([HALF, 3, 4, 6]), BLOCKS)
def test_mask_keeps_exactly_the_coprime_r(n, d, block):
    spec = SumSpec(n, d, None, n * n)
    with patch.object(sums, "_MASK_BLOCK", block):
        kept = list(sums._kept_terms(spec))
    rs = kept if d == HALF else [(n - t) // d for t in kept]
    assert rs == [r for r in range(1, spec.bound() + 1) if gcd(r, n) == 1]


@pytest.mark.parametrize("d", [HALF, 3, 4, 6])
def test_modular_sum_across_the_real_block_edge(d):
    # bounds block - 1, block and block + 1 with the block size unpatched
    block = sums._MASK_BLOCK
    for bound in (block - 1, block, block + 1):
        n = 2 * bound + 1 if d == HALF else d * bound + 1
        for spec in (SumSpec(n, d, None, n * n), SumSpec(n, d, 5, 25)):
            assert spec.bound() == bound
            expected = outcome(reference_modular_sum, spec)
            assert outcome(modular_sum, spec) == expected, (spec, bound)


def admissible_for(d):
    # the n at which half_harmonic(n) or lehmer_sum(n, d) is defined
    if d == HALF:
        return lambda n: n >= 3 and n % 2 == 1
    return lambda n: n >= 2 and gcd(n, d) == 1


def swept(ns: list[int], d) -> list[Residue]:
    return sweep.swept_sums([factorize(n) for n in ns], d)


def looped(ns: list[int], d) -> list[Residue]:
    return [modular_sum(SumSpec(n, d, None, n * n)) for n in ns]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([HALF, 3, 4, 6]), st.integers(1, 3000), st.integers(0, 300),
    st.sampled_from(["all", "primes", "share 0", "share 1"]),
)
def test_sweep_matches_the_loop_on_sub_ranges(d, lo, width, kind):
    ns = [n for n in range(lo, min(lo + width, 3000) + 1) if admissible_for(d)(n)]
    if kind == "primes":
        ns = [n for n in ns if is_prime(n)]
    elif kind.startswith("share"):  # a round-robin share of a two-worker scan
        ns = ns[int(kind[-1]) :: 2]
    assert swept(ns, d) == looped(ns, d), (d, ns)


@pytest.mark.parametrize("d", [HALF, 3, 4, 6])
def test_sweep_edge_lists(d):
    admissible = admissible_for(d)
    assert swept([], d) == [] == sums.coprime_sums([], d)
    for n in (3, 5, 7):  # K // n = 0: the s = n request reads an empty prefix
        if admissible(n):
            assert swept([n], d) == looped([n], d), n
    small = [n for n in (3, 5, 7) if admissible(n)]
    assert swept(small, d) == looped(small, d)
    # high prime powers: n^2 G holds 5^13 or more, or 3^21 or more
    powers = [5**4 * 7, 5**5] + ([3**7, 3**7 * 5] if d in (HALF, 4) else [])
    for n in powers:
        assert swept([n], d) == looped([n], d), n
    ns = sorted(powers + [11, 4373, 4379])
    assert swept(ns, d) == looped(ns, d)


@pytest.mark.parametrize("d", [HALF, 3, 4, 6])
def test_sweep_matches_the_loop_at_four_primes_and_high_prime_powers(d):
    # from three primes on, arith._moebius_terms lists the s | rad(n) in
    # doubling order, not by their number of primes; 1155 = 3 5 7 11 is
    # admissible for HALF and d = 4, 5005 = 5 7 11 13 for every d
    assert [s for _, s in arith._moebius_terms(factorize(5005))][:9] == [
        1, 5, 7, 35, 11, 55, 77, 385, 13,
    ]
    ns = [n for n in (105, 385, 1001, 1155, 2401, 3125, 5005) if admissible_for(d)(n)]
    assert 5005 in ns and (1155 in ns) == (d in (HALF, 4))
    assert swept(ns, d) == looped(ns, d), ns
    for n in (1155, 2401, 3125, 5005):  # 7^4 and 5^5 alone, where top is n's own K
        if admissible_for(d)(n):
            assert swept([n], d) == looped([n], d), n


def table_requests(ns: list[int], d) -> int:
    """How many Moebius requests of swept_sums(ns, d) have 0 < k <= the table bound."""
    _, bounds = sweep._shape(ns, d)
    return sum(
        0 < bound // s <= sweep._TABLE_BOUND
        for n, bound in zip(ns, bounds) for _, s in arith._moebius_terms(factorize(n))
    )


@pytest.mark.parametrize("d, first", [(3, 5), (HALF, 3)], ids=["thm3", "cai"])
def test_sweep_matches_the_loop_on_samples_of_long_scan_lists(d, first):
    # the thm3 (gcd(n, 6) = 1) and cai (odd n) scan lists to 6000: without
    # the small-k table, hundreds of these requests would share j = 1 or 2
    ns = [n for n in range(first, 6001) if gcd(n, 6 if d == 3 else 2) == 1]
    sample = sorted(random.Random(6000).sample(ns, 400))
    assert table_requests(sample, d) > 200
    assert swept(sample, d) == looped(sample, d)


@pytest.mark.parametrize("d", [HALF, 3, 4, 6])
def test_sweep_below_the_table_bound_reads_every_request_from_the_table(d):
    # every K < the bound, so no request reaches the sweep's windows
    ns = [n for n in range(3, 60) if admissible_for(d)(n)]
    ns = [n for n, bound in zip(ns, sweep._shape(ns, d)[1]) if bound < sweep._TABLE_BOUND]
    assert len(ns) >= 5 and table_requests(ns, d) > 0
    assert swept(ns, d) == looped(ns, d), ns
    for n in ns:
        assert swept([n], d) == looped([n], d), n


@pytest.mark.parametrize("d", [HALF, 3, 4, 6])
def test_sweep_matches_the_loop_at_four_and_five_distinct_primes(d):
    # 5005 = 5 7 11 13 and 17017 = 7 11 13 17 are admissible for every d,
    # 15015 = 3 5 7 11 13 for HALF and d = 4
    ns = [n for n in (5005, 15015, 17017) if admissible_for(d)(n)]
    assert len(ns) == (3 if d in (HALF, 4) else 2)
    assert swept(ns, d) == looped(ns, d), ns
    for n in ns:
        assert swept([n], d) == looped([n], d), n


def test_sweep_refuses_a_quotient_it_cannot_certify(monkeypatch):
    # with 5 taken out of L, L // j floors at j = 5 and 25, and the sums at
    # the multiples of 5 are no longer divisible by their G
    real = sweep._top_powers
    monkeypatch.setattr(sweep, "_top_powers", lambda top: {**real(top), 5: real(top)[5] // 5})
    with pytest.raises(ArithmeticError, match="not divisible by"):
        swept([25, 35, 55, 65], HALF)


def test_coprime_sums_checks_every_value_before_summing():
    with pytest.raises(InvalidDenominatorError):
        sums.coprime_sums([], 5)
    with pytest.raises(EvenModulusError):
        sums.coprime_sums([3, 5, 8], HALF)
    with pytest.raises(NotCoprimeError, match=r"gcd\(9, 3\) = 3"):
        sums.coprime_sums([5, 7, 9], 3)
    with pytest.raises(PreconditionError):
        sums.coprime_sums([1, 5], 4)
    assert sums.coprime_sums([5, 7], 6) == [lehmer_sum(5, 6), lehmer_sum(7, 6)]


def test_coprime_sums_refuses_a_list_over_its_budget_before_it_factors(monkeypatch):
    lists = ([10007, 10009], 3), ([35, 37, 41], 4), (list(range(3, 2411, 2)), HALF)
    expected = [sums.coprime_sums(ns, d) for ns, d in lists]  # loop, sweep, sweep
    monkeypatch.setattr(sums, "MAX_LIST_NS", 1)
    assert lehmer_sum(10007, 3) == expected[0][0]  # a single value is not priced

    def refused(*args):
        raise AssertionError(f"called with {args}")

    monkeypatch.setattr(sums, "factorize", refused)
    monkeypatch.setattr(sums, "modular_sum", refused)
    monkeypatch.setattr(sweep, "swept_sums", refused)
    for ns, d in lists:
        with pytest.raises(
            TermCountExceeded, match=rf"^{len(ns)} sums priced at .+ s are over the "
            r"budget of 1e-09 s for a list$"
        ):
            sums.coprime_sums(ns, d)


def test_a_factored_integer_is_not_factored_again(monkeypatch):
    ns = [35, 37, 41, 10007, 10009]  # the first three sweep, the last two loop
    factored = [factorize(n) for n in ns]
    expected = (
        sums.coprime_sums(ns[:3], 4), sums.coprime_sums(ns[3:], 4),
        lehmer_sum(35, 6), theorem_rhs(35, 6), half_rhs(35),
    )
    real = arith.factorize
    factored_again: list[int] = []

    def recording(n):
        if not isinstance(n, FactoredInteger):
            factored_again.append(n)
        return real(n)

    monkeypatch.setattr(sums, "factorize", recording)
    assert (
        sums.coprime_sums(factored[:3], 4), sums.coprime_sums(factored[3:], 4),
        modular_sum(SumSpec(factored[0], 6, None, 35**2)),
        theorem_rhs(factored[0], 6), half_rhs(factored[0]),
    ) == expected
    assert factored_again == []


def test_modular_sum_names_the_first_non_unit_term():
    # n = 9, d = 3 keeps r = 1, 2: terms 6 and 3, both sharing 3 with 81
    message = r"^gcd\(6, 81\) = 3; 6 is not a unit$"
    with pytest.raises(NotInvertibleError, match=message):
        modular_sum(SumSpec(9, 3, None, 81))
    assert modular_sum(SumSpec(9, 3, None, 1)) == Residue(0, 1)


def test_sumspec_terms():
    spec = SumSpec(35, 3, None, 1225)
    assert spec.bound() == 11
    assert list(spec.denominators()) == [32, 29, 26, 23, 17, 11, 8, 2]
    spec = SumSpec(35, 3, 5, 25)
    assert list(spec.denominators()) == [32, 29, 26, 23, 17, 14, 11, 8, 2]
    spec = SumSpec(9, HALF, None, 81)
    assert list(spec.denominators()) == [1, 2, 4]


def test_half_harmonic_values():
    assert half_harmonic(3).rep == 1
    assert half_harmonic(5).rep == 14
    assert half_harmonic(9).rep == 22
    with pytest.raises(EvenModulusError):
        half_harmonic(4)
    with pytest.raises(PreconditionError):
        half_harmonic(1)


def test_half_rhs_values():
    assert half_rhs(5).rep == 14
    assert half_rhs(9).rep == 22
    # exact twin agrees after reduction
    for n in range(3, 120, 2):
        assert rational_mod(half_rhs_exact(n), n * n) == half_rhs(n), n
    with pytest.raises(EvenModulusError):
        half_rhs(6)


def test_lehmer_sum_values():
    assert lehmer_sum(5, 3).rep == 13
    assert lehmer_sum(5, 4).rep == 1
    assert lehmer_sum(5, 6).rep == 0  # empty sum
    assert lehmer_sum(7, 6).rep == 1
    with pytest.raises(InvalidDenominatorError):
        lehmer_sum(7, 5)
    with pytest.raises(NotCoprimeError):
        lehmer_sum(9, 3)
    with pytest.raises(PreconditionError):
        lehmer_sum(1, 3)


def test_modular_sum_against_pow_oracle():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randrange(5, 300)
        kind = rng.choice([HALF, 3, 4, 6])
        if kind == HALF:
            if n % 2 == 0:
                n += 1
            spec = SumSpec(n, HALF, None, n * n)
        else:
            if gcd(n, kind) != 1:
                continue
            spec = SumSpec(n, kind, None, n * n)
        assert modular_sum(spec).rep == brute_sum(spec), spec


def reference_exact_sum(spec: SumSpec) -> Fraction:
    """One normalised Fraction added per term: the plain loop that the
    binary-splitting exact_sum is checked against."""
    total = Fraction(0)
    for term in spec.denominators():
        total += Fraction(1, term)
    return total


def _exact_outcome(fn, spec):
    try:
        return fn(spec)
    except ZeroDivisionError:  # a kept term n - d*r = 0
        return ZeroDivisionError


def test_exact_sum_is_plain_fraction_sum():
    for d in (HALF, 3, 4, 6):
        empty = SumSpec(2, d, None, 4)
        single = SumSpec(3 if d == HALF else d + 1, d, None, 1)
        assert (empty.bound(), single.bound()) == (0, 1)
        assert exact_sum(empty) == 0 and exact_sum(single) == 1  # the term 1
        for n in [*range(1, 200), 3001, 5005]:
            for p in [None, 5, *(p for p, _ in factorize(n).factors)]:
                spec = SumSpec(n, d, p, n * n)
                expected = _exact_outcome(reference_exact_sum, spec)
                assert _exact_outcome(exact_sum, spec) == expected, spec


def test_exact_sum_term_budget(monkeypatch):
    monkeypatch.setattr(sums, "MAX_EXACT_TERMS", 10)
    at_budget = SumSpec(21, HALF, None, 441)  # r runs over 1..10
    assert exact_sum(at_budget) == reference_exact_sum(at_budget)

    def no_terms(spec):
        raise AssertionError("a term was formed")

    monkeypatch.setattr(SumSpec, "denominators", no_terms)
    for spec in (SumSpec(23, HALF, None, 529), SumSpec(35, 3, 5, 49)):
        with pytest.raises(TermCountExceeded, match="11 values of r is over the budget"):
            exact_sum(spec)


def test_modular_sum_term_budget(monkeypatch):
    monkeypatch.setattr(sums, "MAX_MODULAR_TERMS", 10)
    at_budget = SumSpec(21, HALF, None, 441)  # r runs over 1..10
    assert modular_sum(at_budget) == Residue(brute_sum(at_budget), 441)

    def no_terms(spec):
        raise AssertionError("a term was formed")

    monkeypatch.setattr(sums, "_kept_terms", no_terms)
    for call in (
        lambda: half_harmonic(23),
        lambda: lehmer_sum(35, 3),
        lambda: sums.coprime_sums([10007, 10009], 3),  # far out, a list takes the loop
        lambda: lemma2_sum(35, 5, 3),
        lambda: moebius_decomposition_sides(35, 5, 3),
    ):
        with pytest.raises(TermCountExceeded, match="r is over the budget of 10 terms"):
            call()


def test_summable_counts_the_leading_values_under_the_term_budget(monkeypatch):
    monkeypatch.setattr(sums, "MAX_MODULAR_TERMS", 10)
    ns = [5, 7, 11, 13, 23, 25, 29, 31, 35, 37]
    assert sums._summable(ns, 3) == 8  # n // 3 > 10 from n = 33
    assert sums._summable(ns, HALF) == 4  # (n - 1) // 2 > 10 from n = 23
    assert sums._summable([35, 37], 3) == 0
    assert sums._summable([], 3) == 0


@pytest.mark.parametrize("d", [3, 4, 6, HALF])
def test_summable_is_the_linear_count_of_leading_values_in_budget(monkeypatch, d):
    monkeypatch.setattr(sums, "MAX_MODULAR_TERMS", 40)
    rng = random.Random(f"summable/{d}")
    for _ in range(200):
        ns = sorted(rng.sample(range(1, 400), rng.randrange(0, 12)))
        fit = 0  # the count of r passes 40 from n = 83 (HALF), 123, 164 or 246 (d = 6)
        while fit < len(ns) and ((ns[fit] - 1) // 2 if d == HALF else ns[fit] // d) <= 40:
            fit += 1
        assert sums._summable(ns, d) == fit, ns


def test_lemma2_sum_values():
    assert lemma2_sum(35, 5, 3).rep == 13
    # pinned alignment with the localized right side
    q25_3 = fermat_quotient_mod(25, 3, 25)
    assert q25_3 == 1
    assert pow(2, -1, 25) * q25_3 % 25 == 13
    assert lemma2_rhs(5, 1, 3).rep == 13
    with pytest.raises(PrimeDivisibilityError):
        lemma2_sum(35, 11, 3)
    with pytest.raises(NotCoprimeError):
        lemma2_sum(15, 5, 4)  # n divisible by 3
    with pytest.raises(PreconditionError):
        lemma2_sum(9, 3, 4)  # p below 5


def test_lemma2_sum_matches_rhs_small():
    for (n, p) in ((25, 5), (35, 5), (35, 7), (49, 7), (55, 5), (55, 11), (125, 5)):
        alpha = 0
        m = n
        while m % p == 0:
            m //= p
            alpha += 1
        for d in (3, 4, 6):
            lhs = lemma2_sum(n, p, d)
            rhs = lemma2_rhs(p, alpha, d)
            assert lhs == rhs, (n, p, d)


def test_theorem_rhs_values():
    assert theorem_rhs(5, 3).rep == 13
    assert theorem_rhs(5, 4).rep == 1
    assert theorem_rhs(5, 6).rep == 0
    with pytest.raises(NotCoprimeError):
        theorem_rhs(4, 3)
    with pytest.raises(NotCoprimeError):
        theorem_rhs(9, 4)


def test_theorem_rhs_exact_twin():
    for n in range(5, 200):
        if gcd(n, 6) != 1:
            continue
        for d in (3, 4, 6):
            exact = theorem_rhs_exact(n, d)
            assert rational_mod(exact, n * n) == theorem_rhs(n, d), (n, d)


# n = 6k +- 1 up to about 5,000: every n with gcd(n, 6) = 1
COPRIME_TO_6 = st.builds(
    lambda k, s: 6 * k + s, st.integers(1, 834), st.sampled_from([-1, 1])
)


@PROPERTY
@given(COPRIME_TO_6, st.sampled_from([3, 4, 6]))
def test_theorem_rhs_matches_its_exact_twin(n, d):
    assert theorem_rhs(n, d) == rational_mod(theorem_rhs_exact(n, d), n * n), (n, d)


def rhs_outcome(route) -> Residue | type:
    try:
        return route()
    except (NotCoprimeError, NotInvertibleError) as exc:
        return type(exc)


def test_relaxed_rhs_matches_the_oracle_outside_the_hypothesis():
    # _weighted_rhs at every n, gcd(n, 6) = 1 or not: the oracle reduces the
    # exact rational, and where one route cannot, the other raises alike
    outcomes = set()
    for d in (3, 4, 6):
        for n in range(2, 1500):
            relaxed = rhs_outcome(lambda: sums._weighted_rhs(factorize(n), d, n * n))
            exact = rhs_outcome(lambda: rational_mod(theorem_rhs_exact(n, d), n * n))
            assert relaxed == exact, (n, d)
            outcomes.add(relaxed if isinstance(relaxed, type) else Residue)
    assert outcomes == {Residue, NotCoprimeError}
    # mod n^2, at these n, what the numerator leaves of the weights'
    # denominator is always a unit; smaller moduli reach the other case
    for d in (3, 4, 6):
        for n in range(2, 60):
            for m in range(2, 50):
                relaxed = rhs_outcome(lambda: sums._weighted_rhs(factorize(n), d, m))
                exact = rhs_outcome(lambda: rational_mod(theorem_rhs_exact(n, d), m))
                assert relaxed == exact, (n, d, m)
                outcomes.add(relaxed if isinstance(relaxed, type) else Residue)
    assert NotInvertibleError in outcomes


@PROPERTY
@given(st.integers(1, 2500).map(lambda k: 2 * k + 1))
def test_half_rhs_matches_its_exact_twin(n):
    assert half_rhs(n) == rational_mod(half_rhs_exact(n), n * n), n


# (p, alpha) with p >= 5 prime and phi(p^{2 alpha}) <= 2 * 10^5, so that the
# exact twin's a^phi stays a few hundred thousand bits
LEMMA2_POINTS = [
    (p, alpha)
    for alpha in (1, 2, 3)
    for p in range(5, 450)
    if is_prime(p) and p ** (2 * alpha - 1) * (p - 1) <= 200_000
]


@PROPERTY
@given(st.sampled_from(LEMMA2_POINTS), st.sampled_from([3, 4, 6]))
def test_lemma2_rhs_matches_its_exact_twin(point, d):
    p, alpha = point
    m = p ** (2 * alpha)
    assert lemma2_rhs(p, alpha, d) == rational_mod(lemma2_rhs_exact(p, alpha, d), m), (
        p, alpha, d)


def test_moebius_decomposition():
    assert moebius_decomposition_check(35, 5, 3)
    assert moebius_decomposition_check(55, 11, 4)
    # prime power: the p-free part is 1 and both sides are the same sum
    lhs, rhs = moebius_decomposition_sides(25, 5, 6)
    assert lhs == rhs
    for n in (35, 55, 77, 91, 175, 245, 385):
        for p, _ in factorize(n).factors:
            for d in (3, 4, 6):
                assert moebius_decomposition_check(n, p, d), (n, p, d)
    with pytest.raises(NotCoprimeError):
        moebius_decomposition_check(15, 5, 3)


def test_moebius_terms_values_and_indicator():
    assert list(sums._moebius_terms(factorize(1))) == [(1, 1)]
    assert list(sums._moebius_terms(factorize(12))) == [(1, 1), (-1, 2), (-1, 3), (1, 6)]
    for n in range(1, 2001):
        f = factorize(n)
        terms = list(sums._moebius_terms(f))
        # every squarefree divisor s of n once, with mu(s) = (-1)^(primes of s)
        squarefree = [s for s in divisors(f) if all(s % (p * p) for p, _ in f.factors)]
        assert sorted(s for _, s in terms) == squarefree, n
        assert all(mu == (-1) ** len(factorize(s).factors) for mu, s in terms), n
        # sum of mu over the squarefree divisors is the indicator of n = 1
        assert sum(mu for mu, _ in terms) == (1 if n == 1 else 0), n


def test_moebius_terms_phi_ratio():
    # sum over squarefree divisors of mu(s)/s equals phi(q)/q
    for q in (1, 7, 11, 77, 91, 143, 1001):
        f = factorize(q)
        total = sum(Fraction(mu, s) for mu, s in sums._moebius_terms(f))
        assert total == Fraction(euler_phi(f), q)
