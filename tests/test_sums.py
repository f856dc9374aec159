"""The restricted inverse sums and their quotient-polynomial right sides."""

import random
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lehmer_congruences import sums
from lehmer_congruences.bernoulli import rational_mod
from lehmer_congruences.errors import (
    EvenModulusError,
    InvalidDenominatorError,
    NotCoprimeError,
    NotInvertibleError,
    PreconditionError,
    PrimeDivisibilityError,
)
from lehmer_congruences.quotients import fermat_quotient_mod
from lehmer_congruences.arith import Residue, factorize, is_prime, mod_inv
from lehmer_congruences.sums import (
    HALF,
    SumSpec,
    exact_sum,
    half_harmonic,
    half_rhs,
    half_rhs_exact,
    lehmer_prime_rhs,
    lehmer_sum,
    lemma2_rhs,
    lemma2_rhs_exact,
    lemma2_sum,
    modular_sum,
    modular_sum_lenient,
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


def reference_modular_sum(spec: SumSpec) -> Residue:
    # the per-term loop modular_sum used before the running fraction: one
    # mod_inv per kept r, filtered by gcd(r, n) or r % p
    n, m = spec.n, spec.modulus
    acc = 0
    if spec.d == HALF:
        if spec.exclude_prime is None:
            for r in range(1, (n - 1) // 2 + 1):
                if gcd(r, n) == 1:
                    acc = (acc + mod_inv(r, m).rep) % m
        else:
            p = spec.exclude_prime
            for r in range(1, (n - 1) // 2 + 1):
                if r % p:
                    acc = (acc + mod_inv(r, m).rep) % m
    else:
        d = spec.d
        if spec.exclude_prime is None:
            for r in range(1, n // d + 1):
                if gcd(r, n) == 1:
                    acc = (acc + mod_inv(n - d * r, m).rep) % m
        else:
            p = spec.exclude_prime
            for r in range(1, n // d + 1):
                if r % p:
                    acc = (acc + mod_inv(n - d * r, m).rep) % m
    return Residue(acc, m)


def reference_lenient(spec: SumSpec) -> tuple[Residue | None, str | None]:
    # modular_sum_lenient before the running fraction
    m = spec.modulus
    acc = 0
    for term in spec.denominators():
        g = gcd(term, m)
        if g != 1:
            return None, f"term {term} shares the factor {g} with modulus {m}"
        acc = (acc + mod_inv(term, m).rep) % m
    return Residue(acc, m), None


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
        assert modular_sum_lenient(spec) == reference_lenient(spec), spec
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


def test_exact_sum_is_plain_fraction_sum():
    spec = SumSpec(35, 3, None, 1225)
    expected = sum((Fraction(1, t) for t in spec.denominators()), Fraction(0))
    assert exact_sum(spec) == expected
    assert exact_sum(SumSpec(5, 6, None, 25)) == 0


def test_modular_sum_lenient():
    value, reason = modular_sum_lenient(SumSpec(5, 3, None, 25))
    assert reason is None and value.rep == 13
    # n = 9, d = 3 keeps the term 9 - 3*1 = 6, which shares 3 with 81
    value, reason = modular_sum_lenient(SumSpec(9, 3, None, 81))
    assert value is None
    assert "shares the factor" in reason
    # a zero term is caught the same way: 4 - 4*1 = 0
    value, reason = modular_sum_lenient(SumSpec(4, 4, None, 16))
    assert value is None
    assert "term 0" in reason


def test_lemma2_sum_values():
    assert lemma2_sum(35, 5, 3).rep == 13
    # pinned alignment with the localized right side
    q25_3 = fermat_quotient_mod(25, 3, 25).rep
    assert q25_3 == 1
    assert mod_inv(2, 25).rep * q25_3 % 25 == 13
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


def test_lehmer_prime_rhs():
    assert lehmer_prime_rhs(5, HALF).rep == 14
    assert lehmer_prime_rhs(3, HALF).rep == half_rhs(3).rep
    assert lehmer_prime_rhs(5, 3).rep == 13
    assert lehmer_prime_rhs(7, 6).rep == 1
    with pytest.raises(PreconditionError):
        lehmer_prime_rhs(9, HALF)
    with pytest.raises(PreconditionError):
        lehmer_prime_rhs(3, 3)  # d-sums need p >= 5


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
