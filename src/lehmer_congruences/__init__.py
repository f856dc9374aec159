"""Exhaustive verification of Fermat-quotient congruences mod n^2.

The package checks, over explicit ranges, the classical congruences that
express restricted inverse sums (the half-range harmonic sum and the sums
of 1/(n - d*r) for d in 3, 4, 6) as polynomials in the Fermat quotients
q_n(2) and q_n(3) modulo n^2, together with the supporting identities:
Bernoulli-number links, quotient lifting, localization at prime powers,
a Moebius divisor rearrangement and CRT reassembly.  Every modular
computation has an exact-rational twin so the two routes can audit each
other.
"""

from .arith import (
    FactoredInteger,
    Residue,
    crt_combine,
    divisors,
    euler_phi,
    extended_gcd,
    factorize,
    is_prime,
    mod_inv,
    mod_pow,
    moebius,
)
from .bernoulli import (
    BernoulliCache,
    CAP_ENV_VAR,
    DEFAULT_MAX_INDEX,
    bernoulli_number,
    bernoulli_poly,
    default_cap,
    p_adic_valuation,
    padic_congruent,
    power_sum,
    rational_mod,
    special_value,
    von_staudt_clausen,
)
from .errors import (
    CongruenceError,
    EvenModulusError,
    FactorizationLimitExceeded,
    IndexCapExceeded,
    InvalidDenominatorError,
    ModuliNotCoprimeError,
    NoCounterexampleInRange,
    NotCoprimeError,
    NotInvertibleError,
    OracleDivergence,
    PowerSizeExceeded,
    PreconditionError,
    PrimeDivisibilityError,
)
from .quotients import (
    QuotientValue,
    fermat_quotient,
    fermat_quotient_mod,
    lemma1_check,
    lemma3_check,
    lemma4_check,
)
from .report import CongruenceReport, IdentityId
from .sums import (
    HALF,
    SumSpec,
    exact_sum,
    half_harmonic,
    half_rhs,
    lehmer_prime_rhs,
    lehmer_sum,
    lemma2_rhs,
    lemma2_sum,
    modular_sum,
    moebius_decomposition_check,
    theorem_rhs,
)
from .verifier import (
    counterexample_search,
    crt_reassembly_check,
    scan,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliCache",
    "CAP_ENV_VAR",
    "CongruenceError",
    "CongruenceReport",
    "DEFAULT_MAX_INDEX",
    "EvenModulusError",
    "FactoredInteger",
    "FactorizationLimitExceeded",
    "HALF",
    "IdentityId",
    "IndexCapExceeded",
    "InvalidDenominatorError",
    "ModuliNotCoprimeError",
    "NoCounterexampleInRange",
    "NotCoprimeError",
    "NotInvertibleError",
    "OracleDivergence",
    "PowerSizeExceeded",
    "PreconditionError",
    "PrimeDivisibilityError",
    "QuotientValue",
    "Residue",
    "SumSpec",
    "bernoulli_number",
    "bernoulli_poly",
    "counterexample_search",
    "crt_combine",
    "crt_reassembly_check",
    "default_cap",
    "divisors",
    "euler_phi",
    "exact_sum",
    "extended_gcd",
    "factorize",
    "fermat_quotient",
    "fermat_quotient_mod",
    "half_harmonic",
    "half_rhs",
    "is_prime",
    "lehmer_prime_rhs",
    "lehmer_sum",
    "lemma1_check",
    "lemma2_rhs",
    "lemma2_sum",
    "lemma3_check",
    "lemma4_check",
    "mod_inv",
    "mod_pow",
    "modular_sum",
    "moebius",
    "moebius_decomposition_check",
    "p_adic_valuation",
    "padic_congruent",
    "power_sum",
    "rational_mod",
    "scan",
    "special_value",
    "theorem_rhs",
    "verify",
    "von_staudt_clausen",
]
