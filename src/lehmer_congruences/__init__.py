"""Exhaustive verification of Fermat-quotient congruences mod n^2.

The package checks, over explicit ranges, the classical congruences that
express restricted inverse sums (the half-range harmonic sum and the sums
of 1/(n - d*r) for d in 3, 4, 6) as polynomials in the Fermat quotients
q_n(2) and q_n(3) modulo n^2, together with the supporting identities:
Bernoulli-number links, quotient lifting, localization at prime powers,
a Moebius divisor rearrangement and CRT reassembly.  Every modular
computation has an exact-rational twin so the two routes can audit each
other.

Each module's __all__ is the one list of its public names, and the package
exports every name in those lists: verify and scan, the identity table
IDENTITIES with its IdentitySpec entries, the sums and their exact twins
(coprime_sums, half_rhs_exact, lemma2_rhs_exact, theorem_rhs_exact,
moebius_decomposition_sides among them), the quotients, the Bernoulli
numbers, the arithmetic helpers, the report types and the exceptions.
The cli and sweep modules are not imported here.
"""

from .arith import *
from .bernoulli import *
from .errors import *
from .quotients import *
from .report import *
from .sums import *
from .verifier import *

__version__ = "0.1.0"

__all__ = (
    arith.__all__ + bernoulli.__all__ + errors.__all__ + quotients.__all__
    + report.__all__ + sums.__all__ + verifier.__all__
)
