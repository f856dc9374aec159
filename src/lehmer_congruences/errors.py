"""Exception types shared across the package.

Everything raised on purpose derives from CongruenceError, so callers can
catch one base class.  Precondition violations additionally derive from
ValueError and carry a message naming the violated predicate.
"""


class CongruenceError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(CongruenceError, ValueError):
    """An operation was called with arguments outside its contract."""


class NotInvertibleError(PreconditionError):
    """A modular inverse was requested for a residue that is not a unit."""


class NotCoprimeError(PreconditionError):
    """A coprimality hypothesis (gcd(a, n) = 1 and friends) does not hold."""


class ModuliNotCoprimeError(PreconditionError):
    """CRT input moduli are not pairwise coprime."""


class PrimeDivisibilityError(PreconditionError):
    """A hypothesis of the form "p divides n" fails."""


class EvenModulusError(PreconditionError):
    """A half-range sum was requested for an even n; they need odd n."""


class InvalidDenominatorError(PreconditionError):
    """The denominator parameter d must be one of 3, 4, 6."""


class FactorizationLimitExceeded(CongruenceError):
    """Factorization gave up within the configured iteration budget."""


class IndexCapExceeded(CongruenceError):
    """A Bernoulli number beyond the configured cache cap was requested."""


class PowerSizeExceeded(CongruenceError):
    """An exact power a^phi(n) would outgrow the configured bit budget."""


class NoCounterexampleInRange(CongruenceError):
    """A counterexample search exhausted its bound without finding a failure."""


class OracleDivergence(CongruenceError):
    """The exact-rational recomputation disagreed with the modular path."""
