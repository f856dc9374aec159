"""Exception types shared across the package, two constants and a loader.

Everything raised on purpose derives from CongruenceError, so callers can
catch one base class.  Precondition violations additionally derive from
ValueError and carry a message naming the violated predicate.

HALF (exported by sums) and DEFAULT_MAX_INDEX (exported by bernoulli) are
defined here because the command line parser shows them, and _layers
because cli binds its layer names with it: every layer imports this
module, and it is the one module besides cli that --help loads.
"""

__all__ = [
    "CongruenceError",
    "EvenModulusError",
    "FactorizationLimitExceeded",
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
    "TermCountExceeded",
]

HALF = "half"  # marker selecting the half-range harmonic sum

# the Bernoulli cache's default cap on the index m of B_m
DEFAULT_MAX_INDEX = 600


def _layers(namespace: dict, layers: dict[str, tuple[str, ...]]):
    """The (load, __getattr__) pair of a module that imports layers on use.

    namespace is the module's globals; layers maps a sibling module to the
    names taken from it.  load(layer) imports it once and binds its names
    with setdefault, so one bound before (a tracer's wrapper) is what runs;
    a function calls load before it calls those names.  The PEP 562
    __getattr__ loads a name's layer on its first read from outside.
    """
    homes = {name: layer for layer, names in layers.items() for name in names}
    loaded: set[str] = set()

    def load(layer: str) -> None:
        if layer not in loaded:
            module = __import__(layer, namespace, None, (), 1)  # from . import layer
            for name in layers[layer]:
                namespace.setdefault(name, getattr(module, name))
            loaded.add(layer)

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        load(homes[name])
        return namespace[name]

    return load, __getattr__


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
    """Factorization ran out of rho steps, or met a probable prime >= psi_13."""


class IndexCapExceeded(CongruenceError):
    """A Bernoulli number beyond the configured cache cap was requested."""


class PowerSizeExceeded(CongruenceError):
    """An exact power a^phi(n) would outgrow the configured bit budget."""


class TermCountExceeded(CongruenceError):
    """A sum, a list of sums or a scan would run over its budget of terms, time or integers."""


class NoCounterexampleInRange(CongruenceError):
    """A counterexample search exhausted its bound without finding a failure."""


class OracleDivergence(CongruenceError):
    """The exact-rational recomputation disagreed with the modular path."""
