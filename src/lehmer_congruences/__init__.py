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

Importing the package imports none of those modules.  The first read of
an exported name, of __all__ (a star import reads it) or of dir() imports
the seven of them and binds their names here.  A submodule asked for by
name (from lehmer_congruences import verifier) is imported alone, and
cli loads the layers only once its arguments are parsed, so --help and a
usage error load this package, cli and errors and nothing more.
"""

__version__ = "0.1.0"

# the package's modules: a lookup of one of these names loads no layer, so
# that the import system, finding no attribute, imports that module alone
_SUBMODULES = frozenset({
    "__main__", "arith", "bernoulli", "cli", "errors", "quotients", "report", "sums",
    "sweep", "verifier",
})


def _export() -> None:
    """Import the seven layers and bind the names of their __all__ lists here."""
    from . import arith, bernoulli, errors, quotients, report, sums, verifier

    layers = (arith, bernoulli, errors, quotients, report, sums, verifier)
    names = [name for layer in layers for name in layer.__all__]
    globals().update((name, getattr(layer, name)) for layer in layers for name in layer.__all__)
    globals()["__all__"] = names


def __getattr__(name: str):
    """An exported name, the layers loaded on its first read (PEP 562)."""
    if name not in _SUBMODULES and "__all__" not in globals():
        _export()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _export()
    return list(globals())
