"""Report types shared by the verifier, the lemma checks and the CLI."""

from __future__ import annotations

from enum import Enum, unique

from .arith import Residue, _Value

__all__ = ["CongruenceReport", "IdentityId"]


@unique
class IdentityId(Enum):
    """Every congruence this package can check, keyed by its CLI slug.

    The half-range harmonic identities come first (prime modulus, then the
    odd-composite extension), then the three d-sums at prime modulus, their
    composite extensions, and finally the supporting lemmas.
    """

    LEHMER_HALF = "lehmer-half"
    CAI_HALF = "cai"
    LEHMER_P3 = "lehmer-p3"
    LEHMER_P4 = "lehmer-p4"
    LEHMER_P6 = "lehmer-p6"
    THM_3 = "thm3"
    THM_4 = "thm4"
    THM_6 = "thm6"
    LEMMA_1 = "lemma1"
    LEMMA_2_D3 = "lemma2-d3"
    LEMMA_2_D4 = "lemma2-d4"
    LEMMA_2_D6 = "lemma2-d6"
    LEMMA_3 = "lemma3"
    LEMMA_4 = "lemma4"
    MOEBIUS_DECOMP = "moebius"


class CongruenceReport(_Value):
    """The outcome of one congruence check.

    A completed check fills lhs, rhs and holds (holds is the p-adic verdict
    for lemma1, where the reported valuation of lhs - rhs must reach the
    reported requirement).  A skipped check leaves holds as None and says
    why in skipped_reason; modulus is None when the skip happened before the
    modulus could be derived.
    """

    __slots__ = (
        "identity", "params", "modulus", "lhs", "rhs", "holds",
        "skipped_reason", "valuation", "required",
    )

    def __init__(
        self,
        identity: IdentityId,
        params: dict[str, int],
        modulus: int | None,
        lhs: Residue | None,
        rhs: Residue | None,
        holds: bool | None,
        skipped_reason: str | None = None,
        valuation: int | float | None = None,
        required: int | None = None,
    ) -> None:
        _Value.__init__(
            self, identity, params, modulus, lhs, rhs, holds,
            skipped_reason, valuation, required,
        )


def _modular_report(
    identity: IdentityId, params: dict[str, int], lhs: Residue, rhs: Residue
) -> CongruenceReport:
    """The report of a check whose two sides are residues mod one modulus."""
    if lhs.modulus != rhs.modulus:
        raise ArithmeticError("left and right sides use different moduli")
    return CongruenceReport(identity, params, lhs.modulus, lhs, rhs, lhs.rep == rhs.rep)
