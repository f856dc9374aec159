"""The export rule: the package exports exactly its modules' __all__ lists.

Also the preconditions of public functions that no other test reaches.
"""

import re
from pathlib import Path

import pytest

import lehmer_congruences
from lehmer_congruences import arith, bernoulli, errors, quotients, report, sums, verifier

MODULES = (arith, bernoulli, errors, quotients, report, sums, verifier)


def test_package_exports_each_public_name_once_and_uses_it():
    names = lehmer_congruences.__all__
    assert len(set(names)) == len(names)
    assert list(names) == [name for module in MODULES for name in module.__all__]
    for name in names:
        assert hasattr(lehmer_congruences, name), name
    # a use is a whole-word occurrence outside the name's definition and
    # outside the __all__ lists, in the package or in another test
    this = Path(__file__).resolve()
    package = Path(lehmer_congruences.__file__).parent
    texts = [
        re.sub(r"^__all__ = \[.*?\]$", "", path.read_text(), flags=re.M | re.S)
        for path in [*package.glob("*.py"), *this.parent.glob("test_*.py")]
        if path.resolve() != this
    ]
    for name in names:
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^(?:\s*(?:def|class) {name}\b|{name}\b.*=)", re.M)
        uses = sum(len(word.findall(t)) - len(definition.findall(t)) for t in texts)
        assert uses > 0, name


@pytest.mark.parametrize("call, error, message", [
    (lambda: arith.FactoredInteger(0, ()), errors.PreconditionError,
     "value must be >= 1, got 0"),
    (lambda: bernoulli.bernoulli_poly(-1, 0), errors.PreconditionError,
     "polynomial degree must be >= 0, got -1"),
    (lambda: bernoulli.power_sum(0, -1, 2), errors.PreconditionError,
     "count must be >= 0, got -1"),
    (lambda: bernoulli.power_sum(0, 1, -1), errors.PreconditionError,
     "exponent must be >= 0, got -1"),
    (lambda: sums.half_rhs_exact(4), errors.EvenModulusError,
     "the half-range identity needs odd n, got 4"),
], ids=["factored-zero", "poly-degree", "power-sum-count", "power-sum-exponent", "half-rhs-even"])
def test_public_preconditions(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
