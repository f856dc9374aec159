"""The export rule: the package exports exactly its modules' __all__ lists."""

import re
from pathlib import Path

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
