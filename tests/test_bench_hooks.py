"""The benchmark tracer still finds every package function it wraps.

bench/tracer.py looks each traced function up by module and attribute name,
so a refactor that drops or renames one of those attributes breaks traced
benchmark runs only.  Installing and removing the tracer here makes that a
test failure instead.
"""

import importlib.util
from pathlib import Path

from lehmer_congruences import verifier

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_site(tmp_path):
    tracer = _load_tracer()
    original = verifier.theorem_rhs
    tracer.install(tmp_path)
    try:
        assert verifier.theorem_rhs is not original
    finally:
        tracer.uninstall()
    assert verifier.theorem_rhs is original
