"""The benchmark tracer still finds every package function it wraps.

bench/tracer.py looks each traced function up by module and attribute name,
so a refactor that drops or renames one of those attributes breaks traced
benchmark runs only.  Installing and removing the tracer here makes that a
test failure instead.
"""

import importlib.util
from pathlib import Path

from lehmer_congruences import verifier
from lehmer_congruences.bernoulli import BernoulliCache
from lehmer_congruences.quotients import lemma1_check

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


def test_tracer_counts_the_bernoulli_entries_a_check_adds(tmp_path):
    # bernoulli.table_entries is the count of these spans; it must not read 0
    # on a run that computes a Bernoulli number
    tracer = _load_tracer()
    tracer.install(tmp_path)
    try:
        assert lemma1_check(31, 1, BernoulliCache(max_index=1000)).holds
    finally:
        tracer.uninstall()
    counts = [span[5] for span in tracer.SPANS if span[2] == "bernoulli.extend"]
    assert counts and min(counts) >= 1
