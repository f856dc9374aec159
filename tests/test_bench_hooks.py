"""The benchmark tracer still finds every package function it wraps.

bench/tracer.py looks each traced function up by module and attribute name,
so a refactor that drops or renames one of those attributes breaks traced
benchmark runs only.  Installing and removing the tracer here makes that a
test failure instead.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lehmer_congruences import IdentityId, verifier
from lehmer_congruences.bernoulli import BernoulliCache
from lehmer_congruences.quotients import lemma1_check, lemma3_check

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


@pytest.mark.parametrize(
    "check", [lambda: verifier.verify(IdentityId.THM_6, n=35), lambda: lemma3_check(35, 2)]
)
def test_tracer_times_every_quotient_a_check_takes(tmp_path, check):
    # quotients.fermat_quotient_mod.* must not read 0: thm6 takes q_n(2) and
    # q_n(3), lemma3 takes q_{n^2}(a) and q_n(a)
    tracer = _load_tracer()
    tracer.install(tmp_path)
    try:
        assert check().holds
    finally:
        tracer.uninstall()
    names = [span[2] for span in tracer.SPANS]
    assert names.count("quotients.fermat_quotient_mod") == 2


def test_tracer_wraps_the_cli_sites_before_the_layers_are_loaded(tmp_path):
    # cli binds its layer names on first use, so the tracer, installed in a
    # process that has imported cli alone, binds its wrappers first; main
    # must then call them, and uninstall must leave the originals
    probe = f"""
import contextlib, importlib.util, io, json, sys
from pathlib import Path
from lehmer_congruences import cli
fresh = sorted(name for name in sys.modules if name.startswith("lehmer_congruences"))
spec = importlib.util.spec_from_file_location("bench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.install(Path({str(tmp_path)!r}))
from lehmer_congruences import bernoulli, quotients, verifier
homes = dict(verify=verifier, scan=verifier, fermat_quotient=quotients,
             bernoulli_number=bernoulli)
originals = {{name: getattr(home, name) for name, home in homes.items()}}
originals = {{name: getattr(f, "__wrapped__", f) for name, f in originals.items()}}
wrapped = [name for name, f in originals.items()
           if getattr(cli, name) is not f and getattr(cli, name).__wrapped__ is f]
argv = ["scan", "--identity", "thm3", "--from", "5", "--to", "60", "--format", "json"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(argv)
spans = sorted({{span[2] for span in tracer.SPANS}})
tracer.uninstall()
restored = [name for name, f in originals.items() if getattr(cli, name) is f]
print(json.dumps([fresh, wrapped, code, len(out.getvalue().splitlines()), spans, restored]))
"""
    src = str(TRACER.parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60, check=True,
    )
    fresh, wrapped, code, rows, spans, restored = json.loads(done.stdout)
    assert fresh == [
        "lehmer_congruences", "lehmer_congruences.cli", "lehmer_congruences.errors"
    ]
    sites = ["verify", "scan", "fermat_quotient", "bernoulli_number"]
    assert wrapped == restored == sites
    assert (code, rows) == (0, 19)
    assert "verifier.scan" in spans


def test_tracer_times_the_lazily_loaded_layers_in_a_fresh_process(tmp_path):
    # verifier loads sums and quotients loads bernoulli on first use, so in
    # a process that imported cli alone the tracer's lookups load them; the
    # checks must then run through its wrappers, and uninstall must put
    # back every original
    probe = f"""
import contextlib, importlib.util, io, json
from pathlib import Path
from lehmer_congruences import cli
spec = importlib.util.spec_from_file_location("bench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.install(Path({str(tmp_path)!r}))
originals = list(tracer._originals)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["scan", "--identity", "lemma4", "--a", "2", "--p", "5",
                       "--from", "5", "--to", "60", "--format", "json"]),
             cli.main(["verify", "--identity", "thm6", "--n", "35"])]
spans = sorted({{span[2] for span in tracer.SPANS}})
tracer.uninstall()
kept = [getattr(owner, attr) is original for owner, attr, original in originals]
print(json.dumps([codes, spans, len(kept), all(kept)]))
"""
    src = str(TRACER.parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60, check=True,
    )
    codes, spans, sites, restored = json.loads(done.stdout)
    assert codes == [0, 0]
    assert {"quotients.check", "sums.rhs", "quotients.fermat_quotient_mod"} <= set(spans)
    assert sites > 0 and restored
