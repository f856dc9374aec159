"""Spans around the package's layer functions, placed from outside the package.

install() replaces each traced function at every module attribute its
callers look it up by, so no file of the package changes; uninstall() puts
the originals back.  A span is (id, parent id, name, start, end, count), an
id being (pid, serial); count carries the work a call did where that is a
number (terms visited, Bernoulli entries added).  Spans stay in memory.
Worker processes forked by `scan --workers` inherit the wrappers; the
wrapper around each worker chunk appends that chunk's spans to a file,
which collect() merges back.  perf_counter is CLOCK_MONOTONIC on
Linux, so times from different processes compare.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPANS: list[tuple] = []
_stack: list[tuple[int, int]] = []
_ids = itertools.count(1)
_pid = os.getpid()
_owner = _pid
_chunk_dir: Path | None = None
_originals: list[tuple[object, str, object]] = []


def _after_fork() -> None:
    global _pid
    _pid = os.getpid()


os.register_at_fork(after_in_child=_after_fork)


def _wrap(name: str, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = (_pid, next(_ids))
        parent = _stack[-1] if _stack else None
        _stack.append(sid)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            _stack.pop()
            work = count(args, result) if count and result is not None else 0
            SPANS.append((sid, parent, name, start, end, work))

    return traced


def span(name: str, fn, *args, **kwargs):
    """Call fn inside one span; the benchmark wraps cli.main with it."""
    return _wrap(name, fn)(*args, **kwargs)


def _extend_counting(name: str, fn):
    # BernoulliCache._extend_to appends to self._table; the span counts what
    # it added.  Its caller ignores the return value.
    @functools.wraps(fn)
    def extend(self, m):
        before = len(self._table)
        fn(self, m)
        return len(self._table) - before

    return _wrap(name, extend, lambda args, added: added)


def _chunk_dumping(name: str, fn):
    traced = _wrap(name, fn)

    @functools.wraps(fn)
    def chunk(*args, **kwargs):
        first = len(SPANS)
        result = traced(*args, **kwargs)
        if _pid != _owner:  # a forked worker: hand this chunk's spans back
            with open(_chunk_dir / f"spans-{_pid}.jsonl", "a") as f:
                for s in SPANS[first:]:
                    f.write(json.dumps(s) + "\n")
            del SPANS[first:]
        return result

    return chunk


def install(chunk_dir: Path) -> None:
    """Wrap the layer functions of lehmer_congruences in place."""
    global _chunk_dir
    if _originals:
        raise RuntimeError("tracing is already installed")
    _chunk_dir = chunk_dir
    chunk_dir.mkdir(parents=True, exist_ok=True)
    from lehmer_congruences import bernoulli, cli, quotients, sums, verifier

    # span name -> the (module, attribute) pairs its callers look it up by
    sites = {
        "verifier.verify": [(verifier, "verify"), (cli, "verify")],
        "verifier.scan": [(cli, "scan")],
        "verifier.exact_oracle": [(verifier, "_exact_recheck")],
        "sums.lhs": [(verifier, f) for f in (
            "half_harmonic", "lehmer_sum", "lemma2_sum", "moebius_decomposition_sides")],
        "sums.modular_sum": [(sums, "modular_sum")],
        "sums.rhs": [(verifier, f) for f in ("theorem_rhs", "half_rhs", "lemma2_rhs")],
        "sums.exact": [(sums, "exact_sum")] + [(verifier, f) for f in (
            "exact_sum", "half_rhs_exact", "theorem_rhs_exact", "lemma2_rhs_exact",
            "moebius_decomposition_sides_exact")],
        "quotients.check": [(verifier, f) for f in (
            "lemma1_check", "lemma3_check", "lemma4_check")],
        "quotients.exact_sides": [(verifier, f) for f in (
            "lemma3_exact_sides", "lemma4_exact_sides")],
        "quotients.fermat_quotient_mod": [
            (sums, "fermat_quotient_mod"), (quotients, "fermat_quotient_mod")],
        "quotients.fermat_quotient": [
            (sums, "fermat_quotient"), (quotients, "fermat_quotient"), (cli, "fermat_quotient")],
        "arith.factorize": [(verifier, "factorize"), (sums, "factorize"), (quotients, "factorize")],
        "bernoulli.number": [(quotients, "bernoulli_number"), (cli, "bernoulli_number")],
        "bernoulli.rational_mod": [(verifier, "rational_mod"), (quotients, "rational_mod")],
        "cli.serialize": [(cli, "serialize_reports"), (cli, "serialize_report")],
    }
    counts = {"sums.modular_sum": lambda args, result: args[0].bound()}
    wrapped = [
        (module, attr, _wrap(name, getattr(module, attr), counts.get(name)))
        for name, targets in sites.items() for module, attr in targets
    ]
    cache = bernoulli.BernoulliCache
    wrapped.append((cache, "_extend_to",
                    _extend_counting("bernoulli.extend", cache._extend_to)))
    wrapped.append((verifier, "_scan_chunk",
                    _chunk_dumping("verifier.scan_chunk", verifier._scan_chunk)))
    for owner, attr, wrapper in wrapped:
        _originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)


def uninstall() -> None:
    """Restore every function install() replaced."""
    while _originals:
        owner, attr, original = _originals.pop()
        setattr(owner, attr, original)


def collect() -> None:
    """Merge the spans forked workers wrote, oldest first."""
    for path in sorted(_chunk_dir.glob("spans-*.jsonl")):
        with open(path) as f:
            for line in f:
                sid, parent, name, start, end, count = json.loads(line)
                SPANS.append((tuple(sid), tuple(parent) if parent else None,
                              name, start, end, count))
        path.unlink()


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, count, inclusive time, self time, longest call.

    Self time is a span's duration less the part of it its child spans
    cover (children in worker processes overlap, hence the union).  The
    inclusive time counts only spans with no ancestor of the same name, so
    recursion and nested groups are not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "count": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
    for sid, parent, name, start, end, count in spans:
        entry = out[name]
        dur = end - start
        entry["calls"] += 1
        entry["count"] += count
        entry["self_s"] += dur - _covered(children.get(sid, []))
        entry["max_s"] = max(entry["max_s"], dur)
        while parent is not None and parent in by_id and by_id[parent][2] != name:
            parent = by_id[parent][1]
        if parent is None or parent not in by_id:
            entry["s"] += dur
    return out
