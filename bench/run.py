"""Benchmark of the lehmer_congruences command line, end to end and per layer.

    python3 bench/run.py --workload sweep-serial --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the package is imported from ./src, so
nothing needs installing.  With --trace 0 every operation is a separate
`python -m lehmer_congruences` process, as a user runs it, and the result
holds the end-to-end metrics.  With --trace 1 the same operations call
lehmer_congruences.cli.main in this process with spans around each layer,
and the result holds the per-layer metrics.  A run repeats whole rounds of
its operations until --seconds have passed.  Every output is checked
against bench/oracle.py.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --workload all prints one
per workload and trace setting, then a combined one.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checker import Outcome, check_op
from oracle import Oracle
from workloads import WORKLOADS, Op, build, workers_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_RUNS = 4  # `--help` runs before the first round; one more follows each round
SAMPLE_ROWS = 8  # rows per scan whose lhs is recomputed as an exact Fraction sum
OP_TIMEOUT_S = 120  # a CLI process still running after this is killed
PROBE_ITERATIONS = 100_000  # the host-speed probe loop (see Runner)
PROBE_REFERENCE_S = 0.0075  # its time at the reference speed

END_TO_END = {
    "checks_per_s": "checks/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "sums.modular_sum.calls": "count",
    "sums.modular_sum.self_s": "s",
    "sums.terms_visited": "count",
    "sums.rhs.s": "s",
    "sums.exact.s": "s",
    "quotients.fermat_quotient_mod.calls": "count",
    "quotients.fermat_quotient_mod.s": "s",
    "quotients.fermat_quotient.s": "s",
    "arith.factorize.calls": "count",
    "arith.factorize.s": "s",
    "arith.factorize.max_s": "s",
    "bernoulli.table_entries": "count",
    "bernoulli.extend.s": "s",
    "bernoulli.rational_mod.s": "s",
    "verifier.verify.calls": "count",
    "verifier.verify.self_s": "s",
    "verifier.exact_oracle.s": "s",
    "verifier.scan.speedup": "x",
    "cli.serialize.s": "s",
    "cli.output_bytes": "bytes",
    "cli.self_s": "s",
    "verifier.self_s": "s",
    "sums.self_s": "s",
    "quotients.self_s": "s",
    "arith.self_s": "s",
    "bernoulli.self_s": "s",
    "trace.busy_s": "s",
    "trace.overhead_pct": "%",
}
LAYERS = ("cli", "verifier", "sums", "quotients", "arith", "bernoulli")


@dataclass
class Call:
    wall: float
    code: int
    out: str
    err: str
    maxrss_mib: float = 0.0
    scaled: float = 0.0  # wall rescaled to the reference speed (see Runner)


class Checked:
    """Checks each operation's first output fully, later identical ones by bytes."""

    def __init__(self, oracle: Oracle, ops: list[Op], seed: int, workload: str) -> None:
        self.oracle = oracle
        rng = random.Random(f"sample/{workload}/{seed}")
        self.samples = [
            frozenset(rng.sample(op.ns, min(SAMPLE_ROWS, len(op.ns)))) if op.is_scan
            else frozenset() for op in ops
        ]
        self.seen: dict[tuple, Outcome] = {}
        self.total = Outcome()
        self.mismatches: list[str] = []

    def check(self, index: int, op: Op, call: Call) -> Outcome:
        key = (index, call.code, call.out, call.err)
        outcome = self.seen.get(key)
        if outcome is None:
            outcome = check_op(op, call.code, call.out, call.err, self.oracle,
                               self.samples[index])
            self.seen[key] = outcome
            if outcome.wrong or (outcome.failed and not op.known_fault):
                self.mismatches.append(f"{' '.join(op.args)}: {dict(outcome.reasons)}")
        self.total.add(outcome)
        return outcome

    def same_bytes(self, op: Op, call: Call, reference: Call, what: str) -> None:
        """Outputs that must be identical; a difference is a wrong answer."""
        if (call.code, call.out) != (reference.code, reference.out):
            self.total.wrong += 1
            self.mismatches.append(f"{' '.join(op.args)}: output differs from {what}")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CONGRUENCE_BERNOULLI_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: list[str], env: dict[str, str]) -> Call:
    """One CLI process; wall time from spawn to reap, peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "lehmer_congruences", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Call(wall, proc.returncode, out.read().decode(), err.read().decode(),
                    usage.ru_maxrss / 1024)


def _probe_loop() -> float:
    start = perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - start


class Runner:
    """Runs CLI processes and rescales wall times to a reference speed.

    A shared 2-vCPU virtual machine was measured switching between speeds
    1.5x apart, per vCPU, for seconds at a time; per-round medians of the
    same workload then spread by a third between runs.  So the benchmark
    pins itself and its CLI processes to the vCPUs the workload uses, times
    a fixed loop on each of them before and after every CLI process, and
    multiplies the process's wall time by PROBE_REFERENCE_S over the mean
    of the two probes.  The result is the time the process would have taken
    at the speed where the loop takes PROBE_REFERENCE_S.  The traced run
    rescales its in-process calls the same way.
    """

    def __init__(self, workers: int) -> None:
        self.env = _env()
        self.saved = os.sched_getaffinity(0)
        self.cpus: list[int] = []
        self.pin(workers)

    def pin(self, workers: int) -> None:
        """Use the first `workers` allowed vCPUs from now on."""
        cpus = sorted(self.saved)[:workers]
        if cpus != self.cpus:
            self.cpus = cpus
            self.last = self.probe()

    def probe(self) -> float:
        # A parallel scan runs at the sum of its vCPUs' speeds.
        times = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_loop())
        os.sched_setaffinity(0, self.cpus)
        return len(times) / sum(1 / t for t in times)

    def rescale(self, wall: float) -> float:
        """Rescale the wall time of what ran since the previous probe."""
        after = self.probe()
        scaled = wall * PROBE_REFERENCE_S * 2 / (self.last + after)
        self.last = after
        return scaled

    def run(self, argv: list[str]) -> Call:
        call = run_cli(argv, self.env)
        call.scaled = self.rescale(call.wall)
        return call

    def close(self) -> None:
        os.sched_setaffinity(0, self.saved)


def end_to_end(workload: str, seed: int, seconds: float, oracle: Oracle) -> dict:
    ops = build(workload, seed, oracle)
    checked = Checked(oracle, ops, seed, workload)
    workers = workers_for(workload)
    runner = Runner(workers)
    try:
        runner.run(["--help"])  # compiles the bytecode cache once
        setup = [runner.run(["--help"]).scaled for _ in range(SETUP_RUNS)]
        reference: list[Call] = []
        if workers > 1:
            # The serial output of the same inputs, which the parallel one
            # must match byte for byte.  Checked, but not part of the
            # measurement.
            serial = Checked(oracle, ops, seed, workload)
            for i, op in enumerate(ops):
                reference.append(run_cli(op.argv(1), runner.env))
                serial.check(i, op, reference[-1])
            checked.mismatches += [f"serial reference: {m}" for m in serial.mismatches]
            checked.total.wrong += serial.total.wrong
        times: list[list[float]] = [[] for _ in ops]
        confirmed = [0] * len(ops)
        peak, rounds = 0.0, 0
        start = perf_counter()
        while True:
            for i, op in enumerate(ops):
                call = runner.run(op.argv(workers))
                done = checked.check(i, op, call).confirmed
                confirmed[i] = done if rounds == 0 else min(confirmed[i], done)
                times[i].append(call.scaled)
                peak = max(peak, call.maxrss_mib)
                if reference:
                    checked.same_bytes(op, call, reference[i], "the --workers 1 output")
            rounds += 1
            setup.append(runner.run(["--help"]).scaled)  # samples span the whole run
            if perf_counter() - start >= seconds:
                break
    finally:
        runner.close()
    metrics = {
        "checks_per_s": sum(confirmed) / sum(statistics.median(t) for t in times),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak,
    }
    return _result(checked, metrics, END_TO_END, rounds=rounds)


def traced(workload: str, seed: int, seconds: float, oracle: Oracle) -> dict:
    sys.path.insert(0, str(SRC))
    import tracer
    from lehmer_congruences import cli

    ops = build(workload, seed, oracle)
    checked = Checked(oracle, ops, seed, workload)
    own = workers_for(workload)
    other = 1 if own == 2 else 2

    def call(op: Op, workers: int, trace: bool) -> Call:
        runner.pin(workers)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            if trace:
                code = tracer.span("cli.main", cli.main, op.argv(workers))
            else:
                code = cli.main(op.argv(workers))
            wall = perf_counter() - start
        return Call(wall, code, out.getvalue(), err.getvalue(), scaled=runner.rescale(wall))

    scans = [i for i, op in enumerate(ops) if op.is_scan]
    times = {key: [[] for _ in ops] for key in ("plain", "swapped", "traced")}
    best: tuple | None = None  # (traced wall, layer summary, output bytes, spans)
    rounds = 0
    runner = Runner(own)
    try:
        for op in ops:  # untimed: imports, and the allocator's first growth
            call(op, own, False)
        start = perf_counter()
        while True:
            # Untraced at the workload's worker count, then the scans at the
            # other count (for the speed-up and a byte comparison), then
            # traced.
            plain = [call(op, own, False) for op in ops]
            swapped = {i: call(ops[i], other, False) for i in scans}
            tracer.SPANS.clear()
            tracer.install(OUT / "chunks")
            try:
                traced_calls = []
                for op in ops:
                    traced_calls.append(call(op, own, True))
                    tracer.collect()
            finally:
                tracer.uninstall()
            for i, (op, c) in enumerate(zip(ops, traced_calls)):
                checked.check(i, op, c)
                times["plain"][i].append(plain[i].scaled)
                times["traced"][i].append(c.scaled)
                if i in swapped:
                    checked.same_bytes(op, c, swapped[i], f"the --workers {other} output")
                    times["swapped"][i].append(swapped[i].scaled)
            rounds += 1
            # Layer figures come from the fastest traced round: interference
            # only slows a round down.
            wall = sum(c.wall for c in traced_calls)
            if best is None or wall < best[0]:
                best = (wall, tracer.summarize(tracer.SPANS),
                        sum(len(c.out.encode()) for c in traced_calls), list(tracer.SPANS))
            if perf_counter() - start >= seconds:
                break
    finally:
        runner.close()
    _, summary, output_bytes, spans = best
    with open(OUT / f"spans-{workload}.jsonl", "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")

    def total(key: str, indices) -> float:
        return sum(statistics.median(times[key][i]) for i in indices)

    by_workers = {own: total("plain", scans), other: total("swapped", scans)}
    metrics = _layer_metrics(
        summary,
        speedup=by_workers[1] / by_workers[2] if scans else 1.0,
        overhead=total("traced", range(len(ops))) / total("plain", range(len(ops))) - 1,
        output_bytes=output_bytes,
    )
    return _result(checked, metrics, PER_LAYER, rounds=rounds)


def _layer_metrics(summary: dict, *, speedup: float, overhead: float,
                   output_bytes: int) -> dict[str, float]:
    def get(name: str, field: str) -> float:
        return summary[name][field] if name in summary else 0

    out = {
        "sums.modular_sum.calls": get("sums.modular_sum", "calls"),
        "sums.modular_sum.self_s": get("sums.modular_sum", "self_s"),
        "sums.terms_visited": get("sums.modular_sum", "count"),
        "sums.rhs.s": get("sums.rhs", "s"),
        "sums.exact.s": get("sums.exact", "s"),
        "quotients.fermat_quotient_mod.calls": get("quotients.fermat_quotient_mod", "calls"),
        "quotients.fermat_quotient_mod.s": get("quotients.fermat_quotient_mod", "s"),
        "quotients.fermat_quotient.s": get("quotients.fermat_quotient", "s"),
        "arith.factorize.calls": get("arith.factorize", "calls"),
        "arith.factorize.s": get("arith.factorize", "s"),
        "arith.factorize.max_s": get("arith.factorize", "max_s"),
        "bernoulli.table_entries": get("bernoulli.extend", "count"),
        "bernoulli.extend.s": get("bernoulli.extend", "s"),
        "bernoulli.rational_mod.s": get("bernoulli.rational_mod", "s"),
        "verifier.verify.calls": get("verifier.verify", "calls"),
        "verifier.verify.self_s": get("verifier.verify", "self_s"),
        "verifier.exact_oracle.s": get("verifier.exact_oracle", "s"),
        "verifier.scan.speedup": speedup,
        "cli.serialize.s": get("cli.serialize", "s"),
        "cli.output_bytes": output_bytes,
        "trace.overhead_pct": 100 * overhead,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v["self_s"] for name, v in summary.items() if name.split(".")[0] == layer)
    out["trace.busy_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    return out


def _result(checked: Checked, metrics: dict, units: dict, *, rounds: int) -> dict:
    total = checked.total
    return {
        "correct": total.wrong == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "rounds": rounds,
        "reasons": dict(total.reasons),
        "mismatches": checked.mismatches,
    }


def environment(workload: str, seed: int, trace: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"workload": workload, "seed": seed, "trace": trace, "git_sha": sha,
            "python": platform.python_version(), "nproc": os.cpu_count()}


def run_one(workload: str, seed: int, seconds: float, trace: int, oracle: Oracle) -> dict:
    env = environment(workload, seed, trace)
    result = (traced if trace else end_to_end)(workload, seed, seconds, oracle)
    with open(OUT / f"result-{workload}-trace{trace}.json", "w") as f:
        json.dump({"environment": env, **result}, f, indent=1)
    print(f"# {json.dumps(env)}")
    print(f"# {workload} trace={trace}: {result['rounds']} rounds, "
          f"{result['attempted']} checks attempted, {result['failed']} failed")
    for reason, count in sorted(result["reasons"].items()):
        print(f"#   failed: {count} x {reason}")
    for line in result["mismatches"]:
        print(f"# MISMATCH {line}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lehmer_congruences" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    oracle = Oracle()
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace, oracle)
        print(json.dumps({k: result[k] for k in keys}))
        return 0
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_one(workload, args.seed, args.seconds, trace, oracle)
            print(json.dumps({k: result[k] for k in keys}))
            results[workload, trace] = result
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for (_, t), r in results.items() if t == 0),
        "failed": sum(r["failed"] for (_, t), r in results.items() if t == 0),
        "metrics": {f"{w}/{name}": m for (w, _), r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
