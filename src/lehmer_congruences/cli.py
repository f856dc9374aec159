"""Command line interface.

Six subcommands: verify (one check), scan (a range of n), counterexample
(first failure in a residue class), and the raw computations bernoulli, fq
and sum.  Reports serialize as JSON lines, CSV or aligned text; every
potentially large integer is rendered as a decimal string so consumers
never lose precision to floating point.  A JSON row is written field by
field; the json module is imported only to escape a skip reason, to parse
a row back, and for the raw-value records.

Exit status: 0 when everything asked for held (or the value was computed),
1 when a checked congruence failed, a computational limit was hit, a scan
skipped a row, checked nothing or lost a worker process, no counterexample
was found in range, or standard output was closed before all of it was
written, and 2 on usage errors.

A process runs main through run, which ends it without the interpreter's
teardown; main itself returns its exit status to any caller.

Only argparse, atexit, io, os, sys and errors are imported with this
module, so a process that stops at its arguments (--help, a usage error)
compiles no layer.  A command loads only the layer it calls: verifier for
verify, scan and counterexample, quotients for fq, sums for sum, and
bernoulli for bernoulli and --bernoulli-cap.  The layer's names are bound
here then, or on their first read (cli.verify, say); a name already bound
is kept, so a wrapper set here before (bench/tracer.py wraps verify,
scan, fermat_quotient and bernoulli_number) is what runs.
"""

from __future__ import annotations

import argparse
import atexit
import io
import os
import sys
from math import inf

from .errors import (
    DEFAULT_MAX_INDEX,
    HALF,
    CongruenceError,
    OracleDivergence,
    PreconditionError,
    _layers,
)

TYPE_CHECKING = False  # typing is not imported for this alone
if TYPE_CHECKING:
    from typing import NoReturn

    from .bernoulli import BernoulliCache
    from .report import CongruenceReport, IdentityId

__all__ = [
    "build_parser",
    "main",
    "parse_report_json",
    "report_to_dict",
    "run",
    "serialize_report",
    "serialize_reports",
]

_PARAM_COLUMNS = ("n", "a", "p", "d", "alpha")
_CSV_COLUMNS = ("identity",) + _PARAM_COLUMNS + (
    "modulus",
    "lhs",
    "rhs",
    "holds",
    "skipped_reason",
    "valuation",
    "required",
)

_IDENTITY_HELP = """\
identity codes:
  lehmer-half   half-range harmonic sum mod p^2 (odd primes, includes p = 3)
  cai           the same congruence at every odd n >= 3, prime or not
  lehmer-p3/p4/p6   the d-sums at prime modulus p^2 (p >= 5)
  thm3/thm4/thm6    the d-sums at any n with gcd(n, 6) = 1
  lemma1        phi(p^alpha) vs p^alpha B_{phi(p^{2 alpha})}, p-adically
  lemma2        localized d-sum mod p^{2 alpha}; needs --d and --p
  lemma3        quotient lift q_{n^2} from q_n; needs --a
  lemma4        localization of 2 q_n - n q_n^2; needs --a and --p
  moebius       divisor rearrangement of the d-sum; needs --d and --p
"""


def report_to_dict(report: CongruenceReport) -> dict:
    """The JSON shape of a report; big integers become decimal strings."""
    obj: dict = {
        "identity": report.identity.value,
        "params": {k: report.params[k] for k in _PARAM_COLUMNS if k in report.params},
    }
    if report.modulus is not None:
        obj["modulus"] = str(report.modulus)
    if report.lhs is not None:
        obj["lhs"] = str(report.lhs.rep)
    if report.rhs is not None:
        obj["rhs"] = str(report.rhs.rep)
    if report.holds is not None:
        obj["holds"] = report.holds
    if report.skipped_reason is not None:
        obj["skipped_reason"] = report.skipped_reason
    if report.valuation is not None:
        obj["valuation"] = "inf" if report.valuation == inf else report.valuation
    if report.required is not None:
        obj["required"] = report.required
    return obj


def parse_report_json(line: str) -> CongruenceReport:
    """Rebuild a report from one serialized JSON line (the round trip)."""
    import json  # only here and for raw values: report rows are written directly

    from .arith import Residue
    from .report import CongruenceReport, IdentityId

    obj = json.loads(line)
    identity = IdentityId(obj["identity"])
    params = {key: int(value) for key, value in obj["params"].items()}
    modulus = int(obj["modulus"]) if "modulus" in obj else None
    lhs = Residue(int(obj["lhs"]), modulus) if "lhs" in obj else None
    rhs = Residue(int(obj["rhs"]), modulus) if "rhs" in obj else None
    valuation: int | float | None = None
    if "valuation" in obj:
        valuation = inf if obj["valuation"] == "inf" else int(obj["valuation"])
    return CongruenceReport(
        identity=identity,
        params=params,
        modulus=modulus,
        lhs=lhs,
        rhs=rhs,
        holds=obj.get("holds"),
        skipped_reason=obj.get("skipped_reason"),
        valuation=valuation,
        required=obj.get("required"),
    )


def _csv_row(report: CongruenceReport) -> list[str]:
    """report_to_dict flattened into _CSV_COLUMNS; absent fields are empty.

    Strings stay as they are; ints and booleans print as in JSON.
    """
    obj = report_to_dict(report)
    flat = {**obj.pop("params"), **obj}
    cells = (flat.get(key, "") for key in _CSV_COLUMNS)
    return [
        cell if isinstance(cell, str)
        else "true" if cell is True else "false" if cell is False else str(cell)
        for cell in cells
    ]


def _json_line(report: CongruenceReport) -> str:
    """report_to_dict(report) as one compact JSON line, written field by field.

    The bytes are those of json.JSONEncoder(separators=(",", ":")) on that
    dict.  Every field but skipped_reason is an identity code, a decimal
    string, an int or a bool, none of which needs escaping, so json is
    imported only to escape a skip reason.
    """
    params = report.params
    line = '{"identity":"%s","params":{%s}' % (
        report.identity._value_,  # .value is an enum property, several times slower
        ",".join([f'"{key}":{params[key]}' for key in _PARAM_COLUMNS if key in params]),
    )
    if report.modulus is not None:
        line += f',"modulus":"{report.modulus}"'
    if report.lhs is not None:
        line += f',"lhs":"{report.lhs.rep}"'
    if report.rhs is not None:
        line += f',"rhs":"{report.rhs.rep}"'
    if report.holds is not None:
        line += ',"holds":true' if report.holds else ',"holds":false'
    if report.skipped_reason is not None:
        import json

        line += ',"skipped_reason":' + json.dumps(report.skipped_reason)
    if report.valuation is not None:
        valuation = '"inf"' if report.valuation == inf else report.valuation
        line += f',"valuation":{valuation}'
    if report.required is not None:
        line += f',"required":{report.required}'
    return line + "}\n"


# the row of one report in each format; a scan share renders its own rows
_RENDERERS = {"json": _json_line, "csv": _csv_row, "text": _csv_row}


def _document(rows: list, fmt: str) -> str:
    """The rendered rows of fmt, in order, as one complete document."""
    if fmt == "json":
        return "".join(rows)
    if fmt == "csv":
        import csv  # only here: the module is not loaded for json or text output

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerows(rows)
        return buffer.getvalue()
    # text: columns aligned over every row, an absent field shown as "-"
    table = [_CSV_COLUMNS, *([cell or "-" for cell in row] for row in rows)]
    widths = [max(map(len, column)) for column in zip(*table)]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n"
        for row in table
    )


def serialize_reports(reports: list[CongruenceReport], fmt: str = "json") -> str:
    """A complete document for a batch of reports in the requested format."""
    if fmt not in _RENDERERS:
        raise PreconditionError(f"unknown format {fmt!r}")
    return _document(list(map(_RENDERERS[fmt], reports)), fmt)


def serialize_report(report: CongruenceReport, fmt: str = "json") -> str:
    """One report in the requested format (a one-line document for json)."""
    return serialize_reports([report], fmt)


def _resolve_identity(code: str, d: int | None) -> IdentityId:
    """The identity a code names; whether it takes d is the table's rule."""
    _load("verifier")
    code = code.lower()
    if code == "lemma2":
        if d is None:
            raise PreconditionError("lemma2 needs --d 3, 4 or 6")
        return IdentityId(f"lemma2-d{d}")
    try:
        return IdentityId(code)
    except ValueError:
        raise PreconditionError(
            f"unknown identity {code!r}; see --help for the code table"
        ) from None


def _workers(text: str) -> int:
    """The --workers value: an int of at least 1."""
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {workers}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lehmer-congruences",
        description="Verify Fermat-quotient congruences for restricted inverse sums.",
        epilog=_IDENTITY_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # each subcommand takes exactly the flags it reads, from these parents
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
        help="output format (default: text)",
    )
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument(
        "--bernoulli-cap", type=int, default=None,
        help=f"largest Bernoulli index that may be computed (default: {DEFAULT_MAX_INDEX}); "
        "only the bernoulli command and the lemma1 identity read Bernoulli numbers, "
        "so verify and scan refuse the flag for any other identity",
    )
    # verify and scan share every flag but the values they check
    check = argparse.ArgumentParser(add_help=False)
    check.add_argument("--identity", required=True)
    check.add_argument("--a", type=int)
    check.add_argument("--p", type=int)
    check.add_argument("--d", type=int, choices=(3, 4, 6))
    check.add_argument("--alpha", type=int)
    check.add_argument(
        "--workers", type=_workers, default=1,
        help="processes a scan deals its values to, at most the usable CPUs "
        "(default: 1); verify accepts and ignores it, so that one argument "
        "list serves verify and scan",
    )
    check.add_argument(
        "--exact-oracle", action="store_true",
        help="recompute every check over the exact rationals and compare",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[fmt, cap, check], help="run one check")
    p_verify.add_argument("--n", type=int)

    p_scan = sub.add_parser(
        "scan", parents=[fmt, cap, check], help="check a range of n (of p for lemma1)"
    )
    p_scan.add_argument("--from", dest="n_from", type=int, required=True)
    p_scan.add_argument("--to", dest="n_to", type=int, required=True)

    p_counter = sub.add_parser(
        "counterexample", parents=[fmt],
        help="find the first failure in a residue class mod 6",
    )
    p_counter.add_argument("--identity", required=True)
    p_counter.add_argument(
        "--class", dest="residue_class", type=int, required=True,
        choices=range(6), help="residue class of n mod 6",
    )
    p_counter.add_argument("--to", dest="n_to", type=int, default=1000)

    p_bernoulli = sub.add_parser(
        "bernoulli", parents=[fmt, cap], help="print the exact Bernoulli number B_m"
    )
    p_bernoulli.add_argument("--m", type=int, required=True)

    p_fq = sub.add_parser(
        "fq", parents=[fmt], help="print the exact Fermat quotient q_n(a)"
    )
    p_fq.add_argument("--n", type=int, required=True)
    p_fq.add_argument("--a", type=int, required=True)

    p_sum = sub.add_parser(
        "sum", parents=[fmt], help="print one restricted inverse sum"
    )
    p_sum.add_argument("--n", type=int, required=True)
    p_sum.add_argument("--d", required=True, choices=("3", "4", "6", HALF))
    p_sum.add_argument("--p", type=int, help="localize a d-sum at this prime")

    return parser


_load, __getattr__ = _layers(globals(), {
    "bernoulli": ("BernoulliCache", "bernoulli_number"), "quotients": ("fermat_quotient",),
    "sums": ("half_harmonic", "lehmer_sum", "lemma2_sum"),
    "verifier": ("IdentityId", "counterexample_search", "scan", "verify"),
})


def _make_cache(args: argparse.Namespace) -> BernoulliCache | None:
    if args.bernoulli_cap is None:
        return None  # the shared cache applies
    _load("bernoulli")
    return BernoulliCache(max_index=args.bernoulli_cap)


def _emit_record(record: dict, text: str, fmt: str) -> None:
    """One flat record: a JSON object, a CSV header and row, or its text form."""
    if fmt == "json":
        import json

        print(json.dumps(record, separators=(",", ":")))
    elif fmt == "csv":
        print(",".join(record))
        print(",".join(str(value) for value in record.values()))
    else:
        print(text)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command in ("verify", "scan"):
        identity = _resolve_identity(args.identity, args.d)
        given = dict(
            a=args.a, p=args.p, d=args.d, alpha=args.alpha,
            cache=_make_cache(args), exact_oracle=args.exact_oracle,
        )
        if args.command == "verify":
            report = verify(identity, n=args.n, **given)
            sys.stdout.write(serialize_report(report, args.format))
            return 0 if report.holds else 1
        rows = scan(
            identity, args.n_from, args.n_to,
            workers=args.workers, render=_RENDERERS[args.format], **given,
        )
        sys.stdout.write(_document([row for row, _ in rows], args.format))
        return 0 if rows and all(held for _, held in rows) else 1
    if args.command == "counterexample":
        identity = _resolve_identity(args.identity, None)
        trail = counterexample_search(identity, args.residue_class, n_to=args.n_to)
        sys.stdout.write(serialize_reports(trail, args.format))
        return 0
    if args.command == "bernoulli":
        _load("bernoulli")
        value = str(bernoulli_number(args.m, _make_cache(args)))
        _emit_record({"m": args.m, "value": value}, value, args.format)
        return 0
    if args.command == "fq":
        _load("quotients")
        value = str(fermat_quotient(args.n, args.a))
        _emit_record({"n": args.n, "a": args.a, "value": value}, value, args.format)
        return 0
    if args.command == "sum":
        _load("sums")
        if args.d == HALF:
            if args.p is not None:
                raise PreconditionError("--p localizes a d-sum; --d half takes none")
            value = half_harmonic(args.n)
        elif args.p is not None:
            value = lemma2_sum(args.n, args.p, int(args.d))
        else:
            value = lehmer_sum(args.n, int(args.d))
        record = {"rep": str(value.rep), "modulus": str(value.modulus)}
        _emit_record(record, str(value), args.format)
        return 0
    raise PreconditionError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    # output is exact at any size; the caller's int-to-str limit comes back
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return _dispatch(args)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code
        return code if isinstance(code, int) else 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleDivergence as exc:
        print(f"oracle divergence: {exc}", file=sys.stderr)
        return 1
    except CongruenceError as exc:  # a limit, an exhausted search, a lost worker
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _watched() -> bool:
    """Whether a tracer, profiler or debugger watches this process."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    # from Python 3.12 cProfile (and pdb's monitoring backend) hook in
    # through sys.monitoring, not through a profile or trace function
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None
        for tool in (monitoring.DEBUGGER_ID, monitoring.PROFILER_ID)
    )


def _drop_if_broken(stream) -> None:
    """Point stream at os.devnull if its reader has gone, dropping what it holds."""
    if stream is None:
        return
    try:
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def run() -> NoReturn:
    """The process entry: main() on sys.argv, then the end of the process.

    Once the atexit handlers have run (once, as at a normal exit) and the
    output is flushed, os._exit ends the process: the final collection and
    the clearing of every module are skipped, and the OS takes the memory
    back at once.  A normal exit remains where something watches or owns the
    end: an exception from main (its traceback and status are unchanged),
    a tracer, profiler or debugger (a trace or profile function, or a
    sys.monitoring tool), or a standard stream that is None.  A reader of
    stdout or stderr that has gone gives status 1 and, where stderr can
    still be written, one error line; only the stream that broke loses
    what it still holds.
    """
    try:
        code = main()
        if _watched() or sys.stdout is None or sys.stderr is None:
            sys.exit(code)
        atexit._run_exitfuncs()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError as exc:
        if sys.stderr is not None:
            try:
                print(f"error: output not written: {exc}", file=sys.stderr)
            except OSError:
                pass
        _drop_if_broken(sys.stdout)
        _drop_if_broken(sys.stderr)
        sys.exit(1)
    os._exit(code)

if __name__ == "__main__":
    run()
