"""Command line interface.

Six subcommands: verify (one check), scan (a range of n), counterexample
(first failure in a residue class), and the raw computations bernoulli, fq
and sum.  Reports serialize as JSON lines, CSV or aligned text; every
potentially large integer is rendered as a decimal string so consumers
never lose precision to floating point.

Exit status: 0 when everything asked for held (or the value was computed),
1 when a checked congruence failed, a computational limit was hit, or no
counterexample was found in range, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from math import inf

from .arith import Residue
from .bernoulli import BernoulliCache, bernoulli_number
from .errors import (
    FactorizationLimitExceeded,
    IndexCapExceeded,
    NoCounterexampleInRange,
    OracleDivergence,
    PreconditionError,
)
from .quotients import fermat_quotient
from .report import CongruenceReport, IdentityId
from .sums import HALF, half_harmonic, lehmer_sum, lemma2_sum
from .verifier import IDENTITIES, counterexample_search, scan, verify

__all__ = [
    "build_parser",
    "main",
    "parse_report_json",
    "report_to_dict",
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
  cai           the same congruence at odd composite n
  lehmer-p3/p4/p6   the d-sums at prime modulus p^2 (p >= 5)
  thm3/thm4/thm6    the d-sums at any n with gcd(n, 6) = 1
  lemma1        phi(p^alpha) vs p^alpha B_{phi(p^{2 alpha})}, p-adically
  lemma2        localized d-sum mod p^{2 alpha}; needs --d and --p
  lemma3        quotient lift q_{n^2} from q_n; needs --a
  lemma4        localization of 2 q_n - n q_n^2; needs --a and --p
  moebius       divisor rearrangement of the d-sum; needs --d and --p

environment: CONGRUENCE_BERNOULLI_CAP caps the Bernoulli table (default 600);
the --bernoulli-cap flag overrides it.
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
    row = [report.identity.value]
    for key in _PARAM_COLUMNS:
        row.append(str(report.params[key]) if key in report.params else "")
    row.append("" if report.modulus is None else str(report.modulus))
    row.append("" if report.lhs is None else str(report.lhs.rep))
    row.append("" if report.rhs is None else str(report.rhs.rep))
    if report.holds is None:
        row.append("")
    else:
        row.append("true" if report.holds else "false")
    row.append(report.skipped_reason or "")
    if report.valuation is None:
        row.append("")
    else:
        row.append("inf" if report.valuation == inf else str(report.valuation))
    row.append("" if report.required is None else str(report.required))
    return row


def serialize_reports(reports: list[CongruenceReport], fmt: str = "json") -> str:
    """A complete document for a batch of reports in the requested format."""
    if fmt == "json":
        return "".join(
            json.dumps(report_to_dict(r), separators=(",", ":")) + "\n"
            for r in reports
        )
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for report in reports:
            writer.writerow(_csv_row(report))
        return buffer.getvalue()
    if fmt == "text":
        rows = [list(_CSV_COLUMNS)] + [_csv_row(r) for r in reports]
        for row in rows:
            for i, cell in enumerate(row):
                if cell == "":
                    row[i] = "-"
        widths = [max(len(row[i]) for row in rows) for i in range(len(_CSV_COLUMNS))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        return "\n".join(lines) + "\n"
    raise PreconditionError(f"unknown format {fmt!r}")


def serialize_report(report: CongruenceReport, fmt: str = "json") -> str:
    """One report in the requested format (a one-line document for json)."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), separators=(",", ":")) + "\n"
    return serialize_reports([report], fmt)


def _resolve_identity(code: str, d: int | None) -> IdentityId:
    code = code.lower()
    if code == "lemma2":
        if d not in (3, 4, 6):
            raise PreconditionError("lemma2 needs --d 3, 4 or 6")
        return IdentityId(f"lemma2-d{d}")
    try:
        identity = IdentityId(code)
    except ValueError:
        raise PreconditionError(
            f"unknown identity {code!r}; see --help for the code table"
        ) from None
    embedded = IDENTITIES[identity].d
    if embedded is not None and d is not None and d != embedded:
        raise PreconditionError(f"--d {d} conflicts with identity {code}")
    return identity


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lehmer-congruences",
        description="Verify Fermat-quotient congruences for restricted inverse sums.",
        epilog=_IDENTITY_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for scans (default: 1)",
    )
    common.add_argument(
        "--bernoulli-cap", type=int, default=None,
        help="cap on Bernoulli indices; overrides the environment",
    )
    common.add_argument(
        "--exact-oracle", action="store_true",
        help="recompute every check over the exact rationals and compare",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="run one check")
    p_verify.add_argument("--identity", required=True)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--a", type=int)
    p_verify.add_argument("--p", type=int)
    p_verify.add_argument("--d", type=int, choices=(3, 4, 6))
    p_verify.add_argument("--alpha", type=int)

    p_scan = sub.add_parser("scan", parents=[common], help="check a range of n")
    p_scan.add_argument("--identity", required=True)
    p_scan.add_argument("--from", dest="n_from", type=int, required=True)
    p_scan.add_argument("--to", dest="n_to", type=int, required=True)
    p_scan.add_argument("--a", type=int)
    p_scan.add_argument("--p", type=int)
    p_scan.add_argument("--d", type=int, choices=(3, 4, 6))
    p_scan.add_argument("--alpha", type=int)

    p_counter = sub.add_parser(
        "counterexample", parents=[common],
        help="find the first failure in a residue class mod 6",
    )
    p_counter.add_argument("--identity", required=True)
    p_counter.add_argument(
        "--class", dest="residue_class", type=int, required=True,
        choices=range(6), help="residue class of n mod 6",
    )
    p_counter.add_argument("--to", dest="n_to", type=int, default=1000)

    p_bernoulli = sub.add_parser(
        "bernoulli", parents=[common], help="print the exact Bernoulli number B_m"
    )
    p_bernoulli.add_argument("--m", type=int, required=True)

    p_fq = sub.add_parser(
        "fq", parents=[common], help="print the exact Fermat quotient q_n(a)"
    )
    p_fq.add_argument("--n", type=int, required=True)
    p_fq.add_argument("--a", type=int, required=True)

    p_sum = sub.add_parser(
        "sum", parents=[common], help="print one restricted inverse sum"
    )
    p_sum.add_argument("--n", type=int, required=True)
    p_sum.add_argument("--d", required=True, help="3, 4, 6 or half")
    p_sum.add_argument("--p", type=int)

    return parser


def _make_cache(args: argparse.Namespace) -> BernoulliCache | None:
    if args.bernoulli_cap is None:
        return None  # the shared cache applies, honoring the environment
    return BernoulliCache(max_index=args.bernoulli_cap)


def _emit_residue(value: Residue, fmt: str) -> None:
    if fmt == "json":
        obj = {"rep": str(value.rep), "modulus": str(value.modulus)}
        print(json.dumps(obj, separators=(",", ":")))
    elif fmt == "csv":
        print("rep,modulus")
        print(f"{value.rep},{value.modulus}")
    else:
        print(value)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "verify":
        identity = _resolve_identity(args.identity, args.d)
        report = verify(
            identity,
            n=args.n,
            a=args.a,
            p=args.p,
            d=args.d,
            alpha=args.alpha,
            cache=_make_cache(args),
            exact_oracle=args.exact_oracle,
        )
        sys.stdout.write(serialize_report(report, args.format))
        return 0 if report.holds else 1
    if args.command == "scan":
        identity = _resolve_identity(args.identity, args.d)
        reports = scan(
            identity,
            args.n_from,
            args.n_to,
            a=args.a,
            p=args.p,
            d=args.d,
            alpha=args.alpha,
            workers=args.workers,
            cache=_make_cache(args),
            exact_oracle=args.exact_oracle,
        )
        sys.stdout.write(serialize_reports(reports, args.format))
        return 1 if any(r.holds is False for r in reports) else 0
    if args.command == "counterexample":
        identity = _resolve_identity(args.identity, None)
        trail = counterexample_search(
            identity,
            args.residue_class,
            n_to=args.n_to,
            cache=_make_cache(args),
        )
        sys.stdout.write(serialize_reports(trail, args.format))
        return 0
    if args.command == "bernoulli":
        value = bernoulli_number(args.m, _make_cache(args))
        if args.format == "json":
            print(json.dumps({"m": args.m, "value": str(value)}, separators=(",", ":")))
        elif args.format == "csv":
            print("m,value")
            print(f"{args.m},{value}")
        else:
            print(value)
        return 0
    if args.command == "fq":
        quotient = fermat_quotient(args.n, args.a)
        if args.format == "json":
            obj = {"n": quotient.n, "a": quotient.a, "value": str(quotient.value)}
            print(json.dumps(obj, separators=(",", ":")))
        elif args.format == "csv":
            print("n,a,value")
            print(f"{quotient.n},{quotient.a},{quotient.value}")
        else:
            print(quotient.value)
        return 0
    if args.command == "sum":
        if args.d == HALF:
            value = half_harmonic(args.n)
        else:
            try:
                d = int(args.d)
            except ValueError:
                raise PreconditionError(
                    f"--d must be 3, 4, 6 or half, got {args.d!r}"
                ) from None
            if args.p is not None:
                value = lemma2_sum(args.n, args.p, d)
            else:
                value = lehmer_sum(args.n, d)
        _emit_residue(value, args.format)
        return 0
    raise PreconditionError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _dispatch(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IndexCapExceeded, FactorizationLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NoCounterexampleInRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OracleDivergence as exc:
        print(f"oracle divergence: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
