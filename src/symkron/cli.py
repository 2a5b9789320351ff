"""Command-line interface.

Subcommands:
    expand   print a named series as JSON in a chosen basis
    kron     Kronecker product of two series given as JSON (file or stdin)
    coef     a single Kronecker coefficient (pipeline or character oracle)
    verify   run the identity suite and report pass/fail per identity

Exit status: 0 on success, 1 when a verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from symkron import named, verify
from symkron.bases import from_p
from symkron.named import TAGS
from symkron.products import kronecker, kronecker_coefficient
from symkron.series import BASES, SymFunc


def _parse_partition(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a partition: {text!r}")
    return parts


def _read_series(path: str) -> SymFunc:
    if path == "-":
        return SymFunc.from_json(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return SymFunc.from_json(handle.read())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symkron",
        description="Exact symmetric-function series and the Kronecker identity suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print a named series as JSON")
    p_expand.add_argument("--series", required=True, choices=TAGS)
    p_expand.add_argument("--degree", required=True, type=int)
    p_expand.add_argument("--basis", default="p", choices=BASES)

    p_kron = sub.add_parser("kron", help="Kronecker product of two JSON series")
    p_kron.add_argument("--lhs", required=True, metavar="FILE|-")
    p_kron.add_argument("--rhs", required=True, metavar="FILE|-")

    p_coef = sub.add_parser("coef", help="one Kronecker coefficient")
    p_coef.add_argument("--lambda", dest="lam", required=True, type=_parse_partition,
                        metavar="A,B,...")
    p_coef.add_argument("--mu", required=True, type=_parse_partition, metavar="A,B,...")
    p_coef.add_argument("--rho", required=True, type=_parse_partition, metavar="A,B,...")
    p_coef.add_argument("--oracle", action="store_true",
                        help="use the independent character-sum route")

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("what", choices=("table", "intro", "support", "factors", "all"))
    p_verify.add_argument("--degree", type=int, default=10)
    p_verify.add_argument("--json", dest="json_path", metavar="PATH",
                          help="also write the reports as JSON to PATH")
    p_verify.add_argument("--parallel", action="store_true",
                          help="run independent identities in worker processes")
    return parser


def _cmd_expand(args) -> int:
    series = named.expand(args.series, args.degree)
    if args.basis != "p":
        series = from_p(series, args.basis)
    print(series.to_json())
    return 0


def _cmd_kron(args) -> int:
    if args.lhs == "-" and args.rhs == "-":
        print("error: only one of --lhs/--rhs may read stdin", file=sys.stderr)
        return 2
    lhs = _read_series(args.lhs)
    rhs = _read_series(args.rhs)
    print(kronecker(lhs, rhs).to_json())
    return 0


def _cmd_coef(args) -> int:
    print(kronecker_coefficient(args.lam, args.mu, args.rho, oracle=args.oracle))
    return 0


def _cmd_verify(args) -> int:
    degree = args.degree
    if degree < 0:
        raise ValueError(f"--degree must be non-negative, got {degree}")
    if args.what == "all":
        reports = verify.run_suite(degree, parallel=args.parallel)
    elif args.what == "table":
        reports = [verify.verify_table_entry(a, b, degree)
                   for a, b in verify.table_pairs()]
    elif args.what == "intro":
        reports = [verify.verify_intro_identity(degree)]
    elif args.what == "support":
        reports = [verify.verify_support_claims(degree)]
    else:
        reports = [verify.verify_factor_closed_forms(n, max(1, degree))
                   for n in range(1, 5)]

    for report in reports:
        print(f"{report.status.upper():4s} {report.identity}  "
              f"[degree {report.degree}] ({report.millis} ms)")
        if report.first_discrepancy is not None:
            d = report.first_discrepancy
            print(f"     first discrepancy at {list(d.partition)}: "
                  f"lhs={d.lhs} rhs={d.rhs}")
    failed = sum(1 for r in reports if not r.passed())
    print(f"{len(reports) - failed}/{len(reports)} identities verified")

    if args.json_path:
        payload = [r.to_json_dict() for r in reports]
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, ensure_ascii=False)
            handle.write("\n")
    return verify.suite_exit_status(reports)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "expand": _cmd_expand,
        "kron": _cmd_kron,
        "coef": _cmd_coef,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
