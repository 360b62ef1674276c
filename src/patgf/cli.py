"""Command-line front end.

Verbs: count, series, gf, verify, table.  Pattern syntax: compact digits
("132") or comma-separated values ("10,1,2,..."); "eps" is the empty pattern;
sets are semicolon-separated.  The census bound is `perms.DEFAULT_MAX_N`
unless `--max-n` overrides it; `verify --max-n` is its census length and bound.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 feasibility refusal, 4 engine error, 5 internal error or closed output
(reported on stderr; never 1, which means only that a check failed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import traceback

from .engine import avoid_contain_gf, u2k_both_once_gf, ulk_avoid_gf, ulk_exact_once_gf
from .errors import LengthTooLarge, ParseError, PatgfError
from .perms import (MAX_WORKERS, PATTERN_132, PatternQuery, census, census_series, parse_pattern,
                    parse_pattern_set)
from .verify import SUITE_NAMES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3
EXIT_ENGINE = 4
EXIT_INTERNAL = 5


def _int_at_least(least: int, most: int | None = None):
    """An argparse type: an integer no smaller than `least` (and, given
    `most`, no larger)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value
    return parse


_COUNT = _int_at_least(0)
_WORKERS = _int_at_least(1, MAX_WORKERS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patgf",
        description="Exact generating functions for pattern-restricted permutations.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_query_flags(p, with_n):
        p.add_argument("--avoid", default="", help="semicolon-separated avoid set")
        p.add_argument("--exactly-once", default="", dest="exactly_once",
                       help="patterns required exactly once")
        p.add_argument("--at-least-once", default="", dest="at_least_once",
                       help="patterns required at least once")
        p.add_argument("--implicit-132", action="store_true", dest="implicit_132",
                       help="adjoin 132 to the avoid set (engine semantics)")
        p.add_argument("--workers", type=_WORKERS, default=1)
        p.add_argument("--max-n", type=_COUNT, default=None, dest="max_n",
                       help="override the census feasibility bound")
        if with_n:
            p.add_argument("--n", type=_COUNT, required=True)
        else:
            p.add_argument("--order", type=_COUNT, default=10)
        p.add_argument("--json", action="store_true")

    p_count = sub.add_parser("count", help="exhaustive census count at one length")
    add_query_flags(p_count, with_n=True)

    p_series = sub.add_parser("series", help="census counts for lengths 0..order")
    add_query_flags(p_series, with_n=False)

    p_gf = sub.add_parser("gf", help="closed forms and recurrence-engine results")
    p_gf.add_argument("source", choices=["catalog:ulk", "catalog:ulk-once",
                                         "catalog:u2k-both", "recurrence"])
    p_gf.add_argument("--k", type=int)
    p_gf.add_argument("--l", type=int)
    p_gf.add_argument("--t", help="distinguished pattern for catalog:ulk-once")
    p_gf.add_argument("--avoid")
    p_gf.add_argument("--exactly-once", dest="exactly_once")
    p_gf.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run self-verification suites")
    p_verify.add_argument("--suite", required=True, choices=list(SUITE_NAMES) + ["all"])
    p_verify.add_argument("--order", type=_int_at_least(1), default=16)
    p_verify.add_argument("--max-n", type=_COUNT, default=9, dest="max_n",
                          help="census length of the oracle and recurrence suites, "
                               "and the census bound for them")
    p_verify.add_argument("--workers", type=_WORKERS, default=1)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--out", help="also write the JSON report to a file")

    p_table = sub.add_parser("table", help="series tables for the closed-form families")
    p_table.add_argument("--family", required=True,
                         choices=["ulk", "ulk-once", "u2k-both"])
    p_table.add_argument("--k", type=int, required=True)
    p_table.add_argument("--k-max", type=int, default=None, dest="k_max")
    p_table.add_argument("--l", type=int)
    p_table.add_argument("--order", type=_COUNT, default=10)
    p_table.add_argument("--json", action="store_true")
    return parser


def _parse_query(args) -> PatternQuery:
    return PatternQuery(
        avoid=parse_pattern_set(args.avoid) + ((PATTERN_132,) if args.implicit_132 else ()),
        exactly_once=parse_pattern_set(args.exactly_once),
        at_least_once=parse_pattern_set(args.at_least_once),
    )


def _cmd_count(args) -> int:
    query = _parse_query(args)
    value = census(query, args.n, bound=args.max_n, workers=args.workers)
    print(json.dumps({"count": str(value)}) if args.json else value)
    return EXIT_OK


def _cmd_series(args) -> int:
    query = _parse_query(args)
    values = census_series(query, args.order, bound=args.max_n, workers=args.workers)
    if args.json:
        print(json.dumps({"coefficients": [str(v) for v in values]}))
    else:
        print(",".join(str(v) for v in values))
    return EXIT_OK


# Each catalog family: its generating function and the flags it reads, in
# the order the function takes them.  --t is the only optional one.
_FAMILIES = {
    "ulk": (ulk_avoid_gf, ("k", "l")),
    "ulk-once": (ulk_exact_once_gf, ("k", "l", "t")),
    "u2k-both": (u2k_both_once_gf, ("k",)),
}


def _reject_unread(args, reads, user: str) -> None:
    """Giving a flag that `user` does not read is an error."""
    for name in ("k", "l", "t", "avoid", "exactly_once"):
        if name not in reads and getattr(args, name, None) is not None:
            flag = "--" + name.replace("_", "-")
            raise ParseError(f"{flag} is not used by {user}")


def _catalog_gf(family: str, args, k, user: str):
    """The catalog family's generating function at k, from the flags it reads.
    A missing flag is an error that names `user`, the source or family given."""
    form, reads = _FAMILIES[family]
    values = {"k": k, "l": args.l, "t": getattr(args, "t", None)}
    for name in reads:
        if values[name] is None and name != "t":
            raise ParseError(f"--{name} is required by {user}")
    if values["t"] is not None:
        values["t"] = parse_pattern(values["t"])
    return form(*(values[name] for name in reads))


def _cmd_gf(args) -> int:
    if args.source == "recurrence":
        _reject_unread(args, ("avoid", "exactly_once"), args.source)
        value = avoid_contain_gf(parse_pattern_set(args.avoid or ""),
                                 parse_pattern_set(args.exactly_once or ""))
        provenance = "recurrence"
    else:
        family = args.source.removeprefix("catalog:")
        _reject_unread(args, _FAMILIES[family][1], args.source)
        value = _catalog_gf(family, args, args.k, args.source)
        provenance = "catalog"
    if args.json:
        payload = value.to_json_dict()
        payload["provenance"] = provenance
        print(json.dumps(payload))
    else:
        print(value.render())
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_suites([args.suite], order=args.order, max_n=args.max_n,
                        workers=args.workers)
    text = json.dumps(report, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ParseError(f"cannot write --out {args.out}: {exc.strerror}") from None
    if args.json:
        print(text)
    else:
        for suite, checks in report["suites"].items():
            for check in checks:
                line = f"[{check['status'].upper():4}] {suite}: {check['name']}"
                print(line)
                if check["status"] != "pass":
                    print(f"       expected: {check['expected']}")
                    print(f"       actual:   {check['actual']}")
                if check.get("note"):
                    print(f"       note: {check['note']}")
        print("all checks passed" if report["passed"] else "some checks FAILED")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def _cmd_table(args) -> int:
    k_last = args.k_max if args.k_max is not None else args.k
    if k_last < args.k:
        raise ParseError(f"--k-max must be at least --k ({args.k}), got {k_last}")
    user = f"--family {args.family}"
    _reject_unread(args, _FAMILIES[args.family][1], user)
    rows = []
    for k in range(args.k, k_last + 1):
        f = _catalog_gf(args.family, args, k, user)
        params = {"k": k} if args.l is None else {"k": k, "l": args.l}
        coeffs = f.series(args.order).as_ints()
        rows.append({"params": params, "coefficients": [str(c) for c in coeffs]})
    if args.json:
        print(json.dumps({"family": args.family, "rows": rows}))
    else:
        for row in rows:
            label = ",".join(f"{key}={val}" for key, val in row["params"].items())
            print(f"{label}: " + ",".join(row["coefficients"]))
    return EXIT_OK


_DISPATCH = {
    "count": _cmd_count,
    "series": _cmd_series,
    "gf": _cmd_gf,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built on first use, once per process
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = _DISPATCH[args.verb](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # point stdout's descriptor, if any, at devnull: the flush at exit
        # then does not fail again (the advice of the `signal` docs)
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print("error: output closed", file=sys.stderr)
        return EXIT_INTERNAL
    except LengthTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PatgfError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except Exception as exc:  # a defect: report it, and keep exit 1 for failed checks
        traceback.print_exc(limit=-5)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
