"""The ``utk`` command-line tool.

Batch commands over the library, one subcommand per area:

- ``enumerate``        stream shapes with n white leaves
- ``check``            is a given shape n-universal?
- ``build``            construct universal shapes / combs / tanglegrams
- ``search``           exhaustive minimal-universal-shape search
- ``mast``             agreement-subtree size of two shapes (or jellyfish)
- ``bounds``           table of the known size bounds
- ``tangle-enumerate`` stream tanglegram classes of a given size
- ``tangle-check``     is a given tanglegram n-universal?

Every command accepts ``--format json`` (``--json`` for short); the JSON
payloads are plain dicts whose keys are stable:

- enumerate: {n, d, redleaf, count, codes?}
- check:     {code, n, d, redleaf, white_leaves, universal}
- build:     {kind, n, d, white_leaves, code, newick, trace?} (tanglegram
             kind replaces code/newick with text and size)
- search:    the SearchReport fields (n, d, redleaf, u_value,
             minimal_shapes, candidates_examined, authoritative,
             limit_reason; wall_time only with --timing); with --chain a
             list of such reports
- mast:      {mast, left?, right?, jelly?}
- bounds:    {rows: [{n, u_known, u_upper, naive_upper, quad_upper,
             chung_lower, kalmar}]}
- tangle-*:  {n, d, count, tanglegrams?} / {text, n, universal}

Exit codes: 0 ok, 1 check failed, 2 usage/parse error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from utk.bounds import bound_table
from utk.constructions import (
    build_redleaf_comb,
    build_universal,
    build_universal_redleaf,
    build_universal_tanglegram,
    construction_trace,
)
from utk.embedding import jellyfish_mast, mast
from utk.search import SearchLimits, find_min_universal, find_min_universal_chain, is_universal
from utk.shapes import (
    JellyfishSpec,
    Shape,
    enumerate_shapes,
    parse_code,
    parse_newick,
    to_dot,
    to_newick,
)
from utk.tanglegrams import (
    enumerate_tanglegrams,
    format_tanglegram,
    is_universal_tanglegram,
    parse_tanglegram,
    tanglegram_dot,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE_LIMIT = 3


class _CliError(Exception):
    pass


def _write(text: str, path: str | None) -> None:
    if path and path != "-":
        Path(path).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _read_source(source: str) -> str:
    """Read from stdin (``-``), a file path, or treat the string as literal."""
    if source == "-":
        return sys.stdin.read()
    path = Path(source)
    try:
        is_file = path.exists()
    except OSError:  # e.g. a literal too long to be a file name
        is_file = False
    if is_file:
        return path.read_text()
    return source


def _parse_shape(text: str, arity: int) -> Shape:
    text = text.strip()
    try:
        if text.endswith(";") or "x" in text:
            return parse_newick(text, arity)
        return parse_code(text, arity)
    except ValueError as exc:
        raise _CliError(f"cannot parse shape: {exc}") from exc


def _dump(data: dict | list) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #


def _cmd_enumerate(args) -> int:
    shapes = list(enumerate_shapes(args.n, args.d, args.redleaf))
    if args.format == "json":
        payload = {"n": args.n, "d": args.d, "redleaf": args.redleaf, "count": len(shapes)}
        if not args.count:
            payload["codes"] = [s.code for s in shapes]
        _write(_dump(payload), args.output)
        return EXIT_OK
    if args.count:
        _write(str(len(shapes)), args.output)
        return EXIT_OK
    if args.format == "newick":
        _write("\n".join(to_newick(s) for s in shapes), args.output)
    else:
        _write("\n".join(s.code for s in shapes), args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    shape = _parse_shape(_read_source(args.shape), args.d)
    universal = is_universal(shape, args.n, args.d, args.redleaf)
    if args.format == "json":
        _write(
            _dump(
                {
                    "code": shape.code,
                    "n": args.n,
                    "d": args.d,
                    "redleaf": args.redleaf,
                    "white_leaves": shape.white_leaves,
                    "universal": universal,
                }
            ),
            args.output,
        )
    else:
        verdict = "universal" if universal else "NOT universal"
        _write(
            f"{shape.code} ({shape.white_leaves} white leaves) is {verdict} "
            f"for n={args.n}" + (" (redleaf)" if args.redleaf else ""),
            args.output,
        )
    return EXIT_OK if universal else EXIT_CHECK_FAILED


def _cmd_build(args) -> int:
    if args.kind == "tanglegram":
        tangle = build_universal_tanglegram(args.n, d=args.d)
        if args.format == "json":
            _write(
                _dump(
                    {
                        "kind": "tanglegram",
                        "n": args.n,
                        "d": args.d,
                        "size": tangle.size,
                        "text": format_tanglegram(tangle),
                    }
                ),
                args.output,
            )
        elif args.format == "dot":
            _write(tanglegram_dot(tangle), args.output)
        else:
            _write(format_tanglegram(tangle), args.output)
        return EXIT_OK

    if args.kind == "universal":
        shape = build_universal(args.n, args.d)
    elif args.kind == "redleaf":
        shape = build_universal_redleaf(args.n, args.d)
    else:  # comb: -n is the doubling-sequence depth k
        shape = build_redleaf_comb(args.n, args.d)
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "n": args.n,
            "d": args.d,
            "white_leaves": shape.white_leaves,
            "code": shape.code,
            "newick": to_newick(shape),
        }
        if args.trace and args.kind in ("universal", "redleaf"):
            payload["trace"] = construction_trace(args.n, args.d, args.kind == "redleaf")
        _write(_dump(payload), args.output)
    elif args.format == "newick":
        _write(to_newick(shape), args.output)
    elif args.format == "dot":
        _write(to_dot(shape), args.output)
    else:
        _write(shape.code, args.output)
    return EXIT_OK


def _report_dict(report, timing: bool) -> dict:
    payload = report.to_dict()
    if not timing:
        # keep identical invocations byte-identical
        payload.pop("wall_time")
    return payload


def _cmd_search(args) -> int:
    for name, value in (("--max-candidates", args.max_candidates),
                        ("--max-seconds", args.max_seconds)):
        if value is not None and not 0 < value < math.inf:  # nan fails both
            raise _CliError(f"{name} must be positive and finite")
    limits = None
    if args.max_candidates or args.max_seconds:
        limits = SearchLimits(args.max_candidates, args.max_seconds)
    if args.chain or args.table:
        reports = find_min_universal_chain(args.n, args.d, args.redleaf, limits)
        last = reports[-1]
        if args.format == "json":
            _write(_dump([_report_dict(r, args.timing) for r in reports]), args.output)
        elif args.table:
            ns = [str(r.n) for r in reports]
            kal = [str(row["kalmar"]) for row in bound_table(last.n)][: len(reports)]
            us = [str(r.u_value) if r.u_value else "?" for r in reports]
            width = max(len(x) for x in ns + kal + us) + 2
            head = "n".ljust(8) + "".join(x.rjust(width) for x in ns)
            row1 = "kalmar".ljust(8) + "".join(x.rjust(width) for x in kal)
            row2 = "u(n)".ljust(8) + "".join(x.rjust(width) for x in us)
            _write("\n".join((head, row1, row2)), args.output)
        else:
            lines = [
                f"n={r.n}: u={r.u_value} ({len(r.minimal_shapes)} minimal shapes)"
                for r in reports
            ]
            _write("\n".join(lines), args.output)
        return EXIT_OK if last.authoritative else EXIT_RESOURCE_LIMIT

    report = find_min_universal(args.n, args.d, args.redleaf, limits)
    if args.format == "json":
        _write(_dump(_report_dict(report, args.timing)), args.output)
    elif args.format == "codes":
        _write("\n".join(report.minimal_shapes), args.output)
    else:
        lines = [
            f"n={report.n} d={report.d}" + (" redleaf" if report.redleaf else ""),
            f"u = {report.u_value if report.u_value is not None else 'unknown'}",
            f"minimal shapes ({len(report.minimal_shapes)}):",
            *(f"  {code}" for code in report.minimal_shapes),
            f"candidates examined: {report.candidates_examined}",
        ]
        if args.timing:
            lines.append(f"wall time: {report.wall_time:.2f}s")
        if not report.authoritative:
            lines.append(f"PARTIAL RESULT: {report.limit_reason}")
        _write("\n".join(lines), args.output)
    return EXIT_OK if report.authoritative else EXIT_RESOURCE_LIMIT


def _cmd_mast(args) -> int:
    if args.jelly:
        specs = []
        for token in args.jelly:
            try:
                h, ell = (int(x) for x in token.split(","))
                specs.append(JellyfishSpec(h, ell))
            except ValueError as exc:
                raise _CliError(f"bad jellyfish spec {token!r}: {exc}") from exc
        value = jellyfish_mast(*specs)
        payload = {"mast": value, "jelly": [[s.h, s.ell] for s in specs]}
    else:
        if len(args.shapes) != 2:
            raise _CliError("mast needs two shapes (or --jelly h,l h,l)")
        left = _parse_shape(_read_source(args.shapes[0]), 2)
        right = _parse_shape(_read_source(args.shapes[1]), 2)
        value = mast(left, right)
        payload = {"mast": value, "left": left.code, "right": right.code}
    if args.format == "json":
        _write(_dump(payload), args.output)
    else:
        _write(str(value), args.output)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.to < 1:
        raise _CliError("--to must be at least 1")
    rows = bound_table(args.to)
    if args.format == "json":
        _write(_dump({"rows": rows}), args.output)
        return EXIT_OK
    columns = ["n", "u_known", "naive_upper", "quad_upper", "chung_lower", "kalmar"]
    if args.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join("" if row[c] is None else str(row[c]) for c in columns))
        _write("\n".join(lines), args.output)
        return EXIT_OK
    widths = {
        c: max(len(c), *(len(str(row[c])) if row[c] is not None else 1 for row in rows))
        for c in columns
    }
    lines = ["  ".join(c.rjust(widths[c]) for c in columns)]
    for row in rows:
        lines.append(
            "  ".join(
                ("-" if row[c] is None else str(row[c])).rjust(widths[c])
                for c in columns
            )
        )
    _write("\n".join(lines), args.output)
    return EXIT_OK


def _cmd_tangle_enumerate(args) -> int:
    classes = list(enumerate_tanglegrams(args.n, args.d))
    if args.format == "json":
        payload = {"n": args.n, "d": args.d, "count": len(classes)}
        if not args.count:
            payload["tanglegrams"] = [format_tanglegram(t) for t in classes]
        _write(_dump(payload), args.output)
        return EXIT_OK
    if args.count:
        _write(str(len(classes)), args.output)
        return EXIT_OK
    _write("\n".join(format_tanglegram(t) for t in classes), args.output)
    return EXIT_OK


def _cmd_tangle_check(args) -> int:
    try:
        tangle = parse_tanglegram(_read_source(args.tanglegram), args.d)
    except ValueError as exc:
        raise _CliError(f"cannot parse tanglegram: {exc}") from exc
    universal = is_universal_tanglegram(tangle, args.n)
    if args.format == "json":
        _write(
            _dump(
                {"text": format_tanglegram(tangle), "n": args.n, "universal": universal}
            ),
            args.output,
        )
    else:
        verdict = "universal" if universal else "NOT universal"
        _write(f"size-{tangle.size} tanglegram is {verdict} for n={args.n}", args.output)
    return EXIT_OK if universal else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #


def _add_common(parser, *, n_required=True, formats=("text", "json")):
    if n_required:
        parser.add_argument("-n", type=int, required=True, help="target size")
    parser.add_argument("-d", type=int, default=2, help="arity bound (default 2)")
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument(
        "--json", dest="format", action="store_const", const="json",
        help="shorthand for --format json",
    )
    parser.add_argument("-o", "--output", default=None, help="output file ('-' = stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="utk",
        description="Universal tree kit: shape enumeration, universality "
        "search, agreement subtrees, and tanglegrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream all shapes with n white leaves")
    _add_common(p, formats=("text", "json", "newick"))
    p.add_argument("--redleaf", action="store_true", help="shapes with one red leaf")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="test a shape for n-universality")
    p.add_argument("shape", help="canonical code / newick, a file, or '-'")
    _add_common(p)
    p.add_argument("--redleaf", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("build", help="build provably universal objects")
    _add_common(p, formats=("code", "json", "newick", "dot"))
    p.add_argument(
        "--kind", choices=("universal", "redleaf", "comb", "tanglegram"),
        default="universal",
        help="comb interprets -n as the doubling-sequence depth k",
    )
    p.add_argument("--trace", action="store_true", help="include a construction trace (json)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("search", help="exhaustive minimal-universal-shape search")
    _add_common(p, formats=("text", "json", "codes"))
    p.add_argument("--redleaf", action="store_true")
    p.add_argument("--chain", action="store_true", help="report every level 1..n")
    p.add_argument("--table", action="store_true", help="two-row comparison table")
    p.add_argument("--max-candidates", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument(
        "--timing", action="store_true",
        help="include wall time (breaks byte-identical reruns)",
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("mast", help="maximum agreement subtree size")
    p.add_argument("shapes", nargs="*", help="two shapes (codes, files, or '-')")
    p.add_argument(
        "--jelly", nargs=2, metavar="H,L",
        help="closed form for two jellyfish, e.g. --jelly 1,4 2,2",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--json", dest="format", action="store_const", const="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_mast)

    p = sub.add_parser("bounds", help="table of known bounds")
    p.add_argument("--to", type=int, required=True, help="last n of the table")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--json", dest="format", action="store_const", const="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("tangle-enumerate", help="stream tanglegram classes of size n")
    _add_common(p)
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=_cmd_tangle_enumerate)

    p = sub.add_parser("tangle-check", help="test a tanglegram for n-universality")
    p.add_argument("tanglegram", help="tanglegram text, a file, or '-'")
    _add_common(p)
    p.set_defaults(func=_cmd_tangle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_CliError, ValueError) as exc:
        print(f"utk: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("utk: input too deep: a traversal exceeded Python's recursion limit",
              file=sys.stderr)
        return EXIT_RESOURCE_LIMIT


if __name__ == "__main__":
    sys.exit(main())
