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

Each command returns its exit code, a JSON payload and a text, and
``main`` writes one of them once, at the end: the payload under ``--format
json`` (``--json`` for short), the text otherwise, to stdout or to ``-o
FILE``.  A command skips the renderers whose output that format does not
write (``bounds --json`` builds no cell table, ``build --format dot`` no
Newick), so the part ``main`` does not write may be left incomplete.
``main`` refuses an ``-o`` path it could not write before the command
starts, and a command that stops with an error writes nothing.
The payloads are plain dicts whose keys are stable:

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
import errno
import json
import math
import os
import sys

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
    count_shapes,
    enumerate_shapes,
    parse_code,
    parse_newick,
    to_dot,
    to_newick,
    _size_counts,
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

# ``enumerate --count`` counts without listing, in about min(d, n)·n²·log n
# big-int steps: at this n, 0.03 s for d = 2 and 1.6 s for d >= n.  The
# commands that list every shape up to n (``enumerate``, ``search``) refuse
# a larger n before they start.
MAX_COUNT_N = 100

# Listing the tanglegram classes of size n scans W(n)²·n! matchings, W(n)
# the number of shapes: binary n = 7 takes about 1.2 s and 22 MB, n = 8
# about 50 s and 190 MB for 535,753 classes, and n = 9 would scan about 36
# times as many for 13.3 M classes, half an hour and several GB.  So
# ``tangle-enumerate`` refuses a larger n, and so does ``tangle-check``
# where it would list them; for d >= 3 they refuse any n whose scan is
# longer than the binary one at this n (ternary n = 7 takes about 36 s).
MAX_TANGLE_N = 8

# ``search`` holds every shape of 1..n white leaves (with ``--redleaf`` also
# every redleaf shape of 0..n) and listing ``enumerate`` every shape of n,
# about 300 bytes each, so they refuse to list more shapes than this.  At
# the cap that is about a gigabyte and a minute; ``search -n 22`` lists
# 2,761,397 shapes and ``-n 23`` 6,387,546.
MAX_LISTED_SHAPES = 3_000_000

# ``build`` refuses a result with more white leaves than this (a tanglegram:
# more leaves a side).  At -n 512 the universal shape has 174,763 white
# leaves and builds in 0.7 s and 300 MB; the redleaf one has 349,525 and
# takes 1.6 s and 750 MB.
MAX_BUILD_LEAVES = 2**19

# ``bounds`` builds every row of 1..--to, each with a big integer per
# column: --to 100,000 takes about 0.5 s and 85 MB, --to 1,000,000 about 8 s
# and 800 MB, so it refuses a longer table.
MAX_BOUNDS_N = 100_000

# ``mast --jelly`` prints 2**h·(m + 1 - h), h the smaller height, and Python
# prints an integer of at most this many digits.  So the CLI refuses a
# longer answer, and refuses h > 4 * MAX_JELLY_DIGITS (then 2**h is above
# 16**MAX_JELLY_DIGITS) before it computes 2**h: a height of 10**12 would
# take terabytes.
MAX_JELLY_DIGITS = 4_300


class _CliError(Exception):
    pass


def _check_output(path: str | None) -> None:
    """Usage error before any work if ``-o path`` could not be written: a
    directory, a missing directory or no write permission.  Nothing is
    created or changed; ``_write`` writes the file at the end."""
    if not path or path == "-":
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        error = errno.EISDIR
    elif not os.path.isdir(parent):
        error = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        error = errno.EACCES
    else:
        return
    raise _CliError(f"cannot write {path}: {os.strerror(error)}")


def _write(text: str, path: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if not path or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as out:
            out.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _read_source(source: str) -> str:
    """Read from stdin (``-``), a file path, or treat the string as literal."""
    if source == "-":
        return sys.stdin.read()
    # os.path, not pathlib: importing pathlib and what it pulls in
    # (urllib.parse, ipaddress, fnmatch) cost every start-up about 5 ms.
    # isfile is False for "" and for a literal too long to be a file name.
    if not os.path.isfile(source):
        return source
    try:
        with open(source) as text:
            return text.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {source}: {exc}") from exc


def _parse_shape(text: str, arity: int) -> Shape:
    text = text.strip()
    try:
        if text.endswith(";") or "x" in text:
            return parse_newick(text, arity)
        return parse_code(text, arity)
    except ValueError as exc:
        raise _CliError(f"cannot parse shape: {exc}") from exc


def _refuse_long_listing(command: str, n: int, total: int) -> None:
    """Usage error if ``command`` would list more than the cap of shapes."""
    if total > MAX_LISTED_SHAPES:
        raise _CliError(f"{command} -n {n} would list {total:,} shapes, "
                        f"more than {MAX_LISTED_SHAPES:,}")


def _listed_up_to(n: int, d: int, redleaf: bool) -> int:
    """Shapes that listing the size-n ones lists: every white shape of 1..n
    white leaves, with ``redleaf`` also every redleaf shape of 0..n."""
    kinds = (False, True) if redleaf else (False,)
    return sum(sum(_size_counts(n, d, red)) for red in kinds)


def _dump(data: dict | list) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


# --------------------------------------------------------------------------- #
# Subcommands: each returns (exit code, JSON payload, text) and ``main``
# writes the one that ``--format`` asks for.
# --------------------------------------------------------------------------- #


def _cmd_enumerate(args) -> tuple:
    if args.n > MAX_COUNT_N:
        name = "--count" if args.count else "enumerate"
        raise _CliError(f"{name} takes -n up to {MAX_COUNT_N}, got {args.n}")
    payload = {"n": args.n, "d": args.d, "redleaf": args.redleaf}
    if args.count:
        payload["count"] = count_shapes(args.n, args.d, args.redleaf)
        return EXIT_OK, payload, str(payload["count"])
    _refuse_long_listing("enumerate", args.n, count_shapes(args.n, args.d, args.redleaf))
    shapes = list(enumerate_shapes(args.n, args.d, args.redleaf))
    payload["count"], payload["codes"] = len(shapes), [s.code for s in shapes]
    lines = map(to_newick, shapes) if args.format == "newick" else payload["codes"]
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_check(args) -> tuple:
    shape = _parse_shape(_read_source(args.shape), args.d)
    if args.n >= 1 and shape.white_leaves >= args.n:  # else no pattern is listed
        if args.n > MAX_COUNT_N:
            raise _CliError(f"check takes -n up to {MAX_COUNT_N} for this host, got {args.n}")
        _refuse_long_listing("check", args.n, _listed_up_to(args.n, args.d, args.redleaf))
    universal = is_universal(shape, args.n, args.d, args.redleaf)
    payload = {"code": shape.code, "n": args.n, "d": args.d, "redleaf": args.redleaf,
               "white_leaves": shape.white_leaves, "universal": universal}
    text = (f"{shape.code} ({shape.white_leaves} white leaves) is "
            f"{'universal' if universal else 'NOT universal'} for n={args.n}"
            + (" (redleaf)" if args.redleaf else ""))
    return (EXIT_OK if universal else EXIT_CHECK_FAILED), payload, text


def _build_leaves(kind: str, n: int, d: int) -> int:
    """White leaves of ``build``'s result (a tanglegram: leaves a side), by
    the builders' recursions on integers, stopped at MAX_BUILD_LEAVES + 1,
    which stands for every larger count."""
    cap = MAX_BUILD_LEAVES + 1
    if kind == "comb":  # 2**(n - i) terms 2**i, i = 0..n, of d - 1 universal parts each
        if n >= cap.bit_length():
            return cap
        terms = (((d - 1) << (n - i)) * _build_leaves("universal", 1 << i, d) for i in range(n + 1))
        return min(cap, sum(terms))
    # U(m) = U1(m/2)[d U(m/2)] and U1(m) = U1(m/2)[U1(m/2) U(m) (d - 2) U(m/2)]:
    # the counts depend only on how often m halves before it reaches 1.
    white = red = 1
    for _ in range(n.bit_length() - 1):
        white, red = min(cap, red + d * white), min(cap, 3 * red + (2 * d - 2) * white)
    return min(cap, {"universal": white, "redleaf": red, "tanglegram": white * white}[kind])


def _cmd_build(args) -> tuple:
    leaves = _build_leaves(args.kind, args.n, args.d)
    if leaves > MAX_BUILD_LEAVES:
        raise _CliError(f"build -n {args.n} --kind {args.kind} would have more than "
                        f"{MAX_BUILD_LEAVES} leaves (a tanglegram: a side)")
    payload = {"kind": args.kind, "n": args.n, "d": args.d}
    # Each renderer runs only for the format written: the DOT text is the
    # one output that needs neither the tanglegram text nor the Newick.
    if args.kind == "tanglegram":
        tangle = build_universal_tanglegram(args.n, d=args.d)
        if args.format == "dot":
            return EXIT_OK, payload, tanglegram_dot(tangle)
        payload["size"], payload["text"] = tangle.size, format_tanglegram(tangle)
        return EXIT_OK, payload, payload["text"]
    # comb: -n is the doubling-sequence depth k
    build = {"universal": build_universal, "redleaf": build_universal_redleaf,
             "comb": build_redleaf_comb}[args.kind]
    shape = build(args.n, args.d)
    payload.update(white_leaves=shape.white_leaves, code=shape.code)
    if args.format in ("code", "dot"):
        return EXIT_OK, payload, shape.code if args.format == "code" else to_dot(shape)
    payload["newick"] = to_newick(shape)
    if args.trace and args.format == "json" and args.kind != "comb":  # as slow as the build
        payload["trace"] = construction_trace(args.n, args.d, args.kind == "redleaf")
    return EXIT_OK, payload, payload["newick"]


def _cmd_search(args) -> tuple:
    if args.n > MAX_COUNT_N:
        raise _CliError(f"search takes -n up to {MAX_COUNT_N}, got {args.n}")
    if args.n >= 1 and args.d >= 2:  # else the search itself says what is wrong
        _refuse_long_listing("search", args.n, _listed_up_to(args.n, args.d, args.redleaf))
    for name, value in (("--max-candidates", args.max_candidates),
                        ("--max-seconds", args.max_seconds)):
        if value is not None and not 0 < value < math.inf:  # nan fails both
            raise _CliError(f"{name} must be positive and finite")
    chain = args.chain or args.table
    if chain and args.format == "codes":
        raise _CliError("--format codes lists one level's shapes; "
                        "use it without --chain and --table")
    limits = None
    if args.max_candidates or args.max_seconds:
        limits = SearchLimits(args.max_candidates, args.max_seconds)
    if chain:
        reports = find_min_universal_chain(args.n, args.d, args.redleaf, limits)
        last = reports[-1]
        reason = f"stopped at level {last.n}: {last.limit_reason}"
    else:  # a partial report's reason names its level
        last = find_min_universal(args.n, args.d, args.redleaf, limits)
        reports, reason = [last], last.limit_reason
    code = EXIT_OK if last.authoritative else EXIT_RESOURCE_LIMIT
    payload = [r.to_dict() for r in reports]
    if not args.timing:  # keep identical invocations byte-identical
        for fields in payload:
            del fields["wall_time"]
    payload = payload if chain else payload[0]
    partial = [] if last.authoritative else [f"PARTIAL RESULT: {reason}"]
    if args.table:
        ns = [str(r.n) for r in reports]
        kal = [str(row["kalmar"]) for row in bound_table(last.n)][: len(reports)]
        us = [str(r.u_value) if r.u_value else "?" for r in reports]
        width = max(len(x) for x in ns + kal + us) + 2
        lines = [label.ljust(8) + "".join(x.rjust(width) for x in row)
                 for label, row in (("n", ns), ("kalmar", kal), ("u(n)", us))]
    elif args.chain:
        lines = [f"n={r.n}: u={'?' if r.u_value is None else r.u_value}"
                 f" ({len(r.minimal_shapes)} minimal shapes)" for r in reports]
    elif args.format == "codes":
        if partial:  # the output holds codes only, and a partial report has none
            print(*partial, file=sys.stderr)
            return code, payload, None
        lines = list(last.minimal_shapes)
    else:
        lines = [
            f"n={last.n} d={last.d}" + (" redleaf" if last.redleaf else ""),
            f"u = {last.u_value if last.u_value is not None else 'unknown'}",
            f"minimal shapes ({len(last.minimal_shapes)}):",
            *(f"  {c}" for c in last.minimal_shapes),
            f"candidates examined: {last.candidates_examined}",
        ]
        if args.timing:
            lines.append(f"wall time: {last.wall_time:.2f}s")
    return code, payload, "\n".join(lines + partial)


def _cmd_mast(args) -> tuple:
    if args.jelly:
        specs = []
        for token in args.jelly:
            try:
                h, ell = (int(x) for x in token.split(","))
                specs.append(JellyfishSpec(h, ell))
            except ValueError as exc:
                raise _CliError(f"bad jellyfish spec {token!r}: {exc}") from exc
        h = min(s.h for s in specs)
        if h > 4 * MAX_JELLY_DIGITS or jellyfish_mast(*specs) >= 10**MAX_JELLY_DIGITS:
            raise _CliError(f"mast --jelly prints an answer of up to {MAX_JELLY_DIGITS:,} "
                            f"digits; these jellyfish (smaller height {h:,}) give more")
        payload = {"mast": jellyfish_mast(*specs), "jelly": [[s.h, s.ell] for s in specs]}
    else:
        if len(args.shapes) != 2:
            raise _CliError("mast needs two shapes (or --jelly h,l h,l)")
        left, right = (_parse_shape(_read_source(text), 2) for text in args.shapes)
        payload = {"mast": mast(left, right), "left": left.code, "right": right.code}
    return EXIT_OK, payload, str(payload["mast"])


def _cmd_bounds(args) -> tuple:
    if args.to < 1:
        raise _CliError("--to must be at least 1")
    if args.to > MAX_BOUNDS_N:
        raise _CliError(f"bounds takes --to up to {MAX_BOUNDS_N}, got {args.to}")
    rows = bound_table(args.to)
    if args.format == "json":  # the rows are the payload; no cell table is rendered
        return EXIT_OK, {"rows": rows}, None
    columns = ("n", "u_known", "naive_upper", "quad_upper", "chung_lower", "kalmar")
    # One cell table; an unknown value is an empty csv cell and a "-" in text.
    cells = [columns, *(["" if row[c] is None else str(row[c]) for c in columns] for row in rows)]
    if args.format == "csv":
        return EXIT_OK, {"rows": rows}, "\n".join(",".join(line) for line in cells)
    widths = [max(len(line[i] or "-") for line in cells) for i in range(len(columns))]
    text = "\n".join("  ".join((cell or "-").rjust(width) for cell, width in zip(line, widths))
                     for line in cells)
    return EXIT_OK, {"rows": rows}, text


def _refuse_long_tangle_listing(command: str, n: int, d: int, host: str = "") -> None:
    """Usage error if listing the size-n tanglegram classes would scan more
    matchings, count_shapes(n, d)²·n!, than the binary listing at
    MAX_TANGLE_N does: that allows n up to 8 for d = 2, 7 for d = 3 and 6
    for d >= 4.  Below d = 2 the binary cap holds and the library names
    the bad arity."""
    def scan(m: int, arity: int) -> int:
        return count_shapes(m, arity) ** 2 * math.factorial(m)

    cap = MAX_TANGLE_N
    while d > 2 and scan(cap, d) > scan(MAX_TANGLE_N, 2):
        cap -= 1
    if n > cap:
        arity = f" with -d {d}" if d > 2 else ""
        raise _CliError(f"{command} takes -n up to {cap}{host}{arity}, got {n}")


def _cmd_tangle_enumerate(args) -> tuple:
    _refuse_long_tangle_listing("tangle-enumerate", args.n, args.d)
    classes = list(enumerate_tanglegrams(args.n, args.d))
    payload = {"n": args.n, "d": args.d, "count": len(classes)}
    if args.count:
        return EXIT_OK, payload, str(len(classes))
    payload["tanglegrams"] = [format_tanglegram(t) for t in classes]
    return EXIT_OK, payload, "\n".join(payload["tanglegrams"])


def _cmd_tangle_check(args) -> tuple:
    try:
        tangle = parse_tanglegram(_read_source(args.tanglegram), args.d)
    except ValueError as exc:
        raise _CliError(f"cannot parse tanglegram: {exc}") from exc
    if tangle.size >= args.n:  # else it is NOT universal at once
        _refuse_long_tangle_listing("tangle-check", args.n, args.d, " for this tanglegram")
    universal = is_universal_tanglegram(tangle, args.n)
    payload = {"text": format_tanglegram(tangle), "n": args.n, "universal": universal}
    text = (f"size-{tangle.size} tanglegram is {'universal' if universal else 'NOT universal'} "
            f"for n={args.n}")
    return (EXIT_OK if universal else EXIT_CHECK_FAILED), payload, text


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #


def _add_size(parser):
    parser.add_argument("-n", type=int, required=True, help="target size")
    parser.add_argument("-d", type=int, default=2, help="arity bound (default 2)")


def _add_output(parser, formats=("text", "json")):
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
    _add_size(p)
    _add_output(p, ("text", "json", "newick"))
    p.add_argument("--redleaf", action="store_true", help="shapes with one red leaf")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="test a shape for n-universality")
    p.add_argument("shape", help="canonical code / newick, a file, or '-'")
    _add_size(p)
    _add_output(p)
    p.add_argument("--redleaf", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("build", help="build provably universal objects")
    _add_size(p)
    _add_output(p, ("code", "json", "newick", "dot"))
    p.add_argument(
        "--kind", choices=("universal", "redleaf", "comb", "tanglegram"),
        default="universal",
        help="comb interprets -n as the doubling-sequence depth k",
    )
    p.add_argument("--trace", action="store_true", help="include a construction trace (json)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("search", help="exhaustive minimal-universal-shape search")
    _add_size(p)
    _add_output(p, ("text", "json", "codes"))
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
    _add_output(p)
    p.set_defaults(func=_cmd_mast)

    p = sub.add_parser("bounds", help="table of known bounds")
    p.add_argument("--to", type=int, required=True, help="last n of the table")
    _add_output(p, ("text", "csv", "json"))
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("tangle-enumerate", help="stream tanglegram classes of size n")
    _add_size(p)
    _add_output(p)
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=_cmd_tangle_enumerate)

    p = sub.add_parser("tangle-check", help="test a tanglegram for n-universality")
    p.add_argument("tanglegram", help="tanglegram text, a file, or '-'")
    _add_size(p)
    _add_output(p)
    p.set_defaults(func=_cmd_tangle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_output(args.output)
        code, payload, text = args.func(args)
        if args.format == "json":
            text = _dump(payload)
        if text is not None:  # None: a partial ``search --format codes`` has no codes
            _write(text, args.output)
        return code
    except (_CliError, ValueError) as exc:
        print(f"utk: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("utk: input too deep: a traversal exceeded Python's recursion limit",
              file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except MemoryError:
        print("utk: out of memory", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT


if __name__ == "__main__":
    sys.exit(main())
