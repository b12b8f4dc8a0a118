"""Malformed and extreme command lines: every one ends in a documented exit
code (0 ok, 1 check failed, 2 usage/parse error, 3 resource limit) with a
message, never a traceback."""

import time

import pytest

from utk.cli import MAX_BOUNDS_N, MAX_BUILD_LEAVES, MAX_COUNT_N, MAX_TANGLE_N, main
from utk.shapes import caterpillar, to_newick

HUGE = str(10**20)
DEEP = caterpillar(700)
TANGLE = "(x,(x,x));|((x,x),x);|0 1 2"
# A tanglegram with MAX_TANGLE_N + 1 leaves a side: two caterpillars.
WIDE = MAX_TANGLE_N + 1
WIDE_TANGLE = "|".join((to_newick(caterpillar(WIDE)),) * 2 + (" ".join(map(str, range(WIDE))),))
BUILD_KINDS = ("universal", "redleaf", "comb", "tanglegram")

MALFORMED_CODES = ["", "(", ")", "((oo)", "(oo))", "()", "(()o)", "(o)", "oo", "(ox)",
                   "abc", "((((((((", "(oo)(oo)", "(rr)", "(o r)"]
MALFORMED_NEWICK = ["(x,,x);", "(x,x));", "((x,x),x;", ";", "(x;x);", "(,);", "x;",
                    "((x,x),(x,x)));", "(x,R,R);", "(x x);"]
MALFORMED_TANGLEGRAMS = ["", "|", "||", "(x,x);|(x,x);|", "(x,x);|(x,x);|0 0",
                         "(x,x);|(x,x);|0 1 2", "(x,x);|(x,x);|a b", "(x,x);|(x,x,x);|0 1",
                         "(x,x);|(x,x);|-1 0", "(x,x);|(x,x);|5 6", "(o;|(x,x);|0 1"]

CASES = (
    [("check", text, "-n", "3") for text in MALFORMED_CODES + MALFORMED_NEWICK]
    + [("mast", text, "(oo)") for text in MALFORMED_CODES[:6] + MALFORMED_NEWICK[:4]]
    + [("tangle-check", text, "-n", "2") for text in MALFORMED_TANGLEGRAMS]
    + [argv for n in ("0", "-1", HUGE) for argv in (
        ("enumerate", "-n", n),
        ("enumerate", "-n", n, "--count"),
        ("enumerate", "-n", n, "--count", "--redleaf", "--json"),
        ("check", "((oo)(oo))", "-n", n),
        ("check", "((or)(oo))", "-n", n, "--redleaf"),
        ("tangle-check", TANGLE, "-n", n),
        ("tangle-enumerate", "-n", n, "--count"),
        ("search", "-n", n, "--max-seconds", "1"),
    )]
    + [(cmd, "-n", n) for cmd in ("search", "build", "tangle-enumerate") for n in ("0", "-1")]
    + [("build", "-n", HUGE, "--kind", kind) for kind in BUILD_KINDS]
    + [("bounds", "--to", to, *fmt) for to in (HUGE, str(MAX_BOUNDS_N + 1))
       for fmt in ((), ("--json",), ("--format", "csv"))]
    # "--max-seconds=-inf": as a separate word, argparse reads "-inf" as an option.
    + [("search", "-n", "5", f"--max-seconds={value}") for value in ("nan", "inf", "-inf", "-1", "0")]
    + [("search", "-n", "8", "--max-candidates", "5", *extra)
       for extra in (("--chain",), ("--table",), ("--format", "codes"))]
    + [("search", "-n", "4", flag, "--format", "codes") for flag in ("--chain", "--table")]
    + [
        ("check", DEEP.code, "-n", "4"),
        ("check", to_newick(DEEP), "-n", "4", "--json"),
        ("mast", DEEP.code, DEEP.code),
        ("tangle-check", f"{to_newick(DEEP)}|{to_newick(DEEP)}|{' '.join(map(str, range(700)))}",
         "-n", "1"),
    ]
)


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv)[:60])
def test_every_input_ends_in_a_documented_exit(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    if code == 1:  # a verdict, not an error
        assert "NOT universal" in out or '"universal": false' in out
    elif code == 3 and argv[0] == "search":  # a partial report; codes keep stdout for codes
        assert "PARTIAL RESULT" in (err if "codes" in argv else out)
    elif code:
        assert err.startswith("utk: "), err


@pytest.mark.parametrize("argv", [
    *(("build", "-n", HUGE, "--kind", kind) for kind in BUILD_KINDS),
    ("build", "-n", "2000"),
    ("enumerate", "-n", HUGE),
    ("search", "-n", HUGE),
    ("tangle-enumerate", "-n", HUGE),
    ("tangle-enumerate", "-n", HUGE, "--count"),
    ("tangle-enumerate", "-n", str(WIDE)),
    ("tangle-enumerate", "-n", str(WIDE), "--count", "--json"),
    ("tangle-check", WIDE_TANGLE, "-n", str(WIDE)),
    ("bounds", "--to", HUGE),
], ids=lambda argv: " ".join(argv)[:60])
def test_huge_n_is_refused_before_work(capsys, argv):
    # A size that would exhaust memory, time or the recursion limit is a
    # usage error that names the limit, found before anything is built or
    # listed.
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    limit = {"build": MAX_BUILD_LEAVES, "bounds": MAX_BOUNDS_N, "tangle-enumerate": MAX_TANGLE_N,
             "tangle-check": MAX_TANGLE_N}.get(argv[0], MAX_COUNT_N)
    assert err.startswith("utk: ") and str(limit) in err, err


# Eight leaves a side, arity 3.
TERNARY_8 = "|".join(("(x,x,(x,x,(x,x,(x,x))));",) * 2 + (" ".join(map(str, range(8))),))


@pytest.mark.parametrize("argv, message", [
    (("tangle-enumerate", "-n", "8", "-d", "3", "--count"),
     "tangle-enumerate takes -n up to 7 with -d 3"),
    (("tangle-enumerate", "-n", "7", "-d", "4"), "tangle-enumerate takes -n up to 6 with -d 4"),
    (("tangle-enumerate", "-n", "7", "-d", "9", "--json"),
     "tangle-enumerate takes -n up to 6 with -d 9"),
    (("tangle-check", TERNARY_8, "-n", "8", "-d", "3"),
     "tangle-check takes -n up to 7 for this tanglegram with -d 3"),
], ids=lambda value: " ".join(value)[:60] if isinstance(value, tuple) else "")
def test_tangle_listing_cap_depends_on_arity(capsys, argv, message):
    # Listing scans count_shapes(n, d)²·n! matchings; n is capped where that
    # passes the binary listing at MAX_TANGLE_N (ternary n = 8 would take
    # about 35 minutes).
    start = time.monotonic()
    code = main(list(argv))
    assert time.monotonic() - start < 1
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"utk: {message}, got {argv[argv.index('-n') + 1]}\n"


def test_small_tanglegram_gets_its_verdict_at_any_n(capsys):
    # A tanglegram with fewer than n leaves a side lists no class.
    assert main(["tangle-check", WIDE_TANGLE, "-n", str(WIDE + 1)]) == 1
    assert "NOT universal" in capsys.readouterr().out
    assert main(["tangle-check", TERNARY_8, "-n", "9", "-d", "3"]) == 1
    assert "NOT universal" in capsys.readouterr().out


WRITING = [
    ("enumerate", "-n", "3"),
    ("check", "((oo)(oo))", "-n", "3"),
    ("build", "-n", "2"),
    ("search", "-n", "3"),
    ("search", "-n", "3", "--chain", "--json"),
    ("search", "-n", "6", "-d", "3", "--max-seconds", "30"),  # runs for seconds
    ("mast", "(oo)", "(oo)"),
    ("bounds", "--to", "3"),
    ("tangle-enumerate", "-n", "3"),
    ("tangle-check", TANGLE, "-n", "2"),
]


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("argv", WRITING, ids=lambda argv: " ".join(argv))
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv, where):
    # Found before the command's work, not after it.
    path = str(tmp_path / "missing" / "out" if where == "missing directory" else tmp_path)
    start = time.monotonic()
    code = main([*argv, "-o", path])
    assert time.monotonic() - start < 1
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    reason = "No such file or directory" if where == "missing directory" else "Is a directory"
    assert err == f"utk: cannot write {path}: {reason}\n"


def test_failed_command_leaves_its_output_file_untouched(capsys, tmp_path):
    target = tmp_path / "kept.txt"
    target.write_text("earlier output\n")
    assert main(["check", "((oo)", "-n", "2", "-o", str(target)]) == 2
    assert capsys.readouterr().err.startswith("utk: cannot parse shape")
    assert target.read_text() == "earlier output\n"


def test_out_of_memory_is_a_resource_limit(capsys, monkeypatch):
    import utk.cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(utk.cli, "build_universal", exhausted)
    code = main(["build", "-n", "4"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "utk: out of memory\n"
