import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from utk.cli import MAX_BOUNDS_N, MAX_COUNT_N, MAX_JELLY_DIGITS, MAX_LISTED_SHAPES, main
from utk.constructions import build_universal
from utk.shapes import caterpillar, parse_code

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_codes_for_n4(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "-n", "4")
        assert code == 0
        assert out.splitlines() == ["((oo)(oo))", "(o(o(oo)))"]

    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "-n", "4", "--count")
        assert (code, out.strip()) == (0, "2")

    def test_count_without_listing(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "-n", "25", "--count")
        assert (code, out.strip()) == (0, "19680277")
        code, out, err = run_cli(capsys, "enumerate", "-n", "101", "--count")
        assert (code, out) == (2, "")
        assert err == "utk: --count takes -n up to 100, got 101\n"

    def test_too_many_shapes_to_list_is_refused_up_front(self, capsys):
        start = time.monotonic()
        code, out, err = run_cli(capsys, "enumerate", "-n", "40")
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert err == ("utk: enumerate -n 40 would list 8,099,766,813,570 shapes, "
                       f"more than {MAX_LISTED_SHAPES:,}\n")
        # The 1,563,372 shapes of 22 leaves are under the cap, the 3,626,149
        # of 23 are not; counting them is still allowed.
        assert run_cli(capsys, "enumerate", "-n", "23")[0] == 2
        assert run_cli(capsys, "enumerate", "-n", "23", "--count")[:2] == (0, "3626149\n")

    def test_huge_arity_bound_answers_at_once(self, capsys):
        start = time.monotonic()
        huge = ("-d", "1000000000")
        assert run_cli(capsys, "enumerate", "-n", "3", *huge) == (0, "(o(oo))\n(ooo)\n", "")
        code, out, _ = run_cli(capsys, "search", "-n", "2", *huge, "--format", "codes")
        assert (code, out) == (0, "(oo)\n")
        code, out, _ = run_cli(capsys, "check", "(oo)", "-n", "2", *huge)
        assert (code, out) == (0, "(oo) (2 white leaves) is universal for n=2\n")
        code, out, _ = run_cli(capsys, "tangle-enumerate", "-n", "2", *huge)
        assert (code, out) == (0, "(x,x);|(x,x);|0 1\n")
        assert time.monotonic() - start < 5

    def test_4ary_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "-n", "4", "-d", "4", "--count")
        assert (code, out.strip()) == (0, "5")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "-n", "3", "--json")
        data = json.loads(out)
        assert data == {
            "count": 1, "codes": ["(o(oo))"], "d": 2, "n": 3, "redleaf": False,
        }

    def test_newick(self, capsys):
        _, out, _ = run_cli(capsys, "enumerate", "-n", "2", "--format", "newick")
        assert out.strip() == "(x,x);"

    def test_redleaf(self, capsys):
        _, out, _ = run_cli(capsys, "enumerate", "-n", "2", "--redleaf")
        assert out.splitlines() == ["(o(or))", "(r(oo))"]

    def test_redleaf_newick(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "-n", "3", "--redleaf", "--format", "newick")
        assert (code, err) == (0, "")
        assert out == "((x,x),(x,R));\n(x,(x,(x,R)));\n(x,(R,(x,x)));\n(R,(x,(x,x)));\n"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "codes.txt"
        code, out, _ = run_cli(capsys, "enumerate", "-n", "4", "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines() == ["((oo)(oo))", "(o(o(oo)))"]


class TestCheck:
    def test_universal_shape_exits_zero(self, capsys, tmp_path):
        u5 = tmp_path / "U5.code"
        u5.write_text("(o((oo)(o(oo))))\n")
        code, out, _ = run_cli(capsys, "check", str(u5), "-n", "5")
        assert code == 0
        assert "is universal" in out

    def test_failing_shape_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "check", "(o(o(o(oo))))", "-n", "5")
        assert code == 1
        assert "NOT universal" in out

    def test_newick_input(self, capsys):
        code, _, _ = run_cli(capsys, "check", "((x,x),(x,x));", "-n", "2")
        assert code == 0

    def test_literal_longer_than_a_file_name(self, capsys):
        literal = caterpillar(200).code
        assert len(literal) > 255
        code, out, err = run_cli(capsys, "check", literal, "-n", "4")
        assert code == 1
        assert "NOT universal" in out
        assert err == ""

    def test_deep_host_gets_a_verdict(self, capsys):
        # Heights 699 and 510, beyond Python's recursion limit: the
        # containment check keeps no stack.
        code, out, err = run_cli(capsys, "check", caterpillar(700).code, "-n", "4")
        assert (code, err) == (1, "")
        assert "NOT universal" in out
        code, out, err = run_cli(capsys, "check", build_universal(256).code, "-n", "5")
        assert (code, err) == (0, "")
        assert "is universal" in out

    def test_long_listing_is_refused_before_work(self, capsys):
        # build -n 64 has 2,731 white leaves, so -n 25 would list every
        # shape of up to 25 leaves.
        big = build_universal(64).code
        code, out, err = run_cli(capsys, "check", big, "-n", "25")
        assert (code, out) == (2, "")
        assert err.startswith("utk: check -n 25 would list")
        assert f"{MAX_LISTED_SHAPES:,}" in err
        code, out, err = run_cli(capsys, "check", big, "-n", str(MAX_COUNT_N + 1), "--redleaf")
        assert (code, out) == (2, "")
        assert err.startswith(f"utk: check takes -n up to {MAX_COUNT_N}")
        # A host with fewer than n white leaves needs no listing.
        code, out, err = run_cli(capsys, "check", "((oo)(oo))", "-n", "25")
        assert (code, err) == (1, "")
        assert "NOT universal" in out

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "((oo)", "-n", "2")
        assert code == 2
        assert "utk:" in err

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "check", "((oo)(oo))", "-n", "2", "--json")
        data = json.loads(out)
        assert data["universal"] is True
        assert data["white_leaves"] == 4


class TestBuild:
    def test_universal_code(self, capsys):
        code, out, _ = run_cli(capsys, "build", "-n", "2")
        assert code == 0
        assert parse_code(out.strip()).white_leaves == 3

    def test_json_with_trace(self, capsys):
        _, out, _ = run_cli(capsys, "build", "-n", "4", "--json", "--trace")
        data = json.loads(out)
        assert data["white_leaves"] == 11
        assert data["trace"]["rule"] == "halving-graft"

    def test_deep_universal_shape(self, capsys):
        # build_universal(512) has height 1022, beyond the recursion limit.
        code, out, err = run_cli(capsys, "build", "-n", "512")
        assert (code, err) == (0, "")
        assert out.count("o") == 174763

    def test_deep_universal_shape_as_newick(self, capsys):
        code, out, err = run_cli(capsys, "build", "-n", "512", "--format", "newick")
        assert (code, err) == (0, "")
        assert out.count("x") == 174763
        assert out.strip().endswith(";")

    def test_deep_universal_shape_as_dot(self, capsys):
        code, out, err = run_cli(capsys, "build", "-n", "512", "--format", "dot")
        assert (code, err) == (0, "")
        assert out.count("shape=circle") == 174763
        assert out.count(" -> ") == 2 * 174763 - 2
        assert out.strip().endswith("}")

    def test_redleaf_kind(self, capsys):
        _, out, _ = run_cli(capsys, "build", "-n", "2", "--kind", "redleaf")
        shape = parse_code(out.strip())
        assert shape.has_red and shape.white_leaves == 5

    def test_comb_kind(self, capsys):
        # recursive parts: sizes 1 + 3 + 1 over the doubling sequence (1,2,1)
        _, out, _ = run_cli(capsys, "build", "-n", "1", "--kind", "comb")
        shape = parse_code(out.strip())
        assert shape.has_red and shape.white_leaves == 5

    def test_tanglegram_kind(self, capsys):
        _, out, _ = run_cli(capsys, "build", "-n", "2", "--kind", "tanglegram", "--json")
        data = json.loads(out)
        assert data["size"] == 9  # recursive universal tree for n=2 has 3 leaves

    def test_dot_output(self, capsys):
        _, out, _ = run_cli(capsys, "build", "-n", "2", "--format", "dot")
        assert out.startswith("digraph")

    def test_tanglegram_text(self, capsys):
        code, out, err = run_cli(capsys, "build", "-n", "2", "--kind", "tanglegram")
        assert (code, err) == (0, "")
        side = "((x,(x,x)),((x,(x,x)),(x,(x,x))));"
        assert out == f"{side}|{side}|0 3 6 1 4 7 2 5 8\n"

    def test_tanglegram_dot(self, capsys):
        code, out, err = run_cli(capsys, "build", "-n", "2", "--kind", "tanglegram",
                                 "--format", "dot")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[:3] == ["graph tanglegram {", "  rankdir=LR;", '  L0 [shape=box, label=""];']
        assert len(lines) == 78 and out.endswith("\n}\n")
        # Two 17-node trees, each node a line and each edge a line, then the
        # dashed matching.
        assert [line for line in lines if "dashed" in line] == [
            f"  L{p} -- R{q} [style=dashed];"
            for p, q in ((2, 2), (4, 8), (5, 13), (8, 4), (10, 10), (11, 15), (13, 5),
                         (15, 11), (16, 16))
        ]


class TestSearch:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "search", "-n", "4")
        assert code == 0
        assert "u = 5" in out
        assert "(o((oo)(oo)))" in out

    def test_codes_format(self, capsys):
        _, out, _ = run_cli(capsys, "search", "-n", "4", "--format", "codes")
        assert out.splitlines() == ["((oo)(o(oo)))", "(o((oo)(oo)))"]

    def test_json_report(self, capsys):
        _, out, _ = run_cli(capsys, "search", "-n", "5", "--json")
        data = json.loads(out)
        assert data["u_value"] == 6 and data["authoritative"] is True

    def test_table_matches_known_row(self, capsys):
        code, out, _ = run_cli(capsys, "search", "-n", "6", "--table")
        lines = out.splitlines()
        assert lines[1].split() == ["kalmar", "1", "2", "3", "5", "6", "9"]
        assert lines[2].split() == ["u(n)", "1", "2", "3", "5", "6", "9"]

    def test_chain_text(self, capsys):
        code, out, err = run_cli(capsys, "search", "-n", "5", "--chain")
        assert (code, err) == (0, "")
        assert out == ("n=1: u=1 (1 minimal shapes)\n"
                       "n=2: u=2 (1 minimal shapes)\n"
                       "n=3: u=3 (1 minimal shapes)\n"
                       "n=4: u=5 (2 minimal shapes)\n"
                       "n=5: u=6 (1 minimal shapes)\n")

    def test_partial_chain_text(self, capsys):
        code, out, err = run_cli(capsys, "search", "-n", "8", "--max-candidates", "10", "--chain")
        assert (code, err) == (3, "")
        assert out == ("n=1: u=1 (1 minimal shapes)\n"
                       "n=2: u=2 (1 minimal shapes)\n"
                       "n=3: u=3 (1 minimal shapes)\n"
                       "n=4: u=5 (2 minimal shapes)\n"
                       "n=5: u=? (0 minimal shapes)\n"
                       "PARTIAL RESULT: stopped at level 5: candidate limit 10 exceeded\n")

    def test_partial_table(self, capsys):
        code, out, err = run_cli(capsys, "search", "-n", "8", "--max-candidates", "10", "--table")
        assert (code, err) == (3, "")
        assert out == ("n         1  2  3  4  5\n"
                       "kalmar    1  2  3  5  6\n"
                       "u(n)      1  2  3  5  ?\n"
                       "PARTIAL RESULT: stopped at level 5: candidate limit 10 exceeded\n")

    def test_resource_limit_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "search", "-n", "8", "--max-candidates", "10")
        assert code == 3
        assert "PARTIAL RESULT" in out

    def test_partial_report_at_level_n_names_the_level(self, capsys):
        # Stopped at level 4, by -n 4 or -n 8 alike: the same line, and the
        # candidates of levels 1..4 counted.
        reports = []
        for n in ("4", "8"):
            code, out, _ = run_cli(capsys, "search", "-n", n, "--max-candidates", "5")
            assert code == 3
            reports.append(out.splitlines()[-2:])
        assert reports[0] == reports[1] == [
            "candidates examined: 7",
            "PARTIAL RESULT: stopped at level 4: candidate limit 5 exceeded",
        ]

    def test_codes_format_with_chain_or_table_is_usage_error(self, capsys):
        for flag in ("--chain", "--table"):
            code, out, err = run_cli(capsys, "search", "-n", "4", flag, "--format", "codes")
            assert (code, out) == (2, "")
            assert err == ("utk: --format codes lists one level's shapes; "
                           "use it without --chain and --table\n")

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "search", "-n", "6", "--json")
        _, second, _ = run_cli(capsys, "search", "-n", "6", "--json")
        assert first == second

    def test_non_finite_max_seconds_is_usage_error(self, capsys):
        for value in ("nan", "inf"):
            code, out, err = run_cli(capsys, "search", "-n", "5", "--max-seconds", value)
            assert (code, out) == (2, "")
            assert err.startswith("utk: --max-seconds")

    def test_time_limit_fires_while_patterns_are_listed(self, capsys):
        # Listing every shape up to 22 leaves takes about a minute; the
        # limit must stop the search during that set-up.
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "search", "-n", "22", "--max-seconds", "0.5")
        assert time.monotonic() - start < 20
        assert code == 3
        assert "PARTIAL RESULT: stopped at level 1: time limit 0.5s exceeded" in out

    def test_too_many_patterns_is_refused_up_front(self, capsys):
        # Every shape of 1..40 leaves would be held at once.
        start = time.monotonic()
        code, out, err = run_cli(capsys, "search", "-n", "40")
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert err == ("utk: search -n 40 would list 13,936,052,254,975 shapes, "
                       f"more than {MAX_LISTED_SHAPES:,}\n")
        # Shapes of 1..23 leaves are too many, and with --redleaf (the
        # redleaf shapes of 0..n on top) those of 1..19 are.
        for argv in (("-n", "23"), ("-n", "19", "--redleaf")):
            code, out, err = run_cli(capsys, "search", *argv)
            assert (code, out) == (2, "") and "would list" in err

    def test_timing_flag_adds_wall_time(self, capsys):
        _, out, _ = run_cli(capsys, "search", "-n", "4", "--json", "--timing")
        assert "wall_time" in json.loads(out)


class TestMast:
    def test_jellyfish_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "mast", "--jelly", "1,4", "2,2")
        assert (code, out.strip()) == (0, "6")

    def test_jellyfish_answer_too_long_to_print_is_refused(self, capsys):
        # Refused before 2**h is computed: a height of 10**12 would need
        # terabytes.
        start = time.monotonic()
        for h in ("1000000000000", "20000", "14284"):
            code, out, err = run_cli(capsys, "mast", "--jelly", f"{h},2", f"{h},2")
            assert (code, out) == (2, "")
            assert err == (f"utk: mast --jelly prints an answer of up to "
                           f"{MAX_JELLY_DIGITS:,} digits; these jellyfish (smaller "
                           f"height {int(h):,}) give more\n")
        assert time.monotonic() - start < 5
        # The answer's length decides, not the height alone: 2**14283 * 2
        # has exactly 4,300 digits and prints, and so does any answer from
        # a 4,300-digit ell at h = 0; 2**10 times a 4,297-digit ell does not.
        code, out, _ = run_cli(capsys, "mast", "--jelly", "14283,2", "14283,2")
        assert (code, len(out.strip())) == (0, MAX_JELLY_DIGITS)
        assert run_cli(capsys, "mast", "--jelly", "0," + "9" * 4300, "1,2")[:2] == (0, "3\n")
        long_ell = "10," + "9" * 4297
        assert run_cli(capsys, "mast", "--jelly", long_ell, long_ell)[0] == 2

    def test_shape_arguments(self, capsys):
        code, out, _ = run_cli(capsys, "mast", "(o(o(oo)))", "((oo)(oo))")
        assert (code, out.strip()) == (0, "3")

    def test_needs_two_shapes(self, capsys):
        code, _, err = run_cli(capsys, "mast", "(oo)")
        assert code == 2 and "two shapes" in err

    def test_built_universal_shapes(self, capsys):
        # Two separately parsed 10,923-leaf codes: the table has a row per
        # distinct subtree (255), not per node (21,845).
        _, built, _ = run_cli(capsys, "build", "-n", "128")
        code, out, err = run_cli(capsys, "mast", built.strip(), built.strip())
        assert (code, out, err) == (0, "10923\n", "")

    def test_deep_caterpillars(self, capsys):
        for size in (600, 1200):
            deep = caterpillar(size).code
            code, out, err = run_cli(capsys, "mast", deep, deep)
            assert (code, out.strip(), err) == (0, str(size), "")


class TestBounds:
    def test_text_row_eleven(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--to", "12")
        row11 = [line for line in out.splitlines() if line.split()[0] == "11"][0]
        assert row11.split() == ["11", "21", "37", "81", "-", "20"]
        row12 = out.splitlines()[-1]
        assert row12.split() == ["12", "28", "47", "96", "-", "28"]

    def test_text_header(self, capsys):
        columns = "u_known  naive_upper  quad_upper  chung_lower  kalmar"
        _, out, _ = run_cli(capsys, "bounds", "--to", "12")
        assert out.splitlines()[:2] == [
            f" n  {columns}", " 1        1            1           1            -       1"]
        _, out, _ = run_cli(capsys, "bounds", "--to", "3")
        assert out.splitlines()[0] == f"n  {columns}"

    def test_csv(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--to", "4", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "n,u_known,naive_upper,quad_upper,chung_lower,kalmar"
        assert lines[4] == "4,5,5,11,5,5"

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--to", "3", "--json")
        assert len(json.loads(out)["rows"]) == 3

    def test_to_below_one_is_usage_error(self, capsys):
        for value in ("0", "-2"):
            code, out, err = run_cli(capsys, "bounds", "--to", value)
            assert (code, out) == (2, "")
            assert err == "utk: --to must be at least 1\n"

    def test_to_above_the_cap_is_refused_before_any_table(self, capsys):
        for value in (MAX_BOUNDS_N + 1, 10**20):
            code, out, err = run_cli(capsys, "bounds", "--to", str(value))
            assert (code, out) == (2, "")
            assert err == f"utk: bounds takes --to up to {MAX_BOUNDS_N}, got {value}\n"

    def test_upper_bounds_only_in_json(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--to", "16", "--json")
        rows = json.loads(out)["rows"]
        assert {row["n"]: row["u_upper"] for row in rows if row["u_upper"]} == {
            13: 35, 14: 40, 15: 40}
        # The text and csv tables have no upper-bound column.
        _, text, _ = run_cli(capsys, "bounds", "--to", "16")
        assert text.splitlines()[13].split() == ["13", "-", "57", "113", "-", "29"]
        _, csv, _ = run_cli(capsys, "bounds", "--to", "16", "--format", "csv")
        assert csv.splitlines()[13] == "13,,57,113,,29"


class TestTangleCommands:
    def test_enumerate_counts(self, capsys):
        for n, t_n in ((1, "1"), (2, "1"), (3, "2"), (4, "13")):
            code, out, _ = run_cli(capsys, "tangle-enumerate", "-n", str(n), "--count")
            assert (code, out.strip()) == (0, t_n)

    def test_enumerate_lines_parse_back(self, capsys):
        _, out, _ = run_cli(capsys, "tangle-enumerate", "-n", "3")
        assert len(out.splitlines()) == 2
        assert all(line.count("|") == 2 for line in out.splitlines())

    def test_check_positive(self, capsys):
        _, built, _ = run_cli(capsys, "build", "-n", "2", "--kind", "tanglegram")
        code, out, _ = run_cli(capsys, "tangle-check", built.strip(), "-n", "2")
        assert code == 0 and "is universal" in out

    def test_check_negative(self, capsys):
        code, out, _ = run_cli(capsys, "tangle-check", "(x,x);|(x,x);|0 1", "-n", "3")
        assert code == 1

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "tangle-check", "(x,x);|(x,x);", "-n", "2")
        assert code == 2


def run_module(*argv):
    """``python -m utk.cli`` with the checkout's ``src`` first on the path,
    so no install is needed."""
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, "-m", "utk.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


class TestEntryPoint:
    def test_usage_error_exit_code(self):
        proc = run_module("enumerate")
        assert proc.returncode == 2

    def test_installed_module_runs(self):
        proc = run_module("enumerate", "-n", "3")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "(o(oo))"

    def test_search_module_runs(self):
        proc = run_module("search", "-n", "5", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["u_value"] == 6

    def test_threads_option_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "-n", "5", "--threads", "2"])
        assert exc.value.code == 2
