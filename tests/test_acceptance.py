"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.
"""

import itertools
import pathlib
import random
import time
from contextlib import contextmanager

import pytest

from oracles import brute_is_induced_subtree
from proofs import coeff_sequences, embed_composition, split, white_leaf_centroid
from test_tanglegrams import oracle_class_count
from utk.bounds import chung_lower, kalmar, quad_upper
from utk.constructions import build_universal, build_universal_tanglegram, svec
from utk.embedding import is_induced_subtree, jellyfish_mast, mast
from utk.search import find_min_universal, find_min_universal_chain, is_universal
from utk.shapes import (
    JellyfishSpec,
    enumerate_shapes,
    jellyfish,
    parse_code,
)
from utk.tanglegrams import count_tanglegrams, is_universal_tanglegram

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

EXPECTED_U = [1, 2, 3, 5, 6, 9, 10, 14, 16, 19]
EXPECTED_CATALOG_COUNTS = {4: 2, 5: 1, 6: 6, 7: 1, 8: 8}
LONG_RUN_CATALOG_COUNTS = {9: 8, 10: 2, 11: 1}
MINIMAL_U_CODES = {
    1: "o", 2: "(oo)", 3: "(o(oo))", 4: "((oo)(o(oo)))",
}


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {text}")
        raise
    print(f"criterion {number}: PASS - {text}")


def catalog_fixture(n: int) -> tuple[str, ...]:
    text = (FIXTURES / f"universal_catalog_n{n:02d}.codes").read_text()
    return tuple(line for line in text.splitlines() if line)


@pytest.fixture(scope="module")
def chain10():
    t0 = time.monotonic()
    chain8 = find_min_universal_chain(8)
    t8 = time.monotonic() - t0
    chain10 = find_min_universal_chain(10)
    total = time.monotonic() - t0
    return chain8, t8, chain10, total


def test_criterion_1_table_values(chain10):
    chain8, t8, chain, total = chain10
    with criterion(1, "u(1..10) = 1,2,3,5,6,9,10,14,16,19 within runtime budget"):
        assert [r.u_value for r in chain] == EXPECTED_U
        assert t8 <= 60.0, f"n <= 8 took {t8:.1f}s"
        assert total <= 600.0, f"n <= 10 took {total:.1f}s"


def test_criterion_2_catalogs(chain10):
    _, _, chain, _ = chain10
    with criterion(2, "minimal catalogs for n = 4..8 match the transcribed figures"):
        for n, count in EXPECTED_CATALOG_COUNTS.items():
            report = chain[n - 1]
            assert len(report.minimal_shapes) == count, f"n={n}"
            assert report.minimal_shapes == catalog_fixture(n), f"n={n}"


def test_criterion_3_construction_validity():
    with criterion(3, "recursive universal trees verified; sizes 3, 11, 43 at n = 2, 4, 8"):
        for n in range(1, 11):
            built = build_universal(n)
            assert built.white_leaves <= quad_upper(n)
            assert is_universal(built, n)
        assert [build_universal(n).white_leaves for n in (2, 4, 8)] == [3, 11, 43]
        for n in (2, 4, 8):
            assert build_universal(n).white_leaves == quad_upper(n)


def test_criterion_4_jellyfish_mast():
    with criterion(4, "agreement DP equals the jellyfish closed form, exactly"):
        specs = [JellyfishSpec(h, ell) for h in range(4) for ell in range(2, 6)]
        for s1, s2 in itertools.combinations_with_replacement(specs, 2):
            assert jellyfish_mast(s1, s2) == mast(jellyfish(s1), jellyfish(s2))


def test_criterion_5_lower_bounds(chain10):
    _, _, chain, _ = chain10
    with criterion(5, "counting lower bounds below u(2**k); Kalmar row exact"):
        assert chung_lower(2).evaluated <= chain[3].u_value  # 5 <= u(4) = 5
        assert chung_lower(3).evaluated <= chain[7].u_value  # <= u(8) = 14
        assert chung_lower(2).simplified == 3  # ceil(8/3)
        assert chung_lower(3).simplified == 8
        assert [kalmar(n) for n in range(1, 13)] == [
            1, 2, 3, 5, 6, 9, 10, 14, 16, 19, 20, 28,
        ]


def test_criterion_6_tanglegrams():
    with criterion(6, "t_1..4 = 1,1,2,13 against the brute-force oracle; "
                      "universal tanglegrams of sizes 4 and 9 verified"):
        counts = [count_tanglegrams(n) for n in range(1, 5)]
        assert counts == [1, 1, 2, 13]
        assert counts == [oracle_class_count(n) for n in range(1, 5)]
        sizes = {}
        for n in (2, 3, 4):
            minimal = parse_code(MINIMAL_U_CODES[n])
            tangle = build_universal_tanglegram(n, universal=minimal)
            sizes[n] = tangle.size
            if n <= 3:
                assert is_universal_tanglegram(tangle, n)
        assert sizes == {2: 4, 3: 9, 4: 25}


def test_criterion_7_dary():
    with criterion(7, "4-ary search finds exactly 2 minimal shapes; ternary "
                      "constructions verified; (d+2)**k identity"):
        report = find_min_universal(4, d=4)
        assert len(report.minimal_shapes) == 2
        assert report.u_value == 7
        for n in range(1, 6):
            assert is_universal(build_universal(n, d=3), n, d=3)
        for d in range(2, 7):
            seq = coeff_sequences(12, d)
            assert all(seq("c", k) == (d + 2) ** k for k in range(1, 13))


def test_criterion_8_property_suites():
    with criterion(8, "embedding oracle, centroid bound, split reassembly, "
                      "composition fuzz, code round-trip"):
        # embedding-oracle equivalence: patterns <= 4, hosts <= 6, redleaf incl.
        white_patterns = [s for m in range(1, 5) for s in enumerate_shapes(m)]
        red_patterns = [s for m in range(0, 4) for s in enumerate_shapes(m, redleaf=True)]
        white_hosts = [s for m in range(1, 7) for s in enumerate_shapes(m)]
        red_hosts = [s for m in range(0, 6) for s in enumerate_shapes(m, redleaf=True)]
        for pattern in white_patterns:
            for host in white_hosts + red_hosts:
                assert is_induced_subtree(pattern, host) == brute_is_induced_subtree(
                    pattern, host
                )
        for pattern in red_patterns:
            for host in red_hosts:
                assert is_induced_subtree(pattern, host) == brute_is_induced_subtree(
                    pattern, host
                )

        # centroid bound over all shapes with 2..10 leaves
        for n in range(2, 11):
            for shape in enumerate_shapes(n):
                assert min(white_leaf_centroid(shape).tau.values()) <= n // 2

        # split reassembly identity
        for n in range(2, 10):
            for shape in enumerate_shapes(n):
                assert split(shape).reassemble() == shape
        for n in range(2, 9):
            for shape in enumerate_shapes(n, redleaf=True):
                assert split(shape, redleaf=True).reassemble() == shape

        # composition-embedding fuzz: 10**4 random compositions, k <= 10
        rng = random.Random(90125)
        seqs = {k: svec(k) for k in range(11)}
        for _ in range(10_000):
            k = rng.randint(0, 10)
            remaining = 2**k
            comp = []
            while remaining:
                part = rng.randint(1, remaining)
                comp.append(part)
                remaining -= part
            idx = embed_composition(comp, k)
            assert all(a < b for a, b in zip(idx, idx[1:]))
            assert all(b <= seqs[k][a - 1] for b, a in zip(comp, idx))

        # canonical-code round-trip for every shape with <= 8 leaves
        for n in range(1, 9):
            for shape in enumerate_shapes(n):
                assert parse_code(shape.code) == shape
        for n in range(0, 8):
            for shape in enumerate_shapes(n, redleaf=True):
                assert parse_code(shape.code) == shape


def test_criterion_1_and_2_long_run():
    with criterion(1, "long run: u(11) = 21"):
        chain = find_min_universal_chain(11)
        assert chain[10].u_value == 21
    with criterion(2, "long run: catalogs for n = 9..11 match the figures"):
        for n, count in LONG_RUN_CATALOG_COUNTS.items():
            report = chain[n - 1]
            assert len(report.minimal_shapes) == count
            assert report.minimal_shapes == catalog_fixture(n)


def test_criterion_6_long_run():
    with criterion(6, "long run: the size-25 tanglegram is 4-universal"):
        minimal = parse_code(MINIMAL_U_CODES[4])
        tangle = build_universal_tanglegram(4, universal=minimal)
        assert tangle.size == 25
        assert is_universal_tanglegram(tangle, 4)


def test_criterion_6_recursive_tanglegram():
    with criterion(6, "the size-121 tanglegram built from U(4) is 4-universal"):
        tangle = build_universal_tanglegram(4)
        assert tangle.size == 121
        assert is_universal_tanglegram(tangle, 4)
