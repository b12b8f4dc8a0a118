import math
import pathlib
from functools import lru_cache

import pytest

from utk.bounds import (
    KNOWN_MIN_UNIVERSAL_SIZE,
    KNOWN_UPPER_BOUND,
    bound_table,
    chung_lower,
    kalmar,
    naive_upper,
    ordered_factorizations,
    quad_upper,
    tangle_lower,
)
from utk.constructions import build_universal
from utk.embedding import mast
from utk.search import find_min_universal_chain, is_universal
from utk.shapes import jellyfish, parse_code

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@lru_cache(maxsize=None)
def naive_by_definition(n: int) -> int:
    if n == 1:
        return 1
    return naive_by_definition(n - 1) + naive_by_definition(n // 2)


class TestNaiveUpper:
    def test_base(self):
        assert naive_upper(1) == 1

    def test_n4(self):
        assert naive_upper(4) == naive_by_definition(4) == 5

    def test_matches_recursive_definition(self):
        for n in range(1, 41):
            assert naive_upper(n) == naive_by_definition(n)

    def test_monotone(self):
        values = [naive_upper(n) for n in range(1, 51)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestQuadUpper:
    def test_formula(self):
        for n in range(1, 65):
            assert quad_upper(n) == (2 * n * n + 1) // 3

    def test_dominates_known_values(self):
        for n, u in KNOWN_MIN_UNIVERSAL_SIZE.items():
            assert u <= quad_upper(n)


class TestChungLower:
    def test_k2(self):
        bound = chung_lower(2)
        # family: a 4-leaf caterpillar and the 4-leaf complete tree,
        # pairwise agreement 3
        assert bound.mast_sum == 3
        assert bound.evaluated == 5
        assert bound.simplified == 3
        assert bound.evaluated <= KNOWN_MIN_UNIVERSAL_SIZE[4]

    def test_k3(self):
        bound = chung_lower(3)
        assert bound.simplified == 8
        assert bound.evaluated <= KNOWN_MIN_UNIVERSAL_SIZE[8]

    def test_mast_sum_below_k_2k(self):
        for k in range(2, 13):
            assert chung_lower(k).mast_sum < k * 2**k

    def test_evaluated_at_least_simplified(self):
        for k in range(2, 13):
            bound = chung_lower(k)
            assert bound.evaluated >= bound.simplified

    def test_family_pairwise_agreement_identity(self):
        # For the bound's family the agreement size collapses to
        # 2**(k-(j-i)) + 2**(i-1) * (j-i).
        from utk.embedding import jellyfish_mast
        from utk.shapes import JellyfishSpec

        for k in range(2, 9):
            specs = [JellyfishSpec(i - 1, 2 ** (k - i + 1)) for i in range(1, k + 1)]
            for i in range(1, k + 1):
                for j in range(i + 1, k + 1):
                    expect = 2 ** (k - (j - i)) + 2 ** (i - 1) * (j - i)
                    assert jellyfish_mast(specs[i - 1], specs[j - 1]) == expect

    def test_mast_sum_matches_dp(self):
        # Parsed from codes, so no node object is shared; a jellyfish has
        # h + l distinct subtrees, which keeps k = 10 (1,024 leaves) fast.
        for k in range(2, 11):
            family = [parse_code(jellyfish(h=i - 1, ell=2 ** (k - i + 1)).code)
                      for i in range(1, k + 1)]
            assert all(t.white_leaves == 2**k for t in family)
            dp_sum = sum(
                mast(family[i], family[j])
                for i in range(k)
                for j in range(i + 1, k)
            )
            assert chung_lower(k).mast_sum == dp_sum

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            chung_lower(1)


class TestKalmar:
    def test_row(self):
        assert [kalmar(n) for n in range(1, 13)] == [
            1, 2, 3, 5, 6, 9, 10, 14, 16, 19, 20, 28,
        ]

    def test_difference_is_factorization_count(self):
        for n in range(2, 40):
            assert kalmar(n) - kalmar(n - 1) == ordered_factorizations(n)

    def test_factorization_counts_small(self):
        assert [ordered_factorizations(n) for n in range(1, 13)] == [
            1, 1, 1, 2, 1, 3, 1, 4, 2, 3, 1, 8,
        ]

    def test_tracks_u_until_eleven(self):
        for n in range(1, 11):
            assert kalmar(n) == KNOWN_MIN_UNIVERSAL_SIZE[n]
        assert kalmar(11) == 20 != KNOWN_MIN_UNIVERSAL_SIZE[11] == 21
        assert kalmar(12) == 28 == KNOWN_MIN_UNIVERSAL_SIZE[12]


class TestTangleLower:
    def test_n2(self):
        assert tangle_lower(2, 1) == 2

    def test_n4(self):
        assert tangle_lower(4, 13) == 6

    def test_threshold_property(self):
        for n, t_n in ((2, 1), (3, 2), (4, 13), (5, 114), (6, 1509)):
            q = tangle_lower(n, t_n)
            assert math.comb(q, n) >= t_n
            assert q == n or math.comb(q - 1, n) < t_n

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            tangle_lower(3, 0)


class TestBoundTable:
    def test_row_eleven(self):
        rows = {row["n"]: row for row in bound_table(13)}
        assert rows[11]["u_known"] == 21
        assert rows[11]["kalmar"] == 20
        # u(12) = 28: the long-run sweeps in test_search.py and the witness.
        assert rows[12]["u_known"] == 28
        assert rows[12]["kalmar"] == 28
        assert rows[13]["u_known"] is None
        assert KNOWN_UPPER_BOUND == {13: 35, 14: 40, 15: 40}
        assert rows[13]["u_upper"] == 35
        assert all(row["u_upper"] is None for n, row in rows.items() if n < 13)
        assert [row["u_upper"] for row in bound_table(16)[12:]] == [35, 40, 40, None]

    def test_chung_only_at_powers_of_two(self):
        rows = bound_table(16)
        for row in rows:
            n = row["n"]
            is_pow = n & (n - 1) == 0 and n >= 4
            assert (row["chung_lower"] is not None) == is_pow
        assert rows[3]["chung_lower"] == 5  # n = 4

    def test_naive_column_matches_single_values(self):
        # The table runs the recursion once; each row must still equal the
        # single-n API.
        rows = bound_table(300)
        assert [row["naive_upper"] for row in rows] == [naive_upper(n) for n in range(1, 301)]

    def test_long_table_is_linear(self, capsys):
        # One recursion per table, not one per row: 50,000 rows take about
        # a second (a recursion per row took minutes).
        from utk.cli import main

        assert main(["bounds", "--to", "50000", "--json"]) == 0
        assert capsys.readouterr().out.count('"n": ') == 50000


class TestUpperBoundWitnesses:
    """Each value of KNOWN_UPPER_BOUND has a fixture witness: an n-universal
    shape of that size, rebuilt here from the recursion with the smallest
    known universal and redleaf shapes as its parts."""

    WITNESS = {13: "witness_13_upper.code", 14: "witness_15_upper.code",
               15: "witness_15_upper.code"}

    def test_every_bound_has_a_witness(self):
        assert set(self.WITNESS) == set(KNOWN_UPPER_BOUND)

    @pytest.mark.parametrize("n", sorted(WITNESS))
    def test_witness_is_universal_at_the_bound(self, n):
        witness = parse_code((FIXTURES / self.WITNESS[n]).read_text().strip())
        assert witness.white_leaves == KNOWN_UPPER_BOUND[n]
        assert KNOWN_UPPER_BOUND[n] < naive_upper(n)
        assert is_universal(witness, n)

    def test_witnesses_rebuild_from_the_smallest_parts(self):
        white = {n: parse_code((FIXTURES / f"universal_catalog_n{n:02d}.codes")
                               .read_text().split()[0]) for n in range(4, 12)}
        white[12] = parse_code((FIXTURES / "witness_12_universal.code").read_text().strip())
        red = {r.n: parse_code(r.minimal_shapes[0])
               for r in find_min_universal_chain(7, redleaf=True)}

        def parts(m, redleaf):
            return (red if redleaf else white).get(m)

        for n, name in self.WITNESS.items():
            built = build_universal(n, parts=parts)
            assert built.code == (FIXTURES / name).read_text().strip()
