import itertools
import random

import pytest

from utk.shapes import caterpillar, complete_tree, enumerate_shapes, join, make_leaf
from utk.tanglegrams import (
    _CODE_BY_KEY,
    Tanglegram,
    _class_codes,
    _lca_depths,
    _subset_codes,
    canonical_tanglegram,
    count_tanglegrams,
    enumerate_tanglegrams,
    format_tanglegram,
    induced_subtanglegram,
    is_induced_subtanglegram,
    is_universal_tanglegram,
    leaf_automorphisms,
    parse_tanglegram,
    tanglegram_dot,
)

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def lca_depth_matrix(shape, perm=None):
    """Pairwise leaf LCA depths; a leaf permutation is induced by a tree
    automorphism iff it preserves this matrix."""
    paths = []

    def walk(node, path):
        if node.is_leaf:
            paths.append(path)
        for idx, kid in enumerate(node.children):
            walk(kid, path + (idx,))

    walk(shape, ())
    n = len(paths)
    if perm is None:
        perm = range(n)
    mat = {}
    for i in range(n):
        for j in range(n):
            a, b = paths[perm[i]], paths[perm[j]]
            depth = 0
            while depth < min(len(a), len(b)) and a[depth] == b[depth]:
                depth += 1
            mat[i, j] = depth
    return mat


def brute_leaf_automorphisms(shape):
    base = lca_depth_matrix(shape)
    n = shape.leaf_count
    return {
        perm
        for perm in itertools.permutations(range(n))
        if lca_depth_matrix(shape, perm) == base
    }


def oracle_isomorphic(t1: Tanglegram, t2: Tanglegram) -> bool:
    """Pairwise isomorphism without canonical codes."""
    if t1.left != t2.left or t1.right != t2.right:
        return False
    auts_l = leaf_automorphisms(t1.left)
    auts_r = leaf_automorphisms(t1.right)
    n = t1.size
    for gl in auts_l:
        moved = [0] * n
        for p in range(n):
            moved[gl[p]] = t1.matching[p]
        for gr in auts_r:
            if tuple(gr[moved[p]] for p in range(n)) == t2.matching:
                return True
    return False


def oracle_class_count(n: int) -> int:
    """Partition the raw (left, right, matching) space by pairwise
    isomorphism, greedily."""
    shapes = list(enumerate_shapes(n))
    reps: list[Tanglegram] = []
    for left, right in itertools.product(shapes, repeat=2):
        for sigma in itertools.permutations(range(n)):
            t = Tanglegram(left, right, sigma)
            if not any(oracle_isomorphic(t, rep) for rep in reps):
                reps.append(t)
    return len(reps)


def random_tanglegram(rng, size, arity):
    """Two random trees (every internal vertex has 2..arity children) and a
    random matching."""

    def tree():
        parts = [make_leaf(arity=arity) for _ in range(size)]
        while len(parts) > 1:
            rng.shuffle(parts)
            take = rng.randint(2, min(arity, len(parts)))
            parts[:take] = [join(parts[:take], arity)]
        return parts[0]

    matching = list(range(size))
    rng.shuffle(matching)
    return Tanglegram(tree(), tree(), tuple(matching))


def rank_pattern(values):
    order = sorted(set(values))
    return tuple(order.index(v) for v in values)


def subset_key(t, subset, left, right):
    """The scan's key of a subset, from the oracle LCA-depth matrices."""
    pairs = list(itertools.combinations(subset, 2))
    return (
        t.left.arity,
        rank_pattern([left[a, b] for a, b in pairs]),
        rank_pattern([right[t.matching[a], t.matching[b]] for a, b in pairs]),
    )


@pytest.fixture
def empty_table():
    """The process-wide key table, cleared before and after the test."""
    _CODE_BY_KEY.clear()
    yield _CODE_BY_KEY
    _CODE_BY_KEY.clear()


# ---------------------------------------------------------------------------


class TestTanglegramModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tanglegram(caterpillar(2), caterpillar(3), (0, 1))
        with pytest.raises(ValueError):
            Tanglegram(caterpillar(2), caterpillar(2), (0, 0))
        with pytest.raises(ValueError):
            Tanglegram(join([make_leaf(), make_leaf("red")]), caterpillar(2), (0, 1))

    def test_text_roundtrip(self):
        t = Tanglegram(caterpillar(3), caterpillar(3), (2, 0, 1))
        text = format_tanglegram(t)
        assert text == "(x,(x,x));|(x,(x,x));|2 0 1"
        assert parse_tanglegram(text) == t

    def test_dot_has_dashed_matching(self):
        dot = tanglegram_dot(Tanglegram(caterpillar(2), caterpillar(2), (1, 0)))
        assert dot.count("style=dashed") == 2
        assert "rankdir=LR" in dot

    def test_dot_pinned(self):
        t = Tanglegram(caterpillar(4), complete_tree(2), (1, 3, 0, 2))
        assert tanglegram_dot(t).splitlines() == [
            "graph tanglegram {",
            "  rankdir=LR;",
            '  L0 [shape=box, label=""];',
            '  L1 [shape=circle, label=""];',
            "  L0 -- L1;",
            "  L2 [shape=point];",
            "  L0 -- L2;",
            '  L3 [shape=circle, label=""];',
            "  L2 -- L3;",
            "  L4 [shape=point];",
            "  L2 -- L4;",
            '  L5 [shape=circle, label=""];',
            "  L4 -- L5;",
            '  L6 [shape=circle, label=""];',
            "  L4 -- L6;",
            '  R0 [shape=box, label=""];',
            "  R1 [shape=point];",
            "  R0 -- R1;",
            '  R2 [shape=circle, label=""];',
            "  R1 -- R2;",
            '  R3 [shape=circle, label=""];',
            "  R1 -- R3;",
            "  R4 [shape=point];",
            "  R0 -- R4;",
            '  R5 [shape=circle, label=""];',
            "  R4 -- R5;",
            '  R6 [shape=circle, label=""];',
            "  R4 -- R6;",
            "  L1 -- R3 [style=dashed];",
            "  L3 -- R6 [style=dashed];",
            "  L5 -- R2 [style=dashed];",
            "  L6 -- R5 [style=dashed];",
            "}",
        ]

    def test_dot_deep_tanglegram(self):
        # Height 1499 on both sides, beyond Python's recursion limit.
        n = 1500
        t = Tanglegram(caterpillar(n), caterpillar(n), tuple(reversed(range(n))))
        dot = tanglegram_dot(t)
        assert dot.count("style=dashed") == n
        assert "  L1 -- R2998 [style=dashed];" in dot


class TestLeafAutomorphisms:
    def test_sizes(self):
        assert len(leaf_automorphisms(make_leaf())) == 1
        assert len(leaf_automorphisms(caterpillar(5))) == 2  # bottom cherry swap
        assert len(leaf_automorphisms(caterpillar(2))) == 2
        assert len(leaf_automorphisms(complete_tree(2))) == 8
        assert len(leaf_automorphisms(complete_tree(3))) == 2**7
        assert len(leaf_automorphisms(caterpillar(1500))) == 2

    def test_matches_lca_oracle(self):
        for n in range(1, 7):
            for shape in enumerate_shapes(n):
                assert set(leaf_automorphisms(shape)) == brute_leaf_automorphisms(shape)


class TestCanonicalization:
    def test_size_one_unique(self):
        t = Tanglegram(make_leaf(), make_leaf(), (0,))
        assert canonical_tanglegram(t) == "o|o|0"

    def test_cherry_orientations_collide(self):
        cherry = caterpillar(2)
        straight = Tanglegram(cherry, cherry, (0, 1))
        crossed = Tanglegram(cherry, cherry, (1, 0))
        assert canonical_tanglegram(straight) == canonical_tanglegram(crossed)

    def test_size3_has_two_classes(self):
        c3 = caterpillar(3)
        codes = {
            canonical_tanglegram(Tanglegram(c3, c3, sigma))
            for sigma in itertools.permutations(range(3))
        }
        assert len(codes) == 2

    def test_mirror_not_quotiented(self):
        # All classes of size <= 3 happen to be mirror-symmetric; the first
        # mirror-asymmetric tanglegrams appear at size 4.
        for n in (1, 2, 3):
            for t in enumerate_tanglegrams(n):
                assert canonical_tanglegram(t.mirror()) == canonical_tanglegram(t)
        asymmetric = [
            t
            for t in enumerate_tanglegrams(4)
            if canonical_tanglegram(t.mirror()) != canonical_tanglegram(t)
        ]
        assert len(asymmetric) == 6
        # both counts: 13 ordered classes, 10 after quotienting by the swap
        quotient = {
            min(canonical_tanglegram(t), canonical_tanglegram(t.mirror()))
            for t in enumerate_tanglegrams(4)
        }
        assert (count_tanglegrams(4), len(quotient)) == (13, 10)


class TestEnumeration:
    def test_counts_small(self):
        assert [count_tanglegrams(n) for n in range(1, 5)] == [1, 1, 2, 13]

    def test_counts_match_pairwise_oracle(self):
        for n in range(1, 5):
            assert count_tanglegrams(n) == oracle_class_count(n)

    def test_larger_counts(self):
        assert count_tanglegrams(5) == 114
        assert count_tanglegrams(6) == 1509

    def test_normalized_growth_trend(self):
        # t_{n+1} / ((n+1) t_n) climbs toward the asymptotic base 4.
        counts = [count_tanglegrams(n) for n in range(1, 7)]
        ratios = [
            counts[i + 1] / ((i + 2) * counts[i]) for i in range(len(counts) - 1)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 4

    def test_representatives_are_valid_and_canonical(self):
        for t in enumerate_tanglegrams(4):
            assert sorted(t.matching) == list(range(4))
            assert t.left.white_leaves == t.right.white_leaves == 4
        # is_universal_tanglegram renders the representatives instead of
        # canonicalizing them: each holds its orbit's minimal matching.
        for n, arity in [(n, 2) for n in range(1, 6)] + [(n, 3) for n in range(1, 5)]:
            classes = list(enumerate_tanglegrams(n, arity))
            codes = [canonical_tanglegram(c) for c in classes]
            stored = [
                f"{c.left.code}|{c.right.code}|{' '.join(map(str, c.matching))}" for c in classes
            ]
            assert stored == codes
            assert _class_codes(n, arity) == set(codes)
            assert len(set(codes)) == len(codes)

    def test_dary_enumeration(self):
        ternary = count_tanglegrams(3, arity=3)
        binary = count_tanglegrams(3, arity=2)
        assert ternary > binary  # the 3-star trees add classes
        for t in enumerate_tanglegrams(3, arity=3):
            assert t.left.arity == 3


class TestInducedSubtanglegrams:
    def test_self_containment(self):
        for n in (1, 2, 3):
            for t in enumerate_tanglegrams(n):
                assert is_induced_subtanglegram(t, t)

    def test_figure_example(self):
        # A size-5 tanglegram: left tree joins a cherry and a 3-leaf
        # caterpillar, right tree the same shape; the matching sends the
        # cherry pair to the deep caterpillar pair and vice versa, keeping
        # the middle leaf straight.  Selecting the first three edges induces
        # the straight caterpillar-to-caterpillar size-3 tanglegram.
        shape = join([caterpillar(2), caterpillar(3)])
        big = Tanglegram(shape, shape, (4, 3, 2, 0, 1))
        small = induced_subtanglegram(big, [0, 1, 2])
        c3 = caterpillar(3)
        pictured = Tanglegram(c3, c3, (0, 1, 2))
        assert canonical_tanglegram(small) == canonical_tanglegram(pictured)

    def test_agrees_with_subset_oracle(self):
        smalls = list(enumerate_tanglegrams(2)) + list(enumerate_tanglegrams(3))
        bigs = list(enumerate_tanglegrams(4))[::3]
        for small, big in itertools.product(smalls, bigs):
            oracle = any(
                oracle_isomorphic(induced_subtanglegram(big, subset), small)
                for subset in itertools.combinations(range(big.size), small.size)
            )
            assert is_induced_subtanglegram(small, big) == oracle

    def test_transitivity_sampled(self):
        rng = random.Random(4242)
        pool = (
            list(enumerate_tanglegrams(2))
            + list(enumerate_tanglegrams(3))
            + list(enumerate_tanglegrams(4))
        )
        for _ in range(60):
            a, b, c = (rng.choice(pool) for _ in range(3))
            if is_induced_subtanglegram(a, b) and is_induced_subtanglegram(b, c):
                assert is_induced_subtanglegram(a, c)

    def test_induced_needs_edges(self):
        t = Tanglegram(caterpillar(2), caterpillar(2), (0, 1))
        with pytest.raises(ValueError):
            induced_subtanglegram(t, [])


class TestUniversality:
    def test_size_n_universal_iff_unique_class(self):
        for n in (1, 2):
            (only,) = enumerate_tanglegrams(n)
            assert is_universal_tanglegram(only, n)

    def test_too_small_is_not_universal(self):
        t = Tanglegram(caterpillar(2), caterpillar(2), (0, 1))
        assert not is_universal_tanglegram(t, 3)

    def test_size3_classes_not_3_universal(self):
        for t in enumerate_tanglegrams(3):
            assert not is_universal_tanglegram(t, 3)


class TestKeyedScan:
    """The subset scan keys each subset by LCA-depth rank patterns and
    canonicalizes one subset per key; these check it against canonicalizing
    every subset."""

    def test_lca_depths_match_oracle(self):
        shapes = [s for n in range(1, 8) for s in enumerate_shapes(n)]
        shapes += [s for n in range(1, 7) for s in enumerate_shapes(n, arity=3)]
        for shape in shapes:
            size = shape.leaf_count
            oracle = lca_depth_matrix(shape)
            assert _lca_depths(shape) == [
                [oracle[p, q] for q in range(size)] for p in range(size)
            ]

    def test_keyed_codes_match_direct_canonicalization(self):
        rng = random.Random(1357)
        code_of_key = {}
        for arity in (2, 3):
            for size in range(5, 9):
                for _ in range(3):
                    t = random_tanglegram(rng, size, arity)
                    left = lca_depth_matrix(t.left)
                    right = lca_depth_matrix(t.right)
                    for k in (3, 4):
                        subsets = list(itertools.combinations(range(size), k))
                        direct = [
                            canonical_tanglegram(induced_subtanglegram(t, s)) for s in subsets
                        ]
                        assert list(_subset_codes(t, k)) == direct
                        # The key alone fixes the class, across tanglegrams.
                        for subset, code in zip(subsets, direct):
                            key = subset_key(t, subset, left, right)
                            assert code_of_key.setdefault(key, code) == code

    def test_universal_matches_brute_scan(self):
        # (n, host size, arity): number of host classes, how many are n-universal
        for (n, size, arity), (count, universal) in {
            (3, 5, 2): (114, 107),
            (3, 4, 3): (42, 0),
        }.items():
            classes = {canonical_tanglegram(c) for c in enumerate_tanglegrams(n, arity)}
            hosts = list(enumerate_tanglegrams(size, arity))
            assert len(hosts) == count
            verdicts = []
            for t in hosts:
                found = {
                    canonical_tanglegram(induced_subtanglegram(t, s))
                    for s in itertools.combinations(range(size), n)
                }
                verdicts.append(found >= classes)
                assert is_universal_tanglegram(t, n) == verdicts[-1]
            assert sum(verdicts) == universal

    def test_table_entries_hold_across_tanglegrams(self, empty_table):
        # Fill the table from one set of tanglegrams, then check every entry
        # against a subset with the same key from another set.
        fill, probe = random.Random(2468), random.Random(8642)
        for arity in (2, 3):
            for size in range(5, 9):
                for _ in range(3):
                    t = random_tanglegram(fill, size, arity)
                    for k in (3, 4):
                        list(_subset_codes(t, k))
        filled = dict(empty_table)
        assert {key[0] for key in filled} == {2, 3}
        unchecked = set(filled)
        for _ in range(40):
            for arity, size in itertools.product((2, 3), range(5, 10)):
                t = random_tanglegram(probe, size, arity)
                left, right = lca_depth_matrix(t.left), lca_depth_matrix(t.right)
                for k in (3, 4):
                    for subset in itertools.combinations(range(size), k):
                        key = subset_key(t, subset, left, right)
                        if key in unchecked:
                            code = canonical_tanglegram(induced_subtanglegram(t, subset))
                            assert filled[key] == code
                            unchecked.discard(key)
            if not unchecked:
                break
        assert not unchecked
        assert empty_table == filled  # probing reads nothing into the table

    def test_universal_same_with_table_cleared_and_filled(self, empty_table):
        hosts = list(enumerate_tanglegrams(5))
        cleared = []
        for t in hosts:
            empty_table.clear()
            cleared.append(is_universal_tanglegram(t, 3))
        for t in hosts:
            list(_subset_codes(t, 3))
        filled = [is_universal_tanglegram(t, 3) for t in hosts]
        assert filled == cleared
        assert (len(hosts), sum(cleared)) == (114, 107)

    def test_binary_k4_table_is_bounded(self, empty_table):
        # A side has at most R(4) = 21 rank patterns; the left one also
        # follows the left tree's leaf order, which leaves 7 of them: the 5
        # ordered trees, the balanced one with its 3 orders of cherry depths.
        rng = random.Random(4)
        for size in range(4, 13):
            for _ in range(20):
                list(_subset_codes(random_tanglegram(rng, size, 2), 4))
        keys = [key for key in empty_table if key[0] == 2 and len(key[1]) == 6]
        assert len(keys) == len(empty_table)
        assert len({key[1] for key in keys}) == 7
        assert len({key[2] for key in keys}) == 21
        assert len(keys) == 7 * 21 <= 441
        assert len(set(empty_table.values())) == count_tanglegrams(4)
