import itertools
import random

import pytest

from oracles import (
    all_shapes_upto,
    brute_isomorphic,
    raw_canonical,
    raw_ordered_trees,
    raw_redleaf_trees,
    raw_to_code,
    wedderburn,
)
from utk.constructions import build_universal
from utk.shapes import (
    JellyfishSpec,
    Shape,
    caterpillar,
    complete_tree,
    count_shapes,
    enumerate_shapes,
    graft,
    induced_subshape,
    induced_with_leafmap,
    jellyfish,
    join,
    leaf_colors,
    make_leaf,
    parse_code,
    parse_newick,
    replace_subtree,
    subtree_at,
    to_dot,
    to_newick,
    _postorder,
)


class TestLeavesAndJoin:
    def test_make_leaf(self):
        white = make_leaf("white")
        red = make_leaf("red")
        assert white.white_leaves == 1 and white.height == 0
        assert red.white_leaves == 0 and red.has_red
        assert white.code == "o" and red.code == "r"

    def test_make_leaf_rejects_bad_color(self):
        with pytest.raises(ValueError):
            make_leaf("blue")

    def test_cherry(self):
        cherry = join([make_leaf(), make_leaf()])
        assert cherry.white_leaves == 2
        assert cherry.code == "(oo)"

    def test_caterpillar_recursion(self):
        for n in range(2, 8):
            assert join([caterpillar(1), caterpillar(n - 1)]) == caterpillar(n)

    def test_complete_recursion(self):
        b3 = join([complete_tree(2), complete_tree(2)])
        assert b3 == complete_tree(3)
        assert b3.white_leaves == 8

    def test_join_rejects_two_red_parts(self):
        red_cherry = join([make_leaf(), make_leaf("red")])
        with pytest.raises(ValueError):
            join([red_cherry, red_cherry])

    def test_join_rejects_arity_overflow(self):
        with pytest.raises(ValueError):
            join([make_leaf(), make_leaf(), make_leaf()])  # 3 parts, d=2
        assert join([make_leaf(arity=3)] * 3).white_leaves == 3

    def test_join_additivity_exhaustive(self):
        shapes = all_shapes_upto(6)
        for a, b in itertools.product(shapes[:20], shapes[:20]):
            assert join([a, b]).white_leaves == a.white_leaves + b.white_leaves


class TestGraft:
    def test_identity_graft(self):
        for shape in all_shapes_upto(5):
            assert graft(make_leaf("red"), shape) == shape

    def test_graft_builds_caterpillar(self):
        host = join([make_leaf(), make_leaf("red")])
        assert graft(host, caterpillar(2)) == caterpillar(3)

    def test_graft_requires_red_leaf(self):
        with pytest.raises(ValueError):
            graft(caterpillar(2), make_leaf())

    def test_graft_additivity_random_pairs(self):
        rng = random.Random(20240817)
        hosts = all_shapes_upto(6, redleaf=True)
        scions = all_shapes_upto(6)
        for _ in range(100):
            host = rng.choice(hosts)
            scion = rng.choice(scions)
            grafted = graft(host, scion)
            assert grafted.white_leaves == host.white_leaves + scion.white_leaves
            assert not grafted.has_red

    def test_graft_red_scion_keeps_red(self):
        host = join([make_leaf(), make_leaf("red")])
        scion = join([make_leaf(), make_leaf("red")])
        assert graft(host, scion).has_red


class TestFamilies:
    def test_caterpillar_height(self):
        assert caterpillar(5).height == 4
        for n in range(1, 9):
            cat = caterpillar(n)
            assert cat.white_leaves == n and cat.height == n - 1

    def test_complete_size(self):
        for h in range(5):
            assert complete_tree(h).white_leaves == 2**h
            assert complete_tree(h).height == h

    def test_jellyfish_size_and_height(self):
        jelly = jellyfish(h=2, ell=3)
        assert jelly.white_leaves == 12
        assert jelly.height == 4
        for h, ell in itertools.product(range(3), range(2, 5)):
            j = jellyfish(h=h, ell=ell)
            assert j.white_leaves == 2**h * ell
            assert j.height == h + ell - 1

    def test_jellyfish_ell2_is_complete(self):
        for h in range(4):
            assert jellyfish(h=h, ell=2) == complete_tree(h + 1)

    def test_trivial_families_coincide(self):
        assert caterpillar(1) == complete_tree(0) == make_leaf()

    def test_jellyfish_spec_validation(self):
        with pytest.raises(ValueError, match="caterpillar size must be >= 2"):
            JellyfishSpec(h=1, ell=1)
        with pytest.raises(ValueError, match="height must be >= 0"):
            JellyfishSpec(h=-1, ell=2)
        assert jellyfish(JellyfishSpec(1, 4)).white_leaves == 8


class TestClassView:
    @staticmethod
    def subtree_codes(shape):
        stack, codes = [shape], set()
        while stack:
            node = stack.pop()
            codes.add(node.code)
            stack.extend(node.children)
        return codes

    def test_one_class_per_distinct_subtree(self):
        # A parsed shape has one object per distinct subtree, so its
        # postorder is the class view.
        shapes = all_shapes_upto(7) + all_shapes_upto(5, redleaf=True) + all_shapes_upto(5, arity=3)
        for shape in shapes:
            reps, kids = _postorder(parse_code(shape.code, shape.arity))
            codes = [rep.code for rep in reps]
            assert len(set(codes)) == len(codes)
            assert set(codes) == self.subtree_codes(shape)
            assert codes[-1] == shape.code
            for c, (rep, rep_kids) in enumerate(zip(reps, kids)):
                assert all(k < c for k in rep_kids)  # children first
                assert [reps[k].code for k in rep_kids] == [kid.code for kid in rep.children]

    def test_red_and_white_leaves_are_distinct_classes(self):
        reps, kids = _postorder(parse_code("(o(or))"))
        assert [rep.code for rep in reps] == ["o", "r", "(or)", "(o(or))"]
        assert kids == [[], [], [0, 1], [0, 2]]

    def test_recursive_constructions_and_jellyfish(self):
        # Parsed from codes, so the sharing comes from the parser alone.
        # build_universal(n) has 2n - 1 distinct subtrees and a jellyfish
        # J(h, l) has h + l.
        assert len(_postorder(parse_code(build_universal(64).code))[0]) == 127
        assert len(_postorder(parse_code(jellyfish(h=4, ell=64).code))[0]) == 68

    def test_deep_caterpillar(self):
        reps, kids = _postorder(parse_code(caterpillar(3000).code))
        assert len(reps) == 3000 and kids[-1] == [0, 2998]


class TestEnumeration:
    def test_binary_counts_match_brute_force(self):
        # Independent generation: all ordered trees, dedup by raw canonical form.
        for n in range(1, 10):
            classes = {raw_canonical(t) for t in raw_ordered_trees(n)}
            assert count_shapes(n) == len(classes)

    def test_binary_counts_frozen(self):
        assert [count_shapes(n) for n in range(1, 12)] == [
            1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207,
        ]

    def test_counts_match_wedderburn_recurrence(self):
        for n in range(1, 15):
            assert count_shapes(n) == wedderburn(n)

    def test_counts_beyond_listing(self):
        # Counted without listing: W(30) (OEIS A001190), 2..3 children, and
        # one red leaf over 2 children.
        assert count_shapes(30) == 1406818759
        assert [count_shapes(n, 3) for n in range(1, 9)] == [1, 1, 2, 4, 9, 23, 58, 156]
        assert [count_shapes(n, redleaf=True) for n in range(0, 9)] == [
            1, 1, 2, 4, 9, 20, 46, 106, 248,
        ]

    def test_counts_match_enumeration(self):
        for arity in (2, 3, 4, 5):
            for redleaf in (False, True):
                for n in range(0 if redleaf else 1, 9 if arity == 2 else 7):
                    listed = sum(1 for _ in enumerate_shapes(n, arity, redleaf))
                    assert count_shapes(n, arity, redleaf) == listed, (n, arity, redleaf)

    def test_count_domain_matches_enumeration(self):
        for args in ((0,), (-1,), (-1, 2, True), (3, 1)):
            with pytest.raises(ValueError):
                list(enumerate_shapes(*args))
            with pytest.raises(ValueError):
                count_shapes(*args)

    def test_arity_bound_beyond_the_leaf_count_lists_at_once(self):
        # A node has at most n white children (n + 1 with the red leaf), so
        # a bound of 10**9 lists the same shapes as that one, without
        # looping up to it.
        for n in range(1, 9):
            huge = [s.code for s in enumerate_shapes(n, 10**9)]
            assert huge == [s.code for s in enumerate_shapes(n, max(n, 2))]
            huge = [s.code for s in enumerate_shapes(n, 10**9, redleaf=True)]
            assert huge == [s.code for s in enumerate_shapes(n, n + 1, redleaf=True)]

    def test_4ary_count_of_size_four(self):
        assert count_shapes(4, arity=4) == 5

    def test_dary_counts_match_brute_force(self):
        for arity in (3, 4):
            for n in range(1, 7):
                classes = {raw_canonical(t) for t in raw_ordered_trees(n, arity)}
                assert count_shapes(n, arity) == len(classes)

    def test_n1_is_single_leaf(self):
        assert list(enumerate_shapes(1)) == [make_leaf()]

    def test_stream_sorted_and_duplicate_free(self):
        for redleaf in (False, True):
            for n in range(1 - (not redleaf) * 0, 8):
                if n == 0 and not redleaf:
                    continue
                codes = [s.code for s in enumerate_shapes(n, redleaf=redleaf)]
                assert codes == sorted(codes)
                assert len(codes) == len(set(codes))

    def test_redleaf_counts_match_recoloring_oracle(self):
        for n in range(0, 8):
            classes = {raw_to_code(t) for t in raw_redleaf_trees(n)}
            assert count_shapes(n, redleaf=True) == len(classes)

    def test_redleaf_shapes_have_one_red_leaf(self):
        for shape in enumerate_shapes(5, redleaf=True):
            assert shape.has_red
            assert shape.white_leaves == 5
            assert sum(leaf_colors(shape)) == 1

    def test_enumeration_codes_match_independent_canonicalization(self):
        for n in range(1, 8):
            ours = {s.code for s in enumerate_shapes(n)}
            theirs = {raw_to_code(t) for t in raw_ordered_trees(n)}
            assert ours == theirs


class TestCanonicalCode:
    def test_code_examples(self):
        assert caterpillar(4).code == "(o(o(oo)))"
        assert complete_tree(2).code == "((oo)(oo))"

    def test_code_equality_is_isomorphism(self):
        # Raw plane trees, pairwise: permutation-based isomorphism agrees
        # with code equality.
        trees = [t for n in range(1, 7) for t in raw_ordered_trees(n)]
        for a, b in itertools.combinations_with_replacement(trees, 2):
            assert brute_isomorphic(a, b) == (raw_to_code(a) == raw_to_code(b))

    def test_code_equality_is_isomorphism_all_shapes_to_8(self):
        # Every pair of enumerated shapes with <= 8 leaves, checked against
        # the all-child-permutations isomorphism test.
        def to_raw(shape):
            if shape.is_leaf:
                return "r" if shape.red else "o"
            return tuple(to_raw(k) for k in shape.children)

        raws = [(s.code, to_raw(s)) for s in all_shapes_upto(8)]
        for (code_a, raw_a), (code_b, raw_b) in itertools.combinations_with_replacement(
            raws, 2
        ):
            assert brute_isomorphic(raw_a, raw_b) == (code_a == code_b)

    def test_codes_of_all_shapes_upto_8_are_permutation_invariant(self):
        # Reversing children everywhere must not change the code.
        def reverse(shape: Shape) -> Shape:
            if shape.is_leaf:
                return shape
            return Shape(tuple(reverse(k) for k in reversed(shape.children)), False,
                         shape.arity)

        for shape in all_shapes_upto(8):
            assert reverse(shape).code == shape.code

    def test_roundtrip_white(self):
        for shape in all_shapes_upto(8) + [caterpillar(1500)]:
            assert parse_code(shape.code) == shape

    def test_roundtrip_redleaf(self):
        for shape in all_shapes_upto(8, redleaf=True):
            assert parse_code(shape.code) == shape

    def test_parse_accepts_any_child_order(self):
        assert parse_code("((oo)o)") == caterpillar(3)
        assert parse_code("(o(oo))") == caterpillar(3)

    @pytest.mark.parametrize("bad", ["", "x", "(o", "(o))", "(ooo)", "(o)", "((or)r)", "oo",
                                     ")", "o)", "((oo)", "()", "(()o)"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_code(bad)

    def test_parse_arity(self):
        assert parse_code("(ooo)", arity=3).white_leaves == 3
        with pytest.raises(ValueError):
            parse_code("(oooo)", arity=3)


class TestNewickAndDot:
    def test_newick_format(self):
        assert to_newick(make_leaf()) == "x;"
        assert to_newick(caterpillar(3)) == "(x,(x,x));"
        assert to_newick(join([make_leaf(), make_leaf("red")])) == "(x,R);"

    def test_newick_roundtrip(self):
        for shape in all_shapes_upto(7) + all_shapes_upto(5, redleaf=True) + [caterpillar(1500)]:
            assert parse_newick(to_newick(shape)) == shape

    def test_newick_rejects_garbage(self):
        for bad in ["", "(x", "(x,y);", "x,x;", "o", "(x,,x)", "(xx)", "(,x)", "(x,x));",
                    "( x,x)", "()"]:
            with pytest.raises(ValueError):
                parse_newick(bad)

    def test_dot_export_mentions_shapes(self):
        dot = to_dot(join([make_leaf(), make_leaf("red")]))
        assert "digraph" in dot
        assert "shape=box" in dot  # root
        assert "fillcolor=red" in dot
        assert dot.count("shape=circle") == 2

    def test_dot_pinned(self):
        assert to_dot(parse_code("(o(oo))")).splitlines() == [
            "digraph shape {",
            "  rankdir=TB;",
            '  v0 [shape=box, label=""];',
            '  v1 [shape=circle, label=""];',
            "  v0 -> v1;",
            "  v2 [shape=point];",
            "  v0 -> v2;",
            '  v3 [shape=circle, label=""];',
            "  v2 -> v3;",
            '  v4 [shape=circle, label=""];',
            "  v2 -> v4;",
            "}",
        ]
        assert to_dot(parse_code("(o(oo)r)", arity=3), "t").splitlines() == [
            "digraph t {",
            "  rankdir=TB;",
            '  v0 [shape=box, label=""];',
            '  v1 [shape=circle, label=""];',
            "  v0 -> v1;",
            '  v2 [shape=circle, label="", style=filled, fillcolor=red];',
            "  v0 -> v2;",
            "  v3 [shape=point];",
            "  v0 -> v3;",
            '  v4 [shape=circle, label=""];',
            "  v3 -> v4;",
            '  v5 [shape=circle, label=""];',
            "  v3 -> v5;",
            "}",
        ]

    def test_dot_deep_shape(self):
        dot = to_dot(caterpillar(1500))
        assert dot.count("shape=circle") == 1500
        assert dot.endswith("  v2996 -> v2998;\n}")


class TestInducedAndSurgery:
    def test_induced_full_set_is_identity(self):
        for shape in all_shapes_upto(6):
            assert induced_subshape(shape, range(shape.leaf_count)) == shape

    def test_induced_single_leaf(self):
        assert induced_subshape(caterpillar(5), [2]) == make_leaf()

    def test_induced_suppresses_degree_two(self):
        # Keeping the two deepest leaves of C_4 plus the top leaf gives C_3.
        cat = caterpillar(4)
        assert induced_subshape(cat, [0, 2, 3]) == caterpillar(3)
        assert induced_subshape(cat, [2, 3]) == caterpillar(2)
        assert induced_subshape(caterpillar(1500), range(0, 1500, 3)) == caterpillar(500)

    def test_induced_leafmap_is_consistent(self):
        shape = join([complete_tree(2), caterpillar(3)])
        picked = (1, 3, 5)
        induced, leafmap = induced_with_leafmap(shape, picked)
        assert sorted(leafmap) == list(picked)
        assert sorted(leafmap.values()) == list(range(len(picked)))
        assert induced.leaf_count == len(picked)

    def test_induced_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            induced_subshape(caterpillar(3), [5])
        with pytest.raises(ValueError):
            induced_subshape(caterpillar(3), [])

    def test_subtree_and_replace(self):
        cat = caterpillar(4)
        sub = subtree_at(cat, (1,))
        assert sub == caterpillar(3)
        swapped = replace_subtree(cat, (1,), make_leaf())
        assert swapped == caterpillar(2)
        assert replace_subtree(cat, (), make_leaf()) == make_leaf()
        assert replace_subtree(caterpillar(1201), (1,) * 1199, make_leaf()) == caterpillar(1200)
        assert replace_subtree(parse_code("((oo)(o(oo)))"), (1, 1), make_leaf()) == complete_tree(2)
