import itertools
import random

import pytest

from oracles import all_shapes_upto, brute_is_induced_subtree, brute_mast
from utk.constructions import build_universal
from utk.embedding import is_induced_subtree, jellyfish_mast, mast
from utk.shapes import (
    JellyfishSpec,
    caterpillar,
    complete_tree,
    enumerate_shapes,
    jellyfish,
    join,
    make_leaf,
    parse_code,
)


class TestIsInducedSubtree:
    def test_c3_in_b2(self):
        assert is_induced_subtree(caterpillar(3), complete_tree(2))
        assert brute_is_induced_subtree(caterpillar(3), complete_tree(2))

    def test_c4_not_in_b2(self):
        # pattern height 3 exceeds host height 2
        assert not is_induced_subtree(caterpillar(4), complete_tree(2))

    def test_self_embedding(self):
        for shape in all_shapes_upto(7):
            assert is_induced_subtree(shape, shape)

    def test_matches_subset_oracle(self):
        # Acceptance property: patterns up to 4 leaves, hosts up to 6 leaves,
        # redleaf included.
        white_patterns = all_shapes_upto(4)
        red_patterns = all_shapes_upto(3, redleaf=True)
        white_hosts = all_shapes_upto(6)
        red_hosts = all_shapes_upto(5, redleaf=True)
        for pattern in white_patterns:
            for host in white_hosts + red_hosts:
                assert is_induced_subtree(pattern, host) == brute_is_induced_subtree(
                    pattern, host
                ), (pattern.code, host.code)
        for pattern in red_patterns:
            for host in red_hosts:
                assert is_induced_subtree(pattern, host) == brute_is_induced_subtree(
                    pattern, host
                ), (pattern.code, host.code)

    def test_red_pattern_needs_red_host(self):
        red_cherry = join([make_leaf(), make_leaf("red")])
        assert not is_induced_subtree(red_cherry, complete_tree(3))

    def test_white_leaf_cannot_use_red_leaf(self):
        # The host (or) has one white and one red leaf: the white cherry (oo)
        # does not embed although the host has two leaves.
        host = join([make_leaf(), make_leaf("red")])
        assert not is_induced_subtree(join([make_leaf(), make_leaf()]), host)

    def test_transitivity_sampled(self):
        rng = random.Random(986)
        shapes = all_shapes_upto(6)
        for _ in range(300):
            a, b, c = (rng.choice(shapes) for _ in range(3))
            if is_induced_subtree(a, b) and is_induced_subtree(b, c):
                assert is_induced_subtree(a, c)

    def test_monotonicity(self):
        shapes = all_shapes_upto(6)
        for a, b in itertools.product(shapes, repeat=2):
            if is_induced_subtree(a, b):
                assert a.white_leaves <= b.white_leaves
                assert a.height <= b.height

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_induced_subtree(make_leaf(arity=3), make_leaf(arity=2))

    def test_dary_matches_subset_oracle(self):
        patterns = all_shapes_upto(3, arity=3)
        hosts = all_shapes_upto(5, arity=3)
        for pattern, host in itertools.product(patterns, hosts):
            assert is_induced_subtree(pattern, host) == brute_is_induced_subtree(
                pattern, host
            )

    def test_deep_hosts(self):
        # Heights 699 and 4999, beyond Python's recursion limit: the table
        # is filled bottom-up over the host's postorder.
        for size in (700, 5000):
            host = caterpillar(size)
            assert is_induced_subtree(caterpillar(3), host)
            assert not is_induced_subtree(complete_tree(2), host)

    def test_wide_nodes_use_matching_path(self):
        # Host with 6 children exercises the bipartite-matching branch.
        star6 = join([caterpillar(k, arity=6) for k in (1, 1, 2, 2, 3, 3)], arity=6)
        star5 = join([caterpillar(k, arity=6) for k in (1, 2, 2, 3, 3)], arity=6)
        assert is_induced_subtree(star5, star6)
        too_big = join([caterpillar(3, arity=6)] * 5, arity=6)
        assert not is_induced_subtree(too_big, star6)


class TestMast:
    def test_c4_b2(self):
        assert mast(caterpillar(4), complete_tree(2)) == 3

    def test_self_agreement(self):
        for shape in all_shapes_upto(6):
            assert mast(shape, shape) == shape.white_leaves

    def test_matches_brute_force(self):
        # Parsed from codes, so the table's rows come from the codes alone,
        # not from node objects the enumeration shares.
        shapes = [parse_code(shape.code) for shape in all_shapes_upto(5)]
        for t1, t2 in itertools.product(shapes, repeat=2):
            assert mast(t1, t2) == brute_mast(t1, t2), (t1.code, t2.code)

    def test_symmetry(self):
        shapes = all_shapes_upto(6)
        for t1, t2 in itertools.combinations(shapes, 2):
            assert mast(t1, t2) == mast(t2, t1)

    def test_lower_bound_and_containment_characterization(self):
        shapes = all_shapes_upto(6)
        for t1, t2 in itertools.product(shapes, repeat=2):
            value = mast(t1, t2)
            assert value >= 1
            assert (value == t1.white_leaves) == is_induced_subtree(t1, t2)

    def test_deep_caterpillars(self):
        # Height 599, beyond Python's recursion limit.
        assert mast(caterpillar(600), caterpillar(600)) == 600
        assert mast(caterpillar(600), complete_tree(3)) == 4

    def test_parsed_recursive_constructions(self):
        # 63 and 31 distinct subtrees: the table stays small although the
        # shapes have hundreds of leaves and share no node object.
        code = build_universal(32).code
        assert mast(parse_code(code), parse_code(code)) == 683
        small = parse_code(build_universal(16).code)
        assert mast(small, parse_code(code)) == small.white_leaves

    def test_rejects_redleaf(self):
        red = next(enumerate_shapes(2, redleaf=True))
        with pytest.raises(ValueError):
            mast(red, caterpillar(3))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            mast(caterpillar(3, arity=3), caterpillar(3, arity=3))


class TestJellyfishMast:
    def test_closed_form_example(self):
        assert jellyfish_mast(JellyfishSpec(1, 4), JellyfishSpec(2, 2)) == 6

    def test_identical_jellyfish(self):
        for h, ell in itertools.product(range(3), range(2, 5)):
            spec = JellyfishSpec(h, ell)
            assert jellyfish_mast(spec, spec) == 2**h * ell

    def test_swaps_arguments(self):
        assert jellyfish_mast(JellyfishSpec(2, 2), JellyfishSpec(1, 4)) == 6

    def test_matches_dp(self):
        # Acceptance criterion: closed form equals the DP for all
        # h1, h2 <= 3 and ell1, ell2 in 2..5, exactly.
        # Parsed from codes, so no node object is shared.
        specs = [JellyfishSpec(h, ell) for h in range(4) for ell in range(2, 6)]
        trees = {spec: parse_code(jellyfish(spec).code) for spec in specs}
        for s1, s2 in itertools.combinations_with_replacement(specs, 2):
            assert jellyfish_mast(s1, s2) == mast(trees[s1], trees[s2]), (s1, s2)
