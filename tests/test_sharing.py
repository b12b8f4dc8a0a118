"""Shared subtrees: a parsed shape has one object per distinct subtree.

``parse_code`` (and through it ``parse_newick``) returns each repeated
subtree as one shared object, and the builders reuse the parts they repeat,
so ``shapes._postorder``, which lists an object once, is the class view.
These tests check that the sharing changes no code, no output and no
answer: against an unshared copy of each shape (one fresh object per
position) and against the brute-force oracles."""

import itertools
import pathlib
import re

import pytest

from oracles import (
    all_shapes_upto,
    brute_leaf_automorphisms,
    brute_mast,
    induced_shapes,
)
from utk.constructions import (
    build_redleaf_comb,
    build_universal,
    build_universal_redleaf,
    build_universal_tanglegram,
)
from utk.embedding import mast
from utk.search import is_universal
from utk.shapes import (
    Shape,
    _postorder,
    caterpillar,
    complete_tree,
    enumerate_shapes,
    jellyfish,
    leaf_colors,
    parse_code,
    parse_newick,
    to_dot,
    to_newick,
)
from utk.tanglegrams import leaf_automorphisms

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def unshared(shape: Shape) -> Shape:
    """A copy of ``shape`` with one fresh object per position."""
    return Shape([unshared(kid) for kid in shape.children], shape.red, shape.arity)


def positions(shape: Shape) -> list[Shape]:
    """The node at every position of ``shape``, shared or not."""
    stack, out = [shape], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


def assert_one_object_per_subtree(shape: Shape) -> None:
    nodes, _ = _postorder(shape)
    codes = [node.code for node in nodes]
    assert len(set(codes)) == len(codes)
    assert set(codes) == {node.code for node in positions(shape)}


def fixture_codes() -> list[tuple[str, int]]:
    out = []
    for path in sorted(FIXTURES.glob("*.code*")):
        found = re.search(r"_d(\d+)_", path.name)  # universal_catalog_d4_n4.codes: 4
        arity = int(found[1]) if found else 2
        out += [(line, arity) for line in path.read_text().split()]
    return out


SMALL = all_shapes_upto(8) + all_shapes_upto(8, redleaf=True) + all_shapes_upto(8, arity=3)
CODES = ([(s.code, s.arity) for s in SMALL] + fixture_codes()
         + [(build_universal(n).code, 2) for n in range(1, 65)])


class TestParsedShapesShare:
    def test_codes_round_trip_with_one_object_per_subtree(self):
        for code, arity in CODES:
            shape = parse_code(code, arity)
            assert shape.code == code
            assert_one_object_per_subtree(shape)

    def test_newick_parses_share_too(self):
        for code, arity in CODES[:: 7]:
            shape = parse_newick(to_newick(parse_code(code, arity)), arity)
            assert shape.code == code
            assert_one_object_per_subtree(shape)

    def test_built_universal_256_is_511_objects(self):
        # 87,381 positions, 2n - 1 distinct subtrees.
        shape = parse_code(build_universal(256).code)
        assert len(positions(shape)) == 87381
        assert len(_postorder(shape)[0]) == 511

    def test_children_in_any_order_share(self):
        shape = parse_code("(((oo)o)(o(oo)))")
        assert shape.code == "((o(oo))(o(oo)))"
        left, right = shape.children
        leaf, cherry = left.children
        assert left is right and cherry.children == (leaf, leaf)
        assert all(kid is leaf for kid in cherry.children)

    def test_each_parse_has_its_own_objects(self):
        # The table lives for one parse, so nothing outlives it.
        assert parse_code("(oo)") is not parse_code("(oo)")

    @pytest.mark.parametrize("text", ["(rr)", "((or)(or))", "((o)o)", "((ooo)o)"])
    def test_shared_children_still_validated(self, text):
        with pytest.raises(ValueError):
            parse_code(text)

    def test_output_is_byte_identical(self):
        for code, arity in CODES[:: 5]:
            shared = parse_code(code, arity)
            copy = unshared(shared)
            assert len(_postorder(copy)[0]) == len(positions(shared))
            assert to_newick(shared) == to_newick(copy)
            assert to_dot(shared) == to_dot(copy)


class TestBuildersShare:
    def test_fixed_families(self):
        for shape in (caterpillar(50), caterpillar(40, 3), complete_tree(6),
                      jellyfish(h=3, ell=9)):
            assert_one_object_per_subtree(shape)
        assert len(_postorder(caterpillar(50))[0]) == 50

    def test_built_universal_and_comb(self):
        # The redleaf base case reuses the memo's white leaf, and the comb's
        # parts share one memo, so a built shape is one object per distinct
        # subtree; writing it out is unchanged.
        built = [build_universal(n) for n in range(1, 65)]
        built += [build_universal_redleaf(n) for n in (1, 2, 5, 16)]
        built += [build_redleaf_comb(k, d) for k in range(0, 5) for d in (2, 3)]
        for shape in built:
            assert_one_object_per_subtree(shape)
            copy = unshared(shape)
            assert copy.code == shape.code
            assert to_newick(copy) == to_newick(shape)
            assert to_dot(copy) == to_dot(shape)
        for n in (1, 2, 4, 8, 16, 32, 64):
            assert len(_postorder(build_universal(n))[0]) == 2 * n - 1
        assert len(_postorder(build_redleaf_comb(3))[0]) == 31
        # The d = 3 comb builds each size's part once, however often svec
        # repeats it; each step is one root over two parts and the tail.
        assert len(_postorder(build_redleaf_comb(2, 3))[0]) == 15

    def test_universal_tanglegram(self):
        for n in (3, 4, 5):
            for universal in (build_universal(n), parse_code(build_universal(n).code)):
                t = build_universal_tanglegram(n, universal)
                assert t.left is t.right
                assert_one_object_per_subtree(t.left)
                # The same tree, position by position, as when built unshared.
                assert t.left.code == build_universal_tanglegram(n, unshared(universal)).left.code


class TestSameAnswers:
    def test_is_universal_matches_unshared_and_oracle(self):
        cases = ([(s, n, False) for s in all_shapes_upto(8) for n in (3, 4)]
                 + [(s, n, True) for s in all_shapes_upto(6, redleaf=True) for n in (1, 2, 3)]
                 + [(s, n, False) for s in all_shapes_upto(7, arity=3) for n in (3, 4)])
        for shape, n, red in cases:
            shared = parse_code(shape.code, shape.arity)
            answer = is_universal(shared, n, shape.arity, red)
            assert is_universal(unshared(shared), n, shape.arity, red) == answer
            patterns = {p.code for p in enumerate_shapes(n, shape.arity, red)}
            size = n + 1 if red else n
            assert answer == (patterns <= induced_shapes(shared, size, need_red=red))

    def test_is_universal_on_catalogs_and_constructions(self):
        hosts = [(code, int(path.stem[-2:]))
                 for path in sorted(FIXTURES.glob("universal_catalog_n0[4-9].codes"))
                 for code in path.read_text().split()]
        hosts += [(build_universal(n).code, n) for n in range(2, 13)]
        for code, n in hosts:
            shared = parse_code(code)
            assert is_universal(shared, n)
            assert is_universal(unshared(shared), n)
            # One level up the minimal hosts fail; the answers agree either way.
            assert is_universal(shared, n + 1) == is_universal(unshared(shared), n + 1)

    def test_mast_matches_unshared_and_oracle(self):
        small = [s for s in all_shapes_upto(7) if s.white_leaves >= 4]
        for a, b in itertools.combinations_with_replacement(small, 2):
            shared_a, shared_b = parse_code(a.code), parse_code(b.code)
            answer = mast(shared_a, shared_b)
            assert answer == mast(unshared(shared_a), unshared(shared_b))
            assert answer == brute_mast(a, b)

    def test_mast_on_constructions(self):
        codes = [build_universal(n).code for n in (5, 8, 13, 16)]
        codes += [jellyfish(h=h, ell=16 // 2**h).code for h in range(4)]
        for left, right in itertools.combinations_with_replacement(codes, 2):
            shared = mast(parse_code(left), parse_code(right))
            assert shared == mast(unshared(parse_code(left)), unshared(parse_code(right)))
        big = parse_code(build_universal(64).code)
        assert mast(big, big) == big.white_leaves

    def test_leaf_automorphisms_match_unshared_and_oracle(self):
        shapes = all_shapes_upto(6) + all_shapes_upto(5, redleaf=True) + all_shapes_upto(6, arity=3)
        for shape in shapes:
            shared = parse_code(shape.code, shape.arity)
            auts = leaf_automorphisms(shared)
            assert auts == leaf_automorphisms(unshared(shared))
            # The oracle reads leaf depths only; an automorphism keeps colors.
            colors = leaf_colors(shape)
            assert set(auts) == {perm for perm in brute_leaf_automorphisms(shape)
                                 if all(colors[p] == red for p, red in zip(perm, colors))}
