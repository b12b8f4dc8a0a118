"""The centroid split of ``proofs.py``: tau_W against an independent
component walk, the halving bounds and exact reassembly for white, redleaf
and d-ary shapes."""

import pytest

from proofs import split, white_leaf_centroid
from utk.shapes import (
    Shape,
    caterpillar,
    complete_tree,
    enumerate_shapes,
    join,
    make_leaf,
    parse_code,
)


def tau_by_component_walk(shape: Shape) -> dict[tuple, int]:
    """Independent tau_W computation: materialize the vertex graph, delete a
    vertex, walk the remaining components, count white leaves."""
    vertices = []
    edges = {}
    colors = {}

    def build(node, path):
        vertices.append(path)
        edges.setdefault(path, [])
        colors[path] = node.is_leaf and not node.red
        for idx, kid in enumerate(node.children):
            child_path = path + (idx,)
            edges[path].append(child_path)
            edges.setdefault(child_path, []).append(path)
            build(kid, child_path)

    build(shape, ())
    tau = {}
    for v in vertices:
        best = 0
        seen = {v}
        for start in edges[v]:
            if start in seen:
                continue
            stack, comp = [start], set()
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp.add(u)
                stack.extend(w for w in edges[u] if w != v and w not in comp)
            seen |= comp
            whites = sum(1 for u in comp if colors[u])
            best = max(best, whites)
        tau[v] = best + (1 if colors[v] else 0)
    return tau


class TestCentroid:
    def test_tau_matches_component_walk(self):
        shapes = [s for n in range(2, 11) for s in enumerate_shapes(n)]
        shapes += [s for n in range(2, 8) for s in enumerate_shapes(n, redleaf=True)]
        shapes += [s for n in range(2, 7) for s in enumerate_shapes(n, arity=3)]
        for shape in shapes:
            report = white_leaf_centroid(shape)
            assert report.tau == tau_by_component_walk(shape), shape.code

    def test_b2_root(self):
        report = white_leaf_centroid(complete_tree(2))
        assert report.tau[()] == 2
        assert report.designated == ()
        assert len(report.tau) == 7

    def test_c4_centroid_is_parent_of_bottom_cherry(self):
        # C_4 canonical form is (o(o(oo))): the parent of the bottom cherry
        # sits at path (1,).
        report = white_leaf_centroid(caterpillar(4))
        assert report.tau[(1,)] == 2
        assert (1,) in report.centroids
        assert report.designated == (1,)

    def test_centroid_bound_all_small_shapes(self):
        for n in range(2, 11):
            for shape in enumerate_shapes(n):
                report = white_leaf_centroid(shape)
                assert min(report.tau.values()) <= n // 2

    def test_designated_is_internal(self):
        for n in range(2, 9):
            for shape in enumerate_shapes(n):
                report = white_leaf_centroid(shape)
                vertex = shape
                for idx in report.designated:
                    vertex = vertex.children[idx]
                assert not vertex.is_leaf

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            white_leaf_centroid(make_leaf())
        with pytest.raises(ValueError):
            white_leaf_centroid(join([make_leaf(), make_leaf("red")]))


class TestSplitForUniversal:
    """White binary shapes."""

    def test_b2_splits_at_root(self):
        cut = split(complete_tree(2))
        assert cut.f1 == make_leaf("red")
        assert cut.parts == (complete_tree(1), complete_tree(1))
        assert cut.kind == "universal"

    def test_smallest_case(self):
        cut = split(caterpillar(2))
        assert cut.f1 == make_leaf("red")
        assert cut.parts == (make_leaf(), make_leaf())

    def test_reassembly_and_bounds_exhaustive(self):
        for n in range(2, 10):
            for shape in enumerate_shapes(n):
                cut = split(shape)
                assert cut.reassemble() == shape
                assert len(cut.parts) == 2
                for part in (cut.f1, *cut.parts):
                    assert part.white_leaves <= n // 2

    def test_rejects_redleaf_and_tiny(self):
        with pytest.raises(ValueError):
            split(next(enumerate_shapes(2, redleaf=True)))
        with pytest.raises(ValueError):
            split(make_leaf())


class TestSplitForRedleaf:
    """Redleaf binary shapes: the red part first, the other part second."""

    def test_reassembly_exhaustive(self):
        for n in range(2, 9):
            for shape in enumerate_shapes(n, redleaf=True):
                cut = split(shape, redleaf=True)
                assert cut.reassemble() == shape
                red, other = cut.parts
                assert red.has_red
                assert not other.has_red

    def test_descendant_case_example(self):
        # Caterpillar-like shape with the red leaf at the very bottom: the
        # centroid sits above it, so the red leaf is a descendant.
        shape = parse_code("(o(o(o(o(o(or))))))")
        cut = split(shape, redleaf=True)
        assert cut.kind == "redleaf-descendant"
        assert cut.parts[0].has_red

    def test_case_bounds(self):
        for n in range(2, 9):
            for shape in enumerate_shapes(n, redleaf=True):
                cut = split(shape, redleaf=True)
                red, other = cut.parts
                if cut.kind == "redleaf-descendant":
                    for part in (cut.f1, red, other):
                        assert part.white_leaves <= n // 2
                else:
                    assert cut.kind == "redleaf-ancestor"
                    assert cut.f1.white_leaves + red.white_leaves <= n // 2
                    assert other.white_leaves <= n

    def test_ancestor_part_can_exceed_half(self):
        # Regression: the centroid-carrying part is NOT bounded by n/2.
        # Here the centroid lies inside the caterpillar, the red leaf hangs
        # off the root, and that part keeps all 4 white leaves.
        shape = join([make_leaf("red"), caterpillar(4)])
        cut = split(shape, redleaf=True)
        assert cut.kind == "redleaf-ancestor"
        assert cut.parts[1].white_leaves == 4 > 4 // 2
        assert cut.reassemble() == shape

    def test_rejects_white_shape(self):
        with pytest.raises(ValueError):
            split(caterpillar(3), redleaf=True)


class TestSplitDary:
    def test_three_star(self):
        star = join([make_leaf(arity=3)] * 3, arity=3)
        cut = split(star)
        assert cut.f1 == make_leaf("red", arity=3)
        assert cut.parts == (make_leaf(arity=3),) * 3

    def test_reassembly_white_exhaustive(self):
        for n in range(2, 7):
            for shape in enumerate_shapes(n, arity=3):
                cut = split(shape)
                assert cut.reassemble() == shape
                assert cut.f1.white_leaves <= n // 2
                for part in cut.parts:
                    assert part.white_leaves <= n // 2

    def test_reassembly_white_4ary(self):
        for n in range(2, 6):
            for shape in enumerate_shapes(n, arity=4):
                cut = split(shape)
                assert cut.reassemble() == shape
                for part in cut.parts:
                    assert part.white_leaves <= n // 2

    def test_redleaf_cases(self):
        for n in range(2, 6):
            for shape in enumerate_shapes(n, arity=3, redleaf=True):
                cut = split(shape, redleaf=True)
                assert cut.reassemble() == shape
                assert cut.parts[0].has_red
                if cut.kind == "redleaf-descendant":
                    assert cut.centroid_part is None
                    assert cut.f1.white_leaves <= n // 2
                    for part in cut.parts:
                        assert part.white_leaves <= n // 2
                else:
                    assert cut.kind == "redleaf-ancestor"
                    assert cut.centroid_part == 1
                    assert (
                        cut.f1.white_leaves + cut.parts[0].white_leaves <= n // 2
                    )
                    for idx, part in enumerate(cut.parts):
                        if idx != cut.centroid_part and idx != 0:
                            assert part.white_leaves <= n // 2

    def test_redleaf_flag_mismatch(self):
        with pytest.raises(ValueError):
            split(caterpillar(3, arity=3), redleaf=True)
