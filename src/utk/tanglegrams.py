"""Tanglegrams: two equal-size white tree shapes with a perfect matching
between their leaf sets.

A tanglegram is stored as ``(left, right, matching)`` where ``matching[i]``
is the right-tree leaf position matched with left-tree leaf position ``i``
(positions follow each shape's canonical leaf order).  Two tanglegrams are
isomorphic when a graph isomorphism maps one to the other fixing the left
root and the right root; equivalently, when their trees are equal as shapes
and some pair of leaf automorphisms carries one matching to the other.
Swapping the left and right trees is *not* quotiented out.

Canonical codes take the form ``<left code>|<right code>|<permutation>``
with the permutation minimized lexicographically over the automorphism
orbit, so isomorphism is again plain string equality.  The automorphism
orbit is enumerated explicitly, which is fine at the small sizes where
canonicalization is ever needed; never canonicalize a tanglegram whose trees
have huge automorphism groups (e.g. large complete trees).

Containment and universality scan every k-subset of matching edges, but
they canonicalize only a few of them.  Before the scan, each tree gets a
table of leaf-pair LCA depths.  A subset's key is the rank pattern of the
left depths over its pairs plus the rank pattern of the right depths over
the matched pairs, both listed in left order.  The key fixes the induced
tanglegram: a leaf z lies under LCA(x, y) iff depth(x, z) >= depth(x, y),
so the pattern gives the cluster of every induced vertex, hence both induced
trees with their leaves labelled by the edges, hence the matching.  Equal
keys of one arity bound therefore mean isomorphic subtanglegrams, whichever
tanglegrams they came from.  So one table per process maps each (arity,
key) to its canonical code, and a key is canonicalized only the first time
any scan meets it.

A side's pattern is a labelled induced tree plus an order, ties allowed, of
its internal depths, so with R(k) such patterns the table holds at most
R(k)^2 keys per arity and k.  For binary trees R(4) = 21: 12 from the
labelled caterpillars and 9 from the 3 labelled balanced trees, whose two
cherries sit at equal depths or either one deeper.  R(5) = 60 + 30*5 +
15*3 = 255: the 60 labelled caterpillars; the 30 labellings of
((oo)(o(oo))), whose lone cherry sits above, level with, between, level
with or below the two internal vertices of the other subtree; and the 15 of
(o((oo)(oo))), whose two cherries sit in 3 orders.  The left pattern also
follows the left tree's leaf order, so fewer occur on that side: 7 of the
21 at k = 4 (the 5 ordered trees, the balanced one in its 3 depth orders),
and the binary k = 4 table fills up at 7 * 21 = 147 keys.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from functools import lru_cache

from utk.shapes import (
    Shape,
    _Record,
    _dot_tree,
    _postorder,
    enumerate_shapes,
    induced_with_leafmap,
    parse_newick,
    to_newick,
)

__all__ = [
    "Tanglegram",
    "leaf_automorphisms",
    "canonical_tanglegram",
    "enumerate_tanglegrams",
    "count_tanglegrams",
    "induced_subtanglegram",
    "is_induced_subtanglegram",
    "is_universal_tanglegram",
    "format_tanglegram",
    "parse_tanglegram",
    "tanglegram_dot",
]


class Tanglegram(_Record):
    __slots__ = ("left", "right", "matching")

    def __init__(self, left: Shape, right: Shape, matching: tuple[int, ...]):
        if left.has_red or right.has_red:
            raise ValueError("tanglegram trees must be white-only")
        if left.arity != right.arity:
            raise ValueError("tanglegram trees must share an arity bound")
        n = left.white_leaves
        if right.white_leaves != n:
            raise ValueError("tanglegram trees must have equally many leaves")
        if sorted(matching) != list(range(n)):
            raise ValueError("matching must be a permutation of the leaf positions")
        self._set(left, right, matching)

    @property
    def size(self) -> int:
        return self.left.white_leaves

    def mirror(self) -> "Tanglegram":
        """Swap the left and right trees (matching inverted)."""
        inverse = [0] * self.size
        for i, j in enumerate(self.matching):
            inverse[j] = i
        return Tanglegram(self.right, self.left, tuple(inverse))

    def code(self) -> str:
        return canonical_tanglegram(self)

    def __repr__(self) -> str:
        return f"Tanglegram({format_tanglegram(self)!r})"


# --------------------------------------------------------------------------- #
# Automorphisms and canonical codes
# --------------------------------------------------------------------------- #


def leaf_automorphisms(shape: Shape) -> list[tuple[int, ...]]:
    """All permutations of leaf positions induced by tree automorphisms.

    Children with equal codes may be permuted among themselves; every child
    contributes its own automorphisms.  The group is returned explicitly, so
    only call this for shapes whose group is small.
    """
    nodes, kids_of = _postorder(shape)
    # A node's group is dropped once its last parent has read it, so a deep
    # spine holds only the groups not yet combined.
    unread = [0] * len(nodes)
    for kid_ids in kids_of:
        for j in kid_ids:
            unread[j] += 1
    auts: list[list[tuple[int, ...]] | None] = []  # per postorder node
    for node, kid_ids in zip(nodes, kids_of):
        if not kid_ids:
            auts.append([(0,)])
            continue
        kids = node.children
        sizes = [k.leaf_count for k in kids]
        offsets = [0]
        for s in sizes[:-1]:
            offsets.append(offsets[-1] + s)
        kid_auts = [auts[j] for j in kid_ids]
        for j in kid_ids:
            unread[j] -= 1
            if not unread[j]:
                auts[j] = None

        # Groups of consecutive equal children (canonical order keeps them
        # adjacent).
        groups: list[list[int]] = []
        for idx, kid in enumerate(kids):
            if groups and kids[groups[-1][0]].code == kid.code:
                groups[-1].append(idx)
            else:
                groups.append([idx])

        group_perms = [list(itertools.permutations(g)) for g in groups]
        out = []
        for placement in itertools.product(*group_perms):
            target = {}
            for group, perm in zip(groups, placement):
                for src, dst in zip(group, perm):
                    target[src] = dst
            for chosen in itertools.product(*kid_auts):
                perm = [0] * (offsets[-1] + sizes[-1])
                for i in range(len(kids)):
                    base, dest = offsets[i], offsets[target[i]]
                    aut = chosen[i]
                    for local in range(sizes[i]):
                        perm[base + local] = dest + aut[local]
                out.append(tuple(perm))
        auts.append(out)
    return auts[-1]


def _orbit(matching: tuple[int, ...], auts_left, auts_right) -> Iterator[tuple[int, ...]]:
    n = len(matching)
    for g_left in auts_left:
        # sigma o g_left^{-1}
        moved = [0] * n
        for p in range(n):
            moved[g_left[p]] = matching[p]
        for g_right in auts_right:
            yield tuple(g_right[moved[p]] for p in range(n))


def canonical_tanglegram(t: Tanglegram) -> str:
    """Canonical code; equal codes mean isomorphic tanglegrams."""
    best = min(_orbit(t.matching, leaf_automorphisms(t.left), leaf_automorphisms(t.right)))
    return _render_code(t.left, t.right, best)


def _render_code(left: Shape, right: Shape, matching: Iterable[int]) -> str:
    return f"{left.code}|{right.code}|{' '.join(str(i) for i in matching)}"


# --------------------------------------------------------------------------- #
# Enumeration
# --------------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def _tanglegram_classes(n: int, arity: int) -> tuple[Tanglegram, ...]:
    shapes = list(enumerate_shapes(n, arity))
    auts = {s.code: leaf_automorphisms(s) for s in shapes}
    out = []
    for left, right in itertools.product(shapes, repeat=2):
        seen: set[tuple[int, ...]] = set()
        for sigma in itertools.permutations(range(n)):
            if sigma in seen:
                continue
            orbit = set(_orbit(sigma, auts[left.code], auts[right.code]))
            seen |= orbit
            out.append(Tanglegram(left, right, min(orbit)))
    out.sort(key=lambda t: _render_code(t.left, t.right, t.matching))
    return tuple(out)


def enumerate_tanglegrams(n: int, arity: int = 2) -> Iterator[Tanglegram]:
    """One representative per isomorphism class of size-``n`` tanglegrams,
    sorted by canonical code.  Practical for desk-scale ``n`` (about 6)."""
    if n < 1:
        raise ValueError("tanglegram size must be >= 1")
    yield from _tanglegram_classes(n, arity)


def count_tanglegrams(n: int, arity: int = 2) -> int:
    return len(_tanglegram_classes(n, arity))


@lru_cache(maxsize=None)
def _class_codes(n: int, arity: int) -> frozenset[str]:
    """Canonical codes of the size-``n`` classes.  Each representative
    already holds the minimal matching of its orbit, so rendering it gives
    its canonical code."""
    return frozenset(
        _render_code(c.left, c.right, c.matching) for c in enumerate_tanglegrams(n, arity)
    )


# --------------------------------------------------------------------------- #
# Induced subtanglegrams and universality
# --------------------------------------------------------------------------- #


def induced_subtanglegram(t: Tanglegram, left_positions: Iterable[int]) -> Tanglegram:
    """Subtanglegram induced by the matching edges at the given left-leaf
    positions: both leaf sets induce subtrees, and the selected edges are
    kept (re-indexed to the induced trees' canonical leaf orders)."""
    edges = [(p, t.matching[p]) for p in sorted(set(left_positions))]
    if not edges:
        raise ValueError("need at least one matching edge")
    left, left_map = induced_with_leafmap(t.left, [p for p, _ in edges])
    right, right_map = induced_with_leafmap(t.right, [q for _, q in edges])
    matching = [0] * len(edges)
    for p, q in edges:
        matching[left_map[p]] = right_map[q]
    return Tanglegram(left, right, tuple(matching))


def _lca_depths(shape: Shape) -> list[list[int]]:
    """``depth[p][q]``: the depth of the lowest common ancestor of leaf
    positions ``p`` and ``q`` (root depth 0; ``depth[p][p]`` is the leaf's own
    depth).

    One iterative preorder walk records the LCA depth of each pair of
    consecutive leaves.  Popping a child other than the first at depth d
    means the next leaf and the one before it meet at that child's parent, at
    depth d - 1.  In leaf order, the LCA depth of ``p < q`` is the minimum of
    those between them.
    """
    leaf_depth: list[int] = []
    gaps: list[int] = []  # gaps[r]: LCA depth of leaves r and r + 1
    opened = 0
    stack = [(shape, 0, True)]
    while stack:
        node, depth, first = stack.pop()
        if not first:
            opened = depth - 1
        if node.is_leaf:
            if leaf_depth:
                gaps.append(opened)
            leaf_depth.append(depth)
            continue
        kids = node.children
        stack.extend((kids[i], depth + 1, i == 0) for i in range(len(kids) - 1, -1, -1))
    size = len(leaf_depth)
    table = [[0] * size for _ in range(size)]
    for p in range(size):
        row = table[p]
        low = row[p] = leaf_depth[p]
        for q in range(p + 1, size):
            low = min(low, gaps[q - 1])
            row[q] = table[q][p] = low
    return table


def _ranks(values: list[int]) -> tuple[int, ...]:
    """Each value replaced by its rank among the distinct values."""
    levels = sorted(set(values))
    return tuple(map(levels.index, values))


# Canonical code of the subtanglegram each ``(arity, left ranks, right
# ranks)`` key fixes, filled from the first subset scanned with that key.
# A key fixes its subtanglegram whatever tanglegram it came from, so every
# scan in the process shares the table.
_CODE_BY_KEY: dict[tuple[int, tuple[int, ...], tuple[int, ...]], str] = {}


def _subset_codes(t: Tanglegram, k: int) -> Iterator[str]:
    """Canonical code of the subtanglegram induced by each ``k``-subset of
    matching edges, subsets in lexicographic order of left positions.

    A subset's key is the rank pattern of the left LCA depths over its pairs
    plus that of the right LCA depths over the matched pairs, both in left
    order.  Equal keys give isomorphic subtanglegrams (see the module
    docstring), so a key is canonicalized only the first time any scan
    meets it (``_CODE_BY_KEY``).  The raw depths of a subset's pairs are
    memoized per scan in front of the key, which saves ranking them again
    for each subset; their packing depends on this tanglegram's height.
    """
    size, m, arity = t.size, t.matching, t.left.arity
    left, right = _lca_depths(t.left), _lca_depths(t.right)
    # One table over left positions: each entry packs the left LCA depth of
    # a pair with the right LCA depth of the pair it is matched to.
    width = t.right.height + 1
    both = [[left[p][q] * width + right[m[p]][m[q]] for q in range(size)] for p in range(size)]
    by_depths: dict[tuple, str] = {}
    for head in itertools.combinations(range(size), k - 1):
        start = head[-1] + 1 if head else 0
        inner = tuple([both[a][b] for a, b in itertools.combinations(head, 2)])
        # Entry j + 1 of a column is the packed depth of (head[j], q); entry
        # 0 is q itself, which keeps the zip going when the head is empty.
        for column in zip(range(start, size), *[both[p][start:] for p in head]):
            depths = (inner, column[1:])
            code = by_depths.get(depths)
            if code is None:
                subset = head + column[:1]
                pairs = list(itertools.combinations(subset, 2))
                key = (
                    arity,
                    _ranks([left[a][b] for a, b in pairs]),
                    _ranks([right[m[a]][m[b]] for a, b in pairs]),
                )
                code = _CODE_BY_KEY.get(key)
                if code is None:
                    code = _CODE_BY_KEY[key] = canonical_tanglegram(
                        induced_subtanglegram(t, subset)
                    )
                by_depths[depths] = code
            yield code


def is_induced_subtanglegram(small: Tanglegram, big: Tanglegram) -> bool:
    """True iff some subset of ``big``'s matching edges induces a tanglegram
    isomorphic to ``small``."""
    if small.size > big.size:
        return False
    wanted = canonical_tanglegram(small)
    return any(code == wanted for code in _subset_codes(big, small.size))


def is_universal_tanglegram(t: Tanglegram, n: int) -> bool:
    """True iff every isomorphism class of size-``n`` tanglegrams occurs as
    an induced subtanglegram of ``t``."""
    if t.size < n:
        return False
    needed = set(_class_codes(n, t.left.arity))
    for code in _subset_codes(t, n):
        needed.discard(code)
        if not needed:
            return True
    return False


# --------------------------------------------------------------------------- #
# Text and DOT formats
# --------------------------------------------------------------------------- #


def format_tanglegram(t: Tanglegram) -> str:
    """``<newick-left>|<newick-right>|<perm as space-separated 0-based list>``"""
    return "|".join(
        (to_newick(t.left), to_newick(t.right), " ".join(str(i) for i in t.matching))
    )


def parse_tanglegram(text: str, arity: int = 2) -> Tanglegram:
    parts = text.strip().split("|")
    if len(parts) != 3:
        raise ValueError("tanglegram text needs exactly 3 '|'-separated fields")
    left = parse_newick(parts[0], arity)
    right = parse_newick(parts[1], arity)
    matching = tuple(int(tok) for tok in parts[2].split())
    return Tanglegram(left, right, matching)


def tanglegram_dot(t: Tanglegram, name: str = "tanglegram") -> str:
    """DOT export: the two trees face each other, matching edges dashed."""
    lines = [f"graph {name} {{", "  rankdir=LR;"]
    left = _dot_tree(t.left, "L", "--", lines)
    right = _dot_tree(t.right, "R", "--", lines)
    for p, q in enumerate(t.matching):
        lines.append(f"  {left[p]} -- {right[q]} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)
