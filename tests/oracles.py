"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately written against raw nested tuples or plain
subset enumeration, not against the library's own data structures, so that
library results are checked by a second, independent route.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from utk.shapes import Shape, enumerate_shapes, induced_subshape, leaf_colors

# Raw ordered trees: a leaf is 'o' or 'r', an internal node is a tuple of
# children in construction (not canonical) order.


@lru_cache(maxsize=None)
def raw_ordered_trees(n: int, arity: int = 2) -> tuple:
    """All ordered (plane) trees with n white leaves, as nested tuples."""
    if n == 1:
        return ("o",)
    out = []
    for num_parts in range(2, arity + 1):
        for sizes in _compositions(n, num_parts):
            for combo in itertools.product(*(raw_ordered_trees(s, arity) for s in sizes)):
                out.append(combo)
    return tuple(out)


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def raw_canonical(tree) -> tuple | str:
    """Canonical form of a raw tree: recursively sorted nested tuples."""
    if isinstance(tree, str):
        return tree
    return tuple(sorted((raw_canonical(c) for c in tree), key=repr))


def raw_redleaf_trees(n_white: int, arity: int = 2):
    """All ordered trees with n_white white leaves and one red leaf, obtained
    by recoloring each leaf of every (n_white + 1)-leaf ordered tree."""
    if n_white == 0:
        yield "r"
        return
    for tree in raw_ordered_trees(n_white + 1, arity):
        for k in range(n_white + 1):
            yield _color_leaf(tree, k)[0]


def _color_leaf(tree, k: int):
    """Replace the k-th leaf (left-to-right) by a red leaf; returns
    (new_tree, leaves_consumed)."""
    if isinstance(tree, str):
        return ("r" if k == 0 else tree), 1
    parts = []
    seen = 0
    for child in tree:
        new_child, used = _color_leaf(child, k - seen)
        parts.append(new_child)
        seen += used
    return tuple(parts), seen


def raw_to_code(tree) -> str:
    """Canonical code of a raw tree, computed independently of Shape."""
    if isinstance(tree, str):
        return tree
    order = str.maketrans({"o": "\x00", "r": "\x01", "(": "\x02", ")": "\x03"})
    kids = sorted((raw_to_code(c) for c in tree), key=lambda s: s.translate(order))
    return "(" + "".join(kids) + ")"


def brute_isomorphic(a, b) -> bool:
    """Rooted-tree isomorphism on raw trees by trying all child pairings."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if len(a) != len(b):
        return False
    return any(
        all(brute_isomorphic(x, y) for x, y in zip(a, perm))
        for perm in itertools.permutations(b)
    )


# Subset-enumeration oracles for induced-subtree questions.


def induced_shapes(host: Shape, size: int, need_red: bool = False) -> set[str]:
    """Codes of all shapes induced by 'size'-leaf subsets of host.

    With need_red=True only subsets containing the red leaf count, and the
    returned shapes keep it; with need_red=False the red leaf (if any) is
    never selected.
    """
    colors = leaf_colors(host)
    whites = [i for i, red in enumerate(colors) if not red]
    reds = [i for i, red in enumerate(colors) if red]
    out = set()
    if need_red:
        if not reds:
            return out
        for combo in itertools.combinations(whites, size - 1):
            out.add(induced_subshape(host, combo + (reds[0],)).code)
    else:
        for combo in itertools.combinations(whites, size):
            out.add(induced_subshape(host, combo).code)
    return out


def brute_is_induced_subtree(pattern: Shape, host: Shape) -> bool:
    size = pattern.leaf_count
    if size > host.leaf_count:
        return False
    return pattern.code in induced_shapes(host, size, need_red=pattern.has_red)


def brute_mast(t1: Shape, t2: Shape) -> int:
    """Maximum agreement subtree size by intersecting full induced-shape sets."""
    best = 0
    for size in range(min(t1.white_leaves, t2.white_leaves), 0, -1):
        if induced_shapes(t1, size) & induced_shapes(t2, size):
            best = size
            break
    return best


def wedderburn(n: int) -> int:
    """Number of binary shapes with n leaves, by the classic recurrence."""
    w = [0, 1]
    for m in range(2, n + 1):
        total = sum(w[i] * w[m - i] for i in range(1, (m - 1) // 2 + 1))
        if m % 2 == 0:
            half = w[m // 2]
            total += half * (half + 1) // 2
        w.append(total)
    return w[n]


def all_shapes_upto(n: int, arity: int = 2, redleaf: bool = False) -> list[Shape]:
    lo = 0 if redleaf else 1
    return [s for m in range(lo, n + 1) for s in enumerate_shapes(m, arity, redleaf)]


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
