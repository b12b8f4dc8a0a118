"""An oracle for the benchmark's correctness checks, independent of utk.

It works on canonical-code strings and raw nested tuples only: a leaf is
``"o"`` (white) or ``"r"`` (red) and an internal vertex is a tuple of its
children.  It imports nothing from utk, so a fault in utk's embedding,
search or tanglegram code cannot hide itself here.

Containment is decided by a different method from utk's pairwise dynamic
program: for every vertex of the host, bottom up, the oracle collects the
canonical codes of *all* shapes that leaf subsets of that vertex's subtree
induce, size by size.  A pattern is contained when its code is in the
root's set, and a host is n-universal when the root's size-n set holds
every shape the oracle enumerates for n.  ``perfbench/check_oracle.py``
compares the oracle with brute-force leaf-subset enumeration.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# Child order of the canonical code: leaves before subtrees, white before red.
_ORDER = str.maketrans({"o": "\x00", "r": "\x01", "(": "\x02", ")": "\x03"})


def join(parts) -> str:
    """Canonical code of a root over the given canonical child codes."""
    return "(" + "".join(sorted(parts, key=lambda c: c.translate(_ORDER))) + ")"


def parse(code: str):
    """Raw nested tuple of a code; children keep their written order."""
    stack: list[list] = [[]]
    for ch in code.strip():
        if ch in "or":
            stack[-1].append(ch)
        elif ch == "(":
            stack.append([])
        elif ch == ")":
            kids = stack.pop()
            if len(kids) < 2 or not stack:
                raise ValueError(f"malformed code {code!r}")
            stack[-1].append(tuple(kids))
        else:
            raise ValueError(f"unexpected {ch!r} in code {code!r}")
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"malformed code {code!r}")
    return stack[0][0]


def code(tree) -> str:
    """Canonical code of a raw tree."""
    if isinstance(tree, str):
        return tree
    return join([code(kid) for kid in tree])


def white_leaves(tree) -> int:
    if isinstance(tree, str):
        return tree == "o"
    return sum(white_leaves(kid) for kid in tree)


def red_leaves(tree) -> int:
    if isinstance(tree, str):
        return tree == "r"
    return sum(red_leaves(kid) for kid in tree)


def height(tree) -> int:
    if isinstance(tree, str):
        return 0
    return 1 + max(height(kid) for kid in tree)


def arity(tree) -> int:
    """Largest number of children of a vertex (1 for a single leaf)."""
    if isinstance(tree, str):
        return 1
    return max([len(tree)] + [arity(kid) for kid in tree])


def delete_leaf(tree, index: int):
    """The tree with its ``index``-th leaf (left to right) removed and the
    leaf's parent suppressed."""

    def walk(node, i):
        # Returns (new node or None, leaves consumed).
        if isinstance(node, str):
            return (None if i == 0 else node), 1
        kids, used = [], 0
        for kid in node:
            new, n = walk(kid, i - used)
            used += n
            if new is not None:
                kids.append(new)
        if len(kids) == 1:
            return kids[0], used
        return tuple(kids), used

    new, used = walk(tree, index)
    if new is None or not 0 <= index < used:
        raise ValueError("leaf index out of range")
    return new


# --------------------------------------------------------------------------- #
# Enumeration
# --------------------------------------------------------------------------- #


def _partitions(total: int, parts: int, low: int = 1):
    """Nondecreasing tuples of ``parts`` integers >= low summing to total."""
    if parts == 1:
        if total >= low:
            yield (total,)
        return
    for first in range(low, total // parts + 1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def shapes(n: int, d: int = 2, red: bool = False) -> frozenset:
    """Codes of every shape with ``n`` white leaves, vertices of 2..d
    children; with ``red``, shapes with one red leaf besides them."""
    if red:
        if n == 0:
            return frozenset({"r"})
        out = set()
        for i in range(n):
            for sizes in (s for k in range(1, d) for s in _partitions(n - i, k)):
                pools = [shapes(i, d, True)] + [shapes(s, d) for s in sizes]
                out.update(join(combo) for combo in itertools.product(*pools))
        return frozenset(out)
    if n == 1:
        return frozenset({"o"})
    out = set()
    for k in range(2, d + 1):
        for sizes in _partitions(n, k):
            out.update(join(c) for c in itertools.product(*(shapes(s, d) for s in sizes)))
    return frozenset(out)


# --------------------------------------------------------------------------- #
# Induced shapes, containment, universality, agreement
# --------------------------------------------------------------------------- #


def induced(tree, kmax: int) -> tuple[list[set], list[set]]:
    """Codes of the shapes that leaf subsets of ``tree`` induce.

    Returns ``(white, red)``: ``white[j]`` holds the shapes induced by j
    white leaves, ``red[j]`` those induced by the red leaf and j white
    leaves, for j <= kmax.
    """
    if isinstance(tree, str):
        white = [set() for _ in range(kmax + 1)]
        red = [set() for _ in range(kmax + 1)]
        if tree == "o":
            if kmax >= 1:
                white[1].add("o")
        else:
            red[0].add("r")
        return white, red
    kid_sets = [induced(kid, kmax) for kid in tree]
    white = [set().union(*(w[j] for w, _ in kid_sets)) for j in range(kmax + 1)]
    red = [set().union(*(r[j] for _, r in kid_sets)) for j in range(kmax + 1)]
    # Shapes rooted here: two or more children each give a nonempty shape,
    # at most one of them carrying the red leaf.
    for size in range(2, len(tree) + 1):
        for chosen in itertools.combinations(kid_sets, size):
            partial = {(0, False): {()}}
            for w, r in chosen:
                grown: dict = {}
                for (j, has_red), tuples in partial.items():
                    options = [(i, False, w[i]) for i in range(1, kmax - j + 1)]
                    if not has_red:
                        options += [(i, True, r[i]) for i in range(0, kmax - j + 1)]
                    for i, is_red, pool in options:
                        if not pool:
                            continue
                        bucket = grown.setdefault((j + i, has_red or is_red), set())
                        for t in tuples:
                            bucket.update(t + (c,) for c in pool)
                partial = grown
            for (j, has_red), tuples in partial.items():
                (red if has_red else white)[j].update(join(t) for t in tuples)
    return white, red


def contains(pattern: str, host: str) -> bool:
    """Is the shape with code ``pattern`` an induced subtree of ``host``?"""
    p = parse(pattern)
    k = white_leaves(p)
    white, red = induced(parse(host), k)
    return code(p) in (red[k] if red_leaves(p) else white[k])


def is_universal(host: str, n: int, d: int = 2, red: bool = False) -> bool:
    """Does ``host`` contain every shape with ``n`` white leaves (with
    ``red``, every shape with a red leaf and ``n`` white ones)?"""
    white, reds = induced(parse(host), n)
    return shapes(n, d, red) <= (reds[n] if red else white[n])


def mast(left: str, right: str) -> int:
    """Leaf count of a maximum agreement subtree of two white shapes."""
    a, b = parse(left), parse(right)
    kmax = min(white_leaves(a), white_leaves(b))
    wa, _ = induced(a, kmax)
    wb, _ = induced(b, kmax)
    return max(j for j in range(1, kmax + 1) if wa[j] & wb[j])
