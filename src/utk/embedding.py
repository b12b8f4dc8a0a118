"""Induced-subtree containment and maximum agreement subtrees.

A shape ``P`` is an *induced subtree* of a host ``H`` when some subset of
``H``'s leaves induces (minimal spanning subtree, degree-2 vertices
suppressed) a shape isomorphic to ``P``.  Colors are respected: a red
pattern leaf must land on the host's red leaf, and a white pattern leaf must
land on a white host leaf.

Containment is decided by the standard subtree-homeomorphism dynamic
program over (pattern vertex, host vertex) pairs: a pattern vertex embeds in
a host vertex's subtree if it embeds into one of the host's child subtrees,
or if its children can be assigned injectively to distinct host children.
For hosts with up to 4 children the assignment is tried exhaustively;
beyond that a maximum-bipartite-matching feasibility check is used.

The table is filled bottom-up over the host's postorder, one integer per
host entry with one bit per pattern entry, and the program stops at the
first host entry whose bit for the pattern root is set.  ``embeds_all``
runs it for many patterns against one host and builds the host's
postorder once.  The postorder view (``shapes._postorder``) lists each
node object once, and a parsed shape has one object per distinct subtree,
so on parsed shapes the table is indexed by (distinct pattern subtree,
distinct host subtree).  Neither the view nor the program recurses, so a
host of any depth gets an answer.

``mast`` computes the number of leaves of a maximum agreement subtree of two
white binary shapes with the analogous two-sided dynamic program.  Its
table has one row per postorder entry of the first shape and one column per
postorder entry of the second, filled bottom-up without recursion.  On
shapes with one object per distinct subtree the cost is the product of the
two counts of distinct subtrees, not of nodes: a parsed
``build_universal(n)`` has 2n - 1 of them and a jellyfish J(h, l) has
h + l, so MAST of the recursive constructions and of large jellyfish is
fast; a caterpillar of n leaves still has n.
``jellyfish_mast`` evaluates the closed form the agreement size takes on
the jellyfish family.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from utk.shapes import JellyfishSpec, Shape, _postorder

__all__ = ["is_induced_subtree", "embeds_all", "mast", "jellyfish_mast"]


def _injective_assignment(pattern_kids: list[int], host_kids: list[int],
                          feasible) -> bool:
    """Can pattern children map injectively to distinct host children?

    ``feasible(p, h)`` answers whether pattern child p embeds in host child h.
    """
    s, t = len(pattern_kids), len(host_kids)
    if s > t:
        return False
    if t <= 4:
        for perm in itertools.permutations(range(t), s):
            if all(feasible(pattern_kids[i], host_kids[perm[i]]) for i in range(s)):
                return True
        return False
    # Kuhn's augmenting-path matching; graph is small (s, t <= arity).
    fits = [[j for j, h in enumerate(host_kids) if feasible(p, h)] for p in pattern_kids]
    match_of_host = [-1] * t
    return all(_augment(i, fits, match_of_host, [False] * t) for i in range(s))


def _augment(i: int, fits: list[list[int]], match_of_host: list[int], seen: list[bool]) -> bool:
    """Kuhn's step: match pattern child i to a host child it fits
    (``fits[i]``) not yet ``seen`` on this path, moving earlier matches
    along an augmenting path."""
    for j in fits[i]:
        if not seen[j]:
            seen[j] = True
            if match_of_host[j] < 0 or _augment(match_of_host[j], fits, match_of_host, seen):
                match_of_host[j] = i
                return True
    return False


def is_induced_subtree(pattern: Shape, host: Shape) -> bool:
    """True iff some leaf subset of ``host`` induces ``pattern``.

    Both shapes must share the same arity bound.  A redleaf pattern can only
    embed into a redleaf host (its red leaf maps to the host's red leaf); a
    white pattern never uses the host's red leaf.
    """
    return embeds_all((pattern,), host)


def embeds_all(patterns: Iterable[Shape], host: Shape) -> bool:
    """True iff every pattern is an induced subtree of ``host`` (see
    ``is_induced_subtree``), tested in the given order up to the first that
    is not.  The host's postorder is built once for all of them.

    Each pattern's table is filled bottom-up: ``rows[h]`` has bit p set when
    pattern entry p embeds in the subtree of host entry h, in a child's
    subtree or at h itself.  Children come before parents in both
    postorders, so every entry a step reads is already filled."""
    hnodes, h_kids = _postorder(host)
    rows: list[int] = []

    def feasible(p: int, h: int) -> int:
        return rows[h] >> p & 1

    for pattern in patterns:
        if pattern.arity != host.arity:
            raise ValueError("pattern and host have different arity bounds")
        pnodes, p_kids = _postorder(pattern)
        root = 1 << (len(pnodes) - 1)
        rows.clear()
        for hnode, kids in zip(hnodes, h_kids):
            row = 0
            for k in kids:
                row |= rows[k]
            for p, pnode in enumerate(pnodes):
                if row >> p & 1 or pnode.leaf_count > hnode.leaf_count \
                        or pnode.height > hnode.height:
                    continue
                if pnode.is_leaf:
                    found = hnode.has_red if pnode.red else hnode.white_leaves > 0
                else:
                    found = _injective_assignment(p_kids[p], kids, feasible)
                if found:
                    row |= 1 << p
            if row & root:
                break
            rows.append(row)
        else:  # no host subtree holds the pattern
            return False
    return True


def mast(t1: Shape, t2: Shape) -> int:
    """Leaf count of a maximum agreement subtree of two white binary shapes.

    The table is indexed by postorder entry on each side, so on shapes
    with one object per distinct subtree it has as many cells as the
    product of their counts of distinct subtrees."""
    for t in (t1, t2):
        if t.has_red:
            raise ValueError("mast is defined for white-only shapes")
        if t.arity != 2:
            raise ValueError("mast is defined for binary shapes")

    _, kids1 = _postorder(t1)
    _, kids2 = _postorder(t2)
    # rows[i][j]: agreement size of node i of t1 and node j of t2, filled
    # bottom-up over both postorders, so children come before parents.
    inner2 = [(j, *kids) for j, kids in enumerate(kids2) if kids]
    leaf_row = [1] * len(kids2)
    rows: list[list[int]] = []
    for kids in kids1:
        if not kids:
            rows.append(leaf_row)
            continue
        r1, r2 = rows[kids[0]], rows[kids[1]]
        row = leaf_row[:]
        for j, b1, b2 in inner2:
            row[j] = max(
                row[b1], row[b2], r1[j], r2[j],
                r1[b1] + r2[b2], r1[b2] + r2[b1],
            )
        rows.append(row)
    return rows[-1][-1]


def jellyfish_mast(s1: JellyfishSpec, s2: JellyfishSpec) -> int:
    """Agreement size of two jellyfish: ``2**h1 * (m + 1 - h1)`` where
    ``h1 <= h2`` and ``m = min(h1 + ell1 - 1, h2 + ell2 - 1)``."""
    if s1.h > s2.h:
        s1, s2 = s2, s1
    m = min(s1.h + s1.ell - 1, s2.h + s2.ell - 1)
    return 2**s1.h * (m + 1 - s1.h)
