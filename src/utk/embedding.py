"""Induced-subtree containment and maximum agreement subtrees.

A shape ``P`` is an *induced subtree* of a host ``H`` when some subset of
``H``'s leaves induces (minimal spanning subtree, degree-2 vertices
suppressed) a shape isomorphic to ``P``.  Colors are respected: a red
pattern leaf must land on the host's red leaf, and a white pattern leaf must
land on a white host leaf.

Containment is decided by the standard subtree-homeomorphism dynamic
program over (pattern vertex, host vertex) pairs: a pattern vertex embeds at
a host vertex if it embeds into one of the host's child subtrees, or if its
children can be assigned injectively to distinct host children.  For hosts
with up to 4 children the assignment is tried exhaustively; beyond that a
maximum-bipartite-matching feasibility check is used.

``mast`` computes the number of leaves of a maximum agreement subtree of two
white binary shapes with the analogous two-sided dynamic program, and
``jellyfish_mast`` evaluates the closed form the agreement size takes on the
jellyfish family.
"""

from __future__ import annotations

import itertools

from utk.shapes import JellyfishSpec, Shape

__all__ = ["is_induced_subtree", "mast", "jellyfish_mast"]


def _postorder(shape: Shape) -> tuple[list[Shape], list[list[int]]]:
    """Postorder node list plus the children's indices per node.

    A node object shared by several parents is listed once, so the dynamic
    programs below memoize it once.  The walk keeps its own stack, so a deep
    tree does not reach Python's recursion limit.
    """
    nodes: list[Shape] = []
    kids: list[list[int]] = []
    index: dict[int, int] = {}
    # Each entry is an inner node and the iterator over its children not yet
    # looked at; a leaf is listed as soon as it is met.
    stack = [(shape, iter(shape.children))]
    while stack:
        node, unseen = stack[-1]
        for kid in unseen:
            if id(kid) in index:
                continue
            if kid.children:
                stack.append((kid, iter(kid.children)))
                break
            index[id(kid)] = len(nodes)
            nodes.append(kid)
            kids.append([])
        else:
            stack.pop()
            index[id(node)] = len(nodes)
            nodes.append(node)
            kids.append([index[id(kid)] for kid in node.children])
    return nodes, kids


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
    match_of_host = [-1] * t

    def augment(i: int, seen: list[bool]) -> bool:
        for j in range(t):
            if not seen[j] and feasible(pattern_kids[i], host_kids[j]):
                seen[j] = True
                if match_of_host[j] < 0 or augment(match_of_host[j], seen):
                    match_of_host[j] = i
                    return True
        return False

    return all(augment(i, [False] * t) for i in range(s))


def is_induced_subtree(pattern: Shape, host: Shape) -> bool:
    """True iff some leaf subset of ``host`` induces ``pattern``.

    Both shapes must share the same arity bound.  A redleaf pattern can only
    embed into a redleaf host (its red leaf maps to the host's red leaf); a
    white pattern never uses the host's red leaf.
    """
    if pattern.arity != host.arity:
        raise ValueError("pattern and host have different arity bounds")
    if pattern.has_red and not host.has_red:
        return False

    pnodes, p_kids = _postorder(pattern)
    hnodes, h_kids = _postorder(host)

    memo: dict[tuple[int, int], bool] = {}

    def emb(pi: int, hi: int) -> bool:
        key = (pi, hi)
        cached = memo.get(key)
        if cached is not None:
            return cached
        pnode, hnode = pnodes[pi], hnodes[hi]
        if pnode.leaf_count > hnode.leaf_count or pnode.height > hnode.height:
            result = False
        elif pnode.is_leaf:
            if pnode.red:
                result = hnode.has_red
            else:
                result = hnode.white_leaves > 0
        elif hnode.is_leaf:
            result = False
        else:
            result = any(emb(pi, hj) for hj in h_kids[hi]) or _injective_assignment(
                p_kids[pi], h_kids[hi], emb
            )
        memo[key] = result
        return result

    return emb(len(pnodes) - 1, len(hnodes) - 1)


def mast(t1: Shape, t2: Shape) -> int:
    """Leaf count of a maximum agreement subtree of two white binary shapes."""
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
