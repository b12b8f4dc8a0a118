"""White-leaf centroids and the split procedures used by the recursive
universal constructions.

For a vertex ``v`` of a tree ``T`` with white-leaf set ``W``, define

    tau_W(v) = max over components S of T - v of |W ∩ (S ∪ {v})|.

A *white-leaf centroid vertex* minimizes ``tau_W``.  Whenever the tree has an
internal vertex and at least two white leaves, every centroid vertex is
internal and satisfies ``tau_W <= floor(n/2)`` where ``n`` is the white-leaf
count; that guarantee is what makes the halving constructions work.

The split procedures cut a shape at (or just above) a centroid into a redleaf
stump plus child subtrees so that ``graft(stump, join(parts))`` reproduces
the original shape exactly:

- :func:`split_for_universal`: white binary shapes; all three parts have at
  most ``floor(n/2)`` white leaves.
- :func:`split_for_redleaf`: redleaf binary shapes; if the red leaf hangs
  below the centroid the split happens there and all parts obey the halving
  bound, otherwise the split happens at the last common ancestor of the red
  leaf and the centroid, where stump + redleaf part together obey the bound
  while the centroid-carrying part may stay as large as ``n``.
- :func:`split_dary`: the same two procedures for d-ary shapes with up to
  ``d`` child parts; the two binary splits above are its d = 2 case.

The builders in ``constructions.py`` follow the recursions this split
justifies without calling it; nothing in ``utk`` imports this module.  It
exists as the executable proof of the halving split, and only the tests
use it, to check the bounds and the exact reassembly on the shapes they
enumerate.
"""

from __future__ import annotations

from collections.abc import Iterator

from utk.shapes import Shape, _Record, graft, join, make_leaf, replace_subtree, subtree_at

__all__ = [
    "CentroidReport",
    "Split",
    "DarySplit",
    "white_leaf_centroid",
    "split_for_universal",
    "split_for_redleaf",
    "split_dary",
]

Path = tuple[int, ...]


class CentroidReport(_Record):
    """Per-vertex ``tau_W`` values plus the centroid set.

    Vertices are addressed by root paths (tuples of child indices in
    canonical order); the designated centroid is the centroid vertex with the
    lexicographically smallest path, which makes downstream splits
    deterministic.
    """

    __slots__ = ("tau", "centroids", "designated")

    def __init__(self, tau: dict[Path, int], centroids: tuple[Path, ...], designated: Path):
        self._set(tau, centroids, designated)


def _iter_vertices(shape: Shape) -> Iterator[tuple[Path, Shape]]:
    stack = [((), shape)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for idx in reversed(range(len(node.children))):
            stack.append((path + (idx,), node.children[idx]))


def white_leaf_centroid(shape: Shape) -> CentroidReport:
    """Compute ``tau_W`` for every vertex and designate a centroid.

    Requires at least 2 white leaves and at least one internal vertex; the
    designated centroid is then internal with ``tau_W <= floor(n/2)``.
    """
    total = shape.white_leaves
    if total < 2:
        raise ValueError("centroid needs at least 2 white leaves")
    if shape.is_leaf:
        raise ValueError("centroid needs an internal vertex")

    tau: dict[Path, int] = {}
    for path, node in _iter_vertices(shape):
        above = total - node.white_leaves
        components = [kid.white_leaves for kid in node.children]
        if path:
            components.append(above)
        self_white = 1 if (node.is_leaf and not node.red) else 0
        tau[path] = max(components) + self_white

    best = min(tau.values())
    centroids = tuple(sorted(p for p, t in tau.items() if t == best))
    return CentroidReport(tau=tau, centroids=centroids, designated=centroids[0])


class Split(_Record):
    """A binary split ``F = f1[f2 (+) f3]``: redleaf stump ``f1`` above the
    split vertex, child subtrees ``f2`` and ``f3``.  ``kind`` is
    ``"universal"``, ``"redleaf-descendant"`` or ``"redleaf-ancestor"``."""

    __slots__ = ("f1", "f2", "f3", "kind")

    def __init__(self, f1: Shape, f2: Shape, f3: Shape, kind: str):
        self._set(f1, f2, f3, kind)

    def reassemble(self) -> Shape:
        return graft(self.f1, join([self.f2, self.f3]))


class DarySplit(_Record):
    """A d-ary split ``F = f1[join(parts)]``.

    ``centroid_part`` is the index (within ``parts``) of the part containing
    the centroid in the redleaf-ancestor case, where that part is the one
    exempt from the halving bound; ``None`` otherwise.
    """

    __slots__ = ("f1", "parts", "kind", "centroid_part")

    def __init__(self, f1: Shape, parts: tuple[Shape, ...], kind: str,
                 centroid_part: int | None = None):
        self._set(f1, parts, kind, centroid_part)

    def reassemble(self) -> Shape:
        return graft(self.f1, join(self.parts))


def _stump(shape: Shape, path: Path) -> Shape:
    return replace_subtree(shape, path, make_leaf("red", shape.arity))


def _red_leaf_path(shape: Shape) -> Path:
    node = shape
    path: Path = ()
    while not node.is_leaf:
        for idx, kid in enumerate(node.children):
            if kid.has_red:
                path += (idx,)
                node = kid
                break
    return path


def _is_prefix(prefix: Path, path: Path) -> bool:
    return len(prefix) <= len(path) and path[: len(prefix)] == prefix


def split_for_universal(shape: Shape) -> Split:
    """Split a white binary shape at its designated centroid.

    All three parts have at most ``floor(n/2)`` white leaves; ``f2`` is the
    child with the smaller canonical code.
    """
    if shape.has_red:
        raise ValueError("split_for_universal expects a white shape")
    if shape.arity != 2:
        raise ValueError("split_for_universal expects a binary shape")
    return _binary(split_dary(shape))


def split_for_redleaf(shape: Shape) -> Split:
    """Split a redleaf binary shape relative to its white-leaf centroid.

    Descendant case (red leaf below the centroid ``v``): split at ``v``;
    ``f2`` is the child subtree containing the red leaf and every part has at
    most ``floor(n/2)`` white leaves.  Ancestor case: split at the last
    common ancestor of the red leaf and ``v``; ``f2`` (with the red leaf) and
    the stump together have at most ``floor(n/2)`` white leaves, while ``f3``
    contains the centroid and may be larger.
    """
    if not shape.has_red:
        raise ValueError("split_for_redleaf expects a redleaf shape")
    if shape.arity != 2:
        raise ValueError("split_for_redleaf expects a binary shape")
    return _binary(split_dary(shape, redleaf=True))


def _binary(split: DarySplit) -> Split:
    """A binary ``split_dary`` result as a ``Split``, its two parts in order."""
    f2, f3 = split.parts
    return Split(f1=split.f1, f2=f2, f3=f3, kind=split.kind)


def split_dary(shape: Shape, redleaf: bool = False) -> DarySplit:
    """d-ary analogue of the binary splits: a redleaf stump plus the child
    subtrees (2 to d of them) at the split vertex."""
    if redleaf != shape.has_red:
        raise ValueError("redleaf flag does not match the shape")
    v = white_leaf_centroid(shape).designated

    if not redleaf:
        vertex = subtree_at(shape, v)
        return DarySplit(f1=_stump(shape, v), parts=vertex.children, kind="universal")

    red_path = _red_leaf_path(shape)
    if _is_prefix(v, red_path):
        vertex = subtree_at(shape, v)
        red_child = red_path[len(v)]
        parts = (vertex.children[red_child],) + tuple(
            kid for idx, kid in enumerate(vertex.children) if idx != red_child
        )
        return DarySplit(f1=_stump(shape, v), parts=parts, kind="redleaf-descendant")

    common = 0
    while common < min(len(v), len(red_path)) and v[common] == red_path[common]:
        common += 1
    z = red_path[:common]
    vertex = subtree_at(shape, z)
    red_child = red_path[common]
    centroid_child = v[common]
    others = tuple(
        kid for idx, kid in enumerate(vertex.children)
        if idx not in (red_child, centroid_child)
    )
    parts = (vertex.children[red_child], vertex.children[centroid_child]) + others
    return DarySplit(
        f1=_stump(shape, z), parts=parts, kind="redleaf-ancestor", centroid_part=1
    )
