"""Executable proofs of the two recursions utk's builders follow.  Nothing in
``utk`` calls them; the tests do, to check each step on the shapes and
compositions they enumerate.

The centroid-halving split behind ``build_universal`` and
``build_universal_redleaf``.  For a vertex ``v`` of a tree ``T`` with
white-leaf set ``W``, define

    tau_W(v) = max over components S of T - v of |W ∩ (S ∪ {v})|.

A *white-leaf centroid vertex* minimizes ``tau_W``.  Whenever the tree has an
internal vertex and at least two white leaves, every centroid vertex is
internal and satisfies ``tau_W <= floor(n/2)`` where ``n`` is the white-leaf
count.  :func:`split` cuts a shape at (or just above) its designated
centroid into a redleaf stump ``f1`` and the child subtrees there, so that
``graft(f1, join(parts))`` is the shape again:

- white shapes (kind ``"universal"``): split at the centroid; the stump and
  every part have at most ``floor(n/2)`` white leaves.
- redleaf shapes whose red leaf hangs below the centroid
  (``"redleaf-descendant"``): split there, the red part first; the same
  bound holds.
- otherwise (``"redleaf-ancestor"``): split at the last common ancestor of
  the red leaf and the centroid, the red part first and the centroid's part
  second.  Stump and red part together have at most ``floor(n/2)`` white
  leaves; the centroid's part may keep up to ``n``.

The halving coefficients (:func:`coeff_sequences`) iterate that bound.

The composition embedding behind ``build_redleaf_comb``: every composition
of ``2**k`` embeds termwise into the doubling sequence ``svec(k)``
(:func:`embed_composition`).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from utk.shapes import (
    Shape,
    _Record,
    _red_path,
    graft,
    join,
    make_leaf,
    replace_subtree,
    subtree_at,
)

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
        components = [kid.white_leaves for kid in node.children]
        if path:
            components.append(total - node.white_leaves)
        self_white = 1 if (node.is_leaf and not node.red) else 0
        tau[path] = max(components) + self_white

    best = min(tau.values())
    centroids = tuple(sorted(p for p, t in tau.items() if t == best))
    return CentroidReport(tau=tau, centroids=centroids, designated=centroids[0])


class Split(_Record):
    """A split ``F = f1[join(parts)]``; ``kind`` is ``"universal"``,
    ``"redleaf-descendant"`` or ``"redleaf-ancestor"``.

    ``centroid_part`` is the index (within ``parts``) of the part holding
    the centroid in the redleaf-ancestor case, the one part exempt from the
    halving bound; ``None`` otherwise.
    """

    __slots__ = ("f1", "parts", "kind", "centroid_part")

    def __init__(self, f1: Shape, parts: tuple[Shape, ...], kind: str,
                 centroid_part: int | None = None):
        self._set(f1, parts, kind, centroid_part)

    def reassemble(self) -> Shape:
        return graft(self.f1, join(self.parts))


def split(shape: Shape, redleaf: bool = False) -> Split:
    """Split a white (or, with ``redleaf``, a redleaf) shape of any arity at
    its designated centroid, as the module docstring describes."""
    if redleaf != shape.has_red:
        raise ValueError("redleaf flag does not match the shape")
    v = white_leaf_centroid(shape).designated
    if not redleaf:
        return Split(_stump(shape, v), subtree_at(shape, v).children, "universal")
    red = _red_path(shape)
    # Where the red leaf's path leaves the centroid's: len(v) when the red
    # leaf hangs below the centroid (the centroid is internal, so its path
    # is never the red leaf's).
    common = next((i for i, (a, b) in enumerate(zip(v, red)) if a != b), len(v))
    kids = subtree_at(shape, v[:common]).children
    first = red[common]
    if common == len(v):
        parts = (kids[first],) + kids[:first] + kids[first + 1:]
        return Split(_stump(shape, v), parts, "redleaf-descendant")
    second = v[common]
    others = tuple(kid for idx, kid in enumerate(kids) if idx not in (first, second))
    return Split(_stump(shape, v[:common]), (kids[first], kids[second]) + others,
                 "redleaf-ancestor", centroid_part=1)


def _stump(shape: Shape, path: Path) -> Shape:
    return replace_subtree(shape, path, make_leaf("red", shape.arity))


class CoeffSequences(_Record):
    """Coefficients (a_k, b_k, c_k) of the iterated halving bound, 1-indexed
    via ``a(k)`` etc.

    ``a_1 = 1``, ``b_1 = d``, ``a_{k+1} = 3 a_k + b_k``,
    ``b_{k+1} = (2d-2) a_k + d b_k``, and ``c_k = 2 a_k + b_k``.
    For d = 2 these are the binary sequences, with the closed form
    ``b_k = (4**k + 2) / 3``; in general ``c_k = (d+2)**k``.
    """

    __slots__ = ("d", "a", "b", "c")

    def __init__(self, d: int, a: tuple[int, ...], b: tuple[int, ...], c: tuple[int, ...]):
        self._set(d, a, b, c)

    def __call__(self, name: str, k: int) -> int:
        return getattr(self, name)[k - 1]


def coeff_sequences(k_max: int, d: int = 2) -> CoeffSequences:
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    a, b = [1], [d]
    for _ in range(k_max - 1):
        a_next = 3 * a[-1] + b[-1]
        b_next = (2 * d - 2) * a[-1] + d * b[-1]
        a.append(a_next)
        b.append(b_next)
    c = [2 * x + y for x, y in zip(a, b)]
    return CoeffSequences(d=d, a=tuple(a), b=tuple(b), c=tuple(c))


def _embed_part(part: list[int], kk: int, offset: int) -> list[int]:
    """``embed_composition`` of ``part`` (positive terms summing to
    ``2**kk``) into ``svec(kk)`` placed at ``offset``."""
    if kk == 0:
        return [offset + 1]
    half = 2 ** (kk - 1)
    prefix = 0
    pivot = 0
    for i, t in enumerate(part):
        prefix += t
        if prefix > half:
            pivot = i
            break
    out: list[int] = []
    left = part[:pivot]
    if left:
        missing = half - sum(left)
        padded = left + [missing] if missing else left
        out.extend(_embed_part(padded, kk - 1, offset)[: len(left)])
    out.append(offset + 2**kk)
    right = part[pivot + 1 :]
    if right:
        missing = half - sum(right)
        padded = right + [missing] if missing else right
        out.extend(_embed_part(padded, kk - 1, offset + 2**kk)[: len(right)])
    return out


def embed_composition(composition: Sequence[int], k: int) -> tuple[int, ...]:
    """Strictly increasing 1-based indices a_1 < ... < a_m into ``svec(k)``
    with ``composition[i] <= svec(k)[a_i - 1]`` for every term.

    The composition must consist of positive terms summing to ``2**k``.
    Follows the recursive pivot rule: the first prefix exceeding half the
    total is placed on the middle ``2**k`` entry and the two remainders embed
    into the two halves, padded by one extra term when they fall short.
    """
    terms = list(composition)
    if any(t < 1 for t in terms):
        raise ValueError("composition terms must be positive")
    if sum(terms) != 2**k:
        raise ValueError(f"composition must sum to 2**{k} = {2**k}")
    return tuple(_embed_part(terms, k, 0))
