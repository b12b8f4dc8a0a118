"""Rooted tree shapes with an optional red leaf.

The central object is :class:`Shape`: an unlabeled rooted tree in which every
internal vertex has between 2 and ``d`` children (``d = 2`` gives the binary
case), every leaf is white except for at most one distinguished red leaf, and
children are unordered.  Shapes are value objects: children are stored sorted
by canonical code, so two shapes are isomorphic exactly when their codes are
equal, and ``==`` tests isomorphism.  Being immutable, one object can stand
for a subtree wherever it occurs: :func:`parse_code` (and so
:func:`parse_newick`) returns one object per distinct subtree of the text,
and :func:`caterpillar`, :func:`complete_tree` and :func:`jellyfish` reuse
the parts they repeat.  A parsed ``build_universal(256)`` code is 511
objects, not 87,381 nodes.

Canonical code format
---------------------
A leaf is ``"o"`` (white) or ``"r"`` (red).  An internal vertex is ``"("`` +
the concatenation of its children's codes + ``")"``, with children sorted
ascending under the symbol order ``o < r < ( < )`` (leaves sort before
subtrees, white before red).  Example: the 3-leaf caterpillar is
``"(o(oo))"`` and the 4-leaf complete tree is ``"((oo)(oo))"``.

Streams produced by :func:`enumerate_shapes` are sorted by plain ASCII order
of the codes, which is also the order used for catalogs and CLI output.

Deep trees
----------
No pass in this module recurses over a tree: the parsers, the leaf colors
and induced subtrees scan the code left to right; DOT export, the postorder
view (``_postorder``) and ``graft``/``replace_subtree`` keep their own
stacks or paths; Newick export rewrites the code.  So a tree of any depth
parses and prints, and the dynamic programs of :mod:`utk.embedding`, which
fill their tables over the postorder view, answer for it.

Shared subtrees
---------------
The postorder view lists each object once, however many parents share it.
On a shape with one object per distinct subtree it is therefore the class
view, one entry per distinct subtree, and the passes that run over it (the
containment and MAST dynamic programs of :mod:`utk.embedding`,
``tanglegrams.leaf_automorphisms``) do their work once per distinct
subtree.  DOT export, Newick export and the code scans see every position,
so sharing changes no output.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

__all__ = [
    "Shape",
    "JellyfishSpec",
    "make_leaf",
    "join",
    "graft",
    "caterpillar",
    "complete_tree",
    "jellyfish",
    "parse_code",
    "parse_newick",
    "to_newick",
    "to_dot",
    "enumerate_shapes",
    "count_shapes",
    "leaf_colors",
    "induced_subshape",
    "induced_with_leafmap",
    "subtree_at",
    "replace_subtree",
]

# Child sort order: leaves before subtrees, white before red.  Translating a
# code through this table and comparing the results implements that order
# with ordinary string comparison.
_CHILD_ORDER = str.maketrans({"o": "\x00", "r": "\x01", "(": "\x02", ")": "\x03"})


def _child_key(code: str) -> str:
    return code.translate(_CHILD_ORDER)


# Code to Newick: a subtree ends in a leaf or ')' and starts with a leaf or '('.
_SIBLING_BOUNDARY = re.compile(r"(?<=[or)])(?=[or(])")
_NEWICK_LEAVES = str.maketrans("or", "xR")
_CODE_LEAVES = str.maketrans("xR", "or")
_NOT_CODE = re.compile(r"[^or()]")
_NEWICK_TEXT = re.compile(r"[xR(),]*")


class Shape:
    """An immutable rooted tree shape, canonicalized at construction.

    Use the factory functions (:func:`make_leaf`, :func:`join`, ...) rather
    than calling the constructor directly.  A shape is a leaf iff
    ``children`` is empty; ``red`` is only meaningful for leaves.  ``arity``
    is the maximum number of children allowed anywhere in the tree; shapes of
    different arity bounds never mix in one operation.
    """

    __slots__ = ("children", "red", "arity", "code", "white_leaves", "height", "has_red")

    children: tuple["Shape", ...]
    red: bool
    arity: int
    code: str
    white_leaves: int
    height: int
    has_red: bool

    def __init__(self, children: Sequence["Shape"] = (), red: bool = False, arity: int = 2):
        if arity < 2:
            raise ValueError(f"arity bound must be >= 2, got {arity}")
        kids = tuple(sorted(children, key=lambda s: _child_key(s.code)))
        if kids:
            if red:
                raise ValueError("only a leaf can be red")
            if not 2 <= len(kids) <= arity:
                raise ValueError(
                    f"internal vertex needs 2..{arity} children, got {len(kids)}"
                )
            if any(k.arity != arity for k in kids):
                raise ValueError("mixed arity bounds in children")
            reds = sum(k.has_red for k in kids)
            if reds > 1:
                raise ValueError("more than one red leaf")
            code = "(" + "".join(k.code for k in kids) + ")"
            white = sum(k.white_leaves for k in kids)
            hgt = 1 + max(k.height for k in kids)
            has_red = reds == 1
        else:
            code = "r" if red else "o"
            white = 0 if red else 1
            hgt = 0
            has_red = red
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "red", red)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "white_leaves", white)
        object.__setattr__(self, "height", hgt)
        object.__setattr__(self, "has_red", has_red)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Shape is immutable")

    def __delattr__(self, name):
        raise AttributeError("Shape is immutable")

    def __reduce__(self):
        # Pickled as its code: the default slot state would be restored
        # through ``__setattr__``, which refuses.
        return parse_code, (self.code, self.arity)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def leaf_count(self) -> int:
        """Total number of leaves, red included."""
        return self.white_leaves + (1 if self.has_red else 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Shape) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __lt__(self, other: "Shape") -> bool:
        return self.code < other.code

    def __repr__(self) -> str:
        return f"Shape({self.code!r})"


class _Record:
    """Base of utk's small value records (``JellyfishSpec``, ``SearchReport``,
    ``Tanglegram``, ...).

    A record names its fields in ``__slots__`` and stores them from its own
    ``__init__`` with ``_set``, positionally in slot order.  It is
    immutable, equal only to a record of the same class with equal fields,
    hashed by its fields, printed as ``Name(field=value, ...)`` and pickled
    as a call of its class on its fields.  These are plain classes, not
    dataclasses: generating the dataclass methods and importing
    ``dataclasses`` took longer than running the rest of utk's module bodies
    at every start-up.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._fields()


class JellyfishSpec(_Record):
    """Parameters of a jellyfish tree: a complete binary tree of height ``h``
    with a caterpillar of ``ell`` leaves hanging from each of its leaves."""

    __slots__ = ("h", "ell")

    def __init__(self, h: int, ell: int):
        if h < 0:
            raise ValueError("jellyfish height must be >= 0")
        if ell < 2:
            raise ValueError("jellyfish caterpillar size must be >= 2")
        self._set(h, ell)


# --------------------------------------------------------------------------- #
# Constructors
# --------------------------------------------------------------------------- #


def make_leaf(color: str = "white", arity: int = 2) -> Shape:
    """Return a single-leaf shape; ``color`` is ``"white"`` or ``"red"``."""
    if color not in ("white", "red"):
        raise ValueError(f"leaf color must be 'white' or 'red', got {color!r}")
    return Shape((), color == "red", arity)


def join(parts: Sequence[Shape], arity: int | None = None) -> Shape:
    """Join shapes under a fresh root.

    At most one part may carry a red leaf; the result is a redleaf shape
    exactly when one does.  White-leaf counts add up.  ``arity`` defaults to
    the parts' common arity bound.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("join needs at least 2 parts")
    if arity is None:
        arity = parts[0].arity
    return Shape(parts, False, arity)


def graft(host: Shape, scion: Shape) -> Shape:
    """Replace the red leaf of ``host`` by ``scion``.

    The red leaf loses its coloring; the result has a red leaf iff ``scion``
    does.  White-leaf counts add up.
    """
    if not host.has_red:
        raise ValueError("graft host has no red leaf")
    if host.arity != scion.arity:
        raise ValueError("mixed arity bounds in graft")
    return replace_subtree(host, _red_path(host), scion)


def _red_path(shape: Shape) -> tuple[int, ...]:
    """Root path (child indices) to the red leaf of a redleaf shape."""
    path = []
    node = shape
    while not node.is_leaf:
        j = next(j for j, kid in enumerate(node.children) if kid.has_red)
        path.append(j)
        node = node.children[j]
    return tuple(path)


def caterpillar(n: int, arity: int = 2) -> Shape:
    """The rooted caterpillar with ``n`` white leaves (height ``n - 1``)."""
    if n < 1:
        raise ValueError("caterpillar needs n >= 1")
    leaf = shape = make_leaf("white", arity)
    for _ in range(n - 1):
        shape = join([leaf, shape])
    return shape


def complete_tree(h: int, arity: int = 2) -> Shape:
    """The complete binary tree of height ``h`` (``2**h`` white leaves)."""
    if h < 0:
        raise ValueError("complete tree needs h >= 0")
    shape = make_leaf("white", arity)
    for _ in range(h):
        shape = join([shape, shape])
    return shape


def jellyfish(spec: JellyfishSpec | None = None, h: int | None = None,
              ell: int | None = None, arity: int = 2) -> Shape:
    """A complete tree of height ``h`` with a caterpillar of ``ell`` leaves
    identified with each of its leaves; ``2**h * ell`` white leaves in total,
    height ``h + ell - 1``."""
    if spec is None:
        if h is None or ell is None:
            raise ValueError("jellyfish needs a spec or both h and ell")
        spec = JellyfishSpec(h, ell)
    shape = caterpillar(spec.ell, arity)
    for _ in range(spec.h):
        shape = join([shape, shape])
    return shape


# --------------------------------------------------------------------------- #
# Basic queries
# --------------------------------------------------------------------------- #


def _postorder(shape: Shape) -> tuple[list[Shape], list[list[int]]]:
    """Postorder node list plus the children's indices per node: the tree
    view that the embedding and MAST dynamic programs and
    ``tanglegrams.leaf_automorphisms`` run over.

    A node object shared by several parents is listed once, so those passes
    handle it once; for a shape with one object per distinct subtree (a
    parsed one, say) the list has one entry per distinct subtree.  The walk
    keeps its own stack, so a deep tree does not reach Python's recursion
    limit.
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


def leaf_colors(shape: Shape) -> list[bool]:
    """Per-leaf red flags, in canonical (code) order of the leaves."""
    return [ch == "r" for ch in shape.code if ch in "or"]


# --------------------------------------------------------------------------- #
# Text formats
# --------------------------------------------------------------------------- #


def parse_code(text: str, arity: int = 2) -> Shape:
    """Parse a canonical-code string; children may appear in any order.

    Rejects malformed text, more than one red leaf, and internal vertices
    with fewer than 2 or more than ``arity`` children.  One left-to-right
    loop over a stack of open child lists, so no depth limit.

    Repeated subtrees come out as one shared object: a table kept for this
    parse alone maps a leaf's character, and an inner vertex's sorted child
    identities, to the node made for them first.  Children are shared
    already, so two isomorphic vertices have the same key.
    """
    text = text.strip()
    bad = _NOT_CODE.search(text)
    if bad:
        raise ValueError(f"unexpected character {bad[0]!r} at position {bad.start()}")
    made: dict[object, Shape] = {}  # one node per distinct subtree of this text
    kids: list[Shape] = []  # children met so far of the innermost open vertex
    stack: list[list[Shape]] = []  # the child lists of its open ancestors
    for ch in text:
        if ch == "(":
            stack.append(kids)
            kids = []
        elif ch == ")":
            if not stack:
                raise ValueError("unbalanced ')' in code")
            if not kids:
                raise ValueError(f"internal vertex needs 2..{arity} children, got 0")
            key = tuple(sorted(map(id, kids)))
            node = made.get(key)
            if node is None:
                node = made[key] = Shape(kids, False, arity)
            kids = stack.pop()
            kids.append(node)
        else:
            node = made.get(ch)
            if node is None:
                node = made[ch] = Shape((), ch == "r", arity)
            kids.append(node)
    if stack:
        raise ValueError("unbalanced '(' in code")
    if not kids:
        raise ValueError("unexpected end of code")
    if len(kids) > 1:
        # A parsed subtree's code has as many characters as its text.
        raise ValueError(f"trailing characters after code: {text[len(kids[0].code):]!r}")
    return kids[0]


def to_newick(shape: Shape) -> str:
    """Newick export: white leaf ``x``, red leaf ``R``, children in canonical
    order, trailing ``;``.

    The canonical code lists the children in that same order, so the Newick
    string is the code with a comma at each boundary between siblings (the
    end of a subtree directly followed by the start of the next).  No tree
    walk, so no depth limit.
    """
    return _SIBLING_BOUNDARY.sub(",", shape.code).translate(_NEWICK_LEAVES) + ";"


def parse_newick(text: str, arity: int = 2) -> Shape:
    """Parse the Newick format produced by :func:`to_newick` (children may
    appear in any order).

    The text must hold only ``xR(),`` and have its commas exactly at the
    sibling boundaries :func:`to_newick` writes; it is then the code with
    the leaves renamed, and :func:`parse_code` parses that.
    """
    text = text.strip()
    if text.endswith(";"):
        text = text[:-1]
    if not _NEWICK_TEXT.fullmatch(text):
        raise ValueError(f"newick holds characters other than 'xR(),': {text!r}")
    renamed = text.translate(_CODE_LEAVES)
    code = renamed.replace(",", "")
    if _SIBLING_BOUNDARY.sub(",", code) != renamed:
        raise ValueError(f"newick commas must separate siblings: {text!r}")
    return parse_code(code, arity)


def to_dot(shape: Shape, name: str = "shape") -> str:
    """GraphViz export: leaves as circles (red leaf filled red), root as box."""
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    _dot_tree(shape, "v", "->", lines)
    lines.append("}")
    return "\n".join(lines)


def _dot_tree(shape: Shape, prefix: str, edge: str, lines: list[str]) -> list[str]:
    """Append the DOT lines of ``shape``'s vertices ``prefix0``, ``prefix1``,
    ... in preorder, first child first, each joined to its parent by
    ``edge``; return the leaves' ids in leaf order.

    The walk keeps an explicit stack of (node, parent id), so a deep shape
    does not reach Python's recursion limit.
    """
    leaf_ids: list[str] = []
    counter = itertools.count()
    stack: list[tuple[Shape, str | None]] = [(shape, None)]
    while stack:
        node, parent = stack.pop()
        node_id = f"{prefix}{next(counter)}"
        if node.is_leaf:
            fill = ', style=filled, fillcolor=red' if node.red else ""
            lines.append(f'  {node_id} [shape=circle, label=""{fill}];')
            leaf_ids.append(node_id)
        elif parent is None:
            lines.append(f'  {node_id} [shape=box, label=""];')
        else:
            lines.append(f'  {node_id} [shape=point];')
        if parent is not None:
            lines.append(f"  {parent} {edge} {node_id};")
        stack.extend((kid, node_id) for kid in reversed(node.children))
    return leaf_ids


# --------------------------------------------------------------------------- #
# Isomorph-free enumeration
# --------------------------------------------------------------------------- #
#
# Generative and duplicate-free by construction: a shape of size n is a root
# over a multiset of smaller shapes, so enumerating multisets (nondecreasing
# part sizes, nondecreasing shapes within equal sizes) hits every isomorphism
# class exactly once.  Redleaf shapes are built as one redleaf part joined
# with a multiset of white parts; the redleaf part is distinguished, so no
# dedup is needed there either.


def _size_partitions(total: int, num_parts: int, minimum: int = 1) -> Iterator[tuple[int, ...]]:
    """Nondecreasing ``num_parts``-tuples of integers >= minimum summing to total."""
    if num_parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // num_parts + 1):
        for rest in _size_partitions(total - first, num_parts - 1, first):
            yield (first,) + rest


def _part_multisets(total: int, max_parts: int, arity: int,
                    min_parts: int = 1) -> Iterator[tuple[Shape, ...]]:
    """All multisets of 'min_parts..max_parts' white shapes with the given
    total white-leaf count."""
    # More than ``total`` parts cannot occur, however large the arity bound.
    for num in range(min_parts, min(max_parts, total) + 1):
        for sizes in _size_partitions(total, num):
            groups = [(size, len(list(grp))) for size, grp in itertools.groupby(sizes)]
            pools = [
                itertools.combinations_with_replacement(_white_shapes(size, arity), count)
                for size, count in groups
            ]
            for combo in itertools.product(*pools):
                yield tuple(itertools.chain.from_iterable(combo))


@lru_cache(maxsize=None)
def _white_shapes(n: int, arity: int) -> tuple[Shape, ...]:
    if n == 1:
        return (make_leaf("white", arity),)
    out = [
        Shape(parts, False, arity)
        for parts in _part_multisets(n, arity, arity, min_parts=2)
    ]
    out.sort(key=lambda s: s.code)
    return tuple(out)


@lru_cache(maxsize=None)
def _redleaf_shapes(n: int, arity: int) -> tuple[Shape, ...]:
    if n == 0:
        return (make_leaf("red", arity),)
    out = []
    for red_white in range(n):
        for red_part in _redleaf_shapes(red_white, arity):
            for whites in _part_multisets(n - red_white, arity - 1, arity):
                out.append(Shape((red_part,) + whites, False, arity))
    out.sort(key=lambda s: s.code)
    return tuple(out)


def enumerate_shapes(n: int, arity: int = 2, redleaf: bool = False) -> Iterator[Shape]:
    """Yield every shape with ``n`` white leaves exactly once, in ASCII order
    of canonical codes.  With ``redleaf=True``, shapes carry exactly one red
    leaf in addition to the ``n`` white ones (``n = 0`` gives the bare red
    leaf)."""
    if arity < 2:
        raise ValueError("arity must be >= 2")
    if redleaf:
        if n < 0:
            raise ValueError("need n >= 0 for redleaf shapes")
        yield from _redleaf_shapes(n, arity)
    else:
        if n < 1:
            raise ValueError("need n >= 1 white leaves")
        yield from _white_shapes(n, arity)


def count_shapes(n: int, arity: int = 2, redleaf: bool = False) -> int:
    """Number of isomorphism classes with ``n`` white leaves (and one red
    leaf with ``redleaf=True``), counted without listing them.

    A white shape of size m >= 2 is a root over a multiset of 2..arity
    white shapes with m leaves in all (for arity 2 this is the
    Wedderburn-Etherington recurrence, OEIS A001190); a redleaf shape of
    size m >= 1 is a root over one redleaf shape of size i < m and a
    multiset of 1..arity - 1 white shapes with m - i leaves.
    """
    if arity < 2:
        raise ValueError("arity must be >= 2")
    if redleaf and n < 0:
        raise ValueError("need n >= 0 for redleaf shapes")
    if not redleaf and n < 1:
        raise ValueError("need n >= 1 white leaves")
    return _size_counts(n, arity, redleaf)[n]


def _size_counts(n: int, arity: int, redleaf: bool) -> list[int]:
    """``count_shapes(m, arity, redleaf)`` for every m = 0..n in one pass
    (0 for the white m = 0)."""
    white, forests = _forest_counts(n, arity)
    if not redleaf:
        return white
    red = [1]
    for m in range(1, n + 1):
        red.append(sum(red[i] * sum(row[m - i] for row in forests[1:arity])
                       for i in range(m)))
    return red


def _forest_counts(n: int, arity: int) -> tuple[list[int], list[list[int]]]:
    """``white[m]``, the number of white shapes of size m, and
    ``forests[k][t]``, the number of multisets of k white shapes with t
    leaves in all, for m, t <= n and k <= min(arity, n) (more than n
    shapes have more than n leaves).  Sizes are folded in smallest first:
    when size s comes up, the multisets of at least two smaller shapes with
    s leaves are exactly the roots of size s."""
    top = min(arity, n)
    white = [0] * (n + 1)
    forests = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(top)]
    for s in range(1, n + 1):
        white[s] = 1 if s == 1 else sum(row[s] for row in forests[2:])
        # Add j >= 1 copies of size s, chosen with repetition from white[s]
        # kinds; larger k first, so each row reads the rows below it unchanged.
        choose = [math.comb(white[s] + j - 1, j) for j in range(top + 1)]
        for k in range(top, 0, -1):
            row = forests[k]
            for t in range(n, s - 1, -1):
                row[t] += sum(forests[k - j][t - j * s] * choose[j]
                              for j in range(1, min(k, t // s) + 1))
    return white, forests


# --------------------------------------------------------------------------- #
# Induced subtrees and surgery
# --------------------------------------------------------------------------- #


def induced_with_leafmap(shape: Shape, positions: Iterable[int]) -> tuple[Shape, dict[int, int]]:
    """Subtree induced by a set of leaf positions (canonical leaf order).

    Takes the minimal spanning subtree of the selected leaves and suppresses
    non-root degree-2 vertices.  Returns the induced shape together with the
    mapping from each selected original position to its position in the
    induced shape's own canonical leaf order.
    """
    wanted = set(positions)
    if not wanted:
        raise ValueError("need at least one leaf position")
    total = shape.leaf_count
    bad = [p for p in wanted if not 0 <= p < total]
    if bad:
        raise ValueError(f"leaf positions out of range: {sorted(bad)}")

    # Leaf positions follow the code, so one scan of it meets the leaves in
    # order.  ``picked`` holds the induced subtrees, each with its original
    # leaf positions in induced order, of the innermost open vertex's
    # children scanned so far; ``stack`` holds those of its open ancestors.
    picked: list[tuple[Shape, list[int]]] = []
    stack: list[list[tuple[Shape, list[int]]]] = []
    leaf = 0
    for ch in shape.code:
        if ch == "(":
            stack.append(picked)
            picked = []
        elif ch == ")":
            done, picked = picked, stack.pop()
            if len(done) == 1:
                picked.append(done[0])  # suppress this vertex
            elif done:
                # Sort children together with their leaf lists; ties broken
                # by the original positions so the mapping stays
                # deterministic.
                done.sort(key=lambda sub: (_child_key(sub[0].code), sub[1]))
                kids = tuple(sub[0] for sub in done)
                merged = [p for sub in done for p in sub[1]]
                picked.append((Shape(kids, False, shape.arity), merged))
        else:
            if leaf in wanted:
                picked.append((Shape((), ch == "r", shape.arity), [leaf]))
            leaf += 1
    induced, order = picked[0]
    return induced, {orig: idx for idx, orig in enumerate(order)}


def induced_subshape(shape: Shape, positions: Iterable[int]) -> Shape:
    """Subtree induced by a set of leaf positions (see induced_with_leafmap)."""
    return induced_with_leafmap(shape, positions)[0]


def subtree_at(shape: Shape, path: Sequence[int]) -> Shape:
    """Subtree at a root path (child indices in canonical order)."""
    node = shape
    for idx in path:
        node = node.children[idx]
    return node


def replace_subtree(shape: Shape, path: Sequence[int], replacement: Shape) -> Shape:
    """Return a copy of ``shape`` with the subtree at ``path`` replaced.

    Walks the path down, then rebuilds it bottom-up; no recursion, so the
    path's length is not bounded by Python's recursion limit.
    """
    spine = []
    node = shape
    for idx in path:
        spine.append(node)
        node = node.children[idx]
    out = replacement
    for node, idx in zip(reversed(spine), reversed(path)):
        kids = list(node.children)
        kids[idx] = out
        out = Shape(kids, False, node.arity)
    return out
