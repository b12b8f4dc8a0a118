"""Provably universal objects built by recursion.

A shape is *n-universal* when every shape with n white leaves embeds into it
as an induced subtree (similarly for redleaf shapes and for tanglegrams).
The builders here follow the centroid-halving recursions:

- ``U(n)``: graft a ``floor(n/2)``-universal redleaf shape with d copies of a
  ``floor(n/2)``-universal shape joined under one root.
- ``U1(n)`` (redleaf): graft a ``floor(n/2)``-universal redleaf shape with a
  join of one more such redleaf shape, one ``U(n)``, and d-2 copies of
  ``U(floor(n/2))``.

Both recursions accept injected replacement parts (e.g. minimal universal
shapes found by exhaustive search), which shrinks the result without
affecting the universality argument.

``build_redleaf_comb`` realizes the comb construction that bounds the
redleaf universality size by sums of plain universality sizes: universal
shapes of the palindromic doubling sequence sizes are chained onto a path
ending in the red leaf, and every redleaf shape embeds because every
composition of ``2**k`` embeds termwise into that sequence.  The tests
check that embedding, and the centroid split behind the halving
recursions, with the executable proofs in ``tests/proofs.py``.

``build_universal_tanglegram`` blows an n-universal tree up into an
n-universal tanglegram of quadratic size by hanging a small tree off every
leaf and wiring each left small tree to all right small trees.
"""

from __future__ import annotations

from collections.abc import Callable

from utk.shapes import Shape, _postorder, caterpillar, graft, join, make_leaf
from utk.tanglegrams import Tanglegram

__all__ = [
    "svec",
    "build_universal",
    "build_universal_redleaf",
    "build_redleaf_comb",
    "build_universal_tanglegram",
    "construction_trace",
]

PartSource = Callable[[int, bool], "Shape | None"]


# --------------------------------------------------------------------------- #
# The palindromic doubling sequence
# --------------------------------------------------------------------------- #


def svec(k: int) -> tuple[int, ...]:
    """The sequence s_k of length ``2**(k+1) - 1``: s_0 = (1) and
    s_k = s_{k-1} ++ (2**k) ++ s_{k-1}.  The term ``2**i`` appears exactly
    ``2**(k-i)`` times."""
    if k < 0:
        raise ValueError("need k >= 0")
    seq: tuple[int, ...] = (1,)
    for i in range(1, k + 1):
        seq = seq + (2**i,) + seq
    return seq


# --------------------------------------------------------------------------- #
# Universal shape builders
# --------------------------------------------------------------------------- #


def _build(n: int, d: int, redleaf: bool, parts: PartSource | None,
           memo: dict) -> tuple[Shape, dict]:
    """The shape for (n, redleaf) and its trace (see ``construction_trace``),
    each subproblem built once per ``memo``."""
    key = (n, redleaf)
    if key in memo:
        return memo[key]
    injected = parts(n, redleaf) if parts is not None else None
    traces = None
    if injected is not None:
        if injected.arity != d or injected.has_red != redleaf:
            raise ValueError(f"injected part for {key} has the wrong kind")
        shape, rule = injected, "injected-part"
    elif n == 1:
        rule = "base"
        # Both base cases share one white leaf per memo, keyed by its code.
        shape = memo.setdefault("o", make_leaf("white", d))
        if redleaf:
            shape = join([shape, make_leaf("red", d)], arity=d)
    else:
        half = n // 2
        if redleaf:
            core = [(half, True), (n, False)] + [(half, False)] * (d - 2)
        else:
            core = [(half, False)] * d
        built = [_build(m, d, red, parts, memo) for m, red in [(half, True)] + core]
        shape = graft(built[0][0], join([part for part, _ in built[1:]], arity=d))
        rule = "redleaf-halving-graft" if redleaf else "halving-graft"
        traces = [trace for _, trace in built]
    trace = {"rule": rule, "n": n, "redleaf": redleaf, "code": shape.code,
             "white_leaves": shape.white_leaves}
    if traces is not None:
        trace["parts"] = traces
    memo[key] = shape, trace
    return shape, trace


def build_universal(n: int, d: int = 2, parts: PartSource | None = None) -> Shape:
    """An n-universal d-ary shape from the halving recursion.

    ``parts(m, redleaf)`` may return a replacement shape known to be
    m-universal (of the right kind) for any subproblem; returning ``None``
    falls back to the recursion.  Shared subproblems are memoized per call.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return _build(n, d, False, parts, {})[0]


def build_universal_redleaf(n: int, d: int = 2, parts: PartSource | None = None) -> Shape:
    """An n-universal redleaf d-ary shape from the halving recursion."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _build(n, d, True, parts, {})[0]


def build_redleaf_comb(k: int, d: int = 2,
                       universal_source: Callable[[int], Shape] | None = None) -> Shape:
    """A ``2**k``-universal redleaf shape chained from plain universal parts.

    Chains ``R_1 (+) (R_2 (+) (... (R_m (+) red-leaf)))`` over the doubling
    sequence ``svec(k)``, where ``R_i (+) tail`` is one root over ``d - 1``
    copies of a shape universal for ``svec(k)[i-1]`` leaves and the tail, so
    the red side and every white side are siblings.  ``universal_source(m)``
    supplies the m-universal shapes, defaulting to :func:`build_universal`.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    if universal_source is None:
        # One memo for the whole comb, so its parts share their subtrees.
        memo: dict = {}

        def universal_source(m: int) -> Shape:
            return _build(m, d, False, None, memo)[0]

    parts: dict[int, Shape] = {}  # one per size, shared where svec(k) repeats it
    tail = make_leaf("red", d)
    for size in reversed(svec(k)):
        if size not in parts:
            part = universal_source(size)
            if part.arity != d or part.has_red:
                raise ValueError("universal_source must return white d-ary shapes")
            parts[size] = part
        tail = join([parts[size]] * (d - 1) + [tail], arity=d)
    return tail


def build_universal_tanglegram(n: int, universal: Shape | None = None,
                               d: int = 2) -> Tanglegram:
    """An n-universal tanglegram of size ``u**2`` from an n-universal tree of
    size ``u``.

    Both trees are the universal tree with a fixed u-leaf tree (a
    caterpillar) hanging off every leaf; each left small tree sends exactly
    one matching edge into each right small tree.  Works for d-ary trees the
    same way (pass a d-ary ``universal`` or set ``d``).

    The blown-up tree is made once per node object of ``universal``, over
    its postorder, and every leaf becomes the one caterpillar object.  So
    when ``universal`` has one object per distinct subtree (a parsed one,
    say), so does the result, and the passes over its postorder run once
    per distinct subtree.
    """
    if universal is None:
        universal = build_universal(n, d)
    if universal.has_red:
        raise ValueError("need a white universal shape")
    u = universal.white_leaves
    small = caterpillar(u, universal.arity)
    _, kids = _postorder(universal)
    blown: list[Shape] = []  # per postorder node of universal
    for node_kids in kids:
        blown.append(join([blown[k] for k in node_kids], arity=universal.arity)
                     if node_kids else small)
    tree = blown[-1]
    # Left block i's j-th leaf pairs with right block j's i-th leaf.  Each
    # small tree's leaves occupy one contiguous block of u positions.
    matching = tuple((p % u) * u + p // u for p in range(u * u))
    return Tanglegram(tree, tree, matching)


# --------------------------------------------------------------------------- #
# Provenance traces
# --------------------------------------------------------------------------- #


def construction_trace(n: int, d: int = 2, redleaf: bool = False,
                       parts: PartSource | None = None) -> dict:
    """JSON-ready description of how the recursive builder assembles its
    output: which rule fired at each level and which parts it used.  A
    subproblem met twice shares one trace."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _build(n, d, redleaf, parts, {})[1]
