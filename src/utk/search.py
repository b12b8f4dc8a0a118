"""Exhaustive universality checking and minimal-universal-shape search.

``is_universal`` answers whether one given shape contains every shape of a
given size, by running the embedding dynamic program pattern by pattern,
in code order, up to the first pattern that does not embed.

``find_min_universal`` computes the exact minimal size u(n) (or its redleaf
or d-ary variant) together with the complete catalog of minimal universal
shapes.  The binary searches run on a dedicated engine that never
materializes candidate trees: every shape of a given size is a root over an
unordered pair of smaller shapes, so the engine builds layers of shapes by
size as pairs over smaller layers.  A layer is stored by column: for each
pattern of its own color (every white, or every red, shape of size <= n)
one integer whose bit h says whether the pattern embeds into the layer's
host h.  A pattern embeds into a root over two parts when it embeds into
one part or its own root split lands in the two parts, so over a group of
hosts (the roots over one host each of two given layers) its column is an
OR of at most four products of whole columns.  A red pattern lies in the
red part or splits into a red child there and a white child in the white
part, so only red columns of a red layer are ever read, and a red layer
holds no others.  That rule lives in one place, a kernel per group that
gives one pattern's column over the group and does only the work that
can be nonzero: a pattern with more leaves than a part skips that part's
terms, and one with more leaves than the hosts is never visited.  Layer builds
and candidate sweeps both call it.  A sweep ANDs the target patterns'
group columns and stops at the first empty result.  The order of the AND
is learned, one order per level shared by all its sweeps: it starts
deepest pattern (caterpillars) first, and a target that empties a group's
AND moves to the front, so the targets that fail are tried first.  The AND
does not depend on the order, so results and budgets do not either.
A sweep over size m streams the two highest layers of each kind it reads
(white layers m - 1 and m - 2; for redleaf searches red layers m - 1 and
m - 2 and white layers m and m - 1) unless they are stored already.
Every group that reads a streamed layer pairs it with a one-host layer,
so a target's column over that group is all ones or the OR of some of the
streamed layer's columns.  The walk is one recursion: such a group is
read by reading each group of the streamed layer the same way, with the
column sets composed on the way down, and a group whose other part is
stored reads those columns from its kernel, on demand and never kept, and
ANDs them.  Every other layer is stored by one rule, the first time
something reads it: a group the walk keeps stores its parts (the other
one unless the sweep streams it), and building a layer stores both parts
of each of its groups.  A layer that only skipped groups (below) would
read is never built.  So the sweep over size 27, the last to decide
u(12) = 28, stores white layers up to 24, and the level-13 sweep over
size 28 none above 16.

Two exact lemmas about a host's parts let a sweep skip groups that hold no
winner.  White: if (A, B) is k-universal with |A| <= |B| and
|A| <= k - 2, then B is (k - 1)-universal, since every (k - 1)-shape Q
lies in B for (o, Q) to embed.  Redleaf: if (R, W) is redleaf
k-universal with the red leaf in R, then R is redleaf (k - 1)-universal,
since every (o, Q') embeds and Q' holds the red leaf.  So group (i, m - i)
of a level-k sweep can hold a winner only if i >= k - 1 or
m - i >= u(k - 1) (white), or i >= u_red(k - 1) (redleaf).  One part
rule applies both: for a group whose hosts must be k-universal it says
whether to skip the group and the level its other part must meet, k - 1
for the larger part of a white group with i <= k - 2 and for a streamed
red part, so the walk tests a streamed part's own groups one level lower
per streamed layer.  The chain records each level's u as it is decided,
and a level not recorded prunes nothing.  A
skipped group still spends its budget, so ``candidates_examined`` does not
change, and it builds no layer.

A sweep over a candidate size is exhaustive before the search moves on, so
reported minima are exact and catalogs complete.  Searches with d > 2 run
the same driver with an enumerate-and-check step: every shape of the
candidate size is generated and tested with ``is_universal``, which is fine
at the desk scales where d-ary questions are asked.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from collections.abc import Callable
from functools import partial, reduce
from operator import itemgetter, or_

# ``perfbench/run.py --trace 1`` wraps ``is_induced_subtree`` where this
# module would look it up, so the name stays importable from here.
from utk.embedding import embeds_all, is_induced_subtree  # noqa: F401
from utk.shapes import Shape, _child_key, _Record, enumerate_shapes, parse_code

__all__ = [
    "SearchLimits",
    "SearchReport",
    "ResourceLimit",
    "is_universal",
    "find_min_universal",
    "find_min_universal_chain",
    "check_depth_conjecture",
]

class SearchLimits(_Record):
    """Explicit resource budget; exceeding it yields a partial report."""

    __slots__ = ("max_candidates", "max_seconds")

    def __init__(self, max_candidates: int | None = None, max_seconds: float | None = None):
        # A nan budget would never fire: every comparison with it is false.
        if max_seconds is not None and math.isnan(max_seconds):
            raise ValueError("max_seconds must not be nan")
        self._set(max_candidates, max_seconds)


class SearchReport(_Record):
    """Outcome of one minimal-universal search level.

    ``u_value`` is the exact minimum white-leaf count of an n-universal
    shape and ``minimal_shapes`` the complete, sorted, duplicate-free
    catalog of canonical codes at that size; both are ``None``/empty when a
    resource limit stopped the search (``authoritative=False`` with the
    reason recorded).  ``candidates_examined`` counts universality tests.
    """

    __slots__ = ("n", "d", "redleaf", "u_value", "minimal_shapes", "candidates_examined",
                 "wall_time", "authoritative", "limit_reason")

    def __init__(self, n: int, d: int, redleaf: bool, u_value: int | None,
                 minimal_shapes: tuple[str, ...], candidates_examined: int, wall_time: float,
                 authoritative: bool = True, limit_reason: str | None = None):
        self._set(n, d, redleaf, u_value, minimal_shapes, candidates_examined, wall_time,
                  authoritative, limit_reason)

    def to_dict(self) -> dict:
        """The fields by name, in declaration order."""
        return dict(zip(self.__slots__, self._fields()))


class ResourceLimit(Exception):
    """Internal signal that a search budget ran out."""

    def __init__(self, reason: str, examined: int):
        super().__init__(reason)
        self.reason = reason
        self.examined = examined


class _Budget:
    def __init__(self, limits: SearchLimits | None):
        self.limits = limits or SearchLimits()
        self.t0 = time.monotonic()
        self.examined = 0

    def spend(self, candidates: int) -> None:
        self.examined += candidates
        lim = self.limits
        if lim.max_candidates is not None and self.examined > lim.max_candidates:
            raise ResourceLimit(
                f"candidate limit {lim.max_candidates} exceeded", self.examined
            )
        self.check_time()

    def check_time(self) -> None:
        lim = self.limits
        if lim.max_seconds is not None and time.monotonic() - self.t0 > lim.max_seconds:
            raise ResourceLimit(
                f"time limit {lim.max_seconds}s exceeded", self.examined
            )


# --------------------------------------------------------------------------- #
# Direct universality check for a single shape
# --------------------------------------------------------------------------- #


def is_universal(shape: Shape, n: int, d: int = 2, redleaf: bool = False) -> bool:
    """True iff every shape with ``n`` white leaves (redleaf: every redleaf
    shape with ``n`` white leaves) embeds into ``shape``.

    A host with fewer than ``n`` white leaves is rejected before any
    pattern is listed; otherwise every pattern is tested, in code order, up
    to the first that does not embed.
    """
    if shape.arity != d:
        raise ValueError("shape arity does not match d")
    if n < 1:
        raise ValueError("need n >= 1")
    if shape.white_leaves < n:
        return False
    return embeds_all(enumerate_shapes(n, d, redleaf), shape)


# --------------------------------------------------------------------------- #
# Binary search engine (bitset DP over the pair DAG)
# --------------------------------------------------------------------------- #


# K(x, y) over an A x W group is one multiply when W·W <= 100000 + 12·A·W,
# else a shift-OR per row of x: a multiply costs about A·W·W digit steps, a
# shift-OR a fixed interpreter step plus about A·W.  Measured builds:
# shift-ORs take 0.78, 0.90, 1.20 and 3.3 times as long as multiplies at
# 2 x 983, 3 x 451, 3 x 207 and 11 x 98 (192 patterns), and 0.36, 0.48,
# 1.19 and 1.83 times at 11 x 983, 46 x 983, 23 x 451 and 98 x 451 (850).


class _Group:
    """Group (i, m - i) of layer m: the roots over a host a of the fixed
    part's layer (A hosts, the smaller part, stored before the group is
    read) and a host b of the other part's layer (W hosts, maybe
    streamed), laid out fixed-host-major as host a·W + b.  A tie (i, i)
    keeps b >= a, and its ``size`` counts the kept hosts only.  Each
    part's layer knows its hosts' leaf count (``_Layer.leaves``).  A red
    group (``red``) is a root over a red and a white part."""

    __slots__ = ("i", "fixed", "other", "fixed_first", "tie", "red", "width", "size",
                 "ones", "spreader", "row_starts", "low", "kept")

    def __init__(self, i: int, fixed: _Layer, other: _Layer, fixed_first: bool, tie: bool):
        self.i, self.fixed, self.other = i, fixed, other
        self.fixed_first, self.tie = fixed_first, tie
        self.red = fixed.pids != other.pids
        n_fixed, width = fixed.size, other.size
        self.width = width
        self.size = n_fixed * (n_fixed + 1) // 2 if tie else n_fixed * width
        self.ones = (1 << n_fixed * width) - 1
        if tie:  # in binary text, row W - 1 - r starts at r·W; keep r + 1 bits
            self.kept = itemgetter(*[slice(r * width, r * width + r + 1) for r in range(width)])
        self.spreader = None
        if width * width <= 100_000 + 12 * n_fixed * width:
            # x * spreader spaces copies of x W - 1 apart, so bit a of copy a
            # lands on a·W.  Copies must not overlap: at A = W the last row
            # is placed apart.
            copies = min(n_fixed, width - 1)
            self.spreader = sum(1 << a * (width - 1) for a in range(copies))
            self.row_starts = sum(1 << a * width for a in range(copies))
            self.low = (1 << copies) - 1

    def kron(self, x: int, y: int) -> int:
        """K(x, y): y in each row a of x, the sum of y << a·W.  The rows
        never overlap, so it is also spread(x) * y."""
        if self.spreader is None:
            width, out = self.width, 0
            while x:
                low = x & -x
                out |= y << (low.bit_length() - 1) * width
                x ^= low
            return out
        spread = (x & self.low) * self.spreader & self.row_starts
        if x > self.low:
            spread |= 1 << (self.width - 1) * self.width
        return spread * y

    def triangle(self, square: int) -> int:
        """A tie's hosts, bits b >= a of each row a, from its square."""
        if not square:
            return 0
        return int("".join(self.kept(format(square, f"0{self.width ** 2}b"))), 2)


class _Layer:
    """One layer of hosts, stored by column or streamed.

    Every host has ``leaves`` leaves (white layer m: m; red layer m: m + 1).
    Hosts come in groups, one per split (i, m - i), and ``offsets[k]`` is
    the index of group k's first host.  A layer holds the patterns of its
    own color only, the pids in ``pids`` (white or red).  A stored layer
    has ``cols``, indexed by pid: ``cols[p]`` for p in ``pids`` is an int
    over the layer's hosts whose bit h is set when pattern p embeds into
    host h.  A red layer's list also has a slot for each white pid below
    ``pids``; those hold 0 and are never read (see ``_BinaryEngine``).  A
    layer not yet stored has ``cols`` None; a sweep that streams it
    computes its columns group by group.
    """

    __slots__ = ("leaves", "pids", "size", "offsets", "groups", "cols", "ones")

    def __init__(self, leaves: int, pids: range, groups: list[_Group]):
        self.leaves = leaves
        self.pids = pids
        self.offsets: list[int] = []
        size = 0
        for group in groups:
            self.offsets.append(size)
            size += group.size
        self.size = size
        self.groups = groups
        self.cols: list[int] | None = None
        self.ones = 0

    def store(self, cols: list[int]) -> None:
        self.cols = cols
        self.ones = (1 << self.size) - 1

    def locate(self, h: int) -> tuple[int, int, int]:
        """(i, a, b): host h is the root over host a of the first part's
        layer (size i) and host b of the second part's layer."""
        k = bisect_right(self.offsets, h) - 1
        group = self.groups[k]
        r, width = h - self.offsets[k], group.width
        if group.tie:  # row a holds the W - a hosts b >= a
            fixed = 0
            while r >= width - fixed:
                r -= width - fixed
                fixed += 1
            pos = fixed + r
        else:
            fixed, pos = divmod(r, width)
        return (group.i, fixed, pos) if group.fixed_first else (group.i, pos, fixed)


def _leaf_layer(pid: int, pids: range) -> _Layer:
    layer = _Layer(1, pids, [])
    layer.size = 1
    cols = [0] * pids.stop
    cols[pid] = 1
    layer.store(cols)
    return layer


class _PidBits:
    """Symbolic columns: column q is the bit 1 << q, so a kernel that ORs
    some of them returns the set of the columns it read."""

    __slots__ = ()

    def __getitem__(self, q: int) -> int:
        return 1 << q


class _Plan(dict):
    """Per target p, the columns of a streamed layer whose OR is p's piece
    over that layer, as a list, or None for all ones.  A plan is composed
    from the plan one level up (``up``; None at the sweep group, where p
    is its own column) and the symbolic kernel ``reads`` of the group that
    leads down: the union of what ``reads`` names for p's columns up
    there, all ones if one of them is.  It is composed only for the
    targets an AND reaches, once each."""

    __slots__ = ("up", "reads")

    def __init__(self, up: _Plan | None, reads: Callable[[int], int]):
        super().__init__()
        self.up, self.reads = up, reads

    def __missing__(self, p: int) -> list[int] | None:
        qs = [p] if self.up is None else self.up[p]
        cols = None
        if qs is not None:
            mask = 0
            for q in qs:
                if (got := self.reads(q)) < 0:
                    break
                mask |= got
            else:
                cols = _positions(mask, 0)
        self[p] = cols
        return cols


def _all_of(piece: Callable[[int], int], order: list[int], ones: int) -> int:
    """The AND of the pieces of the targets in ``order``, stopping at the
    first empty result.  The target that empties it moves to the front of
    ``order``, so the next AND tries it first; the AND itself does not
    depend on the order."""
    acc = ones
    for j, p in enumerate(order):
        acc &= piece(p)
        if not acc:
            if j:
                del order[j]
                order.insert(0, p)
            break
    return acc


def _planned(plan: _Plan, piece: Callable[[int], int], ones: int, p: int) -> int:
    """Target p's piece over a group reached through ``plan``: the OR of
    ``piece`` at the columns the plan names for p, or ``ones`` for None."""
    qs = plan[p]
    return ones if qs is None else reduce(or_, map(piece, qs), 0)


def _positions(acc: int, start: int) -> list[int]:
    """Positions of the set bits of ``acc``, counted from ``start``."""
    found = []
    while acc:
        low = acc & -acc
        found.append(start + low.bit_length() - 1)
        acc ^= low
    return found


class _BinaryEngine:
    """Pattern tables and bit-sliced host layers for d = 2 searches.

    The patterns are every white shape of size 1..n_cap and, for redleaf
    searches, every red shape of size 0..n_cap; a pattern's pid is its
    position in that order (white shapes by size, then red shapes by size,
    each size in enumeration order).  A white shape of size m >= 2 is a
    root over an unordered pair of white shapes of sizes i <= m - i; a red
    shape of size m >= 1 is a root over a red shape of size i < m and a
    white shape of size m - i.  Layer m holds every shape of size m once,
    as such a pair, in ``white_layers[m]`` / ``red_layers[m]`` (see
    ``_Layer``); layer 1 is ``o`` and red layer 0 is ``r``.

    Each group (i, m - i) of layer m (see ``_Group``) is built whole.  With
    F the columns of its fixed part, C those of its other part and K(x, y)
    the square that holds y in each row a of x, pattern p's column over the
    group's square (``_kernel``) follows the rule for a root over two parts:

    - white p = (p1, p2): ``K(F[p], ones) | K(all, C[p]) | K(F[p1], C[p2])
      | K(F[p2], C[p1])``;
    - red p = (q_red, q_white): ``K(F[p], ones) | K(F[q_red], C[q_white])``
      when the fixed part is the red one (a white part holds no red
      pattern), and ``K(all, C[p]) | K(F[q_white], C[q_red])`` when it is
      the white one;
    - a tie (i, i) keeps the hosts b >= a of each row a, so each unordered
      pair appears once.

    So a layer holds the patterns of its own color only (``_Layer.pids``),
    and that is exact.  A white group holds white hosts, and only white
    patterns are asked of it.  A red group is asked for red patterns only,
    and by the rule above it reads its red part at red pids (p and q_red)
    and its white part at white ones (q_white).  A white column of a red
    layer would be read by nothing but the white columns of the red layers
    above it, so none is built.  Each group is red or white throughout, so
    ``_kernel`` decides once per group which part each term reads.

    ``_kernel`` binds one group's constants and returns ``piece(p)``, the
    rule for one pattern.  A term is skipped when p has more leaves than
    its part or one of its factors is 0, and p gets the group's ones when
    F[p] or C[p] is all ones.  ``_store`` calls one kernel per group for
    each live pattern in turn; a pattern with more leaves than the hosts
    keeps a 0 column.

    A sweep over size m ANDs the target patterns' group columns and stops
    at the first empty result; the bits left are the winners, each named
    by its host index in layer m, which ``code`` decodes.  The targets
    are ANDed in ``orders[k]``, one order per level k shared by every sweep
    and group of the level: it starts as ``target_pids(k)``, deepest
    pattern first, and each target that empties an AND moves to its front
    (``_all_of``).  A sweep streams the two highest layers of each kind
    it reads (white m - 1 and m - 2; redleaf: red m - 1 and m - 2, white m
    and m - 1) unless they are stored.  Any other layer is stored when it
    is first read: by ``_survivors``, as a part of a group it keeps, or by
    ``_store``, as a part of a group of the layer it builds.  Every group
    that reads a streamed layer pairs it with a one-host layer (white 1 or
    2, red 0 or 1), so every factor from F is 0 or 1, and the group's
    kernel, run over symbolic columns, names the columns of C that each
    target ORs.
    ``_survivors`` walks this as one recursion: over each group of the
    streamed layer the columns are read from that inner group's kernel,
    and where the inner group's other part is streamed too, its kernel is
    symbolic as well, the two column sets compose (``_Plan``), and the
    recursion goes one level further down.  Stored and streamed groups
    follow the same rule.

    ``u`` holds the levels the chain has decided (u(k), or u_red(k) in a
    redleaf engine).  From them the part lemmas of the module docstring
    rule out groups before any kernel reads them, by one rule
    (``_part_rule``) applied to every group the walk reaches: a group
    whose hosts must be k-universal is skipped when i <= k - 2 and
    m - i < u(k - 1) (white) or i < u_red(k - 1) (red), and its other part
    must be (k - 1)-universal when it is the larger part of a white group
    with i <= k - 2 or the red part of a red group, so the walk tests that
    part's groups at k - 1.  The sweep still spends the group's budget,
    and a skipped group stores nothing.
    """

    def __init__(self, n_cap: int, redleaf: bool, budget: _Budget | None = None):
        self.n_cap = n_cap
        self.redleaf = redleaf
        # Listing the shapes is the set-up's main cost (about a minute at
        # n_cap = 22), so a time limit is checked after each size.
        patterns: list[Shape] = []
        for red in (False, True) if redleaf else (False,):
            for m in range(0 if red else 1, n_cap + 1):
                patterns += enumerate_shapes(m, 2, red)
                if budget is not None:
                    budget.check_time()
        self.n_white = sum(not s.has_red for s in patterns)
        # The pids a white and a red layer hold (see ``_Layer``).
        self.white_pids = range(self.n_white)
        self.red_pids = range(self.n_white, len(patterns))
        self.patterns = patterns
        self.leaves = [s.leaf_count for s in patterns]
        pid = {s.code: p for p, s in enumerate(patterns)}
        # Root split of each pattern by pid, the red child first; None for
        # the leaves o and r.
        self.splits: list[tuple[int, int] | None] = []
        for s in patterns:
            if not s.children:
                self.splits.append(None)
                continue
            c1, c2 = s.children
            if c2.has_red:
                c1, c2 = c2, c1
            self.splits.append((pid[c1.code], pid[c2.code]))
        # The same splits white child first, for red groups whose white
        # part is the fixed one.
        self.flipped = [split and split[::-1] for split in self.splits]
        # Per level k, the order in which sweeps AND the targets (see
        # ``_all_of``), shared by every sweep of the level.
        self.orders: dict[int, list[int]] = {}
        # u(k) (redleaf: u_red(k)) of each level k decided so far, which
        # the part lemmas read (see ``_part_rule``); a level not recorded
        # prunes nothing.
        self.u: dict[int, int] = {}
        self.white_layers = {1: _leaf_layer(pid["o"], self.white_pids)}
        self.red_layers = {0: _leaf_layer(pid["r"], self.red_pids)} if redleaf else {}

    # -- layer construction ------------------------------------------------ #

    def _layer(self, m: int, red: bool) -> _Layer:
        """Layer m and its groups; it stays streamed until ``_store``
        builds its columns."""
        layers = self.red_layers if red else self.white_layers
        if m not in layers:
            groups = range(m) if red else range(1, m // 2 + 1)
            pids = self.red_pids if red else self.white_pids
            layers[m] = _Layer(m + red, pids, [self._group(m, i, red) for i in groups])
        return layers[m]

    def _group(self, m: int, i: int, red: bool) -> _Group:
        """Group (i, m - i) of layer m.  The smaller part is fixed, on a
        size tie the first; neither part is stored here.  Where a sweep
        streams a part, the other part has one host, so it is the fixed
        one."""
        first = self._layer(i, red)
        second = self._layer(m - i, False)
        if second.size < first.size:
            return _Group(i, second, first, False, False)
        return _Group(i, first, second, True, not red and 2 * i == m)

    def _store(self, layer: _Layer, budget: _Budget | None = None) -> None:
        """Build a layer's columns from one kernel per group, once both
        parts of each group are stored: the columns of the layer's own
        color (``_Layer.pids``) only.  A pattern with more leaves than the
        layer's hosts keeps a 0 column and is never visited.  Each live
        pattern's column is chained from its pieces, starting at the end
        with the shorter group, so the long pieces at the other end are
        copied only once or twice; one column is finished before the next
        begins, so the partial columns of all patterns never grow side by
        side."""
        if layer.cols is not None:
            return
        for group in layer.groups:
            self._store(group.fixed, budget)
            self._store(group.other, budget)
        timed = budget is not None and budget.limits.max_seconds is not None
        leaves = self.leaves
        groups = layer.groups
        forward = groups[0].size < groups[-1].size
        kernels = [(group.size, self._kernel(group, compact=True))
                   for group in (groups if forward else reversed(groups))]
        cols = [0] * layer.pids.stop
        for p in layer.pids:
            if leaves[p] > layer.leaves:
                continue
            col = offset = 0
            for width, piece in kernels:
                if timed:
                    budget.check_time()
                if forward:
                    col |= piece(p) << offset
                    offset += width
                else:
                    col = col << width | piece(p)
            cols[p] = col
        layer.store(cols)

    def _kernel(self, group: _Group, compact: bool = False) -> Callable[[int], int]:
        """``piece(p)``: pattern p's column over the square of ``group`` by
        the rule in the class docstring (a tie's kept hosts only when
        ``compact``).  F holds the fixed part's columns and C the other
        part's.  A term is skipped when its pattern has more leaves than
        its part or one of its factors is 0, and a pattern that some whole
        part holds gets the group's ones.  F[p] is tested before C[p] is
        read, and C[b] is read only when F[a] is nonzero.

        A red group is asked for red patterns only (see the class
        docstring), so its piece reads F[p] or C[p] from the red part alone
        and makes the one split term (red part at q_red, white part at
        q_white); a white group's piece reads both parts and both split
        terms.  Which is bound once, here, not tested per call.

        When the other part is streamed, the fixed part is one host, so
        every factor from F is 0 or 1 and K(1, y) is y: the piece is all
        ones or the OR of some of C's columns.  The kernel then runs over
        symbolic columns (``_PidBits``) and ``piece(p)`` is -1 for all ones,
        else the set of the q whose C[q] the OR reads, as bits."""
        fixed, other = group.fixed, group.other
        F, f_ones, f_leaves, c_leaves = fixed.cols, fixed.ones, fixed.leaves, other.leaves
        if other.cols is None:  # no C column equals -1, so none reads as all ones
            C, c_ones, ones = _PidBits(), -1, -1
        else:
            C, c_ones, ones = other.cols, other.ones, group.ones
        kron, leaves, splits = group.kron, self.leaves, self.splits
        # F[p] and C[p] are read for p with at most p_fixed and p_other
        # leaves (-1: never).  ``mirror`` makes the second split term; a red
        # group has one, and with its white part fixed it reads the split
        # flipped, F at the white child and C at the red child.
        p_fixed, p_other, mirror = f_leaves, c_leaves, True
        if group.red:
            mirror = False
            if group.fixed_first:  # the red part is fixed
                p_other = -1
            else:
                p_fixed, splits = -1, self.flipped
        triangle = group.triangle if compact and group.tie else None
        if triangle:
            ones = (1 << group.size) - 1

        def piece(p: int) -> int:
            n = leaves[p]
            x = F[p] if n <= p_fixed else 0
            if x == f_ones:
                return ones
            y = C[p] if n <= p_other else 0
            if y == c_ones:
                return ones
            # K(1, y) is y itself: the kron call is saved for it.
            col = (c_ones if x == 1 else kron(x, c_ones)) if x else 0
            if y:
                col |= y if f_ones == 1 else kron(f_ones, y)
            split = splits[p]
            if split is not None:
                a, b = split
                if (x := F[a]) and (y := C[b]):
                    col |= y if x == 1 else kron(x, y)
                if mirror and (x := F[b]) and (y := C[a]):
                    col |= y if x == 1 else kron(x, y)
            return triangle(col) if triangle else col

        return piece

    # -- target tables ----------------------------------------------------- #

    def target_pids(self, k: int) -> list[int]:
        """The size-k candidate patterns (red ones for redleaf searches),
        deepest pattern first: the seed of the level's learned order."""
        pids = [p for p, s in enumerate(self.patterns)
                if s.has_red == self.redleaf and s.white_leaves == k]
        return sorted(pids, key=lambda p: (-self.patterns[p].height, p))

    # -- code materialization ---------------------------------------------- #

    def code(self, m: int, h: int, red: bool) -> str:
        """The code of host h of layer m (red: of the red layers)."""
        if m == (0 if red else 1):
            return "r" if red else "o"
        i, a, b = (self.red_layers if red else self.white_layers)[m].locate(h)
        return _parent_code(self.code(i, a, red), self.code(m - i, b, False))

    # -- candidate sweeps ---------------------------------------------------#

    def minimal_codes(self, m: int, k: int, budget: _Budget) -> list[str]:
        """Codes of the k-universal size-m shapes."""
        return [self.code(m, h, self.redleaf) for h in self.sweep(m, k, budget)]

    def sweep(self, m: int, k: int, budget: _Budget) -> list[int]:
        """The hosts of layer m that are k-universal, by index; exhaustive.
        The two highest layers of each kind the sweep reads (white m - 1
        and m - 2; redleaf: red m - 1 and m - 2, white m and m - 1) are
        streamed unless they are already stored; every other layer is
        stored when a group the walk keeps first reads it (``_survivors``).
        Each group spends its ``size`` in the budget."""
        if not self.redleaf and m == 1:
            budget.spend(1)
            return [0] if k == 1 else []
        order = self.orders.get(k)
        if order is None:
            order = self.orders[k] = self.target_pids(k)
        winners: list[int] = []
        layer = self._layer(m, self.redleaf)
        for offset, group in zip(layer.offsets, layer.groups):
            self._survivors(group, order, budget, k, layer.leaves - 2, None, offset, winners)
            budget.spend(group.size)
        return winners

    def _part_rule(self, group: _Group, need: int | None) -> tuple[bool, int | None]:
        """The part lemmas (see the class docstring) for a group whose hosts
        must be ``need``-universal: whether none of them can be, by the
        levels in ``u``, and the level at which each host of the group's
        other part must then be universal (None: the lemmas ask nothing of
        it).  A level not in ``u`` reads as 0, below every part."""
        if need is None:
            return False, None
        below = self.u.get(need - 1, 0)
        if group.red:  # the red part has i white leaves; it is the other when streamed
            return group.i < below, None if group.fixed_first else need - 1
        # White: the other part is the one with m - i >= i leaves.
        if group.i > need - 2:
            return False, None
        return group.other.leaves < below, need - 1

    def _survivors(self, group: _Group, order: list[int], budget: _Budget, need: int | None,
                   stream_from: int, plan: _Plan | None = None, base: int = 0,
                   hits: list[int] | None = None) -> list[int]:
        """Positions, counted from ``base`` and appended to ``hits``, of the
        hosts of ``group`` (a tie's kept ones) that contain every target:
        the targets' kernel pieces ANDed in ``order`` up to the first empty
        result (``_all_of``, which also learns the order).  ``need`` is the
        level the hosts must be universal at; a group the part lemmas rule
        out (``_part_rule``) adds nothing and is not read.  A group that is
        read stores its fixed part, and its other part too when that part
        has fewer than ``stream_from`` leaves (the sweep's hosts' leaves
        less two); a larger other part is streamed unless it is stored
        already.

        A group whose other part is streamed has a one-host fixed part, so
        its hosts are its other part's and its kernel runs over symbolic
        columns (see ``_kernel``).  Which columns of that part a target ORs
        (its ``_Plan``) is composed from ``plan``, the plan one level up,
        and that kernel; each group of the streamed part is then read the
        same way, at its offset and at the level the lemmas give.  At a
        group whose other part is stored, a target's piece is read through
        ``plan`` when there is one, and the AND decides.  Each kernel is
        built where it is read."""
        hits = [] if hits is None else hits
        skip, inner_need = self._part_rule(group, need)
        if skip:
            return hits
        self._store(group.fixed, budget)
        if group.other.leaves < stream_from:
            self._store(group.other, budget)
        piece = self._kernel(group)
        if group.other.cols is None:
            plan, layer = _Plan(plan, piece), group.other
            for offset, inner in zip(layer.offsets, layer.groups):
                budget.check_time()
                self._survivors(inner, order, budget, inner_need, stream_from, plan,
                                base + offset, hits)
            return hits
        if plan is not None:
            piece = partial(_planned, plan, piece, group.ones)
        acc = _all_of(piece, order, group.ones)
        hits += _positions(group.triangle(acc) if group.tie else acc, base)
        return hits


def _parent_code(ca: str, cb: str) -> str:
    if _child_key(cb) < _child_key(ca):
        ca, cb = cb, ca
    return "(" + ca + cb + ")"


# --------------------------------------------------------------------------- #
# Search drivers
# --------------------------------------------------------------------------- #


def _embed_step(d: int, redleaf: bool) -> Callable[[int, int, _Budget], list[str]]:
    """The d > 2 step: enumerate the size-m shapes and check each one."""

    def minimal_codes(m: int, k: int, budget: _Budget) -> list[str]:
        codes: list[str] = []
        for cand in enumerate_shapes(m, d, redleaf):
            budget.spend(1)
            if is_universal(cand, k, d, redleaf):
                codes.append(cand.code)
        return codes

    return minimal_codes


def find_min_universal_chain(n: int, d: int = 2, redleaf: bool = False,
                             limits: SearchLimits | None = None) -> tuple[SearchReport, ...]:
    """Reports for every level k = 1..n (the search for n needs the smaller
    values anyway): level k grows the candidate size m from max(k, u(k - 1))
    until some size-m shape is k-universal.  If a resource limit fires, also
    while the pattern tables are built, the last report is partial
    (``authoritative=False``) and the chain stops there."""
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 2:
        raise ValueError("need d >= 2")
    budget = _Budget(limits)
    reports: list[SearchReport] = []
    level_t0, level_examined = time.monotonic(), 0
    try:
        if d == 2:
            engine = _BinaryEngine(n, redleaf, budget)
            # The engine's part lemmas read the levels decided so far.
            step, decided = engine.minimal_codes, engine.u
        else:
            step, decided = _embed_step(d, redleaf), {}
        for k in range(1, n + 1):
            level_t0, level_examined = time.monotonic(), budget.examined
            m = max(k, decided.get(k - 1, 1))
            while not (codes := step(m, k, budget)):
                m += 1
            reports.append(
                SearchReport(
                    n=k, d=d, redleaf=redleaf, u_value=m,
                    minimal_shapes=tuple(sorted(codes)),
                    candidates_examined=budget.examined - level_examined,
                    wall_time=time.monotonic() - level_t0,
                )
            )
            decided[k] = m
    except ResourceLimit as limit:
        reports.append(
            SearchReport(
                n=len(reports) + 1, d=d, redleaf=redleaf, u_value=None, minimal_shapes=(),
                candidates_examined=limit.examined - level_examined,
                wall_time=time.monotonic() - level_t0,
                authoritative=False, limit_reason=limit.reason,
            )
        )
    return tuple(reports)


def find_min_universal(n: int, d: int = 2, redleaf: bool = False,
                       limits: SearchLimits | None = None) -> SearchReport:
    """Exact minimal universal size and the complete catalog of minimal
    universal shapes for the given n (see ``find_min_universal_chain``).
    A partial report names the level the limit stopped, n included, and
    counts the candidates of every level."""
    reports = find_min_universal_chain(n, d, redleaf, limits)
    last = reports[-1]
    if last.authoritative:
        return last
    return SearchReport(
        n=n, d=d, redleaf=redleaf, u_value=None, minimal_shapes=(),
        candidates_examined=sum(r.candidates_examined for r in reports),
        wall_time=sum(r.wall_time for r in reports),
        authoritative=False,
        limit_reason=f"stopped at level {last.n}: {last.limit_reason}",
    )


def check_depth_conjecture(report: SearchReport) -> bool:
    """Does some minimal shape in the report keep every leaf within depth
    n - 1 of the root?"""
    if not report.authoritative or not report.minimal_shapes:
        raise ValueError("need a complete search report with minimal shapes")
    return any(
        parse_code(code, report.d).height <= report.n - 1
        for code in report.minimal_shapes
    )
