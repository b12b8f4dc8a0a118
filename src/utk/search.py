"""Exhaustive universality checking and minimal-universal-shape search.

``is_universal`` answers whether one given shape contains every shape of a
given size, by running the embedding dynamic program pattern by pattern
(cheapest-to-fail patterns first).

``find_min_universal`` computes the exact minimal size u(n) (or its redleaf
or d-ary variant) together with the complete catalog of minimal universal
shapes.  The binary searches run on a dedicated engine that never
materializes candidate trees: every shape of a given size is a root over an
unordered pair of smaller shapes, so the engine builds layers of shapes by
size as pairs over smaller layers.  A layer is stored by column: for each
pattern (every shape of size <= n) one integer whose bit h says whether
the pattern embeds into the layer's host h.  A pattern embeds into a root
over two parts when it embeds into one part or its own root split lands in
the two parts, so over a group of hosts (the roots over one host each of
two given layers) its column is an OR of at most four products of whole
columns.  Candidate sweeps AND the target patterns' group columns, deepest
patterns (caterpillars first) first, and stop at the first empty result.
A sweep over size m is the only reader of its top layer (white layer m - 1;
for redleaf searches red layer m - 1 and white layer m), so the engine
stores only the layers below it and streams the top one group by group
into the AND.  A top layer is stored only when a later sweep needs it below
its own top.

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
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import Callable, Iterator

# ``perfbench/run.py --trace 1`` wraps ``is_induced_subtree`` where this
# module would look it up, so the name stays importable from here.
from utk.embedding import embeds_all, is_induced_subtree  # noqa: F401
from utk.shapes import Shape, _child_key, complete_tree, enumerate_shapes, parse_code

__all__ = [
    "SearchLimits",
    "SearchReport",
    "ResourceLimit",
    "is_universal",
    "find_min_universal",
    "find_min_universal_chain",
    "check_depth_conjecture",
]

@dataclass(frozen=True)
class SearchLimits:
    """Explicit resource budget; exceeding it yields a partial report."""

    max_candidates: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        # A nan budget would never fire: every comparison with it is false.
        if self.max_seconds is not None and math.isnan(self.max_seconds):
            raise ValueError("max_seconds must not be nan")


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one minimal-universal search level.

    ``u_value`` is the exact minimum white-leaf count of an n-universal
    shape and ``minimal_shapes`` the complete, sorted, duplicate-free
    catalog of canonical codes at that size; both are ``None``/empty when a
    resource limit stopped the search (``authoritative=False`` with the
    reason recorded).  ``candidates_examined`` counts universality tests.
    """

    n: int
    d: int
    redleaf: bool
    u_value: int | None
    minimal_shapes: tuple[str, ...]
    candidates_examined: int
    wall_time: float
    authoritative: bool = True
    limit_reason: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


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

    Checks cheap necessary conditions first (height for the caterpillar,
    containment of the largest complete tree that fits), then runs the
    embedding check against every pattern, failing fast.
    """
    if shape.arity != d:
        raise ValueError("shape arity does not match d")
    if n < 1:
        raise ValueError("need n >= 1")
    if redleaf and not shape.has_red:
        return False
    min_height = n if redleaf else n - 1
    if shape.height < min_height:
        return False
    # Deepest patterns first: the caterpillar-like ones reject the most hosts.
    patterns = sorted(enumerate_shapes(n, d, redleaf), key=lambda s: (-s.height, s.code))
    if not redleaf:
        h = n.bit_length() - 1
        if h >= 1:
            patterns.insert(0, complete_tree(h, d))
    return embeds_all(patterns, shape)


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
    part's layer (A hosts, the smaller part, always stored) and a host b of
    the other part's layer (W hosts, maybe streamed), laid out
    fixed-host-major as host a·W + b.  A tie (i, i) keeps b >= a."""

    __slots__ = ("i", "fixed", "other", "fixed_first", "tie", "width", "size",
                 "ones", "spreader", "row_starts", "low", "kept")

    def __init__(self, i: int, fixed: _Layer, other: _Layer, fixed_first: bool, tie: bool):
        self.i, self.fixed, self.other = i, fixed, other
        self.fixed_first, self.tie = fixed_first, tie
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
        if not x or not y:
            return 0
        if x == 1:
            return y
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

    Hosts come in groups, one per split (i, m - i), and ``offsets[k]`` is
    the index of group k's first host.  A stored layer has ``cols``:
    ``cols[p]`` is an int over the layer's hosts whose bit h is set when
    pattern p embeds into host h.  A streamed layer has ``cols`` None, and
    a sweep computes its columns group by group.
    """

    __slots__ = ("size", "offsets", "groups", "cols", "ones")

    def __init__(self, groups: list[_Group]):
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


def _leaf_layer(pid: int, n_patterns: int) -> _Layer:
    layer = _Layer([])
    layer.size = 1
    cols = [0] * n_patterns
    cols[pid] = 1
    layer.store(cols)
    return layer


def _join(pieces: list[tuple[int, int]]) -> int:
    """Concatenate (bits, width) pieces, the first one lowest.  The chain
    starts at the end with the shorter piece, so that the long pieces at
    the other end are copied only once or twice."""
    col = 0
    if pieces[0][1] < pieces[-1][1]:
        offset = 0
        for bits, width in pieces:
            col |= bits << offset
            offset += width
    else:
        for bits, width in reversed(pieces):
            col = col << width | bits
    return col


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
    group's square (``_column``) follows the rule for a root over two parts:

    - white p = (p1, p2): ``K(F[p], ones) | K(all, C[p]) | K(F[p1], C[p2])
      | K(F[p2], C[p1])``;
    - red p = (q_red, q_white): ``K(F[p], ones) | K(F[q_red], C[q_white])``
      when the fixed part is the red one (a white part holds no red
      pattern), and ``K(all, C[p]) | K(F[q_white], C[q_red])`` when it is
      the white one;
    - a tie (i, i) keeps the hosts b >= a of each row a, so each unordered
      pair appears once.

    A sweep over size m ANDs the target patterns' group columns, deepest
    pattern first, and stops at the first empty result; the bits left are
    the winners.  Only the sweep reads its top layer (white m - 1; redleaf:
    red m - 1 and white m), so a sweep stores the layers below it and
    streams the top, which it pairs only with a one-host layer (white 1 or
    red 0).  That host's pattern row names each target's terms (``_terms``,
    the one-host case of ``_column``), and over each group of the top layer
    a target's piece is the OR of its terms' group columns.
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
        self.patterns = patterns
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
        self.white_layers = {1: _leaf_layer(pid["o"], self.n_white)}
        self.red_layers = {0: _leaf_layer(pid["r"], len(patterns))} if redleaf else {}

    # -- layer construction ------------------------------------------------ #

    def ensure_white_layer(self, m: int, budget: _Budget | None = None) -> None:
        self._store(self._layer(m, False, budget), self.n_white, budget)

    def ensure_red_layer(self, m: int, budget: _Budget | None = None) -> None:
        self._store(self._layer(m, True, budget), len(self.patterns), budget)

    def _layer(self, m: int, red: bool, budget: _Budget | None) -> _Layer:
        """Layer m, streamed unless it is already stored; the layers its
        plan reads are stored first."""
        layers = self.red_layers if red else self.white_layers
        if m not in layers:
            groups = range(m) if red else range(1, m // 2 + 1)
            for i in groups:
                if red:
                    self.ensure_red_layer(i, budget)
                else:
                    self.ensure_white_layer(i, budget)
                self.ensure_white_layer(m - i, budget)
            layers[m] = _Layer([self._group(m, i, red) for i in groups])
        return layers[m]

    def _group(self, m: int, i: int, red: bool) -> _Group:
        """Group (i, m - i) of layer m.  The smaller part is fixed; on a size
        tie the first part is.  A streamed part is never fixed: only a
        sweep's top layer can be one, and the other part then has one
        host."""
        first = self.red_layers[i] if red else self.white_layers[i]
        second = self.white_layers[m - i]
        if first.cols is None or second.size < first.size:
            return _Group(i, second, first, False, False)
        return _Group(i, first, second, True, not red and 2 * i == m)

    def _store(self, layer: _Layer, n_patterns: int, budget: _Budget | None) -> None:
        if layer.cols is not None:
            return
        cols = []
        for p in range(n_patterns):
            if budget is not None:
                budget.check_time()
            pieces = []
            for group in layer.groups:
                piece = self._column(p, group)
                pieces.append((group.triangle(piece) if group.tie else piece, group.size))
            cols.append(_join(pieces))
        layer.store(cols)

    def _column(self, p: int, group: _Group) -> int:
        """Column of pattern p over the square of ``group``, by the rule in
        the class docstring: F holds the fixed part's columns and C the
        other part's, both stored."""
        fixed, cols, kron = group.fixed.cols, group.other.cols, group.kron
        # A white part holds no red pattern: a red p lies in the red part,
        # and so does its red child, the first of its split.
        in_fixed = p < self.n_white or group.fixed_first
        in_other = p < self.n_white or not group.fixed_first
        col = 0
        if in_fixed:
            if fixed[p] == group.fixed.ones:
                return group.ones
            col = kron(fixed[p], group.other.ones)
        if in_other:
            col |= kron(group.fixed.ones, cols[p])
        split = self.splits[p]
        if split is not None:
            a, b = split
            if in_fixed:
                col |= kron(fixed[a], cols[b])
            if in_other:
                col |= kron(fixed[b], cols[a])
        return col

    def _terms(self, p: int, row: int, fixed_first: bool) -> tuple[int, ...] | None:
        """``_column`` for a fixed part of one host with pattern row ``row``:
        the patterns whose columns over the other part OR to pattern p's
        column; None when the fixed host has p, so every host does."""
        if row >> p & 1:
            return None
        in_fixed = p < self.n_white or fixed_first
        in_other = p < self.n_white or not fixed_first
        terms = (p,) if in_other else ()
        split = self.splits[p]
        if split is not None:
            a, b = split
            if in_fixed and row >> a & 1:
                terms += (b,)
            if in_other and row >> b & 1:
                terms += (a,)
        return terms

    # -- target tables ----------------------------------------------------- #

    def target_pids(self, k: int) -> list[int]:
        """The size-k candidate patterns (red ones for redleaf searches),
        deepest pattern first."""
        pids = [p for p, s in enumerate(self.patterns)
                if s.has_red == self.redleaf and s.white_leaves == k]
        return sorted(pids, key=lambda p: (-self.patterns[p].height, p))

    # -- code materialization ---------------------------------------------- #

    def white_code(self, m: int, idx: int) -> str:
        if m == 1:
            return "o"
        i, a, b = self.white_layers[m].locate(idx)
        return _parent_code(self.white_code(i, a), self.white_code(m - i, b))

    def red_code(self, m: int, idx: int) -> str:
        if m == 0:
            return "r"
        i, a, b = self.red_layers[m].locate(idx)
        return _parent_code(self.red_code(i, a), self.white_code(m - i, b))

    def pair_code(self, m: int, pair: tuple[int, int, int]) -> str:
        if not self.redleaf and m == 1:
            return "o"
        i, a, b = pair
        first = self.red_code(i, a) if self.redleaf else self.white_code(i, a)
        return _parent_code(first, self.white_code(m - i, b))

    # -- candidate sweeps ---------------------------------------------------#

    def minimal_codes(self, m: int, k: int, budget: _Budget) -> list[str]:
        """Codes of the k-universal size-m shapes."""
        return [self.pair_code(m, pair) for pair in self.sweep(m, k, budget)]

    def sweep(self, m: int, k: int, budget: _Budget) -> list[tuple[int, int, int]]:
        """Test every size-m candidate for k-universality; exhaustive.  The
        layers below the top are stored first; the top layer is streamed
        unless it is already stored."""
        if not self.redleaf and m == 1:
            budget.spend(1)
            return [(0, 0, 0)] if k == 1 else []
        if self.redleaf:
            self._layer(m - 1, True, budget)
            self._layer(m, False, budget)
        else:
            self._layer(m - 1, False, budget)
        targets = self.target_pids(k)
        winners: list[tuple[int, int, int]] = []
        for i in range(m) if self.redleaf else range(1, m // 2 + 1):
            group = self._group(m, i, self.redleaf)
            if group.other.cols is None:  # the top layer, with a one-host part
                pairs = [(0, pos) for pos in self._streamed_hits(targets, group, budget)]
            else:
                acc = group.ones
                for p in targets:
                    acc &= self._column(p, group)
                    if not acc:
                        break
                pairs = [divmod(pos, group.width) for pos in _positions(acc, 0)]
                if group.tie:
                    pairs = [(a, b) for a, b in pairs if b >= a]
            winners += [(i, a, b) if group.fixed_first else (i, b, a) for a, b in pairs]
            for examined in self._chunk_space(m, i):
                budget.spend(examined)
        return winners

    def _streamed_hits(self, targets: list[int], group: _Group, budget: _Budget) -> list[int]:
        """Hosts of the streamed layer ``group.other`` that, rooted with the
        fixed part's one host, contain every target: per group of the
        streamed layer, a target's piece is the OR of its terms' columns
        over that group, ANDed deepest target first."""
        row = sum(1 << q for q, col in enumerate(group.fixed.cols) if col)
        terms = [t for t in (self._terms(p, row, group.fixed_first) for p in targets)
                 if t is not None]
        if () in terms:
            return []
        top = group.other
        hits: list[int] = []
        for offset, inner in zip(top.offsets, top.groups):
            budget.check_time()
            acc = inner.ones
            for qs in terms:
                piece = 0
                for q in qs:
                    piece |= self._column(q, inner)
                acc &= piece
                if not acc:
                    break
            if inner.tie:
                acc = inner.triangle(acc)
            hits += _positions(acc, offset)
        return hits

    def _chunk_space(self, m: int, i: int, block: int = 8192) -> Iterator[int]:
        """Candidates per chunk of group i, ``block`` hosts of the first
        part at a time: the sweep spends its budget in these amounts."""
        first = self.red_layers[i] if self.redleaf else self.white_layers[i]
        n_second = self.white_layers[m - i].size
        same = not self.redleaf and 2 * i == m
        for lo in range(0, first.size, block):
            hi = min(lo + block, first.size)
            yield (hi - lo) * n_second - ((lo + hi - 1) * (hi - lo) // 2 if same else 0)


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
        step = _BinaryEngine(n, redleaf, budget).minimal_codes if d == 2 else _embed_step(d, redleaf)
        prev_u = 1
        for k in range(1, n + 1):
            level_t0, level_examined = time.monotonic(), budget.examined
            m = max(k, prev_u)
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
            prev_u = m
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
    universal shapes for the given n (see ``find_min_universal_chain``)."""
    reports = find_min_universal_chain(n, d, redleaf, limits)
    last = reports[-1]
    if last.n != n:  # a limit stopped the chain early
        return SearchReport(
            n=n, d=d, redleaf=redleaf, u_value=None, minimal_shapes=(),
            candidates_examined=sum(r.candidates_examined for r in reports),
            wall_time=sum(r.wall_time for r in reports),
            authoritative=False,
            limit_reason=f"stopped at level {last.n}: {last.limit_reason}",
        )
    return last


def check_depth_conjecture(report: SearchReport) -> bool:
    """Does some minimal shape in the report keep every leaf within depth
    n - 1 of the root?"""
    if not report.authoritative or not report.minimal_shapes:
        raise ValueError("need a complete search report with minimal shapes")
    return any(
        parse_code(code, report.d).height <= report.n - 1
        for code in report.minimal_shapes
    )
