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
the two parts, so with one part fixed, the pattern's column over all hosts
of the other part is one to three ORs of that layer's whole columns.
Candidate sweeps AND the target patterns' columns in the same way, deepest
patterns (caterpillars first) first, and stop at the first empty result.
A sweep over size m is the only reader of its top layer (white layer m - 1;
for redleaf searches red layer m - 1 and white layer m), so the engine
stores only the layers below it and streams the top one: block by block,
each target's column piece is one to three ORs of blocks over stored
layers, fed straight into the AND.  A top layer is stored only when a later
sweep needs it below its own top.

A sweep over a candidate size is exhaustive before the search moves on, so
reported minima are exact and catalogs complete.  Searches with d > 2 run
the same driver with an enumerate-and-embed step: every shape of the
candidate size is generated and tested against the patterns with the
embedding check, which is fine at the desk scales where d-ary questions are
asked.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

from utk.embedding import is_induced_subtree
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


def _ordered_patterns(n: int, d: int, redleaf: bool) -> list[Shape]:
    # Deepest patterns first: the caterpillar-like ones reject the most hosts.
    return sorted(
        enumerate_shapes(n, d, redleaf), key=lambda s: (-s.height, s.code)
    )


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
    if not redleaf:
        h = n.bit_length() - 1
        if h >= 1 and not is_induced_subtree(complete_tree(h, d), shape):
            return False
    return all(is_induced_subtree(p, shape) for p in _ordered_patterns(n, d, redleaf))


# --------------------------------------------------------------------------- #
# Binary search engine (bitset DP over the pair DAG)
# --------------------------------------------------------------------------- #


class _Layer:
    """One layer of hosts, stored by column or streamed.

    Hosts come in blocks; a block fixes one host of one part and runs over
    the hosts of the other part's layer, and ``offsets[k]`` is the index of
    block k's first host.  ``plan[k]`` is block k as ``_BinaryEngine._group``
    lists it.  A stored layer has ``cols``: ``cols[p]`` is an int over the
    layer's hosts whose bit h is set when pattern p embeds into host h.  A
    streamed layer has ``cols`` None and keeps its plan, from which a sweep
    computes its columns block by block.
    """

    __slots__ = ("size", "offsets", "blocks", "plan", "cols", "ones", "_rows")

    def __init__(self, plan: list[tuple[int, _Layer, bool, int, int, int]]):
        self.offsets: list[int] = []
        # (i, fixed host, first position, fixed is the first part)
        self.blocks: list[tuple[int, int, int, bool]] = []
        size = 0
        for _, other, fixed_first, i, fixed, start in plan:
            self.offsets.append(size)
            self.blocks.append((i, fixed, start, fixed_first))
            size += other.size - start
        self.size = size
        self.plan = plan
        self.cols: list[int] | None = None
        self.ones = 0
        self._rows: list[int] | None = None

    def store(self, cols: list[int]) -> None:
        self.cols = cols
        self.ones = (1 << self.size) - 1
        self.plan = []

    def rows(self) -> list[int]:
        """Per host, the bitset of the patterns that embed into it (cached)."""
        if self._rows is None:
            rows = [0] * self.size
            for p, col in enumerate(self.cols):
                bit = 1 << p
                text = format(col, "b")[::-1]
                h = text.find("1")
                while h >= 0:
                    rows[h] |= bit
                    h = text.find("1", h + 1)
            self._rows = rows
        return self._rows

    def locate(self, h: int) -> tuple[int, int, int]:
        """(i, a, b): host h is the root over host a of the first part's
        layer (size i) and host b of the second part's layer."""
        k = bisect_right(self.offsets, h) - 1
        i, fixed, start, fixed_first = self.blocks[k]
        pos = start + h - self.offsets[k]
        return (i, fixed, pos) if fixed_first else (i, pos, fixed)


def _leaf_layer(pid: int, n_patterns: int) -> _Layer:
    layer = _Layer([])
    layer.size = 1
    cols = [0] * n_patterns
    cols[pid] = 1
    layer.store(cols)
    return layer


def _join(pieces: list[tuple[int, int]]) -> int:
    """Concatenate (bits, width) pieces, the first one lowest.  Joining in
    pairwise rounds costs O(total width * log(number of pieces))."""
    while len(pieces) > 1:
        joined = [(lo | hi << width, width + hi_width)
                  for (lo, width), (hi, hi_width) in zip(pieces[::2], pieces[1::2])]
        if len(pieces) % 2:
            joined.append(pieces[-1])
        pieces = joined
    return pieces[0][0]


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

    A group (i, m - i) of layer m is built one host of the smaller part at
    a time.  With that host fixed (its pattern row taken from the columns)
    the block of pattern p over the other part's layer, whose columns are C,
    is the OR of the columns that ``_terms`` names, by the containment rule
    for a root over two parts:

    - every host contains p if the fixed part does;
    - white p = (p1, p2): ``C[p] | (C[p2] if fixed has p1) | (C[p1] if
      fixed has p2)``;
    - red p = (q_red, q_white): ``C[q_white] if fixed has q_red`` when the
      fixed part is the red one (a white part holds no red pattern), and
      ``C[p] | (C[q_red] if fixed has q_white)`` when it is the white one;
    - in a group (i, i), the block keeps only the hosts b >= a of the fixed
      host a (shifted right by a), so each unordered pair appears once.

    A sweep over size m ANDs the target patterns' blocks, deepest pattern
    first, and stops at the first empty result; the bits left are the
    winners.  Only the sweep reads its top layer (white m - 1; redleaf:
    red m - 1 and white m), so a sweep stores the layers below it (white
    1..m - 2; redleaf: red 0..m - 2 and white 1..m - 1) and streams the
    top: over each block of the top layer's plan, a target's piece of
    column is the OR of its terms, each term a block over a stored layer.
    The top layer is stored only once a later sweep needs it below its own
    top.
    """

    def __init__(self, n_cap: int, redleaf: bool):
        self.n_cap = n_cap
        self.redleaf = redleaf
        patterns = [s for m in range(1, n_cap + 1) for s in enumerate_shapes(m, 2)]
        self.n_white = len(patterns)
        if redleaf:
            patterns += [s for m in range(n_cap + 1)
                         for s in enumerate_shapes(m, 2, redleaf=True)]
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
            layers[m] = _Layer([blk for i in groups for blk in self._group(m, i, red)])
        return layers[m]

    def _group(self, m: int, i: int, red: bool) -> list[tuple[int, _Layer, bool, int, int, int]]:
        """Blocks of group (i, m - i) of layer m, one per host of the smaller
        part: (fixed row, other layer, fixed is the first part, i, fixed
        host, first position kept).  A streamed part is never fixed; only a
        sweep's top layer can be one, and the other part is then stored."""
        first = self.red_layers[i] if red else self.white_layers[i]
        second = self.white_layers[m - i]
        if first.cols is None or second.size < first.size:
            return [(row, first, False, i, b, 0) for b, row in enumerate(second.rows())]
        same = not red and 2 * i == m
        return [(row, second, True, i, a, a if same else 0)
                for a, row in enumerate(first.rows())]

    def _store(self, layer: _Layer, n_patterns: int, budget: _Budget | None) -> None:
        if layer.cols is not None:
            return
        plan = layer.plan
        cols = []
        for p in range(n_patterns):
            if budget is not None:
                budget.check_time()
            pieces = []
            for row, other, fixed_first, _, _, start in plan:
                # _block, inlined: this loop is where layers are built
                terms = self._terms(p, row, fixed_first)
                if terms is None:
                    blk = other.ones
                else:
                    blk = 0
                    for q in terms:
                        blk = blk | other.cols[q] if blk else other.cols[q]
                pieces.append((blk >> start, other.size - start))
            cols.append(_join(pieces))
        layer.store(cols)

    def _terms(self, p: int, row: int, fixed_first: bool) -> tuple[int, ...] | None:
        """The patterns whose columns over the other part OR to pattern p's
        block when the fixed host has pattern row ``row``; None when the
        fixed host has p, so every host does."""
        if row >> p & 1:
            return None
        split = self.splits[p]
        if split is None:
            return (p,)
        a, b = split
        if p < self.n_white:
            if row >> a & 1:
                return (p, b, a) if row >> b & 1 else (p, b)
            return (p, a) if row >> b & 1 else (p,)
        if fixed_first:
            return (b,) if row >> a & 1 else ()
        return (p, a) if row >> b & 1 else (p,)

    def _block(self, p: int, row: int, other: _Layer, fixed_first: bool) -> int:
        """Column over the stored layer ``other`` of the hosts that contain
        pattern p when rooted over ``other``'s host and the fixed host with
        pattern row ``row``."""
        terms = self._terms(p, row, fixed_first)
        if terms is None:
            return other.ones
        cols = other.cols
        blk = 0
        for q in terms:
            blk = blk | cols[q] if blk else cols[q]
        return blk

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
            for row, other, fixed_first, _, fixed, start in self._group(m, i, self.redleaf):
                if other.cols is None:  # the top layer; never in a group (i, i)
                    hits = self._streamed_hits(targets, row, other, fixed_first, budget)
                else:
                    acc = other.ones >> start
                    for p in targets:
                        acc &= self._block(p, row, other, fixed_first) >> start
                        if not acc:
                            break
                    hits = _positions(acc, start)
                winners += [(i, fixed, pos) if fixed_first else (i, pos, fixed)
                            for pos in hits]
            for examined in self._chunk_space(m, i):
                budget.spend(examined)
        return winners

    def _streamed_hits(self, targets: list[int], row: int, top: _Layer,
                       fixed_first: bool, budget: _Budget) -> list[int]:
        """Hosts of the streamed layer ``top`` that, rooted with the fixed
        host of pattern row ``row``, contain every target: per block of the
        top layer's plan, a target's piece is the OR of its terms' blocks
        over a stored layer, ANDed deepest target first."""
        terms = [t for t in (self._terms(p, row, fixed_first) for p in targets)
                 if t is not None]
        if () in terms:
            return []
        hits: list[int] = []
        for offset, (row2, other, fixed_first2, _, _, start) in zip(top.offsets, top.plan):
            budget.check_time()
            acc = other.ones >> start
            for qs in terms:
                piece = self._block(qs[0], row2, other, fixed_first2)
                for q in qs[1:]:
                    piece |= self._block(q, row2, other, fixed_first2)
                acc &= piece >> start
                if not acc:
                    break
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
    """The d > 2 step: enumerate the size-m shapes and embed the patterns."""

    def minimal_codes(m: int, k: int, budget: _Budget) -> list[str]:
        patterns = _ordered_patterns(k, d, redleaf)
        min_height = k if redleaf else k - 1
        codes: list[str] = []
        for cand in enumerate_shapes(m, d, redleaf):
            budget.spend(1)
            if cand.height < min_height:
                continue
            if all(is_induced_subtree(p, cand) for p in patterns):
                codes.append(cand.code)
        return codes

    return minimal_codes


def _chain(n: int, d: int, redleaf: bool, limits: SearchLimits | None,
           minimal_codes: Callable[[int, int, _Budget], list[str]]) -> list[SearchReport]:
    """Levels k = 1..n: grow the candidate size m from max(k, u(k - 1))
    until ``minimal_codes(m, k, budget)``, the codes of the k-universal
    shapes of size m, is not empty."""
    budget = _Budget(limits)
    reports: list[SearchReport] = []
    prev_u = 1
    for k in range(1, n + 1):
        level_t0 = time.monotonic()
        level_examined = budget.examined
        m = max(k, prev_u)
        try:
            while not (codes := minimal_codes(m, k, budget)):
                m += 1
        except ResourceLimit as limit:
            reports.append(
                SearchReport(
                    n=k, d=d, redleaf=redleaf, u_value=None, minimal_shapes=(),
                    candidates_examined=limit.examined - level_examined,
                    wall_time=time.monotonic() - level_t0,
                    authoritative=False, limit_reason=limit.reason,
                )
            )
            return reports
        reports.append(
            SearchReport(
                n=k, d=d, redleaf=redleaf, u_value=m,
                minimal_shapes=tuple(sorted(codes)),
                candidates_examined=budget.examined - level_examined,
                wall_time=time.monotonic() - level_t0,
            )
        )
        prev_u = m
    return reports


def find_min_universal_chain(n: int, d: int = 2, redleaf: bool = False,
                             limits: SearchLimits | None = None) -> tuple[SearchReport, ...]:
    """Reports for every level k = 1..n (the search for n needs the smaller
    values anyway).  If a resource limit fires, the last report is partial
    (``authoritative=False``) and the chain stops there."""
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 2:
        raise ValueError("need d >= 2")
    if d == 2:
        step = _BinaryEngine(n, redleaf).minimal_codes
    else:
        step = _embed_step(d, redleaf)
    return tuple(_chain(n, d, redleaf, limits, step))


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
