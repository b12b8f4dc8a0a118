"""Exhaustive universality checking and minimal-universal-shape search.

``is_universal`` answers whether one given shape contains every shape of a
given size, by running the embedding dynamic program pattern by pattern
(cheapest-to-fail patterns first).

``find_min_universal`` computes the exact minimal size u(n) (or its redleaf
or d-ary variant) together with the complete catalog of minimal universal
shapes.  The binary searches run on a dedicated engine that never
materializes candidate trees: every shape of a given size is a root over an
unordered pair of smaller shapes, so the engine enumerates those pairs over
layers of previously processed shapes and maintains, per shape, a bitset of
which patterns (all shapes of size <= n) embed into it.  The bitset of a
pair is the union of the parts' bitsets plus the patterns whose own root
split lands in the two parts, which makes a universality test a handful of
integer operations.  Candidate sweeps reject most candidates on their first
missing pattern (the deepest patterns, caterpillars first, have the highest
rejection power).

A sweep over a candidate size is exhaustive before the search moves on, so
reported minima are exact and catalogs complete.  Searches with d > 2 run
the same driver with an enumerate-and-embed step: every shape of the
candidate size is generated and tested against the patterns with the
embedding check, which is fine at the desk scales where d-ary questions are
asked.
"""

from __future__ import annotations

import time
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


class _BinaryEngine:
    """Pattern tables and per-shape pattern bitsets for d = 2 searches.

    Shapes of size m <= n_cap are the patterns themselves (indexed in
    enumeration order); larger shapes exist only as (size, pair-index)
    coordinates with parent pointers into smaller layers.
    """

    def __init__(self, n_cap: int, redleaf: bool):
        self.n_cap = n_cap
        self.redleaf = redleaf

        self.white_shapes = {m: list(enumerate_shapes(m, 2)) for m in range(1, n_cap + 1)}
        self.white_index = {
            m: {s.code: i for i, s in enumerate(shapes)}
            for m, shapes in self.white_shapes.items()
        }
        pid = 0
        self.white_pid: dict[str, int] = {}
        for m in range(1, n_cap + 1):
            for s in self.white_shapes[m]:
                self.white_pid[s.code] = pid
                pid += 1
        self.red_pid: dict[str, int] = {}
        if redleaf:
            self.red_shapes = {
                m: list(enumerate_shapes(m, 2, redleaf=True)) for m in range(n_cap + 1)
            }
            self.red_index = {
                m: {s.code: i for i, s in enumerate(shapes)}
                for m, shapes in self.red_shapes.items()
            }
            for m in range(n_cap + 1):
                for s in self.red_shapes[m]:
                    self.red_pid[s.code] = pid
                    pid += 1

        # Root splits of every pattern of size >= 2, grouped by white-leaf
        # count: (bit, pid of one child, pid of the other).
        self.white_splits = {m: [] for m in range(2, n_cap + 1)}
        for m in range(2, n_cap + 1):
            for s in self.white_shapes[m]:
                c1, c2 = s.children
                self.white_splits[m].append(
                    (1 << self.white_pid[s.code], self.white_pid[c1.code],
                     self.white_pid[c2.code])
                )
        self._white_splits_upto = {1: ()}
        acc: list = []
        for m in range(2, n_cap + 1):
            acc.extend(self.white_splits[m])
            self._white_splits_upto[m] = tuple(acc)

        self.red_splits = {m: [] for m in range(1, n_cap + 1)}
        if redleaf:
            for m in range(1, n_cap + 1):
                for s in self.red_shapes[m]:
                    c1, c2 = s.children
                    red_child, white_child = (c1, c2) if c1.has_red else (c2, c1)
                    self.red_splits[m].append(
                        (1 << self.red_pid[s.code], self.red_pid[red_child.code],
                         self.white_pid[white_child.code])
                    )
            self._red_splits_upto = {0: ()}
            acc = []
            for m in range(1, n_cap + 1):
                acc.extend(self.red_splits[m])
                self._red_splits_upto[m] = tuple(acc)

        # Host layers: bits per shape; parent coordinates for sizes > n_cap.
        self.white_bits: dict[int, list[int]] = {}
        self.white_struct: dict[int, list[tuple[int, int, int]]] = {}
        self.red_bits: dict[int, list[int]] = {}
        self.red_struct: dict[int, list[tuple[int, int, int]]] = {}

    # -- layer construction ------------------------------------------------ #

    def ensure_white_layer(self, m: int, budget: _Budget | None = None) -> None:
        if m in self.white_bits:
            return
        if m == 1:
            self.white_bits[1] = [1 << self.white_pid["o"]]
            return
        for i in range(1, m // 2 + 1):
            self.ensure_white_layer(i, budget)
            self.ensure_white_layer(m - i, budget)
        splits = self._white_splits_upto[min(m, self.n_cap)]
        bits_out: list[int] = []
        if m <= self.n_cap:
            index = self.white_index
            wbits = self.white_bits
            for s in self.white_shapes[m]:
                c1, c2 = s.children
                i, j = c1.white_leaves, c2.white_leaves
                ba = wbits[i][index[i][c1.code]]
                bb = wbits[j][index[j][c2.code]]
                bits_out.append(_combine_white(ba, bb, splits))
            self.white_bits[m] = bits_out
            return
        struct: list[tuple[int, int, int]] = []
        wbits = self.white_bits
        for i in range(1, m // 2 + 1):
            layer_a, layer_b = wbits[i], wbits[m - i]
            same = i == m - i
            for a, ba in enumerate(layer_a):
                if budget is not None and a % 4096 == 0:
                    budget.check_time()
                for b in range(a if same else 0, len(layer_b)):
                    bits_out.append(_combine_white(ba, layer_b[b], splits))
                    struct.append((i, a, b))
        self.white_bits[m] = bits_out
        self.white_struct[m] = struct

    def ensure_red_layer(self, m: int, budget: _Budget | None = None) -> None:
        if m in self.red_bits:
            return
        if m == 0:
            self.red_bits[0] = [1 << self.red_pid["r"]]
            return
        for i in range(m):
            self.ensure_red_layer(i, budget)
            self.ensure_white_layer(m - i, budget)
        cap = min(m, self.n_cap)
        wsplits = self._white_splits_upto[cap]
        rsplits = self._red_splits_upto[cap]
        bits_out: list[int] = []
        if m <= self.n_cap:
            for s in self.red_shapes[m]:
                c1, c2 = s.children
                red_child, white_child = (c1, c2) if c1.has_red else (c2, c1)
                i = red_child.white_leaves
                ra = self.red_bits[i][self.red_index[i][red_child.code]]
                wb = self.white_bits[m - i][
                    self.white_index[m - i][white_child.code]
                ]
                bits_out.append(_combine_red(ra, wb, wsplits, rsplits))
            self.red_bits[m] = bits_out
            return
        struct: list[tuple[int, int, int]] = []
        for i in range(m):
            layer_r, layer_w = self.red_bits[i], self.white_bits[m - i]
            for a, ra in enumerate(layer_r):
                if budget is not None and a % 4096 == 0:
                    budget.check_time()
                for b, wb in enumerate(layer_w):
                    bits_out.append(_combine_red(ra, wb, wsplits, rsplits))
                    struct.append((i, a, b))
        self.red_bits[m] = bits_out
        self.red_struct[m] = struct

    # -- target tables ----------------------------------------------------- #

    def target_splits(self, k: int) -> tuple[tuple[int, int, int], ...]:
        """Root splits of the size-k patterns, deepest pattern first."""
        if self.redleaf:
            shapes = self.red_shapes[k]
            splits = self.red_splits[k]
        else:
            if k == 1:
                return ()  # the leaf pattern embeds in every white shape
            shapes = self.white_shapes[k]
            splits = self.white_splits[k]
        order = sorted(range(len(shapes)), key=lambda i: (-shapes[i].height, i))
        return tuple(splits[i] for i in order)

    # -- code materialization ---------------------------------------------- #

    def white_code(self, m: int, idx: int) -> str:
        if m <= self.n_cap:
            return self.white_shapes[m][idx].code
        i, a, b = self.white_struct[m][idx]
        return _parent_code(self.white_code(i, a), self.white_code(m - i, b))

    def red_code(self, m: int, idx: int) -> str:
        if m <= self.n_cap:
            return self.red_shapes[m][idx].code
        i, a, b = self.red_struct[m][idx]
        return _parent_code(self.red_code(i, a), self.white_code(m - i, b))

    def pair_code(self, m: int, pair: tuple[int, int, int]) -> str:
        if not self.redleaf and m == 1:
            return "o"
        i, a, b = pair
        if self.redleaf:
            return _parent_code(self.red_code(i, a), self.white_code(m - i, b))
        return _parent_code(self.white_code(i, a), self.white_code(m - i, b))

    # -- candidate sweeps ---------------------------------------------------#

    def minimal_codes(self, m: int, k: int, budget: _Budget) -> list[str]:
        """Codes of the k-universal size-m shapes, building the layers below
        m (redleaf: red 0..m-1 and white 1..m) first."""
        if self.redleaf:
            for size in range(m):
                self.ensure_red_layer(size, budget)
            for size in range(1, m + 1):
                self.ensure_white_layer(size, budget)
        else:
            for size in range(1, m):
                self.ensure_white_layer(size, budget)
        return [self.pair_code(m, pair) for pair in self.sweep(m, k, budget)]

    def sweep(self, m: int, k: int, budget: _Budget) -> list[tuple[int, int, int]]:
        """Test every size-m candidate for k-universality; exhaustive."""
        tsplits = self.target_splits(k)
        if not self.redleaf and m == 1:
            budget.spend(1)
            return [(0, 0, 0)] if k == 1 else []
        winners: list[tuple[int, int, int]] = []
        for chunk in self._chunk_space(m):
            found, examined = self._scan_chunk(m, tsplits, chunk)
            winners.extend(found)
            budget.spend(examined)
        return winners

    def _chunk_space(self, m: int, block: int = 8192) -> Iterator[tuple[int, int, int]]:
        if self.redleaf:
            splits = [(i, len(self.red_bits[i])) for i in range(m)]
        else:
            splits = [(i, len(self.white_bits[i])) for i in range(1, m // 2 + 1)]
        for i, size in splits:
            for lo in range(0, size, block):
                yield (i, lo, min(lo + block, size))

    def _scan_chunk(self, m, tsplits, chunk):
        i, lo, hi = chunk
        winners = []
        examined = 0
        if self.redleaf:
            layer_a, layer_b = self.red_bits[i], self.white_bits[m - i]
            for a in range(lo, hi):
                ra = layer_a[a]
                for b, wb in enumerate(layer_b):
                    examined += 1
                    both = ra | wb
                    for bit, qr, qw in tsplits:
                        if both & bit:
                            continue
                        if ((ra >> qr) & (wb >> qw)) & 1:
                            continue
                        break
                    else:
                        winners.append((i, a, b))
            return winners, examined
        layer_a, layer_b = self.white_bits[i], self.white_bits[m - i]
        same = i == m - i
        for a in range(lo, hi):
            ba = layer_a[a]
            for b in range(a if same else 0, len(layer_b)):
                bb = layer_b[b]
                examined += 1
                both = ba | bb
                for bit, p, q in tsplits:
                    if both & bit:
                        continue
                    if (((ba >> p) & (bb >> q)) | ((ba >> q) & (bb >> p))) & 1:
                        continue
                    break
                else:
                    winners.append((i, a, b))
        return winners, examined


def _combine_white(ba: int, bb: int, splits) -> int:
    out = ba | bb
    for bit, i, j in splits:
        if out & bit:
            continue
        if (((ba >> i) & (bb >> j)) | ((ba >> j) & (bb >> i))) & 1:
            out |= bit
    return out


def _combine_red(ra: int, wb: int, wsplits, rsplits) -> int:
    out = ra | wb
    for bit, i, j in wsplits:
        if out & bit:
            continue
        if (((ra >> i) & (wb >> j)) | ((ra >> j) & (wb >> i))) & 1:
            out |= bit
    for bit, qr, qw in rsplits:
        if out & bit:
            continue
        if ((ra >> qr) & (wb >> qw)) & 1:
            out |= bit
    return out


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
