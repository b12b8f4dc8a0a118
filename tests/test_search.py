import json
import os
import pathlib

import pytest

from utk.bounds import KNOWN_MIN_UNIVERSAL_SIZE
from utk.embedding import is_induced_subtree
from utk.search import (
    SearchLimits,
    SearchReport,
    check_depth_conjecture,
    find_min_universal,
    find_min_universal_chain,
    is_universal,
)
from utk.shapes import (
    caterpillar,
    complete_tree,
    count_shapes,
    enumerate_shapes,
    join,
    make_leaf,
    parse_code,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
WHITE_U_TO_11 = [1, 2, 3, 5, 6, 9, 10, 14, 16, 19, 21]
RED_U_TO_7 = [1, 3, 5, 9, 12, 17, 20]


def catalog_fixture(name: str) -> tuple[str, ...]:
    text = (FIXTURES / name).read_text()
    return tuple(line for line in text.splitlines() if line)


@pytest.fixture(scope="module")
def chain8():
    return find_min_universal_chain(8)


class TestIsUniversal:
    def test_b3_is_4_universal(self):
        assert is_universal(complete_tree(3), 4)

    def test_caterpillars_fail(self):
        for n in range(4, 8):
            assert not is_universal(caterpillar(n), n)

    def test_n1(self):
        assert is_universal(make_leaf(), 1)
        assert is_universal(caterpillar(3), 1)

    def test_every_catalog_shape_is_universal(self):
        for n in range(4, 9):
            for code in catalog_fixture(f"universal_catalog_n{n:02d}.codes"):
                assert is_universal(parse_code(code), n)

    def test_white_shape_never_redleaf_universal(self):
        assert not is_universal(complete_tree(3), 2, redleaf=True)

    def test_small_host_lists_no_pattern(self, monkeypatch):
        import utk.search

        def listing(*args):
            raise AssertionError("listed patterns for a host with too few leaves")

        monkeypatch.setattr(utk.search, "enumerate_shapes", listing)
        assert not is_universal(complete_tree(2), 30)
        assert not is_universal(caterpillar(20), 21, redleaf=True)

    def test_deep_host(self):
        assert not is_universal(caterpillar(5000), 4)

    def test_arity_check(self):
        with pytest.raises(ValueError):
            is_universal(caterpillar(3, arity=3), 3)


class TestBinarySearch:
    def test_u_values_to_8(self, chain8):
        assert [r.u_value for r in chain8] == [1, 2, 3, 5, 6, 9, 10, 14]

    def test_catalog_counts_to_8(self, chain8):
        assert [len(r.minimal_shapes) for r in chain8] == [1, 1, 1, 2, 1, 6, 1, 8]

    def test_catalogs_match_figure_transcriptions(self, chain8):
        for n in range(4, 9):
            expected = catalog_fixture(f"universal_catalog_n{n:02d}.codes")
            assert chain8[n - 1].minimal_shapes == expected

    def test_soundness_reverification(self, chain8):
        # Independent route: every reported shape passes the embedding-based
        # universality check.
        for report in chain8:
            for code in report.minimal_shapes:
                assert is_universal(parse_code(code), report.n)

    def test_completeness_small_scale(self, chain8):
        # Brute force without any engine: scan ALL shapes of sizes n..u(n)
        # with the embedding path.
        for n in range(1, 8):
            found_at = None
            winners = []
            for m in range(n, chain8[n - 1].u_value + 1):
                winners = [
                    s.code
                    for s in enumerate_shapes(m)
                    if all(is_induced_subtree(p, s) for p in enumerate_shapes(n))
                ]
                if winners:
                    found_at = m
                    break
            assert found_at == chain8[n - 1].u_value
            assert tuple(sorted(winners)) == chain8[n - 1].minimal_shapes

    def test_u_strictly_increasing(self, chain8):
        values = [r.u_value for r in chain8]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_universality_upward_closed(self, chain8):
        for code in chain8[5].minimal_shapes:
            bigger = join([parse_code(code), make_leaf()])
            assert is_universal(bigger, 6)

    def test_report_shapes_have_right_size(self, chain8):
        for report in chain8:
            for code in report.minimal_shapes:
                assert parse_code(code).white_leaves == report.u_value

    def test_find_min_universal_returns_last_level(self):
        report = find_min_universal(5)
        assert (report.n, report.u_value) == (5, 6)
        assert report.minimal_shapes == catalog_fixture("universal_catalog_n05.codes")

    def test_report_serializes(self, chain8):
        blob = json.dumps(chain8[7].to_dict())
        data = json.loads(blob)
        assert data["n"] == 8 and data["u_value"] == 14
        assert data["authoritative"] is True


def _rows(layer) -> list[int]:
    """Per host of a stored layer, the bitset of the patterns that embed."""
    rows = [0] * layer.size
    for p, col in enumerate(layer.cols):
        text = format(col, "b")[::-1]
        h = text.find("1")
        while h >= 0:
            rows[h] |= 1 << p
            h = text.find("1", h + 1)
    return rows


def _reference_rows(engine, m: int, red: bool, white_rows: dict, red_rows: dict) -> list[int]:
    """Rows of layer m from the rows of its parts, host by host: a root over
    a and b holds what a or b holds, and every pattern whose root split
    lands in (a, b) either way (a red pattern's red child in the red part).
    A layer holds the patterns of its own color only, so a red row has red
    bits only."""
    layer = (engine.red_layers if red else engine.white_layers)[m]
    own = sum(1 << p for p in layer.pids)
    rows = []
    for h in range(layer.size):
        i, a, b = layer.locate(h)
        row_a = (red_rows if red else white_rows)[i][a]
        row_b = white_rows[m - i][b]
        row = (row_a | row_b) & own
        for p in layer.pids:
            split = engine.splits[p]
            if split is None:
                continue
            q1, q2 = split
            lands = row_a >> q1 & 1 and row_b >> q2 & 1
            if p < engine.n_white:
                lands = lands or row_a >> q2 & 1 and row_b >> q1 & 1
            if lands:
                row |= 1 << p
        rows.append(row)
    return rows


class TestEngineBitsets:
    def test_white_bits_agree_with_embedding(self):
        # Direct validation of the engine's column layout: for every host of
        # size <= 10 (ties (4, 4) and (5, 5) have 2 and 3 hosts a side), bit
        # p of its row is set exactly when pattern p embeds.
        from utk.search import _BinaryEngine

        engine = _BinaryEngine(5, redleaf=False)
        for m in range(1, 11):
            engine._store(engine._layer(m, False))
        patterns = [s for k in range(1, 6) for s in enumerate_shapes(k)]
        for m in range(1, 11):
            layer = engine.white_layers[m]
            assert layer.size == len(list(enumerate_shapes(m)))
            codes = set()
            for idx, bits in enumerate(_rows(layer)):
                host = parse_code(engine.code(m, idx, False))
                codes.add(host.code)
                for pid, pattern in enumerate(patterns):
                    assert bool(bits >> pid & 1) == is_induced_subtree(pattern, host)
            assert len(codes) == layer.size

    def test_red_bits_agree_with_embedding(self):
        from utk.search import _BinaryEngine

        engine = _BinaryEngine(3, redleaf=True)
        for m in range(0, 8):
            engine._store(engine._layer(m, True))
        for m in range(1, 9):
            engine._store(engine._layer(m, False))
        patterns = [s for k in range(1, 4) for s in enumerate_shapes(k)]
        patterns += [s for k in range(0, 4) for s in enumerate_shapes(k, redleaf=True)]
        # A red layer holds red patterns only: every red pid against the
        # embedding, and no bit of a white pid.
        red_pids = engine.red_pids
        assert [p.has_red for p in patterns] == [p in red_pids for p in range(len(patterns))]
        # Groups of both orientations are built: the red part fixed with the
        # white part running, and the white part fixed with the red running.
        orientations = {
            group.fixed_first for m in range(1, 8) for group in engine.red_layers[m].groups
        }
        assert orientations == {True, False}
        for m in range(0, 8):
            layer = engine.red_layers[m]
            assert layer.size == len(list(enumerate_shapes(m, redleaf=True)))
            codes = set()
            for idx, bits in enumerate(_rows(layer)):
                host = parse_code(engine.code(m, idx, True))
                codes.add(host.code)
                for pid, pattern in enumerate(patterns):
                    expected = pid in red_pids and is_induced_subtree(pattern, host)
                    assert bool(bits >> pid & 1) == expected, (host.code, pattern.code)
            assert len(codes) == layer.size

    def test_white_columns_match_host_reference(self):
        # Every stored column against rows built host by host from the
        # parts' rows.  Layers up to 16 hold every tie up to 23 hosts a side
        # and groups with more than one fixed host on both sides of the
        # multiply/shift switch of K.
        from utk.search import _BinaryEngine

        engine = _BinaryEngine(6, redleaf=False)
        engine._store(engine._layer(16, False))
        groups = [g for m in range(2, 17) for g in engine.white_layers[m].groups]
        assert max(g.fixed.size for g in groups if g.tie) == 23
        assert {g.spreader is None for g in groups if g.fixed.size > 1} == {True, False}
        rows = {1: _rows(engine.white_layers[1])}
        for m in range(2, 17):
            rows[m] = _reference_rows(engine, m, False, rows, {})
            assert _rows(engine.white_layers[m]) == rows[m], m

    def test_red_columns_match_host_reference(self):
        from utk.search import _BinaryEngine

        engine = _BinaryEngine(3, redleaf=True)
        engine._store(engine._layer(14, True))
        groups = [g for m in range(1, 15) for g in engine.red_layers[m].groups]
        for fixed_first in (True, False):  # the red part fixed, or the white
            oriented = [g for g in groups if g.fixed_first == fixed_first and g.fixed.size > 1]
            assert {g.spreader is None for g in oriented} == {True, False}
        white = {m: _rows(engine.white_layers[m]) for m in range(1, 15)}
        red = {0: _rows(engine.red_layers[0])}
        for m in range(1, 15):
            red[m] = _reference_rows(engine, m, True, white, red)
            assert _rows(engine.red_layers[m]) == red[m], m


class TestGroupKernel:
    # Patterns larger than the hosts: the kernel skips the terms and the
    # patterns that cannot embed, and the columns must not change.

    @staticmethod
    def _dead_columns_are_zero(engine, layers):
        for layer in layers:
            for p, col in enumerate(layer.cols):
                if engine.leaves[p] > layer.leaves:
                    assert col == 0, (layer.leaves, p)

    def test_white_columns_with_larger_patterns(self):
        from utk.search import _BinaryEngine

        engine = _BinaryEngine(10, redleaf=False)
        engine._store(engine._layer(12, False))
        rows = {1: _rows(engine.white_layers[1])}
        for m in range(2, 13):
            rows[m] = _reference_rows(engine, m, False, rows, {})
            assert _rows(engine.white_layers[m]) == rows[m], m
        self._dead_columns_are_zero(engine, [engine.white_layers[m] for m in range(1, 13)])

    def test_red_columns_with_larger_patterns(self):
        from utk.search import _BinaryEngine

        engine = _BinaryEngine(6, redleaf=True)
        engine._store(engine._layer(10, True))
        white = {m: _rows(engine.white_layers[m]) for m in range(1, 11)}
        red = {0: _rows(engine.red_layers[0])}
        for m in range(1, 11):
            red[m] = _reference_rows(engine, m, True, white, red)
            assert _rows(engine.red_layers[m]) == red[m], m
        self._dead_columns_are_zero(
            engine, [engine.red_layers[m] for m in range(0, 11)]
            + [engine.white_layers[m] for m in range(1, 11)],
        )

    def test_store_visits_live_patterns_only(self, monkeypatch):
        # A layer's build calls each group's kernel exactly for the patterns
        # with no more leaves than its hosts, which have as many leaves as
        # its two parts.
        from utk.search import _BinaryEngine

        engine = _BinaryEngine(8, redleaf=True)
        calls = []
        kernel = _BinaryEngine._kernel

        def recording(self, group, compact=False):
            piece = kernel(self, group, compact)
            if not compact:
                return piece
            pids = []
            calls.append((group.fixed.leaves + group.other.leaves, pids))

            def recorded(p):
                pids.append(p)
                return piece(p)

            return recorded

        monkeypatch.setattr(_BinaryEngine, "_kernel", recording)
        engine._store(engine._layer(9, True))
        assert len(calls) > 20
        # A red layer's build visits red patterns only, a white one's white.
        by_color = {False: engine.white_pids, True: engine.red_pids}
        for hosts, pids in calls:
            own = by_color[pids[-1] >= engine.n_white]
            assert pids == [p for p in own if engine.leaves[p] <= hosts]
        assert {hosts for hosts, _ in calls} >= set(range(2, 11))

    def test_groups_read_their_own_color_only(self, monkeypatch):
        # What makes a red layer without white columns exact: no kernel of a
        # red group is asked for a white pattern, in layer builds or in
        # sweeps (symbolic kernels of streamed groups included), and no
        # kernel of a white group for a red one.  So no red layer builds a
        # white column (the white leaf o embeds into every host, so a built
        # one would not be 0).  The redleaf chain's part lemmas skip every
        # group that streams a white part, so a sweep on an engine with no
        # recorded levels walks those: at level 1 every candidate wins.
        from utk.search import _BinaryEngine, _Budget

        asked = {}  # (redleaf search, red group, symbolic, compact) -> pids
        engines = {}  # redleaf search -> its chain's engine
        kernel = _BinaryEngine._kernel

        def recording(self, group, compact=False):
            piece = kernel(self, group, compact)
            engines.setdefault(self.redleaf, self)
            red = group.fixed.pids != group.other.pids
            key = (self.redleaf, red, group.other.cols is None, compact)
            pids = asked.setdefault(key, set())

            def recorded(p):
                pids.add(p)
                return piece(p)

            return recorded

        monkeypatch.setattr(_BinaryEngine, "_kernel", recording)
        chains = find_min_universal_chain(6, redleaf=True), find_min_universal_chain(8)
        assert [chain[-1].u_value for chain in chains] == [17, 14]
        assert (True, False, True, False) not in asked
        budget = _Budget(None)
        assert len(_BinaryEngine(6, redleaf=True).sweep(9, 1, budget)) == budget.examined
        # (symbolic, compact): stores, and sweeps over stored and over
        # streamed other parts, in every kind of group of both searches.
        kinds = {(False, True), (False, False), (True, False)}
        groups = {(True, True), (True, False), (False, False)}  # (redleaf, red group)
        assert set(asked) == {group + kind for group in groups for kind in kinds}
        for (redleaf, red, *_), pids in asked.items():
            own = engines[redleaf].red_pids if red else engines[redleaf].white_pids
            assert pids and pids <= set(own), (redleaf, red)
        red_layers = [layer for layer in engines[True].red_layers.values()
                      if layer.cols is not None]
        assert len(red_layers) >= 5
        for layer in red_layers:
            assert not any(layer.cols[:layer.pids.start]), layer.leaves

    def test_all_ones_part_short_circuits(self, monkeypatch):
        # In group (1, 5) the fixed part is the leaf o, which lacks the
        # cherry (oo), and every host of size 5 has it: the kernel must answer
        # with the group's ones and make no product.
        from utk.search import _BinaryEngine, _Group

        engine = _BinaryEngine(4, redleaf=False)
        engine._store(engine._layer(5, False))
        group = engine._group(6, 1, False)
        cherry = [s.code for s in engine.patterns].index("(oo)")
        assert group.fixed.cols[cherry] == 0
        assert group.other.cols[cherry] == group.other.ones
        products = []
        kron = _Group.kron
        monkeypatch.setattr(_Group, "kron", lambda g, x, y: products.append(1) or kron(g, x, y))
        assert engine._kernel(group)(cherry) == group.ones
        assert products == []


def _chain_sweeps(u_values: list[int], max_m: int) -> list[tuple[int, int]]:
    """The (m, k) sweeps of a chain with these u-values, up to size max_m."""
    sweeps, prev_u = [], 1
    for k, u in enumerate(u_values, start=1):
        sweeps += [(m, k) for m in range(max(k, prev_u), u + 1) if m <= max_m]
        prev_u = u
    return sweeps


class TestStreamedTopLayer:
    # A sweep streams the two highest layers of each kind it reads unless
    # they are already stored; both routes must find the same winners and
    # spend the same budget.

    @staticmethod
    def _winners(engine, m, k):
        from utk.search import _Budget

        budget = _Budget(None)
        codes = sorted(engine.code(m, h, engine.redleaf) for h in engine.sweep(m, k, budget))
        return codes, budget.examined

    @staticmethod
    def _survivors(engine, m, k, order=None):
        """Per group of the sweep, the surviving hosts' positions, and
        whether the group's other part was streamed; the targets start in
        ``order`` (default: the deepest-first seed) and are learned across
        the groups, as in a sweep."""
        from utk.search import _Budget

        groups = [engine._group(m, i, engine.redleaf)
                  for i in (range(m) if engine.redleaf else range(1, m // 2 + 1))]
        order = list(engine.target_pids(k) if order is None else order)
        stream_from = m + engine.redleaf - 2  # the sweep's hosts' leaves less two
        return [(engine._survivors(g, order, _Budget(None), k, stream_from),
                 g.other.cols is None)
                for g in groups]

    def _survivors_agree(self, streamed, stored, m, k):
        by_stream = self._survivors(streamed, m, k)
        by_store = self._survivors(stored, m, k)
        assert [hits for hits, _ in by_stream] == [hits for hits, _ in by_store], (m, k)
        assert not any(was_streamed for _, was_streamed in by_store)
        if m >= 3 or streamed.redleaf and m >= 2:
            assert any(was_streamed for _, was_streamed in by_stream), (m, k)

    @staticmethod
    def _stored(layers):
        return {m for m, layer in layers.items() if layer.cols is not None}

    def test_white_sweeps_agree(self):
        from utk.search import _BinaryEngine

        sweeps = _chain_sweeps([1, 2, 3, 5, 6, 9, 10, 14, 16], 16)
        assert {m for m, _ in sweeps} == set(range(1, 17))
        for m, k in sweeps:
            streamed = _BinaryEngine(9, redleaf=False)
            stored = _BinaryEngine(9, redleaf=False)
            stored._store(stored._layer(max(m - 1, 1), False))
            assert self._winners(streamed, m, k) == self._winners(stored, m, k), (m, k)
            self._survivors_agree(streamed, stored, m, k)
            if m >= 5:  # below, white 2 is a one-host fixed part and stored
                assert self._stored(streamed.white_layers) == set(range(1, m - 2)), (m, k)
                assert {m - 1, m - 2} <= set(streamed.white_layers)

    def test_redleaf_sweeps_agree(self):
        from utk.search import _BinaryEngine

        sweeps = _chain_sweeps([1, 3, 5, 9, 12], 12)
        assert {m for m, _ in sweeps} == set(range(1, 13))
        for m, k in sweeps:
            streamed = _BinaryEngine(5, redleaf=True)
            stored = _BinaryEngine(5, redleaf=True)
            stored._store(stored._layer(m - 1, True))
            stored._store(stored._layer(m, False))
            assert self._winners(streamed, m, k) == self._winners(stored, m, k), (m, k)
            self._survivors_agree(streamed, stored, m, k)
            if m >= 4:  # below, red 1 or white 2 is a one-host fixed part and stored
                assert self._stored(streamed.red_layers) == set(range(0, m - 2)), (m, k)
                assert self._stored(streamed.white_layers) == set(range(1, m - 1)), (m, k)
                assert {m - 1, m - 2} <= set(streamed.red_layers)
                assert {m, m - 1} <= set(streamed.white_layers)

    def _chain_agrees(self, make_engine, sweeps, layers):
        # One engine through a chain's sweeps: the layers a sweep streams
        # are stored by later ones, and every sweep must still agree with
        # an engine that stores every layer it reads.
        engine = make_engine()
        streamed_then_stored = set()
        for m, k in sweeps:
            before = {j for j, layer in layers(engine).items() if layer.cols is None}
            stored = make_engine()
            if stored.redleaf:
                stored._store(stored._layer(max(m - 1, 0), True))
            stored._store(stored._layer(max(m - 1 + stored.redleaf, 1), False))
            assert self._winners(engine, m, k) == self._winners(stored, m, k), (m, k)
            self._survivors_agree(engine, stored, m, k)
            streamed_then_stored |= before & self._stored(layers(engine))
        assert len(streamed_then_stored) >= 5, streamed_then_stored

    def test_white_chain_stores_what_it_streamed(self):
        from utk.search import _BinaryEngine

        self._chain_agrees(lambda: _BinaryEngine(9, redleaf=False),
                           _chain_sweeps([1, 2, 3, 5, 6, 9, 10, 14, 16], 16),
                           lambda engine: engine.white_layers)

    def test_redleaf_chain_stores_what_it_streamed(self):
        from utk.search import _BinaryEngine

        self._chain_agrees(lambda: _BinaryEngine(5, redleaf=True),
                           _chain_sweeps([1, 3, 5, 9, 12], 12),
                           lambda engine: engine.red_layers)

    def _orders_agree(self, make_engine, sweeps):
        # The AND does not depend on the order of its targets: starting each
        # sweep from the deepest-first seed, its reverse or the order a full
        # chain learned gives the same survivors, winners and budget.
        from utk.search import _Budget

        learned = make_engine()
        budget = _Budget(None)
        for m, k in sweeps:
            learned.sweep(m, k, budget)
        seeds = {k: learned.target_pids(k) for _, k in sweeps}
        for k, order in learned.orders.items():
            assert sorted(order) == sorted(seeds[k]), k
        assert any(order != seeds[k] for k, order in learned.orders.items())
        starts = {
            "seed": seeds,
            "reverse": {k: order[::-1] for k, order in seeds.items()},
            "learned": {**seeds, **learned.orders},  # the sweep of size 1 ANDs nothing
        }
        runs = {}
        for name, orders in starts.items():
            engine = make_engine()
            runs[name] = []
            for m, k in sweeps:
                engine.orders[k] = list(orders[k])
                runs[name].append((m, k, self._winners(engine, m, k),
                                   self._survivors(engine, m, k, orders[k])))
        assert runs["seed"] == runs["reverse"] == runs["learned"]

    def test_white_target_orders_agree(self):
        from utk.search import _BinaryEngine

        sweeps = _chain_sweeps([1, 2, 3, 5, 6, 9, 10, 14, 16], 16)
        self._orders_agree(lambda: _BinaryEngine(9, redleaf=False), sweeps)

    def test_redleaf_target_orders_agree(self):
        from utk.search import _BinaryEngine

        sweeps = _chain_sweeps([1, 3, 5, 9, 12], 12)
        self._orders_agree(lambda: _BinaryEngine(5, redleaf=True), sweeps)

    def test_learned_order_cuts_target_pieces(self, monkeypatch):
        # Target pieces the sweeps of the n = 10 chain evaluate, one AND per
        # innermost group the part lemmas leave: 2,607 in the fixed
        # deepest-first order (each AND gets a copy of the seed, so nothing
        # is learned), 1,714 with the learned one.  The counts depend on
        # nothing but the sweeps, so they repeat exactly.
        import utk.search

        all_of = utk.search._all_of
        counts = []

        def counting(learn):
            def run(piece, order, ones):
                def counted(p):
                    counts[-1] += 1
                    return piece(p)

                return all_of(counted, order if learn else list(order), ones)

            return run

        for learn in (False, True, True):
            counts.append(0)
            monkeypatch.setattr(utk.search, "_all_of", counting(learn))
            find_min_universal_chain(10)
        assert counts == [2607, 1714, 1714], counts

    def test_top_layer_is_not_stored(self):
        from utk.search import _BinaryEngine, _Budget

        engine = _BinaryEngine(10, redleaf=False)
        codes = engine.minimal_codes(19, 10, _Budget(None))
        assert tuple(sorted(codes)) == catalog_fixture("universal_catalog_n10.codes")
        assert engine.white_layers[18].cols is None
        assert engine.white_layers[17].cols is None
        assert engine.white_layers[16].cols is not None

    def test_layer_no_kept_group_reads_is_not_built(self, monkeypatch):
        # A layer is built when a group the part rule keeps first reads it.
        # The redleaf chain's size-17 sweep would read white 15 only in
        # group (2, 15), which the rule skips at level 6 (2 < u_red(5) = 12),
        # and no stored layer has it as a part.
        from utk.search import _BinaryEngine

        engines = []
        init = _BinaryEngine.__init__
        monkeypatch.setattr(_BinaryEngine, "__init__",
                            lambda self, *args: init(self, *args) or engines.append(self))
        chain = find_min_universal_chain(6, redleaf=True)
        assert [r.u_value for r in chain] == RED_U_TO_7[:6]
        assert self._stored(engines[-1].white_layers) == set(range(1, 15))
        assert 15 in engines[-1].white_layers
        chain = find_min_universal_chain(10)
        assert [r.u_value for r in chain] == WHITE_U_TO_11[:10]
        assert self._stored(engines[-1].white_layers) == set(range(1, 17))


class TestPartLemmas:
    # The engine skips the groups that two lemmas rule out.  White: if
    # (A, B) is k-universal and |A| <= k - 2, with |A| <= |B|, then B is
    # (k - 1)-universal.  Redleaf: if (R, W) is redleaf k-universal, R the
    # red child, then R is redleaf (k - 1)-universal.

    @staticmethod
    def _levels(host, redleaf):
        """Every level k >= 1 at which ``host`` is universal (downward
        closed: a k-shape less one leaf is every (k - 1)-shape)."""
        k = 1
        while is_universal(host, k, redleaf=redleaf):
            k += 1
        return range(1, k)

    def test_white_lemma_by_embedding(self):
        fired = 0
        for m in range(2, 13):
            for host in enumerate_shapes(m):
                small, large = sorted(host.children, key=lambda c: c.white_leaves)
                for k in self._levels(host, False):
                    if small.white_leaves <= k - 2:
                        fired += 1
                        assert is_universal(large, k - 1), (host.code, k)
        assert fired > 1000

    def test_redleaf_lemma_by_embedding(self):
        checked = 0
        for m in range(1, 10):
            for host in enumerate_shapes(m, redleaf=True):
                red = next(c for c in host.children if c.has_red)
                for k in self._levels(host, True)[1:]:
                    checked += 1
                    assert is_universal(red, k - 1, redleaf=True), (host.code, k)
        assert checked > 1000

    @staticmethod
    def _run(engine, sweeps):
        """Per (m, k): the winners and the budget spent, and how many
        groups the lemmas skipped.  Winners are host indices in group
        order, so they also say which hosts of each group survived."""
        from utk.search import _Budget

        rule = engine._part_rule
        skipped = []

        def counted(*args):
            verdict = rule(*args)
            skipped.append(verdict[0])
            return verdict

        engine._part_rule = counted
        runs = []
        for m, k in sweeps:
            budget = _Budget(None)
            winners = engine.sweep(m, k, budget)
            runs.append((m, k, winners, budget.examined))
        return runs, sum(skipped)

    def _recorded_levels_change_nothing(self, make_engine, u_values):
        sweeps = _chain_sweeps(u_values, u_values[-1])
        pruned, plain = make_engine(), make_engine()
        pruned.u = dict(enumerate(u_values, start=1))
        (pruned_runs, skipped), (plain_runs, none) = (
            self._run(pruned, sweeps), self._run(plain, sweeps))
        assert pruned_runs == plain_runs
        assert none == 0 and skipped > 50, skipped
        # Each level's last sweep, and only it, finds its minimal shapes.
        assert [bool(run[2]) for run in pruned_runs].count(True) == len(u_values)

    def test_white_chain_to_10(self):
        from utk.search import _BinaryEngine

        self._recorded_levels_change_nothing(lambda: _BinaryEngine(10, redleaf=False),
                                             WHITE_U_TO_11[:10])

    def test_redleaf_chain_to_6(self):
        from utk.search import _BinaryEngine

        self._recorded_levels_change_nothing(lambda: _BinaryEngine(6, redleaf=True),
                                             RED_U_TO_7[:6])


class TestRedleafSearch:
    def test_small_values(self):
        chain = find_min_universal_chain(4, redleaf=True)
        assert [r.u_value for r in chain] == [1, 3, 5, 9]

    def test_matches_embedding_route(self):
        # Independent brute force over redleaf candidates.
        chain = find_min_universal_chain(3, redleaf=True)
        for report in chain:
            n = report.n
            m = n
            while True:
                winners = [
                    s.code
                    for s in enumerate_shapes(m, redleaf=True)
                    if is_universal(s, n, redleaf=True)
                ]
                if winners:
                    break
                m += 1
            assert m == report.u_value
            assert tuple(sorted(winners)) == report.minimal_shapes

    def test_soundness(self):
        report = find_min_universal(4, redleaf=True)
        for code in report.minimal_shapes:
            assert is_universal(parse_code(code), 4, redleaf=True)

    def test_chain_to_6(self):
        # Pinned per-level counts; every level-5 and level-6 entry passes
        # the independent embedding route.
        chain = find_min_universal_chain(6, redleaf=True)
        assert [r.u_value for r in chain][4:] == [12, 17]
        assert [r.candidates_examined for r in chain] == [1, 6, 33, 1002, 12999, 1055776]
        for report in chain[4:]:
            assert report.minimal_shapes
            for code in report.minimal_shapes:
                assert is_universal(parse_code(code), report.n, redleaf=True)

    def test_catalogs_to_7_match_fixtures(self):
        chain = find_min_universal_chain(7, redleaf=True)
        assert [r.u_value for r in chain] == RED_U_TO_7
        for report in chain:
            expected = catalog_fixture(f"universal_catalog_redleaf_n{report.n:02d}.codes")
            assert report.minimal_shapes == expected, report.n

    def test_redleaf_dominates_white(self):
        # A redleaf-universal shape restricted to white patterns is still
        # universal, so the redleaf minimum can never be smaller.
        white = find_min_universal_chain(4)
        red = find_min_universal_chain(4, redleaf=True)
        for w, r in zip(white, red):
            assert w.u_value <= r.u_value


class TestDarySearch:
    def test_4ary_4_has_two_minimal_shapes(self):
        report = find_min_universal(4, d=4)
        assert len(report.minimal_shapes) == 2
        assert report.u_value == 7
        assert report.minimal_shapes == catalog_fixture("universal_catalog_d4_n4.codes")

    def test_4ary_soundness(self):
        report = find_min_universal(4, d=4)
        for code in report.minimal_shapes:
            assert is_universal(parse_code(code, arity=4), 4, d=4)

    def test_3ary_catalogs_to_5_match_fixtures(self):
        chain = find_min_universal_chain(5, d=3)
        assert [r.u_value for r in chain] == [1, 2, 4, 6, 8]
        for report in chain:
            expected = catalog_fixture(f"universal_catalog_d3_n{report.n}.codes")
            assert report.minimal_shapes == expected, report.n

    def test_3ary_chain(self):
        chain = find_min_universal_chain(4, d=3)
        assert [r.u_value for r in chain][:2] == [1, 2]
        for report in chain:
            for code in report.minimal_shapes:
                assert is_universal(parse_code(code, arity=3), report.n, d=3)


class TestLimits:
    def test_candidate_limit_yields_partial_report(self):
        report = find_min_universal(8, limits=SearchLimits(max_candidates=50))
        assert not report.authoritative
        assert report.u_value is None
        assert report.minimal_shapes == ()
        assert "candidate limit" in report.limit_reason

    def test_pinned_candidate_counts(self):
        # The engine's sweep order fixes these counts; a refactor of the
        # search drivers must keep them, partial reports included.
        for kwargs, counts in (
            ({"n": 8}, [1, 1, 1, 5, 9, 86, 144, 3918]),
            ({"n": 4, "redleaf": True}, [1, 6, 33, 1002]),
            ({"n": 4, "d": 3}, [1, 1, 6, 36]),
        ):
            chain = find_min_universal_chain(**kwargs)
            assert [r.candidates_examined for r in chain] == counts
        for kwargs, cap, last in (
            ({"n": 8}, 50, (6, 34, "candidate limit 50 exceeded")),
            ({"n": 4, "redleaf": True}, 30, (3, 24, "candidate limit 30 exceeded")),
            ({"n": 5, "d": 3}, 100, (5, 57, "candidate limit 100 exceeded")),
        ):
            chain = find_min_universal_chain(
                **kwargs, limits=SearchLimits(max_candidates=cap)
            )
            report = chain[-1]
            assert (report.n, report.candidates_examined, report.limit_reason) == last
            assert report.u_value is None and not report.authoritative

    @pytest.mark.parametrize("n, d, redleaf", [(9, 2, False), (6, 2, True), (5, 3, False)])
    def test_budget_counts_every_swept_shape(self, n, d, redleaf):
        # Level k sweeps the sizes m = max(k, u(k - 1)) .. u(k) and tests
        # every shape of each once, so its count is the shape count of
        # those sizes, by a recurrence that lists nothing.  White level 8:
        # 3918 = 98 + 207 + 451 + 983 + 2179.
        chain = find_min_universal_chain(n, d, redleaf)
        previous = 1
        for k, report in enumerate(chain, start=1):
            sizes = range(max(k, previous), report.u_value + 1)
            assert report.candidates_examined == sum(
                count_shapes(m, d, redleaf) for m in sizes), k
            previous = report.u_value

    def test_nan_time_limit_is_rejected(self):
        # A nan budget compares false with every elapsed time, so it would
        # never fire and the search would report an authoritative result.
        with pytest.raises(ValueError, match="nan"):
            SearchLimits(max_seconds=float("nan"))

    def test_generous_limit_is_authoritative(self):
        report = find_min_universal(5, limits=SearchLimits(max_candidates=10_000))
        assert report.authoritative
        assert report.u_value == 6


class TestDepthConjecture:
    def test_holds_up_to_8(self, chain8):
        for report in chain8:
            assert check_depth_conjecture(report)

    def test_rejects_partial_reports(self):
        partial = SearchReport(
            n=4, d=2, redleaf=False, u_value=None, minimal_shapes=(),
            candidates_examined=0, wall_time=0.0, authoritative=False,
            limit_reason="test",
        )
        with pytest.raises(ValueError):
            check_depth_conjecture(partial)

    def test_depth_agrees_with_height_on_paths(self):
        report = SearchReport(
            n=6, d=2, redleaf=False, u_value=6,
            minimal_shapes=(caterpillar(6).code,), candidates_examined=1,
            wall_time=0.0,
        )
        # C_6 has height 5 = n - 1, so the (synthetic) conjecture check holds.
        assert check_depth_conjecture(report)


class TestTwelveBound:
    def test_frozen_witness_is_12_universal(self):
        code = (FIXTURES / "witness_12_universal.code").read_text().strip()
        witness = parse_code(code)
        assert witness.white_leaves <= 28
        assert is_universal(witness, 12)


@pytest.mark.long_run
@pytest.mark.skipif(os.environ.get("UTK_LONG_RUN") != "1",
                    reason="about 8-11 s and 1.7 GB; set UTK_LONG_RUN=1 to run")
class TestTwelveDecided:
    def test_no_shape_below_28_is_12_universal(self):
        # u(12) >= u(11) = 21, so level 12 sweeps from 21.  Every sweep up
        # to 27 comes out empty, so with the 28-leaf witness above,
        # u(12) = 28.  The m = 27 sweep stores white layer 24 and streams
        # 26 and 25.
        from utk.search import _BinaryEngine, _Budget

        engine = _BinaryEngine(12, redleaf=False)
        engine.u = {k: u for k, u in KNOWN_MIN_UNIVERSAL_SIZE.items() if k < 12}
        budget = _Budget(None)
        for m in range(21, 28):
            assert engine.sweep(m, 12, budget) == [], m
        assert budget.examined == 187_899_561
        assert KNOWN_MIN_UNIVERSAL_SIZE[12] == 28


@pytest.mark.long_run
@pytest.mark.skipif(os.environ.get("UTK_LONG_RUN") != "1",
                    reason="about 6-8 s and 2.2 GB; set UTK_LONG_RUN=1 to run")
class TestRedleafEightBound:
    def test_no_redleaf_shape_below_25_is_8_universal(self):
        # u_red(8) >= u_red(7) = 20, so level 8 sweeps from 20.  Every
        # sweep up to 24 comes out empty, so u_red(8) >= 25.  Each sweep
        # tests every redleaf shape of its size once.
        from utk.search import _BinaryEngine, _Budget

        engine = _BinaryEngine(8, redleaf=True)
        engine.u = dict(enumerate(RED_U_TO_7, start=1))
        budget = _Budget(None)
        for m in range(20, 25):
            assert engine.sweep(m, 8, budget) == [], m
        assert budget.examined == 512_621_712
        assert budget.examined == sum(count_shapes(m, redleaf=True) for m in range(20, 25))


class TestThirteenBound:
    def test_no_shape_of_28_leaves_is_13_universal(self):
        # u(13) >= u(12) = 28, so level 13 sweeps from 28, and the size-28
        # sweep comes out empty: u(13) >= 29.  This rests on u(12) = 28,
        # which the gated TestTwelveDecided shows.  The part rule keeps
        # groups (12, 16), (13, 15) and (14, 14) only (every other part is
        # smaller than u(12)), so no white layer above 16 is built; white
        # 25 over the 1,833 patterns of up to 13 leaves would be about
        # 4.5 GB of columns.
        from utk.search import _BinaryEngine, _Budget

        engine = _BinaryEngine(13, redleaf=False)
        engine.u = {k: u for k, u in KNOWN_MIN_UNIVERSAL_SIZE.items() if k <= 12}
        budget = _Budget(None)
        assert engine.sweep(28, 13, budget) == []
        assert budget.examined == count_shapes(28) == 253_450_711
        stored = {m for m, layer in engine.white_layers.items() if layer.cols is not None}
        assert max(stored) == 16


class TestLongRun:
    def test_u_values_and_catalogs_to_11(self):
        chain = find_min_universal_chain(11)
        assert [r.u_value for r in chain] == WHITE_U_TO_11
        assert [len(r.minimal_shapes) for r in chain][8:] == [8, 2, 1]
        for n in (9, 10, 11):
            expected = catalog_fixture(f"universal_catalog_n{n:02d}.codes")
            assert chain[n - 1].minimal_shapes == expected
        for report in chain:
            assert check_depth_conjecture(report)

    def test_redleaf_chain_to_7(self):
        chain = find_min_universal_chain(7, redleaf=True)
        report = chain[6]
        assert report.u_value == 20
        assert report.candidates_examined == 14_523_662
        assert len(report.minimal_shapes) == 1
        for code in report.minimal_shapes:
            assert is_universal(parse_code(code), 7, redleaf=True)
