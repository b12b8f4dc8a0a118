import json
import pathlib

import pytest

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
    enumerate_shapes,
    join,
    make_leaf,
    parse_code,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


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
    lands in (a, b) either way (a red pattern's red child in the red part)."""
    layer = (engine.red_layers if red else engine.white_layers)[m]
    rows = []
    for h in range(layer.size):
        i, a, b = layer.locate(h)
        row_a = (red_rows if red else white_rows)[i][a]
        row_b = white_rows[m - i][b]
        row = row_a | row_b
        for p, split in enumerate(engine.splits):
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
            engine.ensure_white_layer(m)
        patterns = [s for k in range(1, 6) for s in enumerate_shapes(k)]
        for m in range(1, 11):
            layer = engine.white_layers[m]
            assert layer.size == len(list(enumerate_shapes(m)))
            codes = set()
            for idx, bits in enumerate(_rows(layer)):
                host = parse_code(engine.white_code(m, idx))
                codes.add(host.code)
                for pid, pattern in enumerate(patterns):
                    assert bool(bits >> pid & 1) == is_induced_subtree(pattern, host)
            assert len(codes) == layer.size

    def test_red_bits_agree_with_embedding(self):
        from utk.search import _BinaryEngine

        engine = _BinaryEngine(3, redleaf=True)
        for m in range(0, 8):
            engine.ensure_red_layer(m)
        for m in range(1, 9):
            engine.ensure_white_layer(m)
        patterns = [s for k in range(1, 4) for s in enumerate_shapes(k)]
        patterns += [s for k in range(0, 4) for s in enumerate_shapes(k, redleaf=True)]
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
                host = parse_code(engine.red_code(m, idx))
                codes.add(host.code)
                for pid, pattern in enumerate(patterns):
                    assert bool(bits >> pid & 1) == is_induced_subtree(pattern, host), (
                        host.code, pattern.code,
                    )
            assert len(codes) == layer.size

    def test_white_columns_match_host_reference(self):
        # Every stored column against rows built host by host from the
        # parts' rows.  Layers up to 16 hold every tie up to 23 hosts a side
        # and groups with more than one fixed host on both sides of the
        # multiply/shift switch of K.
        from utk.search import _BinaryEngine

        engine = _BinaryEngine(6, redleaf=False)
        engine.ensure_white_layer(16)
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
        engine.ensure_red_layer(14)
        groups = [g for m in range(1, 15) for g in engine.red_layers[m].groups]
        for fixed_first in (True, False):  # the red part fixed, or the white
            oriented = [g for g in groups if g.fixed_first == fixed_first and g.fixed.size > 1]
            assert {g.spreader is None for g in oriented} == {True, False}
        white = {m: _rows(engine.white_layers[m]) for m in range(1, 15)}
        red = {0: _rows(engine.red_layers[0])}
        for m in range(1, 15):
            red[m] = _reference_rows(engine, m, True, white, red)
            assert _rows(engine.red_layers[m]) == red[m], m


def _chain_sweeps(u_values: list[int], max_m: int) -> list[tuple[int, int]]:
    """The (m, k) sweeps of a chain with these u-values, up to size max_m."""
    sweeps, prev_u = [], 1
    for k, u in enumerate(u_values, start=1):
        sweeps += [(m, k) for m in range(max(k, prev_u), u + 1) if m <= max_m]
        prev_u = u
    return sweeps


class TestStreamedTopLayer:
    # A sweep streams its top layer unless that layer is already stored;
    # both routes must find the same winners and spend the same budget.

    @staticmethod
    def _winners(engine, m, k):
        from utk.search import _Budget

        budget = _Budget(None)
        codes = sorted(engine.pair_code(m, pair) for pair in engine.sweep(m, k, budget))
        return codes, budget.examined

    def test_white_sweeps_agree(self):
        from utk.search import _BinaryEngine

        sweeps = _chain_sweeps([1, 2, 3, 5, 6, 9, 10, 14, 16], 16)
        assert {m for m, _ in sweeps} == set(range(1, 17))
        for m, k in sweeps:
            streamed = _BinaryEngine(9, redleaf=False)
            stored = _BinaryEngine(9, redleaf=False)
            stored.ensure_white_layer(max(m - 1, 1))
            assert self._winners(streamed, m, k) == self._winners(stored, m, k), (m, k)
            if m >= 3:
                assert streamed.white_layers[m - 1].cols is None
                assert streamed.white_layers[m - 2].cols is not None

    def test_redleaf_sweeps_agree(self):
        from utk.search import _BinaryEngine

        sweeps = _chain_sweeps([1, 3, 5, 9, 12], 12)
        assert {m for m, _ in sweeps} == set(range(1, 13))
        for m, k in sweeps:
            streamed = _BinaryEngine(5, redleaf=True)
            stored = _BinaryEngine(5, redleaf=True)
            stored.ensure_red_layer(m - 1)
            stored.ensure_white_layer(m)
            assert self._winners(streamed, m, k) == self._winners(stored, m, k), (m, k)
            if m >= 2:
                assert streamed.red_layers[m - 1].cols is None
                assert streamed.white_layers[m].cols is None
                assert streamed.red_layers[m - 2].cols is not None
                assert streamed.white_layers[m - 1].cols is not None

    def test_top_layer_is_not_stored(self):
        from utk.search import _BinaryEngine, _Budget

        engine = _BinaryEngine(10, redleaf=False)
        codes = engine.minimal_codes(19, 10, _Budget(None))
        assert tuple(sorted(codes)) == catalog_fixture("universal_catalog_n10.codes")
        assert engine.white_layers[18].cols is None
        assert engine.white_layers[17].cols is not None


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


class TestLongRun:
    def test_u_values_and_catalogs_to_11(self):
        chain = find_min_universal_chain(11)
        assert [r.u_value for r in chain] == [1, 2, 3, 5, 6, 9, 10, 14, 16, 19, 21]
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
