import itertools
import random

import pytest

from proofs import coeff_sequences, embed_composition
from utk.bounds import quad_upper
from utk.constructions import (
    build_redleaf_comb,
    build_universal,
    build_universal_redleaf,
    build_universal_tanglegram,
    construction_trace,
    svec,
)
from utk.search import is_universal
from utk.shapes import caterpillar, join, make_leaf, parse_code
from utk.tanglegrams import is_universal_tanglegram


class TestCoeffSequences:
    def test_binary_initial_terms(self):
        seq = coeff_sequences(4)
        assert seq.a[:3] == (1, 5, 21)
        assert seq.b[:3] == (2, 6, 22)

    def test_binary_closed_form(self):
        seq = coeff_sequences(20)
        for k in range(1, 21):
            assert seq("b", k) == (4**k + 2) // 3
            assert (4**k + 2) % 3 == 0

    def test_dary_power_identity(self):
        for d in range(2, 7):
            seq = coeff_sequences(12, d)
            for k in range(1, 13):
                assert seq("c", k) == (d + 2) ** k

    def test_binary_is_d2(self):
        assert coeff_sequences(8, 2).b == coeff_sequences(8).b


class TestSvec:
    def test_small_values(self):
        assert svec(0) == (1,)
        assert svec(1) == (1, 2, 1)
        assert svec(2) == (1, 2, 1, 4, 1, 2, 1)

    def test_palindromic_doubling(self):
        for k in range(1, 9):
            prev, cur = svec(k - 1), svec(k)
            assert len(cur) == 2 ** (k + 1) - 1
            assert cur == prev + (2**k,) + prev

    def test_term_multiplicities(self):
        for k in range(0, 9):
            seq = svec(k)
            for i in range(k + 1):
                assert seq.count(2**i) == 2 ** (k - i)


class TestEmbedComposition:
    def test_pivot_example(self):
        assert embed_composition((3, 1), 2) == (4, 5)

    def test_all_ones(self):
        idx = embed_composition((1, 1, 1, 1), 2)
        seq = svec(2)
        assert list(idx) == sorted(set(idx))
        assert all(1 <= a <= len(seq) for a in idx)
        assert all(seq[a - 1] >= 1 for a in idx)

    def test_single_term(self):
        assert embed_composition((8,), 3) == (8,)

    def test_rejects_bad_compositions(self):
        with pytest.raises(ValueError):
            embed_composition((3, 2), 2)
        with pytest.raises(ValueError):
            embed_composition((4, 0), 2)

    def test_fuzz_random_compositions(self):
        # Acceptance property: 10^4 random compositions, k <= 10.
        rng = random.Random(551)
        seqs = {k: svec(k) for k in range(0, 11)}
        for _ in range(10_000):
            k = rng.randint(0, 10)
            total = 2**k
            comp = []
            while total:
                part = rng.randint(1, total)
                comp.append(part)
                total -= part
            idx = embed_composition(tuple(comp), k)
            assert len(idx) == len(comp)
            assert all(a < b for a, b in zip(idx, idx[1:]))
            seq = seqs[k]
            assert all(1 <= a <= len(seq) for a in idx)
            assert all(b <= seq[a - 1] for b, a in zip(comp, idx))


class TestBuildUniversal:
    def test_base(self):
        assert build_universal(1) == make_leaf()

    def test_small_sizes(self):
        assert build_universal(2).white_leaves == 3
        assert [build_universal(n).white_leaves for n in (2, 4, 8)] == [3, 11, 43]

    def test_quadratic_bound_up_to_64(self):
        for n in range(1, 65):
            assert build_universal(n).white_leaves <= quad_upper(n)

    def test_equality_at_powers_of_two(self):
        for k in range(1, 7):
            n = 2**k
            assert build_universal(n).white_leaves == quad_upper(n)

    def test_universal_binary(self):
        for n in range(1, 11):
            assert is_universal(build_universal(n), n)

    def test_universal_ternary(self):
        for n in range(1, 6):
            assert is_universal(build_universal(n, d=3), n, d=3)

    def test_dary_size_trend(self):
        # Size over n**log2(d+2) stays bounded along powers of two: the
        # ratio between consecutive doublings never exceeds d + 2.
        for d in (3, 4):
            sizes = [build_universal(2**k, d=d).white_leaves for k in range(7)]
            for small, big in zip(sizes, sizes[1:]):
                assert big <= (d + 2) * small

    def test_memoization_shares_subtrees(self):
        shape = build_universal(16)
        # both grandchildren recursions hit the same (4, white) subproblem
        assert shape.white_leaves == 171  # f(16) = f1(8) + 2 f(8)

    def test_injection_shrinks_result(self):
        minimal = {1: "o", 2: "(oo)", 3: "(o(oo))"}

        def parts(m, redleaf):
            if not redleaf and m in minimal:
                return parse_code(minimal[m])
            return None

        built = build_universal(4, parts=parts)
        assert built.white_leaves == 8 < 11
        assert is_universal(built, 4)

    def test_injection_of_wrong_kind_rejected(self):
        # white shape offered for a redleaf slot
        with pytest.raises(ValueError):
            build_universal(4, parts=lambda m, red: make_leaf() if red else None)
        # arity mismatch
        with pytest.raises(ValueError):
            build_universal(4, parts=lambda m, red: make_leaf(arity=3) if not red else None)


class TestBuildUniversalRedleaf:
    def test_base(self):
        built = build_universal_redleaf(1)
        assert built == join([make_leaf(), make_leaf("red")])
        assert built.white_leaves == 1

    def test_small_sizes(self):
        assert build_universal_redleaf(2).white_leaves == 5
        assert build_universal_redleaf(4).white_leaves == 21

    def test_universal_redleaf(self):
        for n in range(1, 7):
            assert is_universal(build_universal_redleaf(n), n, redleaf=True)


class TestBuildRedleafComb:
    def test_k0(self):
        comb = build_redleaf_comb(0)
        assert comb == join([make_leaf(), make_leaf("red")])
        assert comb.white_leaves == 1

    def test_k1_with_minimal_parts(self):
        minimal = {1: parse_code("o"), 2: parse_code("(oo)")}
        comb = build_redleaf_comb(1, universal_source=lambda m: minimal[m])
        assert comb.white_leaves == 4

    def test_size_law(self):
        for d in (2, 3):
            for k in range(0, 4):
                cache = {}

                def source(m, _d=d, _c=cache):
                    if m not in _c:
                        _c[m] = build_universal(m, _d)
                    return _c[m]

                comb = build_redleaf_comb(k, d=d, universal_source=source)
                expect = (d - 1) * sum(
                    2**i * source(2 ** (k - i)).white_leaves for i in range(k + 1)
                )
                assert comb.white_leaves == expect

    def test_universal_for_small_k(self):
        for k in (0, 1, 2):
            comb = build_redleaf_comb(k)
            assert is_universal(comb, 2**k, redleaf=True)

    def test_dary_combs_are_universal(self):
        # Each step joins the d - 1 parts and the tail under one root; a
        # binary node over the packed parts and the tail missed (oor) at
        # d = 3, k = 1.  The white-leaf count is (d - 1) times the parts'.
        for d in (3, 4):
            for k in (0, 1, 2):
                comb = build_redleaf_comb(k, d=d)
                assert is_universal(comb, 2**k, d=d, redleaf=True), (d, k)
                parts = sum(2**i * build_universal(2 ** (k - i), d).white_leaves
                            for i in range(k + 1))
                assert comb.white_leaves == (d - 1) * parts, (d, k)

    def test_universal_with_minimal_parts(self):
        minimal = {1: "o", 2: "(oo)", 4: "((oo)(o(oo)))"}
        comb = build_redleaf_comb(2, universal_source=lambda m: parse_code(minimal[m]))
        assert comb.white_leaves == 1 + 2 + 1 + 5 + 1 + 2 + 1
        assert is_universal(comb, 4, redleaf=True)


class TestBuildUniversalTanglegram:
    def test_size_is_square(self):
        for n, u in ((1, 1), (2, 2), (3, 3), (4, 5)):
            minimal = _minimal_universal(n)
            t = build_universal_tanglegram(n, universal=minimal)
            assert t.size == u * u

    def test_block_structure(self):
        t = build_universal_tanglegram(3, universal=caterpillar(3))
        u = 3
        for i in range(u):
            targets = {t.matching[i * u + j] // u for j in range(u)}
            assert targets == set(range(u))

    def test_two_universal(self):
        t = build_universal_tanglegram(2, universal=_minimal_universal(2))
        assert t.size == 4
        assert is_universal_tanglegram(t, 2)

    def test_three_universal(self):
        t = build_universal_tanglegram(3, universal=_minimal_universal(3))
        assert t.size == 9
        assert is_universal_tanglegram(t, 3)

    def test_rejects_redleaf_tree(self):
        with pytest.raises(ValueError):
            build_universal_tanglegram(2, universal=join([make_leaf(), make_leaf("red")]))

    def test_ternary_tanglegram(self):
        # 3-ary: the cherry is 2-universal, so the construction has size 4;
        # for n = 3 the minimal universal 3-ary tree comes from the search.
        cherry3 = caterpillar(2, arity=3)
        small = build_universal_tanglegram(2, universal=cherry3)
        assert small.size == 4 and small.left.arity == 3
        assert is_universal_tanglegram(small, 2)

        from utk.search import find_min_universal

        report = find_min_universal(3, d=3)
        minimal = parse_code(report.minimal_shapes[0], arity=3)
        tangle = build_universal_tanglegram(3, universal=minimal)
        assert tangle.size == report.u_value**2
        assert is_universal_tanglegram(tangle, 3)


def _minimal_universal(n):
    return parse_code({1: "o", 2: "(oo)", 3: "(o(oo))", 4: "((oo)(o(oo)))"}[n])


class TestTrace:
    def test_trace_structure(self):
        trace = construction_trace(4)
        assert trace["rule"] == "halving-graft"
        assert trace["white_leaves"] == 11
        kinds = [part["rule"] for part in trace["parts"]]
        assert kinds == ["redleaf-halving-graft", "halving-graft", "halving-graft"]

    def test_trace_reports_injection(self):
        trace = construction_trace(
            2, parts=lambda m, red: parse_code("(oo)") if (m, red) == (2, False) else None
        )
        assert trace["rule"] == "injected-part"

    def test_every_node_matches_its_build(self):
        # Each node's code has the white leaves it reports, and the root is
        # the shape the builder returns.
        for d in (2, 3):
            for redleaf in (False, True):
                build = build_universal_redleaf if redleaf else build_universal
                for n in range(1, 33):
                    trace = construction_trace(n, d, redleaf)
                    assert trace["code"] == build(n, d).code
                    stack, seen = [trace], set()
                    while stack:
                        node = stack.pop()
                        if id(node) in seen:  # a shared subproblem
                            continue
                        seen.add(id(node))
                        shape = parse_code(node["code"], arity=d)
                        assert shape.white_leaves == node["white_leaves"]
                        assert shape.has_red == node["redleaf"]
                        stack += node.get("parts", [])
