"""Library calls leave no reference cycles behind, so what a call built,
a finished search's stored layers above all, is freed when it returns and
not when the cyclic collector next happens to run."""

import gc

import pytest

from utk.embedding import is_induced_subtree
from utk.search import SearchLimits, find_min_universal_chain
from utk.shapes import caterpillar, join


def _stars():
    # The arity-6 hosts of test_wide_nodes_use_matching_path: the Kuhn path.
    star6 = join([caterpillar(k, arity=6) for k in (1, 1, 2, 2, 3, 3)], arity=6)
    star5 = join([caterpillar(k, arity=6) for k in (1, 2, 2, 3, 3)], arity=6)
    return star5, star6


CALLS = {
    "white_chain_8": lambda: find_min_universal_chain(8),
    "redleaf_chain_5": lambda: find_min_universal_chain(5, redleaf=True),
    "stopped_chain": lambda: find_min_universal_chain(9, limits=SearchLimits(max_candidates=1000)),
    "wide_containment": lambda: is_induced_subtree(*_stars()),
    "ternary_chain_4": lambda: find_min_universal_chain(4, d=3),
}


@pytest.mark.parametrize("name", CALLS)
def test_call_leaves_no_cyclic_garbage(name):
    call = CALLS[name]
    call()  # warm-up: caches and imports stay alive, they are not garbage
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
