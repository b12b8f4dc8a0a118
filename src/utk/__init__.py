"""Universal tree kit: tree-shape universality, agreement subtrees, and
tanglegrams.

Library layout:

- :mod:`utk.shapes`: rooted tree shapes, canonical codes, special families,
  isomorph-free enumeration, text/DOT export.
- :mod:`utk.embedding`: induced-subtree containment and maximum agreement
  subtree sizes.
- :mod:`utk.constructions`: provably universal trees, the comb construction
  for redleaf universality, and universal tanglegrams.
- :mod:`utk.bounds`: exact integer evaluation of the known size bounds.
- :mod:`utk.tanglegrams`: tanglegram model, canonicalization, enumeration,
  induced subtanglegrams, universality checking.
- :mod:`utk.search`: exhaustive minimal-universal-shape search.
- :mod:`utk.cli`: the ``utk`` command-line tool.

The centroid split and the composition embedding that prove the
constructions universal are executable proofs in ``tests/proofs.py``,
which only the tests call.
"""

from utk.shapes import (
    JellyfishSpec,
    Shape,
    caterpillar,
    complete_tree,
    enumerate_shapes,
    graft,
    jellyfish,
    join,
    make_leaf,
    parse_code,
    parse_newick,
    to_newick,
)

__version__ = "0.1.0"
