"""Test of the benchmark's oracle against brute-force leaf-subset enumeration.

Run from the root of the repository:

    python3 perfbench/check_oracle.py

It compares the oracle's containment with a brute force that induces every
leaf subset of the host, on every pair of binary shapes with up to 7 white
leaves, ternary shapes up to 6 and shapes with a red leaf up to 5 white
leaves; the oracle's agreement size with the brute force on every pair of
binary shapes up to 7 leaves; and the oracle's enumeration with plane-tree
enumeration and the Wedderburn-Etherington numbers.  Like the oracle, it
imports nothing from utk.  It exits with 1 on the first mismatch.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402


def leaf_list(tree) -> list[str]:
    if isinstance(tree, str):
        return [tree]
    return [leaf for kid in tree for leaf in leaf_list(kid)]


def induce(tree, keep: set[int]):
    """Raw tree induced by the leaves at positions ``keep``."""

    def walk(node, offset):
        if isinstance(node, str):
            return (node if offset in keep else None), 1
        kids, used = [], 0
        for kid in node:
            sub, n = walk(kid, offset + used)
            used += n
            if sub is not None:
                kids.append(sub)
        if not kids:
            return None, used
        return (kids[0] if len(kids) == 1 else tuple(kids)), used

    return walk(tree, 0)[0]


def brute_induced(host: str, k: int, red: bool) -> set[str]:
    tree = oracle.parse(host)
    leaves = leaf_list(tree)
    whites = [i for i, leaf in enumerate(leaves) if leaf == "o"]
    reds = [i for i, leaf in enumerate(leaves) if leaf == "r"]
    if red and not reds:
        return set()
    extra = set(reds) if red else set()
    return {
        oracle.code(induce(tree, set(subset) | extra))
        for subset in itertools.combinations(whites, k)
        if subset or extra
    }


def plane_trees(n: int, d: int):
    """All ordered trees with n white leaves and 2..d children per vertex."""
    if n == 1:
        yield "o"
        return
    for parts in range(2, d + 1):
        for cuts in itertools.combinations(range(1, n), parts - 1):
            sizes = [b - a for a, b in zip((0,) + cuts, cuts + (n,))]
            yield from itertools.product(*(list(plane_trees(s, d)) for s in sizes))


def wedderburn(n: int) -> int:
    w = [0, 1]
    for m in range(2, n + 1):
        total = sum(w[i] * w[m - i] for i in range(1, (m + 1) // 2))
        if m % 2 == 0:
            total += w[m // 2] * (w[m // 2] + 1) // 2
        w.append(total)
    return w[n]


def check(condition: bool, what: str) -> None:
    if not condition:
        print(f"oracle check FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def main() -> None:
    for n in range(1, 13):
        check(len(oracle.shapes(n)) == wedderburn(n), f"binary shape count n={n}")
    for d, top in ((2, 8), (3, 7)):
        for n in range(1, top + 1):
            brute = {oracle.code(t) for t in plane_trees(n, d)}
            check(brute == set(oracle.shapes(n, d)), f"enumeration n={n} d={d}")
    for n in range(0, 6):
        recolored = {
            oracle.code(oracle.parse(c[:i] + "r" + c[i + 1:]))
            for c in oracle.shapes(n + 1)
            for i, ch in enumerate(c) if ch == "o"
        }
        check(recolored == set(oracle.shapes(n, 2, True)), f"redleaf enumeration n={n}")
    for code in oracle.shapes(7) | oracle.shapes(6, 3) | oracle.shapes(5, 2, True):
        check(oracle.code(oracle.parse(code)) == code, f"canonical {code}")

    pairs = 0
    for d, top, red in ((2, 7, False), (3, 6, False), (2, 5, True)):
        family = [c for m in range(0 if red else 1, top + 1) for c in oracle.shapes(m, d, red)]
        for host in family:
            for pattern in family:
                k = oracle.white_leaves(oracle.parse(pattern))
                is_red = pattern.count("r") == 1
                want = pattern in brute_induced(host, k, is_red)
                check(oracle.contains(pattern, host) == want, f"contains {pattern} in {host}")
                pairs += 1
    white = [c for m in range(1, 8) for c in oracle.shapes(m)]
    for a in white:
        for b in white:
            ka, kb = (oracle.white_leaves(oracle.parse(c)) for c in (a, b))
            want = max(
                k for k in range(1, min(ka, kb) + 1)
                if brute_induced(a, k, False) & brute_induced(b, k, False)
            )
            check(oracle.mast(a, b) == want, f"mast {a} {b}")
    for n in range(1, 6):
        for host in oracle.shapes(n + 3):
            want = set(oracle.shapes(n)) <= brute_induced(host, n, False)
            check(oracle.is_universal(host, n) == want, f"universal {host} n={n}")
    print(f"oracle agrees with brute force on {pairs} containment pairs, "
          f"{len(white) ** 2} agreement pairs and every enumeration checked")


if __name__ == "__main__":
    main()
