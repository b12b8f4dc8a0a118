"""Exact integer evaluation of the known bounds on minimal universal sizes.

All arithmetic is exact (Python integers); ceilings and floors are applied
only in the direction the corresponding inequality permits, so every number
here is safe to compare against exhaustive search results.

- :func:`naive_upper`: the easy recursion u(n) <= u(n-1) + u(n//2).
- :func:`quad_upper`: the quadratic bound floor((2 n**2 + 1) / 3) obtained
  from the iterated centroid-halving construction.
- :func:`chung_lower`: the superlinear lower bound at n = 2**k obtained by
  evaluating an inclusion-exclusion inequality over a family of k jellyfish
  with pairwise agreement sizes given by the jellyfish closed form.
- :func:`kalmar`: partial sums of ordered-factorization counts, an integer
  sequence that empirically shadows u(n) for small n.
- :func:`tangle_lower`: counting threshold: the smallest q whose size-n
  edge subsets could cover all size-n tanglegram classes.
"""

from __future__ import annotations

import math

from utk.embedding import jellyfish_mast
from utk.shapes import JellyfishSpec, _Record

__all__ = [
    "naive_upper",
    "quad_upper",
    "ChungBound",
    "chung_lower",
    "ordered_factorizations",
    "kalmar",
    "tangle_lower",
    "KNOWN_MIN_UNIVERSAL_SIZE",
    "KNOWN_UPPER_BOUND",
    "bound_table",
]

# Minimal universal sizes established by exhaustive search (the search module
# reproduces these; n = 12 in a long-run test).  Sizes known only from above
# go in KNOWN_UPPER_BOUND: each is the size of an n-universal witness,
# ``build_universal(n, parts=...)`` with the smallest universal shapes of up
# to 12 leaves and the smallest redleaf shapes of up to 7 white leaves as its
# parts, checked by ``is_universal``.  The witnesses are test fixtures
# (``witness_13_upper.code``, ``witness_15_upper.code``); n = 14 and n = 15
# build the same 40-leaf shape.
KNOWN_MIN_UNIVERSAL_SIZE = {
    1: 1, 2: 2, 3: 3, 4: 5, 5: 6, 6: 9, 7: 10, 8: 14, 9: 16, 10: 19, 11: 21, 12: 28,
}
KNOWN_UPPER_BOUND = {13: 35, 14: 40, 15: 40}


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def naive_upper(n: int) -> int:
    """Value of the recursion f(n) = f(n-1) + f(n//2), f(1) = 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _naive_values(n)[n]


def _naive_values(n: int) -> list[int]:
    """f(0..n) of ``naive_upper``'s recursion, with f(0) = 0."""
    values = [0, 1]
    for m in range(2, n + 1):
        values.append(values[m - 1] + values[m // 2])
    return values


def quad_upper(n: int) -> int:
    """The quadratic upper bound floor((2 n**2 + 1) / 3)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (2 * n * n + 1) // 3


class ChungBound(_Record):
    """Lower bound for u(2**k) from the inclusion-exclusion count.

    ``evaluated`` is ceil((2 k 2**k - sum of pairwise agreement sizes) / 3),
    computed exactly from the jellyfish closed form; ``simplified`` is the
    weaker ceil(k 2**k / 3).
    """

    __slots__ = ("k", "evaluated", "simplified", "mast_sum")

    def __init__(self, k: int, evaluated: int, simplified: int, mast_sum: int):
        self._set(k, evaluated, simplified, mast_sum)


def chung_lower(k: int) -> ChungBound:
    """Evaluate the jellyfish-family lower bound for u(2**k), k >= 2.

    The family is T_i = J(i-1, 2**(k-i+1)) for i = 1..k, all with 2**k white
    leaves.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    specs = [JellyfishSpec(i - 1, 2 ** (k - i + 1)) for i in range(1, k + 1)]
    mast_sum = sum(
        jellyfish_mast(specs[i], specs[j])
        for i in range(k)
        for j in range(i + 1, k)
    )
    evaluated = _ceil_div(2 * k * 2**k - mast_sum, 3)
    simplified = _ceil_div(k * 2**k, 3)
    assert evaluated >= simplified  # mast_sum < k * 2**k
    return ChungBound(k=k, evaluated=evaluated, simplified=simplified, mast_sum=mast_sum)


def ordered_factorizations(n: int) -> int:
    """Number of ordered factorizations of n into factors > 1 (1 for n = 1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _factorization_counts(n)[n]


def _factorization_counts(n: int) -> list[int]:
    f = [0] * (n + 1)
    f[1] = 1
    for d in range(1, n + 1):
        for m in range(2 * d, n + 1, d):
            f[m] += f[d]
    return f


def kalmar(n: int) -> int:
    """Partial sum of ordered-factorization counts up to n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return sum(_factorization_counts(n)[1:])


def tangle_lower(n: int, t_n: int) -> int:
    """Smallest q with binom(q, n) >= t_n: any n-universal tanglegram must
    have at least this size, given that t_n size-n classes exist."""
    if t_n < 1:
        raise ValueError("need t_n >= 1")
    q = n
    while math.comb(q, n) < t_n:
        q += 1
    return q


def bound_table(n_max: int) -> list[dict]:
    """Rows n = 1..n_max with every bound that applies at that n.

    Columns: n, u_known (None when unknown), u_upper (a known upper bound
    where only that is known, else None), naive_upper, quad_upper,
    chung_lower (only at n = 2**k, k >= 2), kalmar.
    """
    counts = _factorization_counts(max(n_max, 1))
    naive = _naive_values(n_max)
    rows = []
    kal = 0
    for n in range(1, n_max + 1):
        kal += counts[n]
        chung = None
        k = n.bit_length() - 1
        if n == 2**k and k >= 2:
            chung = chung_lower(k).evaluated
        rows.append(
            {
                "n": n,
                "u_known": KNOWN_MIN_UNIVERSAL_SIZE.get(n),
                "u_upper": KNOWN_UPPER_BOUND.get(n),
                "naive_upper": naive[n],
                "quad_upper": quad_upper(n),
                "chung_lower": chung,
                "kalmar": kal,
            }
        )
    return rows
