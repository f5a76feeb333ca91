"""The benchmark's own reference arithmetic, independent of tensorindep.

Every check in the benchmark decides correctness from the objects below
and the raw graph data (vertex count, measures, adjacency bitmasks), never
by calling the package's solvers. Graphs are read through three attributes
that any graph object handed to the package carries: ``n``, ``measures``
(exact fractions) and ``adj`` (one neighbour bitmask per vertex).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

HALF = Fraction(1, 2)


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def independent(adj: Sequence[int], mask: int) -> bool:
    return all(not adj[v] & mask for v in bits(mask))


def measure(measures: Sequence[Fraction], mask: int) -> Fraction:
    return sum((measures[v] for v in bits(mask)), Fraction(0))


def neighbours(adj: Sequence[int], mask: int) -> int:
    out = 0
    for v in bits(mask):
        out |= adj[v]
    return out


def brute_alpha(adj: Sequence[int], measures: Sequence[Fraction]) -> Fraction:
    """Largest measure of an independent set, by exhaustive branching.

    Branches on the lowest remaining vertex (take it or leave it), which
    enumerates every maximal independent set; meant for at most 20 vertices.
    """
    n = len(adj)
    if n > 20:
        raise ValueError(f"brute force refused for {n} vertices")

    memo: dict[int, Fraction] = {0: Fraction(0)}

    def best(cand: int) -> Fraction:
        if cand not in memo:
            low = cand & -cand
            v = low.bit_length() - 1
            leave = best(cand ^ low)
            take = measures[v] + best(cand & ~(adj[v] | low))
            memo[cand] = take if take > leave else leave
        return memo[cand]

    return best((1 << n) - 1)


def has_violating_set(adj: Sequence[int], measures: Sequence[Fraction]) -> bool:
    """Is there an independent I with mu(I) > mu(N(I))? Exhaustive, n <= 16."""
    n = len(adj)
    if n > 16:
        raise ValueError(f"exhaustive condition test refused for {n} vertices")
    for mask in range(1, 1 << n):
        if independent(adj, mask) and measure(measures, mask) > measure(
            measures, neighbours(adj, mask)
        ):
            return True
    return False


def is_violating_witness(adj: Sequence[int], measures: Sequence[Fraction], mask: int) -> bool:
    """Nonempty, independent, and strictly heavier than its neighbourhood."""
    return (
        mask > 0
        and independent(adj, mask)
        and measure(measures, mask) > measure(measures, neighbours(adj, mask))
    )


# Tensor powers: vertex index <-> coordinate tuple, most significant first.

def decode(index: int, m: int, k: int) -> tuple[int, ...]:
    coords = []
    for _ in range(k):
        index, c = divmod(index, m)
        coords.append(c)
    return tuple(reversed(coords))


def encode(coords: Sequence[int], m: int) -> int:
    index = 0
    for c in coords:
        index = index * m + c
    return index


def power_adjacent(base_adj: Sequence[int], a: Sequence[int], b: Sequence[int]) -> bool:
    return all(base_adj[x] >> y & 1 for x, y in zip(a, b))


def power_measure(base_measures: Sequence[Fraction], coords: Sequence[int]) -> Fraction:
    out = Fraction(1)
    for c in coords:
        out *= base_measures[c]
    return out


def power_graph(base_adj: Sequence[int], base_measures: Sequence[Fraction], k: int):
    """Adjacency masks and measures of the k-th tensor power (small powers only)."""
    m = len(base_adj)
    size = m**k
    coords = [decode(i, m, k) for i in range(size)]
    adj = []
    for i in range(size):
        mask = 0
        for j in range(size):
            if power_adjacent(base_adj, coords[i], coords[j]):
                mask |= 1 << j
        adj.append(mask)
    return adj, [power_measure(base_measures, c) for c in coords]


def witness_in_power_ok(
    base_adj: Sequence[int], base_measures: Sequence[Fraction], k: int, witness: int
) -> tuple[bool, Fraction]:
    """(independent in G^k, measure) for a witness mask of the k-th power."""
    m = len(base_adj)
    members = [decode(i, m, k) for i in bits(witness)]
    ok = not any(power_adjacent(base_adj, a, b) for a, b in combinations(members, 2))
    return ok, sum((power_measure(base_measures, c) for c in members), Fraction(0))


def binomial_tail(p: Fraction, n: int) -> Fraction:
    """P(more than half of n independent trials with success p succeed)."""
    q = 1 - p
    return sum(
        (Fraction(math.comb(n, j)) * p**j * q ** (n - j) for j in range(n // 2 + 1, n + 1)),
        Fraction(0),
    )


def descriptor_problem(
    pieces: Sequence[tuple[Fraction, Fraction, int]],
    base_adj: Sequence[int],
    base_measures: Sequence[Fraction],
) -> Optional[str]:
    """Check interval pieces (lo, hi, cover target) against the definition.

    Cover vertex z < n is (z, A) and n + z is (z, B), each carrying half the
    base measure. The pieces must tile [0, 1) exactly, give each cover vertex
    its measure, and pair every tile of [0, 1/2) with a mirror at +1/2 whose
    target is adjacent in the cover (an A copy joined to the B copy of a
    base neighbour).
    """
    n = len(base_adj)
    cursor = Fraction(0)
    for lo, hi, _ in sorted(pieces):
        if lo != cursor or hi <= lo:
            return f"pieces do not tile [0,1) at {cursor}"
        cursor = hi
    if cursor != 1:
        return f"pieces stop at {cursor}"
    fibre = [Fraction(0)] * (2 * n)
    for lo, hi, target in pieces:
        if not 0 <= target < 2 * n:
            return f"target {target} out of range"
        fibre[target] += hi - lo
    for z in range(2 * n):
        if fibre[z] != base_measures[z % n] / 2:
            return f"fibre of cover vertex {z} has length {fibre[z]}"
    upper = {(lo, hi): t for lo, hi, t in pieces if lo >= HALF}
    for lo, hi, x in pieces:
        if hi > HALF:
            continue
        y = upper.get((lo + HALF, hi + HALF))
        if y is None:
            return f"tile [{lo},{hi}) has no mirror"
        if not (x < n <= y and base_adj[x] >> (y - n) & 1):
            return f"mirror pair {x},{y} is not a cover edge"
    return None
