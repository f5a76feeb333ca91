"""Independent brute-force oracles the implementation is checked against.

Everything here enumerates, in the most literal way possible, the object
the optimized code computes cleverly. None of it imports the search,
flow, or descriptor internals, only the elementary set operations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from tensorindep import (
    WeightedGraph,
    is_independent,
    measure_of,
    neighborhood,
)


def brute_alpha(g: WeightedGraph) -> tuple[Fraction, int]:
    """Scan all 2^n subsets for the maximum-measure independent set.

    Ties are broken exactly like the library promises to: among the
    optimal sets, prefer membership of lower-indexed vertices.
    """
    best = Fraction(0)
    optimal: list[int] = [0]
    for mask in range(1 << g.n):
        if is_independent(g, mask):
            m = measure_of(g, mask)
            if m > best:
                best, optimal = m, [mask]
            elif m == best:
                optimal.append(mask)

    def preference(mask: int) -> tuple[int, ...]:
        return tuple(mask >> v & 1 for v in range(g.n))

    return best, max(optimal, key=preference)


def brute_alpha_value_int(adj: list[int], weights: list[int]) -> int:
    """Integer-weight variant fast enough for 14-vertex corpora.

    Subset DP: a mask is independent iff the mask without its lowest
    vertex is independent and that vertex has no neighbor inside.
    """
    n = len(adj)
    size = 1 << n
    independent = bytearray([1]) * size
    best = 0
    weight = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        weight[mask] = weight[rest] + weights[v]
        if independent[rest] and not adj[v] & rest:
            if weight[mask] > best:
                best = weight[mask]
        else:
            independent[mask] = 0
    return best


def brute_violating_independent(g: WeightedGraph) -> int | None:
    """First independent set that strictly outweighs its neighborhood."""
    for mask in range(1, 1 << g.n):
        if is_independent(g, mask):
            if measure_of(g, mask) > measure_of(g, neighborhood(g, mask)):
                return mask
    return None


def brute_violating_any(g: WeightedGraph) -> int | None:
    """First arbitrary set that strictly outweighs its neighborhood."""
    for mask in range(1, 1 << g.n):
        if measure_of(g, mask) > measure_of(g, neighborhood(g, mask)):
            return mask
    return None


def all_uniform_graphs(max_vertices: int):
    """Every labeled graph on 1..max_vertices vertices, uniform measure."""
    for n in range(1, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield WeightedGraph([Fraction(1, n)] * n, edges)


def random_measured_graph(
    rng: random.Random,
    max_vertices: int,
    max_weight: int = 6,
    min_vertices: int = 1,
    density: float = 0.5,
) -> WeightedGraph:
    """Random graph with a random rational measure (zero weights allowed).

    Each pair of vertices is an edge with probability ``density``.
    """
    n = rng.randint(min_vertices, max_vertices)
    edges = [p for p in combinations(range(n), 2) if rng.random() < density]
    weights = [rng.randint(0, max_weight) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return WeightedGraph([Fraction(w, total) for w in weights], edges)
