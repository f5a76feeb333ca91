#!/usr/bin/env python3
"""The census: a verdict for every small graph.

Every labeled graph on 1 to 5 vertices (1,099 of them) gets the uniform
measure and is classified with powers up to 2. The counts by verdict
kind and rule show how far the cascade gets on its own; the Interval
verdicts are the graphs whose limit it leaves open.

Next to each Interval verdict stands a(G), the largest
mu(I) / (mu(I) + mu(N(I))) over nonempty independent sets I, found by
enumeration. The lower-bound recursion seeded by such an I tends to
a(G), so a(G) is a lower bound on the limit as well. Where a(G) exceeds
the verdict's lo, the searched powers undersell the base graph.
"""

import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

from tensorindep import (
    VerdictKind,
    WeightedGraph,
    classify,
    is_independent,
    measure_of,
    neighborhood,
)


def census(max_vertices):
    """Every labeled graph on 1..max_vertices vertices, uniform measure."""
    for n in range(1, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield WeightedGraph([Fraction(1, n)] * n, edges)


def a_of(g):
    """Largest mu(I) / (mu(I) + mu(N(I))) over nonempty independent I."""
    best = Fraction(0)
    for mask in range(1, 1 << g.n):
        if is_independent(g, mask):
            inside = measure_of(g, mask)
            total = inside + measure_of(g, neighborhood(g, mask))
            if total:
                best = max(best, inside / total)
    return best


start = time.perf_counter()
verdicts = [(g, classify(g, 2)) for g in census(5)]
elapsed = time.perf_counter() - start

print("=" * 64)
print(f"  classify(g, 2) on {len(verdicts)} uniform graphs, at most 5 vertices")
print("=" * 64)
by_kind = Counter(verdict.kind.value for _, verdict in verdicts)
by_rule = Counter((verdict.kind.value, verdict.rule) for _, verdict in verdicts)
print()
for kind in VerdictKind:
    print(f"  {kind.value:<11} {by_kind[kind.value]:>5}")
print()
for (kind, rule), count in sorted(by_rule.items()):
    print(f"  {kind:<11} {rule:<32} {count:>5}")
print(f"\n  wall time {elapsed:.2f} s")

print("\n" + "=" * 64)
print("  the Interval verdicts, by lo and a(G)")
print("=" * 64)
open_limits = Counter(
    (verdict.lo, a_of(g))
    for g, verdict in verdicts
    if verdict.kind is VerdictKind.INTERVAL
)
print()
for (lo, a), count in sorted(open_limits.items(), reverse=True):
    print(f"  lo {str(lo):<6} a(G) {str(a):<6} {count:>5}")
