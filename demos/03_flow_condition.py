#!/usr/bin/env python3
"""The flow test: does some independent set outweigh its neighborhood?

Scanning all independent sets is exponential. The library instead runs
one maximum flow on the bipartite double cover: source -> X side with
the vertex measures, Y side -> sink likewise, capacity 2 on every cover
edge (effectively infinite, since the source cut already costs 1/2).
The flow saturates at exactly 1/2 iff every set Q satisfies
mu(Q) <= mu(N(Q)); any deficit hands back a violating set from the
minimum cut, and trimming it to its interior yields a certified
INDEPENDENT witness.
"""

from fractions import Fraction

from tensorindep import (
    WeightedGraph,
    cover_flow,
    cycle_graph,
    independent_witness_from_set,
    iter_bits,
    measure_of,
    neighborhood,
    path_graph,
    star_graph,
    violating_independent_set,
)
from tensorindep.hallflow import violating_set_from_flow


def names(g, mask):
    return "{" + ", ".join(g.labels[v] for v in iter_bits(mask)) + "}"


def run(name, g):
    result = cover_flow(g)
    print(f"\n{name}")
    print(f"  max flow on the cover network: {result.value} (ceiling is 1/2)")
    q = violating_set_from_flow(g, result)
    if q is None:
        print("  saturating: every set satisfies mu(Q) <= mu(N(Q))")
        return
    print(f"  violating set from the min cut: Q = {names(g, q)}")
    print(f"    mu(Q) = {measure_of(g, q)} > mu(N(Q)) = {measure_of(g, neighborhood(g, q))}")
    witness = independent_witness_from_set(g, q)
    print(f"  certified independent witness: I = {names(g, witness)}")
    print(f"    mu(I) = {measure_of(g, witness)} > mu(N(I)) = {measure_of(g, neighborhood(g, witness))}")


print("=" * 64)
print("  flow saturation vs violating witnesses")
print("=" * 64)

run("single edge, uniform (balanced: saturates)", path_graph(2))
run("path u-v-w, uniform (ends outweigh the middle)",
    WeightedGraph([Fraction(1, 3)] * 3, [(0, 1), (1, 2)], ["u", "v", "w"]))
run("single edge, biased 2/3 vs 1/3",
    WeightedGraph([Fraction(2, 3), Fraction(1, 3)], [(0, 1)], ["u", "v"]))
run("star with 3 leaves, uniform", star_graph(3))
run("C5, uniform (saturates: odd cycles spread measure)", cycle_graph(5))

print("\n" + "=" * 64)
print("  the one-call pipeline")
print("=" * 64)

for name, g in [
    ("P3 uniform", WeightedGraph([Fraction(1, 3)] * 3, [(0, 1), (1, 2)], ["u", "v", "w"])),
    ("K2 uniform", path_graph(2)),
]:
    witness = violating_independent_set(g)
    shown = names(g, witness) if witness is not None else "none"
    print(f"  {name}: witness = {shown}")
