#!/usr/bin/env python3
"""Tensor powers and how independence measures behave along them.

The tensor product makes two vertices adjacent only when every
coordinate pair is adjacent, and multiplies the measures. Projections
onto coordinate subsets are measure-preserving homomorphisms, which is
exactly why the independence measure can only grow with the power: pull
any independent set back through a projection and it stays independent
with the same measure.
"""

from fractions import Fraction

from tensorindep import (
    TensorPowerView,
    WeightedGraph,
    alpha_sequence,
    bipartition,
    cycle_graph,
    path_graph,
    power_adjacent,
    projection_hom,
    tensor_power,
    tensor_product,
    verify_finite_hom,
)
from tensorindep.mwis import _pattern_classes

print("=" * 64)
print("  1. small products, explicitly")
print("=" * 64)

k2 = path_graph(2)
square = tensor_product(k2, k2)
print(f"\nK2 x K2: {square.n} vertices, {square.edge_count()} edges")
for u, v in square.edges():
    print(f"  {square.labels[u]} ~ {square.labels[v]}")
print("the square of one edge is two disjoint edges (the double cover of K2)")

print("\n" + "=" * 64)
print("  2. alpha along powers is nondecreasing")
print("=" * 64)

for name, g, n in [
    ("P3", path_graph(3), 3),
    ("C5", cycle_graph(5), 3),
    ("K2", path_graph(2), 4),
]:
    seq = alpha_sequence(g, n)
    pretty = ", ".join(str(t) for t in seq.terms)
    print(f"\nalpha({name}^k) for k=1..{n}: {pretty}")

print("\nP3 keeps growing toward 1 (its ends outweigh the middle);")
print("C5 and K2 are pinned: vertex-transitive and bipartite structure.")

print("\n" + "=" * 64)
print("  3. the adjacency oracle for unmaterialized powers")
print("=" * 64)

c5 = cycle_graph(5)
view = TensorPowerView(c5, 40)
a = (0,) * 40
b = tuple((1 if i % 2 == 0 else 4) for i in range(40))
print(f"\nC5^40 has {view.size} vertices; no need to build it:")
print(f"  all-zeros ~ alternating(1,4): {power_adjacent(view, a, b)}")

print("\n" + "=" * 64)
print("  4. projections are measure-preserving homomorphisms")
print("=" * 64)

cube = tensor_power(c5, 3)
v3 = TensorPowerView(c5, 3)
mapping = projection_hom(v3, [0, 1])
print(f"\nproject C5^3 -> C5^2 on the first two coordinates:")
print(f"  verify_finite_hom: {verify_finite_hom(mapping, cube, tensor_power(c5, 2))}")
mapping0 = projection_hom(v3, [2])
print(f"project C5^3 -> C5 on the last coordinate:")
print(f"  verify_finite_hom: {verify_finite_hom(mapping0, cube, c5)}")

print("\n" + "=" * 64)
print("  5. bipartite powers split into side-pattern classes")
print("=" * 64)

print("\nEvery edge of g^k joins a side pattern in {X, Y}^k to its complement,")
print("and permuting coordinates maps classes onto classes: alpha_sequence")
print("searches one class per orbit and counts it once per member.")
k2_biased = WeightedGraph([Fraction(2, 3), Fraction(1, 3)], [(0, 1)])
for name, g, n in [("P3", path_graph(3), 7), ("biased K2", k2_biased, 12)]:
    sides = bipartition(g)
    print(f"\n{name}: classes searched, their vertices / |V(g^k)|")
    for k in range(1, n + 1):
        classes = list(_pattern_classes(g.n, sides, k))
        searched = sum(mask.bit_count() for _, mask in classes)
        print(f"  k={k:<2}  {len(classes)} classes, {searched:>3} / {g.n**k}")

print("\n" + "=" * 64)
print("  6. false twins multiply along powers")
print("=" * 64)

print("\nFalse twins are non-adjacent vertices with one neighbourhood. Some optimal")
print("set takes all of a twin class or none of it, so the search merges each")
print("class into one vertex. A tuple's neighbourhood is the product of its")
print("coordinates' neighbourhoods, so the classes of g^k are the products of")
print("g's classes: P3's two classes give 2^k classes in P3^k.")
p3 = path_graph(3)
for k in range(1, 5):
    power = tensor_power(p3, k)
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(power.adj):
        classes.setdefault(row, []).append(v)
    if k == 1:
        for members in classes.values():
            print("  P3 class {" + ", ".join(p3.labels[v] for v in members) + "}")
    sizes = sorted((len(members) for members in classes.values()), reverse=True)
    print(f"  k={k}  {len(classes):>2} classes over {power.n:>3} vertices, sizes {sizes}")
