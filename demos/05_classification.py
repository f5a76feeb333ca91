#!/usr/bin/env python3
"""End-to-end classification of the tensor power limit.

The limit of alpha(G^n) is always one of: exactly 1 (a violating
independent set exists), exactly 1/2, exactly alpha(G) (vertex
transitive under the uniform measure), or bracketed inside a certified
interval [best computed power value, 1/2]. The cascade tries the rules
in that order and attaches the evidence to the verdict.

The quantitative machinery is shown too: the majority construction that
pushes past 1/2 toward 1, and the affine recursion that lower-bounds
every power from one good independent set.
"""

from fractions import Fraction

from tensorindep import (
    WeightedGraph,
    classify,
    complete_graph,
    cycle_graph,
    iter_bits,
    lower_bound_sequence,
    majority_set_measure,
    majority_witness,
    mask_from,
    measure_of,
    tensor_power,
)


def describe(name, g, n_max):
    verdict = classify(g, n_max)
    print(f"\n{name}")
    if verdict.value is not None:
        print(f"  verdict: {verdict.kind.value} = {verdict.value}")
    else:
        print(f"  verdict: {verdict.kind.value} in [{verdict.lo}, {verdict.hi}]")
    print(f"  rule: {verdict.rule}; upper bound {verdict.upper_bound}")
    cert = verdict.certificate
    if cert.witness is not None:
        labels = ", ".join(g.labels[v] for v in iter_bits(cert.witness))
        print(f"  witness: {{{labels}}} with limit bound {cert.bound_limit}")
    if cert.alpha_terms:
        print(f"  computed powers: {', '.join(str(t) for t in cert.alpha_terms)}")


print("=" * 64)
print("  1. the five canonical verdicts")
print("=" * 64)

p3 = WeightedGraph([Fraction(1, 3)] * 3, [(0, 1), (1, 2)], ["u", "v", "w"])
describe("P3 uniform (ends outweigh middle: limit 1)", p3, 3)
describe("C4 uniform (bipartite, balanced: limit 1/2)", cycle_graph(4), 2)
describe("K2 biased 2/3 vs 1/3 (tilted matching: limit 1)",
         WeightedGraph([Fraction(2, 3), Fraction(1, 3)], [(0, 1)], ["u", "v"]), 3)
describe("K3 uniform (vertex transitive: limit 1/3)", complete_graph(3), 3)

chord = WeightedGraph([Fraction(1, 7)] * 7,
                      [(i, (i + 1) % 7) for i in range(7)] + [(0, 2)])
describe("C7 plus chord (no rule pins it: certified interval)", chord, 2)

print("\n" + "=" * 64)
print("  2. the majority construction, quantitatively")
print("=" * 64)

ends = mask_from([0, 2])
print("\nstart from I = {u,w} in P3, mu(I) = 2/3; in P3^n take every vertex")
print("with more than half its coordinates in I:")
for n in (1, 3, 5):
    print(f"  n={n}: majority measure {majority_set_measure(Fraction(2,3), n)}")
witness = majority_witness(p3, ends, 5)
power = tensor_power(p3, 5)
print(f"enumerated on P3^5 ({power.n} vertices): {measure_of(power, witness)}")
first = next(n for n in range(1, 61)
             if majority_set_measure(Fraction(2, 3), n) > Fraction(99, 100))
print(f"the tail first exceeds 99/100 at n = {first}; it tends to 1")

print("\n" + "=" * 64)
print("  3. the affine lower-bound recursion")
print("=" * 64)

g = WeightedGraph([Fraction(3, 10), Fraction(2, 10), Fraction(5, 10)],
                  [(0, 1)], ["a", "b", "c"])
bounds = lower_bound_sequence(g, mask_from([0]), 6)
print("\nedge a-b plus heavy isolated c; seed I = {a}:")
print(f"  terms: {', '.join(str(t) for t in bounds.terms)}")
print(f"  limit of the recursion: {bounds.closed_form_limit} > 1/2,")
print("  so the majority construction takes over and drives the limit to 1.")
