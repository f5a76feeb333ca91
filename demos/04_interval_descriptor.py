#!/usr/bin/env python3
"""Interval descriptors: the certificate that caps the limit at 1/2.

When the cover flow saturates, the edge flows tile [0, 1/2) with one
interval per flow-carrying cover edge. Mapping the tile at [a, a+f) to
the edge's X endpoint and its +1/2 shift to the Y endpoint defines a
measure-preserving homomorphism from the interval graph that pairs t
with t+1/2 (a continuum perfect matching, vertex transitive under
rotation, independence measure exactly 1/2). Its existence bounds the
limiting independence measure of every tensor power by 1/2.

The verifier re-checks the construction from scratch: exact tiling,
fiber lengths equal to cover measures, adjacent targets on every
mirror pair.
"""

from fractions import Fraction

from tensorindep import (
    IntervalHom,
    IntervalPiece,
    SaturationRequired,
    WeightedGraph,
    build_descriptor,
    check_interval_hom,
    complete_graph,
    interval_hom_to_json,
)

print("=" * 64)
print("  1. the descriptor of a single uniform edge")
print("=" * 64)

k2 = WeightedGraph([Fraction(1, 2)] * 2, [(0, 1)], ["u", "v"])
report = build_descriptor(k2)
cover = report.cover
print("\npieces (half-open intervals -> cover vertices):")
for piece in interval_hom_to_json(report.hom, cover):
    print(f"  [{piece['lo']}, {piece['hi']}) -> {piece['target']}")
print(f"certified upper bound for the power limit: {report.upper_bound}")
print(f"independent re-verification: {check_interval_hom(report.hom, cover) is None}")

print("\n" + "=" * 64)
print("  2. a triangle: fibers carry exactly the cover measures")
print("=" * 64)

k3 = complete_graph(3)
report3 = build_descriptor(k3)
fibers = {}
for piece in report3.hom.pieces:
    label = report3.cover.labels[piece.target]
    fibers[label] = fibers.get(label, Fraction(0)) + (piece.hi - piece.lo)
print()
for label, length in sorted(fibers.items()):
    print(f"  fiber over {label}: total length {length}")
print("every fiber is 1/6, the cover measure: measure preserving")

print("\n" + "=" * 64)
print("  3. tampering is caught with a diagnosis")
print("=" * 64)

pieces = list(report.hom.pieces)
shortened = IntervalHom(tuple(
    [IntervalPiece(pieces[0].lo, pieces[0].hi - Fraction(1, 8), pieces[0].target)]
    + pieces[1:]
))
print(f"\nshorten one interval: {check_interval_hom(shortened, cover)}")

swapped = IntervalHom(tuple([
    pieces[0],
    pieces[1],
    IntervalPiece(pieces[2].lo, pieces[2].hi, pieces[3].target),
    IntervalPiece(pieces[3].lo, pieces[3].hi, pieces[2].target),
]))
print(f"swap the mirror targets: {check_interval_hom(swapped, cover)}")

print("\n" + "=" * 64)
print("  4. no saturating flow, no descriptor")
print("=" * 64)

p3 = WeightedGraph([Fraction(1, 3)] * 3, [(0, 1), (1, 2)], ["u", "v", "w"])
try:
    build_descriptor(p3)
except SaturationRequired as exc:
    print(f"\nP3 uniform: {exc}")
    print("(correct: its power limit is 1, so no 1/2 certificate can exist)")
