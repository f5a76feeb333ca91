"""Tensor (categorical) products and powers with product measures.

In the tensor product two pairs are adjacent only when both coordinate
pairs are adjacent in their factors, and the measure of a pair is the
product of the coordinate measures. Powers use a mixed-radix vertex
encoding with the most significant coordinate first, so the n-th power
of a graph on m vertices puts (c_0, ..., c_{n-1}) at index
c_0 * m^(n-1) + ... + c_{n-1}. That makes coordinate projections plain
index arithmetic and keeps every construction deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .errors import SizeCapExceeded
from .graphs import WeightedGraph, iter_bits

#: Largest vertex count a product or power will materialize.
MATERIALIZATION_CAP = 10**6


def tensor_product(g: WeightedGraph, h: WeightedGraph) -> WeightedGraph:
    """Tensor product with vertices ordered lexicographically by (g, h) index."""
    n = g.n * h.n
    if n > MATERIALIZATION_CAP:
        raise SizeCapExceeded(
            f"power too large: {n} vertices exceeds cap {MATERIALIZATION_CAP}"
        )
    labels = []
    measures = []
    adj = []
    for gi in range(g.n):
        # Bit gj of g.adj[gi] becomes a block of h.n bits at offset gj * h.n;
        # the blocks are disjoint, so the multiplication below cannot carry.
        spread = 0
        for gj in iter_bits(g.adj[gi]):
            spread |= 1 << (gj * h.n)
        g_label = g.labels[gi]
        g_measure = g.measures[gi]
        for hj in range(h.n):
            labels.append(f"({g_label},{h.labels[hj]})")
            measures.append(g_measure * h.measures[hj])
            adj.append(spread * h.adj[hj])
    return WeightedGraph._from_parts(tuple(labels), tuple(measures), tuple(adj))


@dataclass(frozen=True)
class TensorPowerView:
    """Adjacency oracle for a tensor power too large to materialize.

    Carries only the base graph and the exponent plus the mixed-radix
    codec between coordinate tuples and dense indices.
    """

    base: WeightedGraph
    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("exponent must be positive")

    @property
    def size(self) -> int:
        return self.base.n**self.exponent

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != self.exponent:
            raise ValueError(f"expected {self.exponent} coordinates, got {len(coords)}")
        index = 0
        for c in coords:
            if not 0 <= c < self.base.n:
                raise ValueError(f"coordinate {c} out of range")
            index = index * self.base.n + c
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range")
        coords = []
        for _ in range(self.exponent):
            index, c = divmod(index, self.base.n)
            coords.append(c)
        return tuple(reversed(coords))


def power_adjacent(view: TensorPowerView, a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff every coordinate pair is adjacent in the base graph."""
    if len(a) != view.exponent or len(b) != view.exponent:
        raise ValueError(f"coordinate tuples must have length {view.exponent}")
    adj = view.base.adj
    return all(adj[x] >> y & 1 for x, y in zip(a, b))


def tensor_power(g: WeightedGraph, n: int) -> WeightedGraph:
    """Iterated tensor product of ``n`` copies of ``g``; identity at n=1."""
    if n < 1:
        raise ValueError("power must be positive")
    if g.n**n > MATERIALIZATION_CAP:
        raise SizeCapExceeded(
            f"power too large: {g.n}**{n} vertices exceeds cap {MATERIALIZATION_CAP}"
        )
    if n == 1:
        return g
    power = g
    for _ in range(n - 1):
        power = tensor_product(power, g)
    # Flatten the nested product labels into one coordinate tuple; product()
    # enumerates the tuples in the same mixed-radix order as the indices.
    labels = tuple("(" + ",".join(t) + ")" for t in product(g.labels, repeat=n))
    return power.relabeled(labels)


def projection_hom(view: TensorPowerView, keep: Iterable[int]) -> list[int]:
    """Coordinate projection from the n-th power onto the power over ``keep``.

    ``keep`` must be a nonempty proper subset of the coordinate positions;
    the kept coordinates stay in increasing position order. The returned
    list maps each source index to its image index and is always a
    measure-preserving homomorphism.
    """
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("keep must be nonempty")
    if any(not 0 <= k < view.exponent for k in kept):
        raise ValueError("keep contains an invalid coordinate position")
    if len(kept) == view.exponent:
        raise ValueError("keep must be a proper subset of the coordinates")
    m = view.base.n
    mapping = []
    for coords in product(range(m), repeat=view.exponent):
        image = 0
        for k in kept:
            image = image * m + coords[k]
        mapping.append(image)
    return mapping
