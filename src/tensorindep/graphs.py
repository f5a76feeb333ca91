"""Finite graphs carrying an exact probability measure on their vertices.

Vertices are dense 0-based indices. Vertex subsets are plain ``int``
bitmasks (bit ``v`` set means vertex ``v`` is in the set), which keeps
neighborhood and independence checks down to a few word operations.
A graph stores its measure once, as integer ``weights`` over one common
denominator ``scale``: the least one, so ``scale == sum(weights)``. Every
layer computes on those integers, and strict comparisons such as "this
set outweighs its neighborhood" are decided exactly; no float ever enters
the arithmetic. ``measures`` is the same measure as
:class:`fractions.Fraction` values, for display and for callers. This
module owns the p/q text of a rational both ways: an outside value
becomes a ``Fraction`` only in ``_rational``, which refuses exponents,
floats and bools, and ``_frac_str`` writes the p/q text that reports
carry. It also reads outside counts: ``_positive_int`` reads the
exponent of every power. Graphs are frozen dataclasses, so they can be
copied and pickled.

Graph walks are written once, as two private helpers on raw adjacency
rows: ``_reach`` is the union of the rows of a vertex set, and ``_walk``
yields the breadth-first layers of a component as bitmasks, each with
the union of its rows, so an edge inside a layer costs one AND to see.
Neighborhoods, independence, bipartitions, and the search's components
and odd cycles all read off them. The automorphism search behind the
vertex-transitivity check is one loop over a stack.
"""

from __future__ import annotations

import math
import operator
import re
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import SizeCapExceeded

#: Largest vertex count for which the automorphism-transitivity check runs.
TRANSITIVITY_CAP = 16


def _rational(value) -> Fraction:
    """``value`` as a ``Fraction``: a ``Fraction``, an ``int``, or text.

    Text is p/q, an integer or a plain decimal. ``Fraction("1e-2000000")``
    would first spell out a 2,000,001-digit integer, so exponents are
    refused. A float or a bool raises ``ValueError`` like any other value
    that is no exact rational: ``0.1`` would enter as its binary fraction
    and ``True`` as 1, and JSON reads ``1e400`` as a float infinity.
    """
    if isinstance(value, str) and re.search(r"[0-9.][eE]", value):
        raise ValueError(f"exponent notation in {reprlib.repr(value)} rejected; write p/q")
    if isinstance(value, (str, int, Fraction)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"invalid rational {reprlib.repr(value)}")


def _positive_int(value, name: str) -> int:
    """``value`` by ``operator.index`` (2.5 raises ``TypeError``), refused below 1."""
    value = operator.index(value)
    if value < 1:
        raise ValueError(f"{name} must be positive")
    return value


def _frac_str(q: Fraction) -> str:
    """``q`` as the p/q text that ``_rational`` reads back; 1 is "1/1"."""
    return f"{q.numerator}/{q.denominator}"


def _brief(q: Fraction) -> str:
    """``q`` as p/q for a message, its middle elided like ``reprlib`` when long."""
    return reprlib.repr(str(q))[1:-1]


def mask_from(indices: Iterable[int]) -> int:
    """Bitmask with the given vertex indices set."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order.

    Clearing the lowest bit copies the whole mask, so on a mask of
    thousands of bits with many of them set the loop is quadratic. A
    mask longer than 1,024 bits that still holds bits after its first 64
    have come out goes on as a walk over its binary string, which is
    linear. Short masks, and long ones with few bits set (a row of a
    large sparse graph), only ever take the loop. A negative mask raises ``ValueError``.
    """
    if mask < 0:
        raise ValueError(f"negative mask {reprlib.repr(mask)}")
    if mask.bit_length() > 1024:
        left = 64
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
            left -= 1
            if not left:
                digits = bin(mask)[:1:-1]
                i = digits.find("1")
                while i >= 0:
                    yield i
                    i = digits.find("1", i + 1)
                return
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, slots=True, init=False)
class WeightedGraph:
    """Immutable finite graph with a probability measure on its vertices.

    Construction validates the measure (nonnegative entries summing to
    exactly 1) and the edge list (no self-loops; symmetry and simplicity
    are automatic because adjacency is stored as one bitmask per vertex).
    Labels are cosmetic and never affect any computation.

    The measure of vertex v is ``weights[v] / scale``, ``scale`` being the
    least common denominator of the measures. As they sum to 1, ``scale``
    equals ``sum(weights)`` and the weights have no common factor, so equal
    measures always come as equal ``(weights, scale)``. Text measures go
    through ``_rational``; graphs can be copied and pickled.
    """

    labels: tuple[str, ...]
    weights: tuple[int, ...]
    scale: int
    adj: tuple[int, ...]
    _measures: Optional[tuple[Fraction, ...]] = field(compare=False)

    def __init__(
        self,
        measures: Sequence[Fraction | int | str],
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ):
        measures = tuple(map(_rational, measures))
        n = len(measures)
        if n == 0:
            raise ValueError("a graph needs at least one vertex to carry a probability measure")
        if labels is None:
            labels = tuple(f"v{i}" for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for {n} vertices")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at {reprlib.repr(labels[u])} rejected")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        for i, m in enumerate(measures):
            if m < 0:
                raise ValueError(f"vertex {i} has negative measure {_brief(m)}")
        weights, scale = _integer_measures(measures)
        if sum(weights) != scale:
            raise ValueError(f"measures sum to {_brief(sum(measures))}, expected 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "_measures", measures)

    @classmethod
    def _from_parts(
        cls,
        labels: tuple[str, ...],
        weights: tuple[int, ...],
        scale: int,
        adj: tuple[int, ...],
    ) -> "WeightedGraph":
        # Internal fast path for already-validated parts (products, covers):
        # ``scale`` must be the least denominator, so equal to sum(weights).
        g = object.__new__(cls)
        object.__setattr__(g, "labels", labels)
        object.__setattr__(g, "weights", weights)
        object.__setattr__(g, "scale", scale)
        object.__setattr__(g, "adj", adj)
        object.__setattr__(g, "_measures", None)
        return g

    @property
    def measures(self) -> tuple[Fraction, ...]:
        """The measure of each vertex as a ``Fraction``, built on first read."""
        if self._measures is None:
            # One Fraction per distinct value, shared by every vertex that carries it.
            fraction = {w: Fraction(w, self.scale) for w in set(self.weights)}
            object.__setattr__(
                self, "_measures", tuple(map(fraction.__getitem__, self.weights))
            )
        return self._measures

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v, sorted."""
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def relabeled(self, labels: Sequence[str]) -> "WeightedGraph":
        labels = tuple(str(x) for x in labels)
        if len(labels) != self.n:
            raise ValueError(f"{len(labels)} labels for {self.n} vertices")
        return WeightedGraph._from_parts(labels, self.weights, self.scale, self.adj)

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={self.edge_count()})"


def _reach(adj: Sequence[int], mask: int) -> int:
    """Union of the rows ``adj[v]`` of the vertices v of ``mask``."""
    out = 0
    for v in iter_bits(mask):
        out |= adj[v]
    return out


def _walk(adj: Sequence[int], mask: int, start: int) -> Iterator[tuple[int, int]]:
    """Breadth-first layers of the component of ``mask`` holding the bit ``start``.

    Yields (layer, reach) pairs, the layer a bitmask and reach
    ``_reach(adj, layer)``, the first layer being ``start`` alone. As
    rows are symmetric, ``reach & layer`` is the set of the layer's
    vertices with a neighbour inside it, nonzero exactly when an edge
    lies inside the layer; some layer has one exactly when the component
    has an odd cycle.
    """
    seen = layer = start
    while layer:
        reach = _reach(adj, layer)
        yield layer, reach
        layer = reach & mask & ~seen
        seen |= layer


def _check_subset(g: WeightedGraph, s: int) -> None:
    if s < 0 or s & ~g.full_mask:
        raise ValueError(f"vertex set {bin(s)} not within the {g.n}-vertex range")


def neighborhood(g: WeightedGraph, s: int) -> int:
    """N(s): every vertex adjacent to at least one vertex of ``s``.

    The result may intersect ``s`` itself.
    """
    _check_subset(g, s)
    return _reach(g.adj, s)


def measure_of(g: WeightedGraph, s: int) -> Fraction:
    """Exact total measure of the vertex set ``s``."""
    _check_subset(g, s)
    weights = g.weights
    return Fraction(sum([weights[v] for v in iter_bits(s)]), g.scale)


def _integer_measures(measures: Sequence[Fraction]) -> tuple[list[int], int]:
    """``measures`` as integer numerators over their least common denominator."""
    ratios = [m.as_integer_ratio() for m in measures]
    den = math.lcm(*{d for _, d in ratios})
    return [n * (den // d) for n, d in ratios], den


def is_independent(g: WeightedGraph, s: int) -> bool:
    """True iff no edge of ``g`` has both endpoints in ``s``."""
    _check_subset(g, s)
    return not _reach(g.adj, s) & s


def _layers(g: WeightedGraph) -> Iterator[tuple[int, int, int]]:
    """Yield (depth, layer, reach) for the breadth-first layers of ``g``.

    Each component is walked by ``_walk`` from its lowest vertex, at
    depth 0, and the components come in the order of their lowest
    vertices.
    """
    left = g.full_mask
    while left:
        for depth, (layer, reach) in enumerate(_walk(g.adj, left, left & -left)):
            left ^= layer
            yield depth, layer, reach


def bipartition(g: WeightedGraph) -> Optional[tuple[int, int]]:
    """Two-color ``g`` by its breadth-first layers, or None on an odd cycle.

    An edge joins two vertices of one layer exactly when the component
    has an odd cycle; otherwise side X is the even layers, so the
    lowest-indexed vertex of each component lands on X. Returns the pair
    of side masks (X, Y).
    """
    side_x = 0
    for depth, layer, reach in _layers(g):
        if reach & layer:
            return None
        if depth % 2 == 0:
            side_x |= layer
    return side_x, g.full_mask ^ side_x


def _uniform(g: WeightedGraph) -> bool:
    return len(set(g.weights)) == 1


def _automorphism_onto(g: WeightedGraph, order: list[int], target: int) -> bool:
    """Is there a graph automorphism sending ``order[0]`` to ``target``?

    Depth first over (images, untried): the images of a prefix of
    ``order``, and the mask of images not yet tried for the next vertex,
    which takes one of them at a time. An image keeps the vertex's degree
    and its adjacency to every vertex already mapped.
    """
    adj = g.adj
    of_degree: dict[int, int] = {}
    for w, row in enumerate(adj):
        d = row.bit_count()
        of_degree[d] = of_degree.get(d, 0) | 1 << w
    stack = [((), of_degree[adj[order[0]].bit_count()] & 1 << target)]
    while stack:
        images, untried = stack.pop()
        if not untried:
            continue
        low = untried & -untried
        stack.append((images, untried ^ low))
        images += (low.bit_length() - 1,)
        if len(images) == len(order):
            return True
        v = order[len(images)]
        cand = of_degree[adj[v].bit_count()]
        for u, w in zip(order, images):
            cand &= adj[w] if adj[v] >> u & 1 else ~(adj[w] | 1 << w)
        stack.append((images, cand))
    return False


def is_vertex_transitive_uniform(g: WeightedGraph) -> Optional[bool]:
    """Decide vertex transitivity for a uniform-measure graph.

    For a finite graph under the uniform measure, the measured notion of
    vertex transitivity coincides with the automorphism group acting
    transitively on vertices, which is what this checks. Non-uniform
    measures admit no finite verification procedure, so the answer there
    is None rather than a guess. The automorphism search assigns the
    vertices layer by layer, so each new image is constrained by as many
    earlier ones as possible.
    """
    if not _uniform(g):
        return None
    if g.n > TRANSITIVITY_CAP:
        raise SizeCapExceeded(
            f"transitivity check too large: {g.n} vertices exceeds cap {TRANSITIVITY_CAP}"
        )
    order = [v for _, layer, _ in _layers(g) for v in iter_bits(layer)]
    return all(_automorphism_onto(g, order, w) for w in range(1, g.n))


# Named families used throughout the tests and demos.

def uniform_measures(n: int) -> list[Fraction]:
    return [Fraction(1, n)] * n


def path_graph(n: int) -> WeightedGraph:
    return WeightedGraph(uniform_measures(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> WeightedGraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return WeightedGraph(uniform_measures(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> WeightedGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return WeightedGraph(uniform_measures(n), edges)


def star_graph(leaves: int) -> WeightedGraph:
    """Star with the center at index 0 and ``leaves`` leaves."""
    n = leaves + 1
    return WeightedGraph(uniform_measures(n), [(0, i) for i in range(1, n)])
