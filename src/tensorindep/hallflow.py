"""Flow test for independent sets that outweigh their neighborhood.

Whether some independent set I satisfies mu(I) > mu(N(I)) is decided in
polynomial time on the bipartite double cover G' = G x K2. Side X holds
the copies (z, A), side Y the copies (z, B); a source feeds X with arc
capacities equal to the cover measures, Y drains into a sink likewise,
and every cover edge gets capacity 2. Since the cut around the source
already costs exactly 1/2, no minimum cut ever uses a capacity-2 arc,
which makes 2 an effective infinity while keeping all arithmetic
rational. The maximum flow is therefore at most 1/2, with equality
exactly when every vertex set Q satisfies mu(Q) <= mu(N(Q)); any deficit
turns the minimum cut into a violating set Q and, from it, a certified
independent witness.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import (
    WeightedGraph,
    is_independent,
    iter_bits,
    mask_from,
    measure_of,
    neighborhood,
)

#: Stand-in for infinite capacity on cover edges; any value above 1 works.
BIG = Fraction(2)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class FlowNetwork:
    """Source/sink network over the cover vertices, arcs in build order."""

    graph_nodes: int
    source: int
    sink: int
    arcs: tuple[tuple[int, int, Fraction], ...]


@dataclass(frozen=True)
class FlowResult:
    """Exact maximum flow with its canonical minimum cut.

    ``flows`` maps every arc to its flow; ``cut_source_side`` is the
    bitmask of cover vertices reachable from the source in the final
    residual network, which is the inclusion-minimal minimum cut.
    """

    value: Fraction
    flows: dict[tuple[int, int], Fraction]
    cut_source_side: int


def build_double_cover(g: WeightedGraph) -> WeightedGraph:
    """The bipartite double cover G x K2 as a graph on 2n vertices.

    Vertex (z, A) sits at index z and vertex (z, B) at index n + z, where
    n is ``g.n``, so the A side comes first and both sides follow the base
    order. (z, A) and (w, B) are adjacent exactly when z ~ w in ``g``, and
    each cover vertex carries half the measure of its base vertex.
    """
    n = g.n
    labels = tuple(f"({z},A)" for z in g.labels) + tuple(f"({z},B)" for z in g.labels)
    measures = tuple(m / 2 for m in g.measures) * 2
    # (z, A) sees the B copies of z's neighbors, and (z, B) the A copies.
    adj = tuple(m << n for m in g.adj) + g.adj
    return WeightedGraph._from_parts(labels, measures, adj)


def condition_network(cover: WeightedGraph) -> FlowNetwork:
    n = cover.n // 2
    source = cover.n
    sink = cover.n + 1
    arcs: list[tuple[int, int, Fraction]] = []
    for x in range(n):
        arcs.append((source, x, cover.measures[x]))
    for x in range(n):
        for y in iter_bits(cover.adj[x]):
            arcs.append((x, y, BIG))
    for y in range(n, cover.n):
        arcs.append((y, sink, cover.measures[y]))
    return FlowNetwork(cover.n, source, sink, tuple(arcs))


def max_flow(net: FlowNetwork) -> FlowResult:
    """Exact maximum flow via blocking flows on shortest layered networks.

    Capacities are scaled by the least common multiple of their
    denominators, the search runs on integers, and the result is scaled
    back, so termination and exactness are both guaranteed. Arc order is
    the construction order, which makes the final flow and the residual
    reachability cut deterministic.
    """
    scale = math.lcm(*(c.denominator for _, _, c in net.arcs)) if net.arcs else 1
    caps = [c.numerator * (scale // c.denominator) for _, _, c in net.arcs]
    node_count = net.graph_nodes + 2
    # Forward arc i and its reverse live at graph[u][..] entries [v, cap, rev].
    graph: list[list[list[int]]] = [[] for _ in range(node_count)]
    forward = []
    for (u, v, _), cap in zip(net.arcs, caps):
        edge = [v, cap, len(graph[v])]
        forward.append(edge)
        graph[u].append(edge)
        graph[v].append([u, 0, len(graph[u]) - 1])

    source, sink = net.source, net.sink
    level = [0] * node_count
    pointer = [0] * node_count

    def bfs() -> bool:
        for i in range(node_count):
            level[i] = -1
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v, cap, _ in graph[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level[sink] >= 0

    def augment() -> int:
        # Depth-first search for one source-sink path in the level graph,
        # kept as an explicit list of arcs so long covers need no deep
        # recursion. A dead end retreats one arc and moves the parent's
        # pointer past it; arcs on the found path keep their pointers.
        path: list[list[int]] = []
        u = source
        while u != sink:
            edges = graph[u]
            while pointer[u] < len(edges):
                edge = edges[pointer[u]]
                if edge[1] > 0 and level[edge[0]] == level[u] + 1:
                    path.append(edge)
                    u = edge[0]
                    break
                pointer[u] += 1
            else:
                if not path:
                    return 0
                path.pop()
                u = path[-1][0] if path else source
                pointer[u] += 1
        pushed = min(edge[1] for edge in path)
        for edge in path:
            edge[1] -= pushed
            graph[edge[0]][edge[2]][1] += pushed
        return pushed

    total = 0
    while bfs():
        for i in range(node_count):
            pointer[i] = 0
        while True:
            pushed = augment()
            if pushed == 0:
                break
            total += pushed

    flows = {
        (u, v): Fraction(cap - edge[1], scale)
        for (u, v, _), cap, edge in zip(net.arcs, caps, forward)
    }
    # The last bfs() failed to reach the sink, so it leveled exactly the
    # vertices reachable from the source in the final residual network.
    cut = mask_from(v for v in range(net.graph_nodes) if level[v] >= 0)
    return FlowResult(Fraction(total, scale), flows, cut)


def cover_flow(g: WeightedGraph) -> tuple[WeightedGraph, FlowResult]:
    """The double cover of ``g`` and the maximum flow on its network."""
    cover = build_double_cover(g)
    return cover, max_flow(condition_network(cover))


def violating_set_from_flow(g: WeightedGraph, result: FlowResult) -> Optional[int]:
    """A set Q with mu(Q) > mu(N(Q)) read off the cover flow, or None.

    None is returned exactly when the cover network's maximum flow is
    1/2. Otherwise Q is read off the minimum cut: the X-side vertices on
    the source side have all their cover neighbors inside the cut, so
    their base projection outweighs its neighborhood.
    """
    if result.value == HALF:
        return None
    if result.value > HALF:
        raise AssertionError(f"maximum flow {result.value} exceeds 1/2")
    q = result.cut_source_side & g.full_mask
    if measure_of(g, q) <= measure_of(g, neighborhood(g, q)):
        raise AssertionError("cut projection failed to outweigh its neighborhood")
    return q


def violating_set(g: WeightedGraph) -> Optional[int]:
    """A set Q with mu(Q) > mu(N(Q)), or None when no such set exists."""
    return violating_set_from_flow(g, cover_flow(g)[1])


def independent_witness_from_set(g: WeightedGraph, q: int) -> int:
    """Shrink a violating set to a certified independent one.

    Keeps the vertices of ``q`` with no neighbor inside ``q``. Given
    mu(q) > mu(N(q)), the result is nonempty, independent, and still
    outweighs its own neighborhood; all three facts are re-checked here
    in exact arithmetic rather than assumed.
    """
    if measure_of(g, q) <= measure_of(g, neighborhood(g, q)):
        raise ValueError("set does not outweigh its neighborhood")
    witness = mask_from(v for v in iter_bits(q) if not g.adj[v] & q)
    if witness == 0:
        raise AssertionError("extraction produced an empty witness")
    if not is_independent(g, witness):
        raise AssertionError("extraction produced a dependent witness")
    if measure_of(g, witness) <= measure_of(g, neighborhood(g, witness)):
        raise AssertionError("witness lost the strict measure inequality")
    return witness


def violating_independent_set(g: WeightedGraph) -> Optional[int]:
    """Certified independent I with mu(I) > mu(N(I)), or None if none exists."""
    q = violating_set(g)
    if q is None:
        return None
    return independent_witness_from_set(g, q)
