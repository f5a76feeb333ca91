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
independent witness. The network carries every capacity as an integer
over the cover's ``scale``, so the flow runs on integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .graphs import (
    WeightedGraph,
    is_independent,
    iter_bits,
    mask_from,
    measure_of,
    neighborhood,
)

#: Stand-in for infinite capacity on cover edges; any value above 1 works.
BIG = 2

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class FlowNetwork:
    """Source/sink network over the vertices of ``cover``, arcs in build order.

    The cover's vertices are the first ``cover.n`` nodes, the source is
    node ``cover.n`` and the sink node ``cover.n + 1``. Each arc is
    ``(u, v, capacity)``, the capacity an integer number of units of
    ``1 / cover.scale``.
    """

    cover: WeightedGraph
    arcs: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class FlowResult:
    """Exact maximum flow with its canonical minimum cut, and its network.

    The flow on arc i of ``network.arcs`` is ``arc_flows[i]`` units of
    ``1 / network.cover.scale``, the one common denominator the search
    ran on. ``cut_source_side`` is the bitmask of cover vertices reachable
    from the source in the final residual network, which is the
    inclusion-minimal minimum cut. ``network.cover`` is the double cover
    the flow ran on, so a flow carries its cover wherever it goes.
    """

    value: Fraction
    arc_flows: tuple[int, ...]
    cut_source_side: int
    network: FlowNetwork = field(repr=False, compare=False)


def build_double_cover(g: WeightedGraph) -> WeightedGraph:
    """The bipartite double cover G x K2 as a graph on 2n vertices.

    Vertex (z, A) sits at index z and vertex (z, B) at index n + z, where
    n is ``g.n``, so the A side comes first and both sides follow the base
    order. (z, A) and (w, B) are adjacent exactly when z ~ w in ``g``, and
    each cover vertex carries half the measure of its base vertex.
    """
    n = g.n
    labels = tuple(f"({z},A)" for z in g.labels) + tuple(f"({z},B)" for z in g.labels)
    # (z, A) sees the B copies of z's neighbors, and (z, B) the A copies.
    adj = tuple(m << n for m in g.adj) + g.adj
    return WeightedGraph._from_parts(labels, g.weights * 2, 2 * g.scale, adj)


def condition_network(cover: WeightedGraph) -> FlowNetwork:
    """The source/sink network of the double cover, arcs in a fixed order.

    Nodes are the cover vertices, then the source at ``cover.n`` and the
    sink at ``cover.n + 1``. The arcs come in three runs: source to each
    A-side vertex x with capacity mu'(x), in vertex order; every cover
    edge from x to its B-side neighbors y with capacity ``BIG``, x in
    vertex order and y increasing; each B-side vertex y to the sink with
    capacity mu'(y), in vertex order. ``max_flow`` takes its augmenting
    paths, and so its flow and cut, from this order, and
    ``_cover_edge_flows`` hands out the middle run's nonzero flows in it.
    Capacities are integers over ``cover.scale``: the cover's weights, and
    ``BIG`` times the scale.
    """
    n = cover.n // 2
    source = cover.n
    sink = cover.n + 1
    weights = cover.weights
    big = BIG * cover.scale
    arcs: list[tuple[int, int, int]] = []
    for x in range(n):
        arcs.append((source, x, weights[x]))
    for x in range(n):
        for y in iter_bits(cover.adj[x]):
            arcs.append((x, y, big))
    for y in range(n, cover.n):
        arcs.append((y, sink, weights[y]))
    return FlowNetwork(cover, tuple(arcs))


def max_flow(net: FlowNetwork) -> FlowResult:
    """Exact maximum flow via blocking flows on shortest layered networks.

    Capacities are integers over ``net.cover.scale``, so the search runs on
    integers, stays exact and returns its flows over the same scale. Arcs
    live in flat lists: arc 2i is arc i of ``net.arcs`` and arc 2i + 1 its
    reverse, so the reverse of arc a is a ^ 1, and each node lists its arc
    ids in construction order. That order fixes the augmenting paths,
    which makes the final flow and the residual reachability cut
    deterministic.

    Each breadth-first search stops once it labels the sink. Every node
    of a lower level is labeled by then; a node it leaves unlabeled is
    unreachable or lies at the sink's level or deeper, where the level
    graph cannot reach the sink, so the path search would only have met
    dead ends there. The paths and the amounts pushed are the same as
    with a full search. The last search fails to reach the sink and so
    runs in full: the nodes it labels are exactly those reachable in the
    final residual network, and they form the cut.

    Two shortcuts keep those paths and amounts too. When the sink sits at
    level 3, every path is source, a, b, sink, and the depth-first search
    is three nested scans: the source's arcs in order, a's arcs from a's
    pointer, and b's arcs from b's pointer for an arc into the sink. A
    level-3 node other than the sink has no level-4 neighbor, so an arc
    into it only leads the full search to a dead end and a pointer step.
    The scans push along the same paths, resume after the same first
    saturated arc, and drop a or b when its scan runs out, as the full
    search does. On a deeper level graph, one backward pass from the sink
    over residual arcs first keeps the nodes that reach the sink in the
    level graph, and every other node leaves it. The search would only
    have entered such a node to meet a dead end, retreat and move the
    parent's pointer past it. A push never opens an arc of the level
    graph, so within a phase no node comes to reach the sink that did not
    reach it when the phase began.
    """
    arcs = net.arcs
    source, sink = net.cover.n, net.cover.n + 1
    node_count = sink + 1
    cap = [0] * (2 * len(arcs))
    cap[::2] = [c for _, _, c in arcs]
    head = [0] * (2 * len(arcs))
    head[::2] = [v for _, v, _ in arcs]
    head[1::2] = [u for u, _, _ in arcs]
    out: list[list[int]] = [[] for _ in range(node_count)]
    for a, (u, v, _) in enumerate(arcs):
        out[u].append(2 * a)
        out[v].append(2 * a + 1)

    def bfs() -> tuple[list[int], list[int]]:
        # Levels from the source, and the nodes labeled in order.
        level = [-1] * node_count
        level[source] = 0
        reached = [source]
        for u in reached:
            next_level = level[u] + 1
            for a in out[u]:
                if cap[a]:
                    v = head[a]
                    if level[v] < 0:
                        level[v] = next_level
                        if v == sink:
                            return level, reached
                        reached.append(v)
        return level, reached

    def sink_reaching(level: list[int]) -> list[int]:
        # The levels of the nodes that reach the sink in the level graph,
        # and -1 for every other node: a backward pass from the sink that
        # keeps u for a kept v when the residual arc u -> v climbs a level.
        kept = [-1] * node_count
        kept[sink] = level[sink]
        frontier = [sink]
        for v in frontier:
            below = kept[v] - 1
            for a in out[v]:
                u = head[a]
                if level[u] == below and kept[u] < 0 and cap[a ^ 1]:
                    kept[u] = below
                    frontier.append(u)
        return kept

    def three_level_flow(level: list[int]) -> int:
        # The blocking flow when the sink is at level 3, as nested scans.
        # A push resumes at the tail of the first arc it saturated: the
        # source, a or b, whose scan goes on past that arc.
        pointer = [0] * node_count
        pushed_total = 0
        for sa in out[source]:
            room = cap[sa]
            a = head[sa]
            if not room or level[a] != 1:
                continue
            arcs_a = out[a]
            end_a = len(arcs_a)
            p = pointer[a]
            while p < end_a:
                ab = arcs_a[p]
                b = head[ab]
                if cap[ab] and level[b] == 2:
                    arcs_b = out[b]
                    end_b = len(arcs_b)
                    q = pointer[b]
                    while q < end_b:
                        bt = arcs_b[q]
                        if head[bt] == sink and cap[bt]:
                            pushed = min(room, cap[ab], cap[bt])
                            room -= pushed
                            cap[sa] = room
                            cap[sa ^ 1] += pushed
                            cap[ab] -= pushed
                            cap[ab ^ 1] += pushed
                            cap[bt] -= pushed
                            cap[bt ^ 1] += pushed
                            pushed_total += pushed
                            if not room or not cap[ab]:
                                break
                        q += 1
                    pointer[b] = q
                    if q == end_b:
                        level[b] = -1
                    elif not room:
                        break
                p += 1
            pointer[a] = p
            if p == end_a:
                level[a] = -1
        return pushed_total

    def blocking_flow(level: list[int]) -> int:
        # Depth-first search for source-sink paths in the level graph,
        # kept as an explicit list of arcs so long covers need no deep
        # recursion. A dead end retreats one arc, moves the parent's
        # pointer past it and drops out of the level graph, so no later
        # path enters it again. Arcs on a found path keep their pointers.
        # After a push the search resumes at the tail of the first arc it
        # saturated: a restart from the source would walk the unsaturated
        # prefix of the path again, arc for arc.
        pointer = [0] * node_count
        pushed_total = 0
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                pushed = min([cap[a] for a in path])
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                pushed_total += pushed
                for i, a in enumerate(path):
                    if not cap[a]:
                        del path[i:]
                        break
                u = head[path[-1]] if path else source
                continue
            arcs_u = out[u]
            p = pointer[u]
            end = len(arcs_u)
            next_level = level[u] + 1
            while p < end:
                a = arcs_u[p]
                if cap[a] and level[head[a]] == next_level:
                    break
                p += 1
            pointer[u] = p
            if p < end:
                path.append(a)
                u = head[a]
            elif path:
                level[u] = -1
                path.pop()
                u = head[path[-1]] if path else source
                pointer[u] += 1
            else:
                return pushed_total

    total = 0
    while True:
        level, reached = bfs()
        depth = level[sink]
        if depth < 0:
            break
        if depth == 3:
            total += three_level_flow(level)
        else:
            total += blocking_flow(sink_reaching(level))

    # The last bfs() failed to reach the sink, so it labeled exactly the
    # nodes reachable from the source in the final residual network.
    cut = mask_from(reached[1:])
    # The reverse of arc i starts empty and holds exactly its flow.
    return FlowResult(Fraction(total, net.cover.scale), tuple(cap[1::2]), cut, net)


def _cover_edge_flows(result: FlowResult) -> Iterator[tuple[int, int, int]]:
    """(x, y, flow) for each cover edge x-y that carries flow, in arc order.

    The flow is a positive integer number of units of ``1 / cover.scale``;
    edges with no flow are skipped. The cover edges are the middle run of
    ``condition_network``'s arcs, after one source arc and before one
    sink arc per cover vertex of a side.
    """
    side = result.network.cover.n // 2
    middle = slice(side, len(result.arc_flows) - side)
    for (x, y, _), f in zip(result.network.arcs[middle], result.arc_flows[middle]):
        if f:
            yield x, y, f


def cover_flow(g: WeightedGraph) -> FlowResult:
    """The maximum flow on the condition network of ``g``'s double cover.

    The one place that builds a cover, its network and its flow; the
    cover is ``result.network.cover``.
    """
    return max_flow(condition_network(build_double_cover(g)))


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


def independent_witness_from_set(g: WeightedGraph, q: int) -> int:
    """Shrink a violating set to a certified independent one.

    Keeps the vertices of ``q`` with no neighbor inside ``q``, which are
    those outside N(q). Given mu(q) > mu(N(q)), the result is nonempty,
    independent, and still outweighs its own neighborhood; all three
    facts are re-checked here in exact arithmetic rather than assumed.
    """
    neighbors = neighborhood(g, q)
    if measure_of(g, q) <= measure_of(g, neighbors):
        raise ValueError("set does not outweigh its neighborhood")
    witness = q & ~neighbors
    if witness == 0:
        raise AssertionError("extraction produced an empty witness")
    if not is_independent(g, witness):
        raise AssertionError("extraction produced a dependent witness")
    if measure_of(g, witness) <= measure_of(g, neighborhood(g, witness)):
        raise AssertionError("witness lost the strict measure inequality")
    return witness


def violating_independent_set(g: WeightedGraph) -> Optional[int]:
    """Certified independent I with mu(I) > mu(N(I)), or None if none exists."""
    q = violating_set_from_flow(g, cover_flow(g))
    if q is None:
        return None
    return independent_witness_from_set(g, q)
