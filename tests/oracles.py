"""Independent brute-force oracles the implementation is checked against.

Everything here enumerates, in the most literal way possible, the object
the optimized code computes cleverly. None of it imports the search,
flow, or descriptor internals, only the elementary set operations.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations, permutations, product

from tensorindep import (
    WeightedGraph,
    is_independent,
    mask_from,
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


def brute_reach(adj: Sequence[int], mask: int) -> int:
    """Every vertex adjacent to some vertex of ``mask``, one pair at a time."""
    n = len(adj)
    return mask_from(
        u for v in range(n) if mask >> v & 1 for u in range(n) if adj[v] >> u & 1
    )


def brute_distance_classes(adj: Sequence[int], mask: int, start: int) -> list[int]:
    """The vertices of ``mask`` at distance 0, 1, 2, ... from ``start`` inside it.

    A queue-based breadth-first search over single vertices, one mask per
    distance; the classes together are the component of ``start``.
    """
    distance = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in range(len(adj)):
            if mask >> v & 1 and adj[u] >> v & 1 and v not in distance:
                distance[v] = distance[u] + 1
                queue.append(v)
    classes = [0] * (max(distance.values()) + 1)
    for v, d in distance.items():
        classes[d] |= 1 << v
    return classes


def brute_two_colourable(adj: Sequence[int], comp: int) -> bool:
    """Whether some split of ``comp`` into two sides leaves no edge inside a side.

    Tries every split, up to swapping the sides: the lowest vertex stays
    off ``side``, and every other vertex is on it or not.
    """
    members = [v for v in range(len(adj)) if comp >> v & 1]
    for bits in range(1 << (len(members) - 1)):
        side = mask_from(v for i, v in enumerate(members[1:]) if bits >> i & 1)
        if not any(
            adj[u] >> v & 1
            for u, v in combinations(members, 2)
            if (side >> u & 1) == (side >> v & 1)
        ):
            return True
    return False


def reference_power_rows(adj: list[int], k: int) -> list[int]:
    """Rows of the k-th tensor power of the graph with rows ``adj``.

    Straight from the definition: the row of (c_0, ..., c_{k-1}) has a
    bit for every tuple (d_0, ..., d_{k-1}) with each d_i a neighbour of
    c_i, at the mixed-radix index of that tuple.
    """
    m = len(adj)
    neighbours = [[d for d in range(m) if adj[c] >> d & 1] for c in range(m)]
    rows = []
    for coords in product(range(m), repeat=k):
        row = 0
        for image in product(*(neighbours[c] for c in coords)):
            index = 0
            for d in image:
                index = index * m + d
            row |= 1 << index
        rows.append(row)
    return rows


def brute_majority_set(g: WeightedGraph, independent: int, n: int) -> int:
    """Vertices of g^n with strictly more than half their coordinates in the set.

    One coordinate tuple at a time; ``product`` enumerates the tuples in
    the power's index order.
    """
    member = [independent >> c & 1 for c in range(g.n)]
    witness = 0
    for index, hits in enumerate(product(member, repeat=n)):
        if 2 * sum(hits) > n:
            witness |= 1 << index
    return witness


def brute_vertex_transitive(g: WeightedGraph) -> bool:
    """Whether the orbit of vertex 0 under all n! permutations is every vertex.

    A permutation that sends each edge to an edge is an automorphism, as
    it is a bijection on the finite edge set.
    """
    edges = set(g.edges())
    orbit = {0}
    for perm in permutations(range(g.n)):
        if perm[0] not in orbit and all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges
        ):
            orbit.add(perm[0])
    return len(orbit) == g.n


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


def walk_cases(rng: random.Random):
    """Seeded (graph, mask) pairs for the graph walks, on up to 12 vertices.

    Sparse graphs give isolated vertices and empty rows, and random masks
    split a graph into several components; the full mask comes too.
    """
    for _ in range(60):
        g = random_measured_graph(rng, 12, density=rng.choice([0.1, 0.25, 0.5]))
        for mask in [rng.getrandbits(g.n) for _ in range(4)] + [g.full_mask]:
            yield g, mask


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


def reference_max_flow(net) -> tuple[Fraction, dict[tuple[int, int], Fraction], int]:
    """Blocking-flow Dinic on lists of edge lists: (value, flows, cut).

    A straightforward layout of the algorithm ``hallflow.max_flow`` runs:
    every node keeps ``[head, residual, reverse index]`` edge lists in arc
    order, each breadth-first search levels the whole residual network,
    and each augmenting path is searched again from the source. ``flows``
    maps every arc ``(u, v)`` of ``net.arcs`` to its flow and ``cut`` is
    the bitmask of cover vertices (the nodes below ``net.cover.n``) that
    the source reaches in the final residual network. The source is node
    ``net.cover.n`` and the sink ``net.cover.n + 1``. The optimized search
    must return the same value, the same flow on every arc and the same
    cut. The equality checks each shortcut ``max_flow`` takes over this
    layout: its breadth-first search stops at the sink; a phase with the
    sink at level 3 runs as three nested scans; a deeper phase drops the
    nodes that cannot reach the sink before its path search; and after a
    push the path search resumes at the first saturated arc, not at the
    source.
    """
    scale = net.cover.scale
    caps = [c for _, _, c in net.arcs]
    source, sink = net.cover.n, net.cover.n + 1
    node_count = sink + 1
    # Forward arc i and its reverse live at graph[u][..] entries [v, cap, rev].
    graph: list[list[list[int]]] = [[] for _ in range(node_count)]
    forward = []
    for (u, v, _), cap in zip(net.arcs, caps):
        edge = [v, cap, len(graph[v])]
        forward.append(edge)
        graph[u].append(edge)
        graph[v].append([u, 0, len(graph[u]) - 1])

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
    cut = mask_from(v for v in range(net.cover.n) if level[v] >= 0)
    return Fraction(total, scale), flows, cut
