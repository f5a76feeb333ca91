from __future__ import annotations

import dataclasses
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorindep import (
    WeightedGraph,
    build_double_cover,
    complete_graph,
    cover_flow,
    cycle_graph,
    independent_witness_from_set,
    is_independent,
    iter_bits,
    mask_from,
    measure_of,
    neighborhood,
    star_graph,
    tensor_product,
    violating_independent_set,
)
from tensorindep.hallflow import (
    BIG,
    FlowNetwork,
    FlowResult,
    condition_network,
    max_flow,
    violating_set_from_flow,
)

from conftest import measured_graphs
from oracles import brute_violating_any, brute_violating_independent, reference_max_flow

HALF = Fraction(1, 2)


def violating_set(g):
    return violating_set_from_flow(g, cover_flow(g))


def arc_flow_map(result):
    """Each arc ``(u, v)`` of the result's network mapped to its flow as a Fraction."""
    net = result.network
    return {
        (u, v): Fraction(f, net.cover.scale) for (u, v, _), f in zip(net.arcs, result.arc_flows)
    }


def flow_is_internally_consistent(net, result):
    """Conservation, capacity bounds, and the min-cut certificate.

    Arc capacities are integers over ``net.cover.scale``; the source is
    node ``net.cover.n`` and the sink ``net.cover.n + 1``.
    """
    scale = net.cover.scale
    source, sink = net.cover.n, net.cover.n + 1
    flows = arc_flow_map(result)
    inflow = {}
    outflow = {}
    for (u, v), f in flows.items():
        cap = next(Fraction(c, scale) for (a, b, c) in net.arcs if (a, b) == (u, v))
        assert 0 <= f <= cap
        outflow[u] = outflow.get(u, Fraction(0)) + f
        inflow[v] = inflow.get(v, Fraction(0)) + f
    for node in range(net.cover.n):
        assert inflow.get(node, 0) == outflow.get(node, 0), f"node {node} leaks"
    assert outflow.get(source, 0) == result.value
    assert inflow.get(sink, 0) == result.value
    # Cut capacity equals the flow value (max-flow equals min-cut).
    cut = set(iter_bits(result.cut_source_side)) | {source}
    capacity = sum(
        Fraction(c, scale) for (u, v, c) in net.arcs if u in cut and v not in cut
    )
    assert capacity == result.value
    # The cut is the inclusion-minimal one: exactly the nodes the source
    # reaches through arcs with residual capacity, forward (cap - flow > 0)
    # or backward (flow > 0).
    reached = {source}
    frontier = [source]
    while frontier:
        node = frontier.pop()
        for u, v, c in net.arcs:
            f = flows[(u, v)]
            for a, b, residual in ((u, v, Fraction(c, scale) - f), (v, u, f)):
                if a == node and residual > 0 and b not in reached:
                    reached.add(b)
                    frontier.append(b)
    assert sink not in reached
    assert result.cut_source_side == mask_from(reached - {source})
    return True


class TestDoubleCover:
    def test_k2(self, k2):
        gp = build_double_cover(k2)
        assert gp.n == 4
        assert all(m == Fraction(1, 4) for m in gp.measures)
        assert sorted(gp.edges()) == [(0, 3), (1, 2)]
        assert gp.labels == ("(u,A)", "(v,A)", "(u,B)", "(v,B)")

    def test_k3_cover_is_a_hexagon(self, k3):
        gp = build_double_cover(k3)
        assert gp.n == 6
        assert all(m == Fraction(1, 6) for m in gp.measures)
        assert all(gp.degree(v) == 2 for v in range(6))
        # Connected 2-regular on 6 vertices: a single 6-cycle.
        seen = {0}
        frontier = {0}
        while frontier:
            frontier = {
                w for v in frontier for w in range(6) if gp.has_edge(v, w)
            } - seen
            seen |= frontier
        assert seen == set(range(6))

    def test_edgeless(self):
        g = WeightedGraph([Fraction(1, 3)] * 3, [])
        assert build_double_cover(g).edge_count() == 0

    def test_sides_partition_and_edges_cross(self, c5):
        cover = build_double_cover(c5)
        assert cover.n == 2 * c5.n
        side_a = (1 << c5.n) - 1
        for u, v in cover.edges():
            assert (side_a >> u & 1) != (side_a >> v & 1)

    def test_matches_tensor_product_with_k2(self, p3):
        k2 = WeightedGraph([HALF, HALF], [(0, 1)])
        cover = build_double_cover(p3)
        prod = tensor_product(p3, k2)
        # Cover index z / n+z corresponds to product index 2z / 2z+1.
        relabel = [2 * z for z in range(p3.n)] + [2 * z + 1 for z in range(p3.n)]
        for u in range(cover.n):
            assert cover.measures[u] == prod.measures[relabel[u]]
            for v in range(cover.n):
                assert cover.has_edge(u, v) == prod.has_edge(
                    relabel[u], relabel[v]
                )


class TestMaxFlow:
    def test_k2_saturates(self, k2):
        net = condition_network(build_double_cover(k2))
        result = max_flow(net)
        assert result.value == HALF
        flows = arc_flow_map(result)
        assert flows[(0, 3)] == Fraction(1, 4)
        assert flows[(1, 2)] == Fraction(1, 4)
        assert flow_is_internally_consistent(net, result)

    def test_p3_deficit(self, p3):
        net = condition_network(build_double_cover(p3))
        result = max_flow(net)
        assert result.value == Fraction(1, 3)
        assert flow_is_internally_consistent(net, result)

    def test_edgeless_zero(self):
        g = WeightedGraph([Fraction(1, 2), Fraction(1, 2)], [])
        assert cover_flow(g).value == 0

    def test_long_cycle_at_the_default_recursion_limit(self):
        # Augmenting paths on the cover of a long odd cycle run thousands
        # of arcs deep; the search must not recurse once per arc.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            value = cover_flow(cycle_graph(2001)).value
        finally:
            sys.setrecursionlimit(limit)
        assert value == HALF

    def test_big_capacity_is_two(self):
        assert BIG == 2

    def test_cover_flow_carries_its_cover(self, p3):
        # The network keeps only the cover and the arcs; the source, the
        # sink and the scale are the cover's.
        assert [f.name for f in dataclasses.fields(FlowNetwork)] == ["cover", "arcs"]
        assert [f.name for f in dataclasses.fields(FlowResult)] == [
            "value",
            "arc_flows",
            "cut_source_side",
            "network",
        ]
        result = cover_flow(p3)
        assert isinstance(result, FlowResult)
        assert result.network.cover == build_double_cover(p3)
        assert result.network == condition_network(result.network.cover)

    @settings(max_examples=60)
    @given(measured_graphs())
    def test_value_never_exceeds_half(self, g):
        net = condition_network(build_double_cover(g))
        result = max_flow(net)
        assert result.value <= HALF
        assert flow_is_internally_consistent(net, result)

    def test_deterministic(self, c7_chord):
        net = condition_network(build_double_cover(c7_chord))
        first = max_flow(net)
        second = max_flow(net)
        assert first.value == second.value
        assert first.arc_flows == second.arc_flows
        assert first.cut_source_side == second.cut_source_side


def planted_graph(rng: random.Random, n: int) -> WeightedGraph:
    """Sparse graph (average degree 4) with random integer weights, raised
    on a planted independent set until it outweighs its neighborhood."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < 2 * n:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    planted = blocked = 0
    for v in rng.sample(range(n), n // 10):
        if not blocked >> v & 1:
            planted |= 1 << v
            blocked |= adj[v] | 1 << v
    weights = [rng.randint(1, 4) for _ in range(n)]
    members = list(iter_bits(planted))
    around = 0
    for v in members:
        around |= adj[v]
    deficit = sum(weights[v] for v in iter_bits(around)) - sum(weights[v] for v in members)
    for i in range(deficit + 1):
        weights[members[i % len(members)]] += 1
    total = sum(weights)
    return WeightedGraph([Fraction(w, total) for w in weights], sorted(edges))


def cubic_bipartite_graph(rng: random.Random, n: int) -> WeightedGraph:
    """Uniform 3-regular bipartite graph: three disjoint random perfect
    matchings between the first and the second half of the vertices."""
    half = n // 2
    edges: set[tuple[int, int]] = set()
    while len(edges) < 3 * half:
        perm = rng.sample(range(half), half)
        matching = {(i, half + perm[i]) for i in range(half)}
        if not matching & edges:
            edges |= matching
    return WeightedGraph([Fraction(1, n)] * n, sorted(edges))


def cycle_union_graph(rng: random.Random, n: int) -> WeightedGraph:
    """Uniform 4-regular graph: the union of two edge-disjoint random
    Hamiltonian cycles."""
    edges: set[tuple[int, int]] = set()
    for _ in range(2):
        while True:
            order = rng.sample(range(n), n)
            cycle = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
            if not cycle & edges:
                edges |= cycle
                break
    return WeightedGraph([Fraction(1, n)] * n, sorted(edges))


@st.composite
def sparse_measured_graphs(draw, max_vertices: int = 40):
    """Graphs on up to ``max_vertices`` vertices with n to 2n edges drawn
    (fewer after repeats), and integer weights 0-9, some of them zero."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1))),
            min_size=n if n > 1 else 0,
            max_size=2 * n if n > 1 else 0,
        )
    )
    edges = sorted({(min(u, (u + d) % n), max(u, (u + d) % n)) for u, d in steps})
    weights = draw(
        st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    )
    total = sum(weights)
    return WeightedGraph([Fraction(w, total) for w in weights], edges)


@st.composite
def flow_networks(draw, max_inner: int = 8):
    """Networks on up to ``max_inner`` inner nodes, the source and the sink.

    Each inner node is drawn to a side: the source feeds side 0, side 1
    feeds the sink, and arcs between inner nodes are arbitrary, so a phase
    with the sink at level 3 is common and deeper ones follow. A few arcs
    run into the source or out of the sink. The arcs are distinct, in a
    drawn order, with capacities 0, 1, 2, 3 or 5.
    """
    k = draw(st.integers(min_value=1, max_value=max_inner))
    source, sink = k, k + 1
    sides = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=k, max_size=k))
    inner = st.integers(0, k - 1)
    ends = [(source, v) for v in range(k) if sides[v] == 0]
    ends += [(u, sink) for u in range(k) if sides[u] == 1]
    ends += draw(st.lists(st.tuples(inner, inner), min_size=k, max_size=3 * k))
    anywhere = st.integers(0, k + 1)
    ends += draw(
        st.lists(
            st.tuples(anywhere, st.just(source)) | st.tuples(st.just(sink), anywhere),
            max_size=3,
        )
    )
    ends = draw(st.permutations(list(dict.fromkeys(ends))))
    capacity = st.sampled_from((1, 2, 3, 5, 0))
    caps = draw(st.lists(capacity, min_size=len(ends), max_size=len(ends)))
    cover = WeightedGraph([Fraction(1, k)] * k, [])
    return FlowNetwork(cover, tuple((u, v, c) for (u, v), c in zip(ends, caps)))


class TestMatchesReference:
    """The flat-array search pushes along the same paths as the edge-list
    Dinic in ``oracles.reference_max_flow``: same value, cut and arc flows."""

    @classmethod
    def check(cls, g: WeightedGraph):
        return cls.check_network(condition_network(build_double_cover(g)))

    @staticmethod
    def check_network(net: FlowNetwork):
        result = max_flow(net)
        value, flows, cut = reference_max_flow(net)
        assert result.value == value
        assert result.cut_source_side == cut
        assert arc_flow_map(result) == flows
        assert [Fraction(f, net.cover.scale) for f in result.arc_flows] == [
            flows[(u, v)] for u, v, _ in net.arcs
        ]
        return result

    @settings(max_examples=150)
    @given(measured_graphs(max_vertices=14))
    def test_small_measured_graphs(self, g):
        self.check(g)

    def test_planted_300_vertices(self):
        g = planted_graph(random.Random(300), 300)
        assert self.check(g).value < HALF

    def test_cubic_bipartite_500_vertices(self):
        g = cubic_bipartite_graph(random.Random(500), 500)
        assert self.check(g).value == HALF

    def test_zero_measure_vertices_on_600_vertices(self):
        # Vertices of measure 0 give source and sink arcs of capacity 0,
        # which the three-level first phase must pass over.
        rng = random.Random(600)
        n = 600
        edges: set[tuple[int, int]] = set()
        while len(edges) < 3 * n // 2:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        weights = [rng.randint(0, 3) for _ in range(n)]
        assert weights.count(0) > n // 10
        total = sum(weights)
        self.check(WeightedGraph([Fraction(w, total) for w in weights], sorted(edges)))

    @pytest.mark.parametrize("g", [complete_graph(2), cycle_graph(200)], ids=["k2", "c200"])
    def test_uniform_flow_ending_in_the_first_phase(self, g):
        assert self.check(g).value == HALF

    def test_planted_800_vertices(self):
        # Later phases run deep here: the last one reaching the sink finds
        # it at level 43.
        g = planted_graph(random.Random(800), 800)
        assert self.check(g).value < HALF

    def test_cycle_union_1000_vertices(self):
        g = cycle_union_graph(random.Random(1000), 1000)
        assert self.check(g).value == HALF

    @settings(max_examples=100)
    @given(sparse_measured_graphs())
    def test_sparse_measured_graphs_up_to_40_vertices(self, g):
        self.check(g)

    @settings(max_examples=300)
    @given(flow_networks())
    def test_arbitrary_networks(self, net):
        # Neither shortcut depends on the cover's shape: a three-level
        # phase may meet arcs into the source, level-3 nodes besides the
        # sink, or a middle arc that saturates first.
        self.check_network(net)

    def test_middle_arc_saturating_first_keeps_its_head_in_the_phase(self):
        # Source 4, sink 5. The path 4, 0, 2, 5 saturates 0 -> 2 first; the
        # search goes back to 0, and node 2 stays in the level graph with
        # room into the sink, so the path 4, 1, 2, 5 comes before 4, 1, 3, 5.
        cover = WeightedGraph([Fraction(1, 4)] * 4, [])
        arcs = ((4, 0, 5), (4, 1, 5), (0, 2, 1), (1, 2, 5), (1, 3, 5), (2, 5, 5), (3, 5, 5))
        result = self.check_network(FlowNetwork(cover, arcs))
        assert result.arc_flows == (1, 5, 1, 4, 1, 5, 1)


class TestViolatingSet:
    def test_k2_uniform_none(self, k2):
        assert violating_set(k2) is None

    def test_p3(self, p3):
        q = violating_set(p3)
        assert q == mask_from([0, 2])
        assert measure_of(p3, q) == Fraction(2, 3)
        assert measure_of(p3, neighborhood(p3, q)) == Fraction(1, 3)

    def test_biased_edge(self, k2_biased):
        assert violating_set(k2_biased) == mask_from([0])

    @settings(max_examples=80)
    @given(measured_graphs())
    def test_agrees_with_brute_force(self, g):
        q = violating_set(g)
        brute = brute_violating_any(g)
        assert (q is None) == (brute is None)
        if q is not None:
            assert measure_of(g, q) > measure_of(g, neighborhood(g, q))


class TestWitnessExtraction:
    def test_only_the_isolated_vertex_survives(self):
        g = WeightedGraph(
            [Fraction(1, 2), Fraction(1, 5), Fraction(3, 10)], [(0, 1)], ["a", "b", "c"]
        )
        witness = independent_witness_from_set(g, 0b111)
        assert witness == mask_from([2])
        assert measure_of(g, neighborhood(g, witness)) == 0

    def test_already_independent_set_survives(self, p3):
        assert independent_witness_from_set(p3, mask_from([0, 2])) == mask_from([0, 2])

    def test_singleton(self, k2_biased):
        assert independent_witness_from_set(k2_biased, 1) == 1

    def test_precondition_enforced(self, k2):
        with pytest.raises(ValueError, match="outweigh"):
            independent_witness_from_set(k2, 1)


class TestViolatingIndependentSet:
    def test_p3(self, p3):
        assert violating_independent_set(p3) == mask_from([0, 2])

    def test_k2_uniform(self, k2):
        assert violating_independent_set(k2) is None
        assert brute_violating_independent(k2) is None

    def test_star(self):
        g = star_graph(3)
        assert violating_independent_set(g) == mask_from([1, 2, 3])

    @settings(max_examples=80)
    @given(measured_graphs())
    def test_three_way_agreement(self, g):
        # Flow test, arbitrary-set existence, independent-set existence:
        # all three decide the same condition.
        witness = violating_independent_set(g)
        value = cover_flow(g).value
        brute_any = brute_violating_any(g)
        brute_ind = brute_violating_independent(g)
        assert (witness is None) == (value == HALF)
        assert (brute_any is None) == (brute_ind is None)
        assert (witness is None) == (brute_ind is None)
        if witness is not None:
            assert is_independent(g, witness)
            assert measure_of(g, witness) > measure_of(g, neighborhood(g, witness))

    def test_every_vertex_zero_but_one(self):
        g = WeightedGraph([Fraction(1), Fraction(0)], [(0, 1)])
        assert violating_independent_set(g) == 1
