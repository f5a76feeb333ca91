from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorindep import tensor
from tensorindep import (
    SizeCapExceeded,
    TensorPowerView,
    WeightedGraph,
    alpha_sequence,
    complete_graph,
    cycle_graph,
    is_independent,
    mask_from,
    measure_of,
    path_graph,
    power_adjacent,
    projection_hom,
    tensor_power,
    tensor_product,
    verify_finite_hom,
)

from conftest import measured_graphs
from oracles import brute_alpha, reference_power_rows


def _assert_pairwise_product(g: WeightedGraph, h: WeightedGraph) -> None:
    """tensor_product(g, h) against the definition, one vertex pair at a time."""
    prod = tensor_product(g, h)
    assert prod.labels == tuple(f"({a},{b})" for a in g.labels for b in h.labels)
    for gi, hj in product(range(g.n), range(h.n)):
        u = gi * h.n + hj
        assert prod.measures[u] == g.measures[gi] * h.measures[hj]
        row = 0
        for gk, hl in product(range(g.n), range(h.n)):
            if g.has_edge(gi, gk) and h.has_edge(hj, hl):
                row |= 1 << (gk * h.n + hl)
        assert prod.adj[u] == row


def _weighted(weights: list[int], edges: list[tuple[int, int]]) -> WeightedGraph:
    total = sum(weights)
    return WeightedGraph([Fraction(w, total) for w in weights], edges)


# Bases for each way a row of the smaller factor is built: a zero row, twins
# with equal rows, rows that are shifts of one another, shapes of 3 bits.
SHARED_ROW_BASES = {
    "isolated vertex": _weighted([1, 2, 0, 3], [(0, 1), (1, 2)]),
    "P3": _weighted([2, 1, 2], [(0, 1), (1, 2)]),
    "K2,3": _weighted([1, 1, 2, 0, 3], [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
    "star": _weighted([3, 1, 1, 2, 1], [(0, leaf) for leaf in range(1, 5)]),
    "K3": complete_graph(3),
    "C5": _weighted([1, 2, 3, 4, 5], [(i, (i + 1) % 5) for i in range(5)]),
    "C7": cycle_graph(7),
    "K4": _weighted([1, 0, 2, 1], list(combinations(range(4), 2))),
}


@pytest.mark.parametrize("name", sorted(SHARED_ROW_BASES))
def test_power_rows_match_the_definition(name):
    g = SHARED_ROW_BASES[name]
    for k in range(1, 5):
        power = tensor_power(g, k)
        assert list(power.adj) == reference_power_rows(list(g.adj), k)
        for index, coords in enumerate(product(range(g.n), repeat=k)):
            expected = Fraction(1)
            for c in coords:
                expected *= g.measures[c]
            assert power.measures[index] == expected


@pytest.mark.parametrize(
    "g_name, h_name", list(combinations(sorted(SHARED_ROW_BASES), 2))
)
def test_shared_row_products_in_both_orders(g_name, h_name):
    g, h = SHARED_ROW_BASES[g_name], SHARED_ROW_BASES[h_name]
    _assert_pairwise_product(g, h)
    _assert_pairwise_product(h, g)


class TestTensorProduct:
    def test_k2_squared_is_two_disjoint_edges(self, k2):
        g = tensor_product(k2, k2)
        assert g.n == 4
        assert g.edge_count() == 2
        assert sorted(g.edges()) == [(0, 3), (1, 2)]
        assert all(m == Fraction(1, 4) for m in g.measures)

    def test_single_vertex_factor_kills_all_edges(self, p3):
        one = WeightedGraph([Fraction(1)], [])
        g = tensor_product(p3, one)
        assert g.n == 3
        assert g.edge_count() == 0
        assert g.measures == p3.measures

    def test_labels_are_pairs(self, k2):
        g = tensor_product(k2, k2)
        assert g.labels == ("(u,u)", "(u,v)", "(v,u)", "(v,v)")

    @given(measured_graphs(max_vertices=4), measured_graphs(max_vertices=4))
    def test_product_measure(self, g, h):
        prod = tensor_product(g, h)
        assert sum(prod.measures) == 1
        for gi in range(g.n):
            for hj in range(h.n):
                assert prod.measures[gi * h.n + hj] == g.measures[gi] * h.measures[hj]

    @given(measured_graphs(max_vertices=4), measured_graphs(max_vertices=4))
    def test_adjacency_definition(self, g, h):
        prod = tensor_product(g, h)
        for gi in range(g.n):
            for hj in range(h.n):
                for gk in range(g.n):
                    for hl in range(h.n):
                        expected = g.has_edge(gi, gk) and h.has_edge(hj, hl)
                        assert prod.has_edge(gi * h.n + hj, gk * h.n + hl) == expected

    @settings(max_examples=150, deadline=None)
    @given(measured_graphs(max_vertices=6), measured_graphs(max_vertices=6))
    def test_pairwise_definition_in_both_orders(self, g, h):
        # The smaller factor first and the larger factor first build the
        # rows in two different ways; both must match the definition.
        _assert_pairwise_product(g, h)
        _assert_pairwise_product(h, g)

    def test_one_vertex_and_zero_measure_factors(self, p3):
        one = WeightedGraph([Fraction(1)], [])
        zero = WeightedGraph([Fraction(0), Fraction(1), Fraction(0)], [(0, 1), (1, 2)])
        for g, h in [(one, one), (one, p3), (p3, one), (zero, p3), (p3, zero), (zero, one)]:
            _assert_pairwise_product(g, h)

    @pytest.mark.parametrize("block", range(1, 11))
    def test_larger_factor_first_for_every_block_size(self, rng, block):
        # With the larger factor first, a base row has many bits, so its
        # shape ORs in many shifted copies of h's rows, and 25 random
        # edges on 11 vertices give shapes of many lengths.
        pairs = [(i, j) for i in range(11) for j in range(i + 1, 11)]
        g = WeightedGraph([Fraction(1, 11)] * 11, rng.sample(pairs, 25))
        h = path_graph(block) if block < 3 else cycle_graph(block)
        _assert_pairwise_product(g, h)

    @given(measured_graphs(max_vertices=4), measured_graphs(max_vertices=4))
    def test_commutative_up_to_coordinate_swap(self, g, h):
        gh = tensor_product(g, h)
        hg = tensor_product(h, g)
        swap = [ (i % h.n) * g.n + (i // h.n) for i in range(gh.n) ]
        for u in range(gh.n):
            assert gh.measures[u] == hg.measures[swap[u]]
            for v in range(gh.n):
                assert gh.has_edge(u, v) == hg.has_edge(swap[u], swap[v])

    @settings(max_examples=25)
    @given(measured_graphs(max_vertices=4), measured_graphs(max_vertices=4))
    def test_alpha_never_drops_under_products(self, g, h):
        prod = tensor_product(g, h)
        alpha_prod, _ = brute_alpha(prod) if prod.n <= 12 else (None, None)
        if alpha_prod is None:
            return
        assert alpha_prod >= max(brute_alpha(g)[0], brute_alpha(h)[0])

    def test_cap_signal(self):
        g = WeightedGraph([Fraction(1, 1001)] * 1001, [])
        h = WeightedGraph([Fraction(1, 1000)] * 1000, [])
        with pytest.raises(SizeCapExceeded, match="power too large"):
            tensor_product(g, h)


class TestTensorPower:
    def test_power_one_is_identity(self, p3):
        assert tensor_power(p3, 1) == p3

    def test_k2_squared(self, k2):
        g = tensor_power(k2, 2)
        assert g.n == 4 and g.edge_count() == 2
        assert all(m == Fraction(1, 4) for m in g.measures)

    def test_vertex_count(self, p3):
        for n in (1, 2, 3):
            assert tensor_power(p3, n).n == 3**n

    def test_flat_labels(self, k2):
        g = tensor_power(k2, 3)
        assert g.labels[0] == "(u,u,u)"
        assert g.labels[-1] == "(v,v,v)"

    def test_matches_iterated_product(self, p3):
        direct = tensor_power(p3, 2)
        iterated = tensor_product(p3, p3)
        assert direct.measures == iterated.measures
        assert direct.adj == iterated.adj

    @settings(max_examples=60, deadline=None)
    @given(measured_graphs(max_vertices=4), st.integers(2, 4))
    def test_equals_the_larger_factor_first_product(self, g, k):
        power = tensor_power(g, k)
        iterated = tensor_product(tensor_power(g, k - 1), g)
        labels = tuple("(" + ",".join(t) + ")" for t in product(g.labels, repeat=k))
        assert power.labels == labels
        assert power == iterated.relabeled(labels)

    def test_invalid_power(self, k2):
        with pytest.raises(ValueError):
            tensor_power(k2, 0)

    def test_cap_signal(self, c5):
        with pytest.raises(SizeCapExceeded, match="power too large"):
            tensor_power(c5, 9)
        # A huge exponent is refused without building 5**100000000.
        with pytest.raises(SizeCapExceeded, match=r"5\*\*100000000 vertices exceeds"):
            tensor_power(c5, 10**8)


class TestPowerView:
    def test_codec_roundtrip(self, c5):
        view = TensorPowerView(c5, 3)
        for index in range(view.size):
            assert view.encode(view.decode(index)) == index

    def test_codec_most_significant_first(self, c5):
        view = TensorPowerView(c5, 2)
        assert view.encode((1, 3)) == 8
        assert view.decode(8) == (1, 3)

    def test_power_adjacent_examples(self, k2, c5):
        v2 = TensorPowerView(k2, 2)
        assert power_adjacent(v2, (0, 0), (1, 1))
        assert not power_adjacent(v2, (0, 0), (0, 1))
        v5 = TensorPowerView(c5, 2)
        assert power_adjacent(v5, (0, 0), (1, 4))

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ((-1, 0), (0, 1), "coordinate -1 out of range"),
            ((0, 0), (1, 9), "coordinate 9 out of range"),
            ((0, 0), (1, -1), "coordinate -1 out of range"),
            ((0, 7), (1, 1), "coordinate 7 out of range"),
            ((0, 0, 0), (1, 1), "expected 2 coordinates, got 3"),
        ],
        ids=["wraps-around", "past-the-end", "negative-shift", "index-error", "length"],
    )
    def test_power_adjacent_rejects_what_encode_rejects(self, c5, a, b, message):
        with pytest.raises(ValueError, match=message):
            power_adjacent(TensorPowerView(c5, 2), a, b)

    def test_power_adjacent_is_linear_in_the_exponent(self, k3):
        # The checks build no index: 3**100000 would be a 158,497-bit int
        # built one multiplication at a time.
        view = TensorPowerView(k3, 100_000)
        a, b = (0,) * view.exponent, (1,) * view.exponent
        start = time.perf_counter()
        assert power_adjacent(view, a, b)
        assert time.perf_counter() - start < 0.1
        assert not power_adjacent(view, a, a)
        with pytest.raises(ValueError, match="coordinate 3 out of range"):
            power_adjacent(view, a, b[:-1] + (3,))

    @given(measured_graphs(max_vertices=4), st.data())
    def test_oracle_matches_materialized(self, g, data):
        n = data.draw(st.integers(2, 3))
        view = TensorPowerView(g, n)
        power = tensor_power(g, n)
        a = data.draw(st.integers(0, view.size - 1))
        b = data.draw(st.integers(0, view.size - 1))
        assert power_adjacent(view, view.decode(a), view.decode(b)) == power.has_edge(a, b)


class TestProjection:
    def test_fiber_measure(self, k2):
        view = TensorPowerView(k2, 2)
        mapping = projection_hom(view, [0])
        power = tensor_power(k2, 2)
        fiber_u = mask_from(v for v in range(4) if mapping[v] == 0)
        assert measure_of(power, fiber_u) == Fraction(1, 2)

    def test_is_measure_preserving_hom(self, p3):
        view = TensorPowerView(p3, 3)
        assert verify_finite_hom(
            projection_hom(view, [0, 1]), tensor_power(p3, 3), tensor_power(p3, 2)
        )
        assert verify_finite_hom(
            projection_hom(view, [2]), tensor_power(p3, 3), p3
        )

    def test_composition(self, k2):
        v3 = TensorPowerView(k2, 3)
        v2 = TensorPowerView(k2, 2)
        first = projection_hom(v3, [0, 1])
        second = projection_hom(v2, [0])
        direct = projection_hom(v3, [0])
        assert [second[first[v]] for v in range(v3.size)] == direct

    @pytest.mark.parametrize(
        "g, n",
        [
            (cycle_graph(5), 3),
            (complete_graph(3), 4),
            (_weighted([1, 2, 0, 3], [(0, 1), (1, 2), (1, 3)]), 3),
        ],
    )
    def test_matches_decode(self, g, n):
        view = TensorPowerView(g, n)
        keeps = [list(c) for r in range(1, n) for c in combinations(range(n), r)]
        for keep in keeps + [[2, 0, 2], [2, 1]]:
            kept = sorted(set(keep))
            image = TensorPowerView(g, len(kept))
            expected = [
                image.encode([view.decode(i)[p] for p in kept]) for i in range(view.size)
            ]
            assert projection_hom(view, keep) == expected

    @pytest.mark.parametrize("exponent", [13, 10**9])
    def test_oversized_power_refused_at_once(self, k3, exponent):
        # 3**13 = 1,594,323 entries is over the cap, as in tensor_power.
        start = time.perf_counter()
        with pytest.raises(SizeCapExceeded, match=rf"3\*\*{exponent} vertices exceeds cap"):
            projection_hom(TensorPowerView(k3, exponent), [0])
        assert time.perf_counter() - start < 0.1

    def test_keep_validation(self, k2):
        view = TensorPowerView(k2, 2)
        with pytest.raises(ValueError):
            projection_hom(view, [])
        with pytest.raises(ValueError):
            projection_hom(view, [0, 1])
        with pytest.raises(ValueError):
            projection_hom(view, [5])


def _seeded_base(seed: int) -> WeightedGraph:
    """Base on 2-5 vertices with seeded edges and weights 0-3, some zero."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    weights = [rng.randint(0, 3) for _ in range(m)]
    weights[rng.randrange(m)] = 0
    weights[rng.randrange(m)] += 1
    edges = [e for e in combinations(range(m), 2) if rng.random() < 0.5]
    return _weighted(weights, edges)


# SHARED_ROW_BASES already have an isolated vertex, twins and zero weights.
KERNEL_BASES = {
    **SHARED_ROW_BASES,
    "one vertex": WeightedGraph([1], []),
    **{f"seed {seed}": _seeded_base(seed) for seed in range(4)},
}


@pytest.mark.parametrize("name", sorted(KERNEL_BASES))
def test_power_kernels_match_the_materialized_power(name):
    # The neighbourhood and weight of a set of g^n, read off the base
    # alone, against the union of the power's rows from the definition
    # and the sum of the built power's weights.
    g = KERNEL_BASES[name]
    rng = random.Random(name)
    for n in range(1, 6):
        size = g.n**n
        if size > 2500:
            break
        rows = reference_power_rows(list(g.adj), n)
        power = tensor_power(g, n)
        sparse = rng.getrandbits(size) & rng.getrandbits(size)
        for mask in (0, (1 << size) - 1, rng.getrandbits(size), sparse):
            reach = 0
            weight = 0
            for v in range(size):
                if mask >> v & 1:
                    reach |= rows[v]
                    weight += power.weights[v]
            assert tensor._power_reach(g.adj, n, mask) == reach
            assert tensor._power_weight(g.weights, n, mask) == weight


@given(measured_graphs(max_vertices=3), st.integers(1, 3))
def test_power_measures_sum_to_one(g, n):
    assert sum(tensor_power(g, n).measures) == 1


def test_preimage_of_independent_set_is_independent(c5):
    # The first-coordinate preimage of any independent set stays independent
    # with the same measure; alpha can only grow along powers.
    power = tensor_power(c5, 2)
    view = TensorPowerView(c5, 2)
    mapping = projection_hom(view, [0])
    base_set = mask_from([0, 2])
    assert is_independent(c5, base_set)
    preimage = mask_from(v for v in range(power.n) if base_set >> mapping[v] & 1)
    assert is_independent(power, preimage)
    assert measure_of(power, preimage) == measure_of(c5, base_set)


# alpha_sequence builds each power as a product with the base; these terms
# were computed when the powers were still built with the base last.
SEQUENCE_CORPUS = [
    (
        WeightedGraph([Fraction(2, 3), Fraction(1, 3)], [(0, 1)]),
        12,
        ["2/3", "2/3", "20/27", "20/27", "64/81", "64/81", "1808/2187", "1808/2187",
         "16832/19683", "16832/19683", "640/729", "640/729"],
    ),
    (path_graph(3), 7, ["2/3", "2/3", "20/27", "20/27", "64/81", "64/81", "1808/2187"]),
    (
        WeightedGraph(
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
            [(0, 1), (0, 2), (0, 3)],
        ),
        5,
        ["1/2"] * 5,
    ),
    (
        WeightedGraph(
            [Fraction(1, 10), Fraction(2, 5), Fraction(3, 10), Fraction(1, 5)],
            [(0, 1), (1, 2), (2, 3)],
        ),
        5,
        ["3/5", "3/5", "81/125", "81/125", "2133/3125"],
    ),
    (
        WeightedGraph(
            [Fraction(1, 6), Fraction(1, 3), Fraction(1, 6), Fraction(1, 3)],
            [(0, 1), (1, 2), (2, 3), (0, 3)],
        ),
        5,
        ["2/3", "2/3", "20/27", "20/27", "64/81"],
    ),
    (
        WeightedGraph([Fraction(1, 5)] * 5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)]),
        3,
        ["3/5", "3/5", "81/125"],
    ),
    (
        WeightedGraph(
            [Fraction(1, 5)] * 3 + [Fraction(1, 10)] * 4,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)],
        ),
        3,
        ["2/5", "11/25", "58/125"],
    ),
]


@pytest.mark.parametrize("g, n_max, terms", SEQUENCE_CORPUS)
def test_alpha_sequence_terms_are_pinned(g, n_max, terms):
    seq = alpha_sequence(g, n_max)
    assert [str(t) for t in seq.terms] == terms
    assert not seq.truncated


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: TensorPowerView(complete_graph(2), 0),
            r"^exponent must be positive$",
            id="exponent-zero",
        ),
        pytest.param(
            lambda: TensorPowerView(complete_graph(2), 2).decode(4),
            r"^index 4 out of range$",
            id="decode-past-end",
        ),
        pytest.param(
            lambda: TensorPowerView(complete_graph(2), 2).decode(-1),
            r"^index -1 out of range$",
            id="decode-negative",
        ),
    ],
)
def test_public_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
