from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorindep import (
    SizeCapExceeded,
    TensorPowerView,
    WeightedGraph,
    is_independent,
    mask_from,
    measure_of,
    power_adjacent,
    projection_hom,
    tensor_power,
    tensor_product,
    verify_finite_hom,
)

from conftest import measured_graphs
from oracles import brute_alpha


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

    def test_invalid_power(self, k2):
        with pytest.raises(ValueError):
            tensor_power(k2, 0)

    def test_cap_signal(self, c5):
        with pytest.raises(SizeCapExceeded, match="power too large"):
            tensor_power(c5, 9)


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

    def test_keep_validation(self, k2):
        view = TensorPowerView(k2, 2)
        with pytest.raises(ValueError):
            projection_hom(view, [])
        with pytest.raises(ValueError):
            projection_hom(view, [0, 1])
        with pytest.raises(ValueError):
            projection_hom(view, [5])


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
