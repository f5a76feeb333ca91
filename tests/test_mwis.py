from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from tensorindep import (
    SizeCapExceeded,
    WeightedGraph,
    alpha_bar,
    alpha_sequence,
    classify,
    complete_graph,
    cycle_graph,
    is_independent,
    iter_bits,
    mask_from,
    measure_of,
    path_graph,
    star_graph,
    tensor_power,
)
from tensorindep import mwis
from tensorindep.cli import load_graph
from tensorindep.graphs import _integer_measures
from tensorindep.mwis import MWIS_CAP, default_power_cap

from conftest import cyclic_garbage, measured_graphs
from oracles import (
    all_uniform_graphs,
    brute_alpha,
    brute_alpha_value_int,
    brute_distance_classes,
    brute_two_colourable,
    random_measured_graph,
    walk_cases,
)


class TestAlphaBar:
    def test_c5(self, c5):
        result = alpha_bar(c5)
        assert result.value == Fraction(2, 5)
        assert result.witness == mask_from([0, 2])

    def test_biased_edge(self, k2_biased):
        result = alpha_bar(k2_biased)
        assert result.value == Fraction(2, 3)
        assert result.witness == mask_from([0])

    def test_star_leaves(self):
        result = alpha_bar(star_graph(3))
        assert result.value == Fraction(3, 4)
        assert result.witness == mask_from([1, 2, 3])

    def test_edgeless_takes_everything(self):
        g = WeightedGraph([Fraction(1, 4)] * 4, [])
        result = alpha_bar(g)
        assert result.value == 1
        assert result.witness == g.full_mask

    def test_witness_attains_value(self, c7_chord):
        result = alpha_bar(c7_chord)
        assert is_independent(c7_chord, result.witness)
        assert measure_of(c7_chord, result.witness) == result.value

    def test_zero_measure_vertices_join_when_compatible(self):
        # Greedy inclusion keeps a zero-measure vertex whenever it does not
        # block the optimum.
        g = WeightedGraph([Fraction(0), Fraction(1)], [])
        assert alpha_bar(g).witness == 0b11
        h = WeightedGraph([Fraction(0), Fraction(1)], [(0, 1)])
        assert alpha_bar(h).witness == 0b10

    def test_deep_search_needs_no_deep_stack(self):
        # A path of 300 triangles, vertex 3i joined to 3i + 3: every branch
        # peels a few triangles off one end, so the search runs hundreds of
        # levels deep and must not take a stack frame for each.
        edges = []
        for a in range(0, 900, 3):
            edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
            if a + 3 < 900:
                edges.append((a, a + 3))
        g = WeightedGraph([Fraction(1, 900)] * 900, edges)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            result = alpha_bar(g)
        finally:
            sys.setrecursionlimit(limit)
        assert result.value == Fraction(1, 3)
        assert is_independent(g, result.witness)
        assert measure_of(g, result.witness) == Fraction(1, 3)

    def test_cap_signal(self):
        with pytest.raises(SizeCapExceeded, match="search too large"):
            alpha_bar(path_graph(MWIS_CAP + 1))

    @settings(max_examples=60)
    @given(measured_graphs(max_vertices=6))
    def test_matches_brute_force(self, g):
        value, witness = brute_alpha(g)
        result = alpha_bar(g)
        assert result.value == value
        assert result.witness == witness

    def test_matches_brute_force_on_larger_randoms(self, rng):
        for _ in range(40):
            g = random_measured_graph(rng, 10)
            value, witness = brute_alpha(g)
            result = alpha_bar(g)
            assert result.value == value
            assert result.witness == witness

    def test_matches_brute_force_on_tied_powers(self, rng, k2, k2_biased):
        # Powers are full of optimal sets of equal measure, so the witness
        # is decided by the tie-break alone.
        bases = list(all_uniform_graphs(3))
        bases += [random_measured_graph(rng, 3, min_vertices=3) for _ in range(20)]
        powers = [tensor_power(g, 2) for g in bases]
        powers += [tensor_power(k2, 3), tensor_power(k2_biased, 3)]
        for power in powers:
            value, witness = brute_alpha(power)
            result = alpha_bar(power)
            assert result.value == value
            assert result.witness == witness

    def test_matches_integer_brute_force_at_sixteen_vertices(self, rng):
        import math

        for _ in range(5):
            g = random_measured_graph(rng, 16)
            scale = math.lcm(*(m.denominator for m in g.measures))
            weights = [int(m * scale) for m in g.measures]
            expected = Fraction(brute_alpha_value_int(list(g.adj), weights), scale)
            assert alpha_bar(g).value == expected


def _refuse_powers(monkeypatch) -> None:
    """Make alpha_sequence fail if it asks for any power past g itself."""
    powers = mwis._powers

    def refuse(g):
        items = powers(g)
        yield next(items)  # g itself, nothing built
        raise AssertionError("power 2 built")

    monkeypatch.setattr(mwis, "_powers", refuse)


class TestAlphaSequence:
    def test_c5(self, c5):
        assert alpha_sequence(c5, 2).terms == (Fraction(2, 5), Fraction(2, 5))

    def test_k2(self, k2):
        seq = alpha_sequence(k2, 3)
        assert seq.terms == (Fraction(1, 2),) * 3
        assert not seq.truncated

    def test_p3(self, p3):
        # alpha of the square is still 2/3: the six vertices whose first
        # coordinate is an endpoint form a maximum independent set.
        assert alpha_sequence(p3, 2).terms == (Fraction(2, 3), Fraction(2, 3))

    def test_truncation_marker(self):
        # 65^2 = 4225 vertices is already over MWIS_CAP.
        seq = alpha_sequence(path_graph(65), 3)
        assert seq.terms == (Fraction(33, 65),)
        assert seq.truncated

    def test_invalid_n(self, c5):
        with pytest.raises(ValueError):
            alpha_sequence(c5, 0)

    def test_non_integer_n_is_refused(self, c5):
        # A non-integer n is refused, as range(2.5) refuses it, and an
        # int-like is read; otherwise 2.5 would give three untruncated terms.
        for n_max in (2.5, Fraction(5, 2)):
            with pytest.raises(TypeError):
                alpha_sequence(c5, n_max)

        class Two:
            def __index__(self):
                return 2

        assert alpha_sequence(c5, Two()) == alpha_sequence(c5, 2)

    def test_no_graph_is_built(self, monkeypatch, p3, k2_biased):
        # The powers are searched as rows and weights, with no labels.
        def refuse(*args):
            raise AssertionError("WeightedGraph built")

        monkeypatch.setattr(WeightedGraph, "_from_parts", refuse)
        assert alpha_sequence(p3, 5).terms == tuple(
            Fraction(t) for t in ("2/3", "2/3", "20/27", "20/27", "64/81")
        )
        seq = alpha_sequence(k2_biased, 12)
        assert len(seq.terms) == 12 and seq.terms[-1] == Fraction(640, 729)

    def test_one_vertex_base_ends_after_power_one(self, monkeypatch):
        # A term of 1 is the default ceiling; the rest is filled, not searched.
        g = WeightedGraph([Fraction(1)], [])
        _refuse_powers(monkeypatch)
        start = time.perf_counter()
        seq = alpha_sequence(g, 200_000)
        assert time.perf_counter() - start < 2
        assert seq.terms == (Fraction(1),) * 200_000
        assert not seq.truncated

    def test_edgeless_base_fills_up_to_the_cap(self, monkeypatch):
        # 2^12 = 4096 vertices is the last power within MWIS_CAP.
        _refuse_powers(monkeypatch)
        seq = alpha_sequence(WeightedGraph([Fraction(1, 2)] * 2, []), 14)
        assert seq.terms == (Fraction(1),) * 12
        assert seq.truncated

    def test_searches_leave_no_cyclic_garbage(self, k2_biased, c5, p3):
        # The odd-cover search frees its closures, and the power rows the
        # searches hold, on return rather than at the next run of the cycle
        # collector.
        p3_fifth = tensor_power(p3, 5)

        def run():
            alpha_sequence(k2_biased, 12)
            alpha_sequence(c5, 3)
            alpha_bar(p3_fifth)

        assert cyclic_garbage(run) == 0

    @settings(max_examples=20, deadline=None)
    @given(measured_graphs(max_vertices=4))
    def test_nondecreasing(self, g):
        seq = alpha_sequence(g, 3)
        assert list(seq.terms) == sorted(seq.terms)


def _searched_value(g: WeightedGraph) -> Fraction:
    return Fraction(mwis._max_weight(g.adj, g.weights, g.full_mask), g.scale)


def _searched_terms(g: WeightedGraph, k: int) -> list[Fraction]:
    return [_searched_value(tensor_power(g, j)) for j in range(1, k + 1)]


class TestOddCoverShortcut:
    """alpha_sequence fills the powers with alpha(g) when an odd cycle cover proves it."""

    def test_uniform_graphs_match_the_searched_powers(self):
        for g in all_uniform_graphs(5):
            assert list(alpha_sequence(g, 2).terms) == _searched_terms(g, 2)
        for g in all_uniform_graphs(4):
            assert list(alpha_sequence(g, 3).terms) == _searched_terms(g, 3)

    @settings(max_examples=60, deadline=None)
    @given(measured_graphs(max_vertices=6))
    def test_measured_graphs_match_the_searched_powers(self, g):
        assert list(alpha_sequence(g, 2).terms) == _searched_terms(g, 2)

    @pytest.mark.parametrize(
        "name, k, value",
        [("c5", 5, Fraction(2, 5)), ("k3", 7, Fraction(1, 3)), ("c7_chord", 4, Fraction(3, 7))],
    )
    def test_no_power_is_built(self, request, monkeypatch, name, k, value):
        _refuse_powers(monkeypatch)
        seq = alpha_sequence(request.getfixturevalue(name), k)
        assert seq.terms == (value,) * k
        assert not seq.truncated

    def test_search_falls_back_when_the_cover_search_runs_out(self, monkeypatch):
        # Two triangles at 2/9 and 1/9 per vertex: alpha = 1/3, so L = 3 and
        # the triangles are a cover; the measure is not uniform, so the
        # transitivity stop does not apply either.
        g = WeightedGraph(
            [Fraction(2, 9)] * 3 + [Fraction(1, 9)] * 3,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        )
        assert mwis._odd_cover_settles(g, Fraction(1, 3))
        built = []
        powers = mwis._powers

        def counted(g):
            items = powers(g)
            yield next(items)  # g itself, nothing built
            for adj, weights in items:
                built.append(len(adj))
                yield adj, weights

        monkeypatch.setattr(mwis, "_COVER_STEPS", 2)
        monkeypatch.setattr(mwis, "_powers", counted)
        assert alpha_sequence(g, 3).terms == (Fraction(1, 3),) * 3
        assert built == [36, 216]

    @pytest.mark.parametrize("steps, settled", [(112, False), (113, True)])
    def test_cover_search_step_count(self, monkeypatch, steps, settled):
        # Uniform on 9 vertices with alpha 4/9, so L = 9; the cover search
        # backtracks and closes its cover on its 113th path extension.
        g = WeightedGraph(
            [Fraction(1, 9)] * 9,
            [(0, 1), (0, 6), (0, 8), (1, 2), (1, 6), (2, 4), (2, 7), (3, 5), (3, 7),
             (3, 8), (4, 5), (4, 7), (5, 7)],
        )
        assert alpha_bar(g).value == Fraction(4, 9)
        monkeypatch.setattr(mwis, "_COVER_STEPS", steps)
        assert mwis._odd_cover_settles(g, Fraction(4, 9)) is settled

    @pytest.mark.parametrize(
        "edges, weights, terms",
        [
            (
                [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (2, 5), (3, 5)],
                [2, 4, 2, 2, 4, 4],
                (Fraction(4, 9), Fraction(38, 81)),
            ),
            (
                [(0, 3), (0, 4), (1, 2), (1, 5), (2, 5), (3, 4), (3, 5)],
                [3, 1, 4, 2, 2, 3],
                (Fraction(7, 15), Fraction(109, 225)),
            ),
        ],
    )
    def test_cover_with_varying_measure_is_not_used(self, edges, weights, terms):
        # Each graph has a cover by cycles of lengths dividing L, but the
        # measure varies along it, so the bound does not apply.
        g = WeightedGraph([Fraction(w, sum(weights)) for w in weights], edges)
        assert alpha_sequence(g, 2).terms == terms

    def test_cover_with_a_length_not_dividing_l_is_not_used(self):
        # K3 at 1/5 per vertex beside C4 at 1/10: alpha = 2/5, so L = 5, and
        # the cover by the triangle and the 4-cycle does not bound the square,
        # whose K3 x C4 parts are bipartite.
        g = WeightedGraph(
            [Fraction(1, 5)] * 3 + [Fraction(1, 10)] * 4,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)],
        )
        assert alpha_sequence(g, 2).terms == (Fraction(2, 5), Fraction(11, 25))

    def test_truncation_still_ends_the_sequence(self):
        # 3^8 = 6561 vertices is over MWIS_CAP, so triangle stops after 7.
        seq = alpha_sequence(complete_graph(3), 8)
        assert seq.terms == (Fraction(1, 3),) * 7
        assert seq.truncated


class TestTransitiveStop:
    """A uniform vertex-transitive base ends the searches after power 1."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_no_power_of_a_complete_graph_is_built(self, monkeypatch, n):
        # K4 and up have no odd cover: L = n / (n - 2) is not an odd integer.
        g = complete_graph(n)
        assert not mwis._odd_cover_settles(g, Fraction(1, n))
        _refuse_powers(monkeypatch)
        seq = alpha_sequence(g, default_power_cap(n))
        assert seq.terms == (Fraction(1, n),) * default_power_cap(n)
        assert not seq.truncated

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_complete_graphs_classify_at_once(self, n):
        g = complete_graph(n)
        start = time.perf_counter()
        verdict = classify(g, default_power_cap(n))
        assert time.perf_counter() - start < 1.0
        assert verdict.rule == "vertex-transitive-uniform"
        terms = verdict.certificate.alpha_terms
        assert len(terms) == default_power_cap(n)
        # Every filled term that can be searched in a moment is the search's.
        searched = [k for k in range(1, len(terms) + 1) if n**k <= 400]
        assert len(searched) >= 2
        for k in searched:
            assert terms[k - 1] == alpha_bar(tensor_power(g, k)).value


def _plain_path_dp(weights: list[int]) -> int:
    take = skip = 0
    for w in weights:
        take, skip = skip + w, max(take, skip)
    return max(take, skip)


def _plain_cycle_dp(weights: list[int]) -> int:
    return max(_plain_path_dp(weights[1:]), weights[0] + _plain_path_dp(weights[2:-1]))


def _chain_graph(weights: list[int], closed: bool) -> WeightedGraph:
    n = len(weights)
    edges = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if closed else [])
    return WeightedGraph([Fraction(w, sum(weights)) for w in weights], edges)


class TestPathsAndCycles:
    """Sets of maximum degree 2 are solved by a path or cycle DP, not by branching."""

    @pytest.mark.parametrize("n, closed", [(300, False), (301, True)])
    def test_long_chain_is_fast_and_exact(self, n, closed):
        weights = [1 + i % 7 for i in range(n)]
        g = _chain_graph(weights, closed)
        start = time.perf_counter()
        value = _searched_value(g)
        assert time.perf_counter() - start < 1
        expected = _plain_cycle_dp(weights) if closed else _plain_path_dp(weights)
        assert value == Fraction(expected, sum(weights))

    def test_short_chains_match_brute_force(self, rng):
        for n in range(2, 17):
            for closed in (False, True) if n >= 3 else (False,):
                weights = [rng.randint(0, 9) for _ in range(n)]
                weights[0] += 1
                g = _chain_graph(weights, closed)
                brute = brute_alpha_value_int(list(g.adj), weights)
                expected = _plain_cycle_dp(weights) if closed else _plain_path_dp(weights)
                assert brute == expected
                assert _searched_value(g) == Fraction(expected, sum(weights))
                result = alpha_bar(g)
                assert (result.value, result.witness) == brute_alpha(g)


def _induced(adj: list[int], weights: list[int], cand: int) -> tuple[list[int], list[int]]:
    keep = [v for v in range(len(adj)) if cand >> v & 1]
    index = {v: i for i, v in enumerate(keep)}
    sub = [sum(1 << index[u] for u in keep if adj[v] >> u & 1) for v in keep]
    return sub, [weights[v] for v in keep]


def test_component_of_matches_brute_force(rng):
    # The component is what a breadth-first search over single vertices
    # reaches, and it has an odd cycle exactly when it is not 2-colourable.
    odd_seen = even_seen = 0
    for g, mask in walk_cases(rng):
        colourable = {}
        for start in iter_bits(mask):
            comp, odd = mwis._component_of(g.adj, mask, 1 << start)
            assert comp == sum(brute_distance_classes(g.adj, mask, start))
            if comp not in colourable:
                colourable[comp] = brute_two_colourable(g.adj, comp)
            assert odd == (not colourable[comp])
            odd_seen += odd
            even_seen += not odd
    assert odd_seen and even_seen


class TestOddCyclePartitionBound:
    """The odd-cycle partition bound never falls below the optimum of the candidates."""

    @staticmethod
    def corpus(rng):
        for g in all_uniform_graphs(4):
            yield tensor_power(g, 2)
        for _ in range(50):
            yield random_measured_graph(rng, 12)
        # Sparse graphs and odd cycles keep cycles of length 5 and more
        # once the triangles are taken out.
        for _ in range(50):
            yield random_measured_graph(rng, 16, min_vertices=8, density=0.2)
        yield from (tensor_power(cycle_graph(5), 2), cycle_graph(7), cycle_graph(9))

    def test_parts_are_disjoint_odd_cycles_of_the_graph(self, rng):
        for g in self.corpus(rng):
            covered = 0
            for mask, cycle in mwis._odd_cycle_parts(g.adj, g.full_mask):
                assert len(cycle) >= 5 and len(cycle) % 2 == 1
                assert mask == mask_from(cycle) and mask.bit_count() == len(cycle)
                assert not covered & mask
                covered |= mask
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert g.has_edge(a, b)

    def test_bound_is_at_least_the_brute_force_optimum(self, rng):
        # The search splits the set it is handed, so the split is taken on
        # each random candidate set, as it would be on a component.
        parts_seen = 0
        for g in self.corpus(rng):
            weights, _ = _integer_measures(g.measures)
            ranked = [w << g.n | 1 << (g.n - 1 - v) for v, w in enumerate(weights)]
            cands = [rng.getrandbits(g.n) for _ in range(20)]
            for cand in cands + [g.full_mask] * (g.n <= 12):
                parts = mwis._odd_cycle_parts(g.adj, cand)
                parts_seen += len(parts)
                for w in (weights, ranked):
                    bound = mwis._partition_bound(g.adj, w, parts, cand)
                    assert bound >= brute_alpha_value_int(*_induced(list(g.adj), w, cand))
                    for mask, cycle in parts:
                        ring = [0] * g.n
                        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                            ring[a] |= 1 << b
                            ring[b] |= 1 << a
                        exact = brute_alpha_value_int(*_induced(ring, w, mask))
                        assert mwis._cycle_max(w, cycle) == exact
        assert parts_seen > 0


# Parts for disjoint unions, as (edges, weights): isolated vertices;
# isolated edges with zero, equal and unequal weights, the heavier end
# first and last; pendant edges hanging off larger parts.
_ISOLATED = [((), [0]), ((), [4])]
_EDGES = [(((0, 1),), [0, 0]), (((0, 1),), [3, 3]), (((0, 1),), [5, 2]), (((0, 1),), [2, 5])]
_PENDANT = [
    (((0, 1), (1, 2)), [4, 1, 4]),
    (((0, 1), (1, 2), (2, 0), (2, 3)), [1, 2, 3, 5]),
    (((0, 1), (0, 2), (0, 3)), [1, 3, 3, 3]),
    (((0, 1), (1, 2), (2, 3)), [5, 1, 1, 5]),
    (((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)), [2, 1, 2, 1, 2, 7]),
]


def _random_part(rng) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    n = rng.randint(2, 5)
    edges = tuple((rng.randrange(v), v) for v in range(1, n))  # connected
    edges += tuple((u, v) for v in range(n) for u in range(v - 1) if rng.random() < 0.3)
    return edges, [rng.randint(0, 6) for _ in range(n)]


def _union(parts, rng=None) -> tuple[list[int], list[int]]:
    """Adjacency rows and weights of the disjoint union of ``parts``.

    With ``rng`` the vertices are shuffled, so a part's vertices are
    neither consecutive nor in their original order.
    """
    n = sum(len(weights) for _, weights in parts)
    order = list(range(n))
    if rng is not None:
        rng.shuffle(order)
    adj = [0] * n
    weights = [0] * n
    base = 0
    for edges, part_weights in parts:
        for i, w in enumerate(part_weights):
            weights[order[base + i]] = w
        for a, b in edges:
            u, v = order[base + a], order[base + b]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        base += len(part_weights)
    return adj, weights


def _unions(rng, count: int, max_vertices: int = 14):
    pool = _ISOLATED + _EDGES + _PENDANT
    yield _union(_ISOLATED + _EDGES)
    yield _union(_EDGES + _PENDANT[:1])
    for _ in range(count):
        parts = []
        size = 0
        while True:
            part = rng.choice(pool) if rng.random() < 0.7 else _random_part(rng)
            if size + len(part[1]) > max_vertices:
                break
            parts.append(part)
            size += len(part[1])
        yield _union(parts, rng)


def _ranked(weights: list[int]) -> list[int]:
    n = len(weights)
    return [w << n | 1 << (n - 1 - v) for v, w in enumerate(weights)]


class TestEdgeComponents:
    """The opening scan of the search takes isolated edges whole."""

    def test_max_weight_matches_brute_force(self, rng):
        for adj, weights in _unions(rng, 150):
            full = (1 << len(adj)) - 1
            for w in (weights, _ranked(weights)):
                assert mwis._max_weight(tuple(adj), w, full) == brute_alpha_value_int(adj, w)
            # A sub-mask can cut a pendant edge loose from its part.
            for _ in range(3):
                cand = rng.getrandbits(len(adj))
                expected = brute_alpha_value_int(*_induced(adj, weights, cand))
                assert mwis._max_weight(tuple(adj), weights, cand) == expected

    def test_alpha_bar_witness_is_the_canonical_one(self, rng):
        for adj, weights in _unions(rng, 40, max_vertices=12):
            if not any(weights):
                weights[0] = 1
            total = sum(weights)
            edges = [(u, v) for u in range(len(adj)) for v in range(u) if adj[u] >> v & 1]
            g = WeightedGraph([Fraction(w, total) for w in weights], edges)
            result = alpha_bar(g)
            assert (result.value, result.witness) == brute_alpha(g)

    def test_biased_k2_sequence_matches_the_golden_report(self):
        root = Path(__file__).resolve().parent.parent
        g = load_graph(str(root / "demos" / "data" / "k2_biased.json"))
        with open(root / "bench" / "golden" / "k2_biased.json.power12.out", encoding="utf-8") as f:
            golden = json.load(f)["alpha_sequence"]
        seq = alpha_sequence(g, 12)
        assert not seq.truncated
        assert [f"{t.numerator}/{t.denominator}" for t in seq.terms] == golden


class TestVertexTransitiveStability:
    def test_c5_square(self, c5):
        assert alpha_bar(tensor_power(c5, 2)).value == alpha_bar(c5).value

    def test_k3_square(self, k3):
        assert alpha_bar(tensor_power(k3, 2)).value == Fraction(1, 3)

    def test_petersen_like_complete_k4(self):
        k4 = complete_graph(4)
        assert alpha_bar(tensor_power(k4, 2)).value == Fraction(1, 4)


def test_import_leaves_the_recursion_limit_alone():
    code = (
        "import sys; before = sys.getrecursionlimit(); "
        "import tensorindep, tensorindep.cli; "
        "print(before, sys.getrecursionlimit())"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == after
