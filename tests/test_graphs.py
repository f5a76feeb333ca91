from __future__ import annotations

import copy
import json
import pickle
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorindep import (
    SizeCapExceeded,
    TensorPowerView,
    WeightedGraph,
    alpha_sequence,
    bipartition,
    build_double_cover,
    classify,
    complete_graph,
    cycle_graph,
    is_independent,
    is_vertex_transitive_uniform,
    iter_bits,
    lower_bound_sequence,
    majority_set_measure,
    majority_witness,
    mask_from,
    measure_of,
    neighborhood,
    path_graph,
    projection_hom,
    star_graph,
    tensor_power,
    tensor_product,
)
from tensorindep.graphs import _reach, _walk

from conftest import cyclic_garbage, measured_graphs
from oracles import (
    brute_distance_classes,
    brute_reach,
    brute_two_colourable,
    brute_vertex_transitive,
    walk_cases,
)

# A triangle beside a 4-cycle, and a connected cubic graph on 8 vertices
# with two triangles: both regular, neither vertex-transitive.
C3_C4 = WeightedGraph(
    [Fraction(1, 7)] * 7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
)
CUBIC_8 = WeightedGraph(
    [Fraction(1, 8)] * 8,
    [(0, 1), (0, 2), (0, 6), (1, 5), (1, 7), (2, 4), (2, 6), (3, 4), (3, 6), (3, 7), (4, 5), (5, 7)],
)


def random_regular_graph(rng: random.Random, n: int, d: int) -> WeightedGraph:
    """A d-regular graph on n vertices with the uniform measure.

    Pairing model with rejection; a degree above half is drawn as the
    complement of its co-degree, where rejections are rare.
    """
    k = min(d, n - 1 - d)
    while True:
        points = [v for v in range(n) for _ in range(k)]
        rng.shuffle(points)
        pairs = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2])}
        if len(pairs) == n * k // 2 and all(u != v for u, v in pairs):
            break
    if k < d:
        pairs = {(u, v) for u in range(n) for v in range(u + 1, n)} - pairs
    return WeightedGraph([Fraction(1, n)] * n, sorted(pairs))


class TestConstruction:
    def test_measures_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 9/10"):
            WeightedGraph([Fraction(1, 2), Fraction(2, 5)], [(0, 1)])

    def test_negative_measure_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            WeightedGraph([Fraction(3, 2), Fraction(-1, 2)], [])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph([Fraction(1)], [(0, 0)])

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            WeightedGraph([Fraction(1)], [(0, 1)])

    def test_duplicate_edges_collapse(self):
        g = WeightedGraph([Fraction(1, 2)] * 2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_zero_measure_vertex_allowed(self):
        g = WeightedGraph([Fraction(1), Fraction(0)], [(0, 1)])
        assert g.measures[1] == 0

    def test_graph_is_immutable(self):
        g = path_graph(2)
        with pytest.raises(AttributeError):
            g.labels = ("x", "y")
        with pytest.raises(AttributeError):
            del g.adj
        assert g.adj == (2, 1)

    @pytest.mark.parametrize("read_measures", [False, True])
    def test_copies_and_pickles_equal_the_graph(self, read_measures):
        g = WeightedGraph(["1/2", "1/3", "1/6"], [(0, 1), (1, 2)], ["a", "b", "c"])
        if read_measures:
            g.measures
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin == g
            assert hash(twin) == hash(g)
            assert twin.measures == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))

    def test_text_measures_are_p_q_integers_or_decimals(self):
        g = WeightedGraph(["1/4", "0.25", "1/2"], [])
        assert g.weights == (1, 1, 2) and g.scale == 4

    @pytest.mark.parametrize("text", ["1e-10000000", "1E5", ".5e1"])
    def test_exponent_text_rejected_at_once(self, text):
        # Fraction() would expand the exponent into its full integer first.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent notation"):
            WeightedGraph([text, "1"], [])
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("text", ["x/y", "1/0", "", "1/" + "3" * 100_000])
    def test_invalid_text_message_is_bounded(self, text):
        with pytest.raises(ValueError, match="invalid rational") as info:
            WeightedGraph([text], [])
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "NaN"])
    def test_non_finite_measure_is_an_invalid_rational(self, text):
        # JSON reads these as float infinities and NaN, which Fraction
        # refuses with OverflowError and ValueError.
        with pytest.raises(ValueError, match=r"^invalid rational (inf|-inf|nan)$"):
            WeightedGraph([json.loads(text), "1"], [])

    def test_self_loop_names_the_label(self):
        with pytest.raises(ValueError, match=r"^self-loop at 'b' rejected$"):
            WeightedGraph([Fraction(1, 2)] * 2, [(0, 1), (1, 1)], ["a", "b"])

    @given(measured_graphs(max_vertices=4), measured_graphs(max_vertices=3), st.integers(1, 3))
    def test_integer_weights_over_the_least_scale(self, g, h, k):
        # However a graph is made, its measure is integer weights over a
        # scale equal to their sum, and equal measures compare equal.
        made = [
            g,
            tensor_product(g, h),
            tensor_power(h, k),
            build_double_cover(g),
            g.relabeled([f"x{i}" for i in range(g.n)]),
        ]
        for x in made:
            assert isinstance(x.weights, tuple)
            assert x.scale == sum(x.weights)
            assert x.measures == tuple(Fraction(w, x.scale) for w in x.weights)
            rebuilt = WeightedGraph(x.measures, x.edges(), x.labels)
            assert rebuilt == x
            assert hash(rebuilt) == hash(x)


class TestNeighborhood:
    def test_path_endpoints(self, p3):
        assert neighborhood(p3, mask_from([0, 2])) == mask_from([1])

    def test_triangle_single(self, k3):
        assert neighborhood(k3, 1) == mask_from([1, 2])

    def test_empty_set(self, c5):
        assert neighborhood(c5, 0) == 0

    def test_may_intersect_argument(self, p3):
        assert neighborhood(p3, p3.full_mask) == p3.full_mask

    @given(measured_graphs(), st.data())
    def test_monotone_in_the_set(self, g, data):
        t = data.draw(st.integers(0, g.full_mask))
        s = data.draw(st.integers(0, g.full_mask)) & t
        ns, nt = neighborhood(g, s), neighborhood(g, t)
        assert ns & nt == ns


class TestMeasure:
    def test_half(self, k2):
        assert measure_of(k2, 1) == Fraction(1, 2)

    def test_empty_and_full(self, c5):
        assert measure_of(c5, 0) == 0
        assert measure_of(c5, c5.full_mask) == 1

    @given(measured_graphs(), st.data())
    def test_additive_on_disjoint_sets(self, g, data):
        s = data.draw(st.integers(0, g.full_mask))
        t = data.draw(st.integers(0, g.full_mask)) & ~s
        assert measure_of(g, s | t) == measure_of(g, s) + measure_of(g, t)

    @given(measured_graphs(max_vertices=8), st.data())
    def test_equals_the_sum_of_fractions(self, g, data):
        s = data.draw(st.integers(0, g.full_mask))
        expected = sum((g.measures[v] for v in range(g.n) if s >> v & 1), Fraction(0))
        assert measure_of(g, s) == expected


class TestIndependence:
    def test_path_ends(self, p3):
        assert is_independent(p3, mask_from([0, 2]))

    def test_edge_is_dependent(self, k2):
        assert not is_independent(k2, k2.full_mask)

    def test_empty_set(self, k3):
        assert is_independent(k3, 0)

    @given(measured_graphs(), st.data())
    def test_matches_neighborhood_characterization(self, g, data):
        s = data.draw(st.integers(0, g.full_mask))
        assert is_independent(g, s) == (s & neighborhood(g, s) == 0)


class TestBipartition:
    def test_even_cycle(self):
        assert bipartition(cycle_graph(4)) == (mask_from([0, 2]), mask_from([1, 3]))

    def test_odd_cycle(self, c5):
        assert bipartition(c5) is None

    def test_edgeless_goes_to_x(self):
        g = WeightedGraph([Fraction(1, 3)] * 3, [])
        assert bipartition(g) == (0b111, 0)

    def test_component_zero_vertex_on_x(self):
        # Two components: an edge 0-1 and an edge 2-3.
        g = WeightedGraph([Fraction(1, 4)] * 4, [(0, 1), (2, 3)])
        assert bipartition(g) == (mask_from([0, 2]), mask_from([1, 3]))

    @given(measured_graphs())
    def test_sides_are_independent(self, g):
        sides = bipartition(g)
        assert (sides is not None) == brute_two_colourable(g.adj, g.full_mask)
        if sides is not None:
            x, y = sides
            assert x | y == g.full_mask and x & y == 0
            assert is_independent(g, x) and is_independent(g, y)


class TestWalks:
    """``_reach`` and ``_walk`` against a breadth-first search over single vertices."""

    def test_reach_is_the_union_of_the_neighbourhoods(self, rng):
        for g, mask in walk_cases(rng):
            assert _reach(g.adj, mask) == brute_reach(g.adj, mask)

    def test_layers_are_the_distance_classes_in_order(self, rng):
        isolated = empty_rows = splits = 0
        for g, mask in walk_cases(rng):
            for start in iter_bits(mask):
                walked = list(_walk(g.adj, mask, 1 << start))
                classes = brute_distance_classes(g.adj, mask, start)
                assert [layer for layer, _ in walked] == classes
                for layer, reach in walked:
                    assert reach == brute_reach(g.adj, layer)
                    inner = any(g.has_edge(u, v) for u, v in combinations(iter_bits(layer), 2))
                    assert bool(reach & layer) == inner
                isolated += len(classes) == 1
                empty_rows += not g.adj[start]
                splits += sum(classes) != mask
        assert isolated and empty_rows and splits


class TestVertexTransitivity:
    def test_cycle_is_transitive(self, c5):
        assert is_vertex_transitive_uniform(c5) is True

    def test_path_is_not(self, p3):
        assert is_vertex_transitive_uniform(p3) is False

    def test_non_uniform_is_undecided(self, k2_biased):
        assert is_vertex_transitive_uniform(k2_biased) is None

    def test_complete_graph(self):
        assert is_vertex_transitive_uniform(complete_graph(4)) is True

    def test_star_is_not(self):
        assert is_vertex_transitive_uniform(star_graph(3)) is False

    def test_two_triangles_transitive(self):
        g = WeightedGraph(
            [Fraction(1, 6)] * 6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        )
        assert is_vertex_transitive_uniform(g) is True

    def test_triangle_plus_edge_not_transitive(self):
        g = WeightedGraph([Fraction(1, 5)] * 5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        assert is_vertex_transitive_uniform(g) is False

    def test_search_leaves_no_cyclic_garbage(self, c5):
        assert cyclic_garbage(lambda: is_vertex_transitive_uniform(c5)) == 0

    @pytest.mark.parametrize("g", [C3_C4, CUBIC_8], ids=["c3_c4", "cubic_8"])
    def test_regular_graphs_that_are_not_transitive(self, g):
        # Every vertex has the same degree, so only backtracking can refuse.
        assert is_vertex_transitive_uniform(g) is False
        assert brute_vertex_transitive(g) is False

    def test_matches_brute_force_on_seeded_regular_graphs(self):
        rng = random.Random(0x5EED)
        verdicts = []
        for n in range(1, 8):
            for d in range(n):
                if n * d % 2:
                    continue
                for _ in range(3):
                    g = random_regular_graph(rng, n, d)
                    verdicts.append(is_vertex_transitive_uniform(g))
                    assert verdicts[-1] is brute_vertex_transitive(g), sorted(g.edges())
        assert True in verdicts and False in verdicts

    def test_cap_signal(self):
        g = cycle_graph(17)
        with pytest.raises(SizeCapExceeded, match="transitivity check too large"):
            is_vertex_transitive_uniform(g)
        assert is_vertex_transitive_uniform(cycle_graph(16)) is True


def test_iter_bits_roundtrip():
    assert list(iter_bits(mask_from([0, 3, 5]))) == [0, 3, 5]
    assert list(iter_bits(0)) == []


def test_iter_bits_on_long_masks():
    # A long mask with many bits leaves the bit-clearing loop for a string
    # walk after its first 64 bits; every length and density, and set-bit
    # counts at the switch, must give the same list as the indices put in.
    rng = random.Random(0xB175)
    cases = [
        (length, max(1, round(length * density)))
        for length in (1, 63, 64, 65, 1024, 1025, 1100, 5000, 20_000)
        for density in (0.0001, 0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0)
    ]
    cases += [(2000, count) for count in (63, 64, 65, 128)]
    for length, count in cases:
        # The top bit is always set, so the mask is ``length`` bits long.
        expected = sorted(rng.sample(range(length - 1), count - 1)) + [length - 1]
        buf = bytearray(length // 8 + 1)
        for i in expected:
            buf[i >> 3] |= 1 << (i & 7)
        mask = int.from_bytes(buf, "little")
        assert mask.bit_length() == length
        assert list(iter_bits(mask)) == expected, (length, count)
    assert list(iter_bits(0)) == []


def test_iter_bits_refuses_a_negative_mask():
    # -1 has every bit set in two's complement, so a walk over it would
    # never end.
    for mask in (-1, -(1 << 2000)):
        with pytest.raises(ValueError, match=r"^negative mask "):
            next(iter_bits(mask))


def test_families():
    assert path_graph(3).edge_count() == 2
    assert cycle_graph(6).edge_count() == 6
    assert complete_graph(5).edge_count() == 10
    assert star_graph(4).degree(0) == 4
    assert sum(star_graph(4).measures) == 1


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: WeightedGraph([], []), "at least one vertex", id="no-vertex"),
        pytest.param(
            lambda: WeightedGraph(["1"], [], ["a", "b"]), r"^2 labels for 1 vertices$", id="labels"
        ),
        pytest.param(
            lambda: path_graph(2).relabeled(["a"]), r"^1 labels for 2 vertices$", id="relabeled"
        ),
        pytest.param(
            lambda: neighborhood(path_graph(2), 0b100),
            r"^vertex set 0b100 not within the 2-vertex range$",
            id="set-outside",
        ),
        pytest.param(lambda: cycle_graph(2), "at least 3 vertices", id="cycle-of-two"),
        # Neither is an exact rational: 0.1 is a binary fraction, True is 1.
        pytest.param(
            lambda: WeightedGraph([0.1, 0.9], []), r"^invalid rational 0\.1$", id="float-measure"
        ),
        pytest.param(
            lambda: WeightedGraph([True, False], []), r"^invalid rational True$", id="bool-measure"
        ),
    ],
)
def test_public_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# Every entry point that takes an exponent reads it through
# graphs._positive_int: a non-integer raises TypeError, as range() would,
# and 0 raises that entry point's own ValueError.
C5 = cycle_graph(5)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda n: classify(C5, n), "n_max", id="classify"),
        pytest.param(lambda n: alpha_sequence(C5, n), "n_max", id="alpha_sequence"),
        pytest.param(lambda n: lower_bound_sequence(C5, 1, n), "count", id="lower_bound_sequence"),
        pytest.param(lambda n: majority_set_measure("1/2", n), "n", id="majority_set_measure"),
        pytest.param(lambda n: majority_witness(C5, 1, n), "power", id="majority_witness"),
        pytest.param(lambda n: tensor_power(C5, n), "power", id="tensor_power"),
        pytest.param(lambda n: TensorPowerView(C5, n), "exponent", id="TensorPowerView"),
        pytest.param(
            lambda n: projection_hom(TensorPowerView(C5, n), [0]), "exponent", id="projection_hom"
        ),
    ],
)
def test_exponents_are_positive_ints(call, message):
    for exponent in (2.5, Fraction(5, 2)):
        with pytest.raises(TypeError):
            call(exponent)
    with pytest.raises(ValueError, match=f"^{message} must be positive$"):
        call(0)
