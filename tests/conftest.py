from __future__ import annotations

import gc
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import strategies as st

from tensorindep import WeightedGraph, complete_graph, cycle_graph


@pytest.fixture
def p3() -> WeightedGraph:
    return WeightedGraph([Fraction(1, 3)] * 3, [(0, 1), (1, 2)], ["u", "v", "w"])


@pytest.fixture
def k2() -> WeightedGraph:
    return WeightedGraph([Fraction(1, 2)] * 2, [(0, 1)], ["u", "v"])


@pytest.fixture
def k2_biased() -> WeightedGraph:
    return WeightedGraph([Fraction(2, 3), Fraction(1, 3)], [(0, 1)], ["u", "v"])


@pytest.fixture
def k3() -> WeightedGraph:
    return complete_graph(3)


@pytest.fixture
def c5() -> WeightedGraph:
    return cycle_graph(5)


@pytest.fixture
def c7_chord() -> WeightedGraph:
    edges = [(i, (i + 1) % 7) for i in range(7)] + [(0, 2)]
    return WeightedGraph([Fraction(1, 7)] * 7, edges)


@st.composite
def measured_graphs(draw, max_vertices: int = 5, allow_zero_measure: bool = True):
    """Hypothesis strategy for small graphs with rational measures."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = list(combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    low = 0 if allow_zero_measure else 1
    weights = draw(
        st.lists(st.integers(low, 9), min_size=n, max_size=n).filter(
            lambda w: sum(w) > 0
        )
    )
    total = sum(weights)
    return WeightedGraph([Fraction(w, total) for w in weights], picked)


@st.composite
def bipartite_measured_graphs(draw, max_vertices: int = 5):
    """Hypothesis strategy for bipartite graphs with rational measures.

    Each vertex is put on a side, and edges join only the two sides, so
    the graphs come connected and disconnected, with isolated vertices,
    zero weights, and with no edge at all.
    """
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [(u, v) for u, v in combinations(range(n), 2) if side[u] != side[v]]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(
        st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    )
    total = sum(weights)
    return WeightedGraph([Fraction(w, total) for w in weights], picked)


@st.composite
def twin_pendant_graphs(draw, max_base: int = 5, max_planted: int = 5):
    """Hypothesis strategy for measured graphs with planted twins and pendants.

    A random base gets up to ``max_planted`` new vertices, each one hung
    on an earlier vertex as a pendant, or a copy of it with the same
    neighbours: a false twin, or a true twin when also joined to it.
    Measures are drawn from 0 to 9, zeros included.
    """
    n = draw(st.integers(min_value=1, max_value=max_base))
    pairs = list(combinations(range(n), 2))
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    planted = draw(st.integers(min_value=0, max_value=max_planted))
    for new in range(n, n + planted):
        old = draw(st.integers(min_value=0, max_value=new - 1))
        kind = draw(st.sampled_from(("false twin", "true twin", "pendant")))
        if kind != "false twin":
            edges.add((old, new))
        if kind != "pendant":
            copied = [a + b - old for a, b in edges if old in (a, b) and new not in (a, b)]
            edges.update((u, new) for u in copied)
    weights = draw(
        st.lists(st.integers(0, 9), min_size=n + planted, max_size=n + planted).filter(
            lambda w: sum(w) > 0
        )
    )
    total = sum(weights)
    return WeightedGraph([Fraction(w, total) for w in weights], sorted(edges))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xA11CE)


def cyclic_garbage(run) -> int:
    """Objects that only the cycle collector frees after ``run()``."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()
