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
