"""Acceptance suite: every release criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines as they complete. All equalities are exact rational comparisons;
the only tolerances are the stated wall-clock budgets.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

import pytest

from tensorindep import (
    VerdictKind,
    WeightedGraph,
    alpha_bar,
    alpha_sequence,
    build_descriptor,
    build_double_cover,
    check_interval_hom,
    classify,
    complete_graph,
    cover_flow,
    cycle_graph,
    is_independent,
    lower_bound_sequence,
    majority_set_measure,
    majority_witness,
    mask_from,
    measure_of,
    neighborhood,
    tensor_power,
    violating_independent_set,
)
from tensorindep.cli import main

from oracles import (
    all_uniform_graphs,
    brute_alpha_value_int,
    brute_violating_independent,
    random_measured_graph,
)

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def corpus() -> list[WeightedGraph]:
    graphs = list(all_uniform_graphs(5))
    rng = random.Random(20260808)
    graphs += [random_measured_graph(rng, 4) for _ in range(100)]
    return graphs


@pytest.fixture(scope="module")
def condition_witnesses(corpus) -> list[int | None]:
    return [violating_independent_set(g) for g in corpus]


def test_criterion_01_condition_oracle_equivalence(corpus, condition_witnesses):
    started = time.monotonic()
    for g, witness in zip(corpus, condition_witnesses):
        brute = brute_violating_independent(g)
        assert (witness is None) == (brute is None)
    elapsed = time.monotonic() - started
    assert elapsed < 60
    holding = sum(w is not None for w in condition_witnesses)
    print(
        f"ACCEPTANCE 1 condition-oracle-equivalence: PASS "
        f"({len(corpus)} graphs, {holding} hold, {elapsed:.1f}s)"
    )


def test_criterion_02_witness_soundness(corpus, condition_witnesses):
    checked = 0
    for g, witness in zip(corpus, condition_witnesses):
        if witness is None:
            continue
        assert is_independent(g, witness)
        assert measure_of(g, witness) > measure_of(g, neighborhood(g, witness))
        checked += 1
    print(f"ACCEPTANCE 2 witness-soundness: PASS ({checked} witnesses re-verified)")


def test_criterion_03_flow_ceiling(corpus, condition_witnesses):
    for g, witness in zip(corpus, condition_witnesses):
        value = cover_flow(g).value
        assert value <= HALF
        assert (value == HALF) == (witness is None)
    print(f"ACCEPTANCE 3 flow-ceiling: PASS ({len(corpus)} flows at or below 1/2)")


def test_criterion_04_descriptor_verification(corpus, condition_witnesses):
    built = 0
    for g, witness in zip(corpus, condition_witnesses):
        if witness is not None:
            continue
        cover = build_double_cover(g)
        report = build_descriptor(g)
        assert check_interval_hom(report.hom, cover) is None
        assert report.upper_bound == HALF
        built += 1
    print(f"ACCEPTANCE 4 descriptor-verification: PASS ({built} descriptors verified)")


def test_criterion_05_vertex_transitive_powers():
    c5 = cycle_graph(5)
    started = time.monotonic()
    square = alpha_bar(tensor_power(c5, 2))
    c5_elapsed = time.monotonic() - started
    assert square.value == alpha_bar(c5).value == Fraction(2, 5)
    assert c5_elapsed < 1

    k3 = complete_graph(3)
    started = time.monotonic()
    cube = alpha_bar(tensor_power(k3, 3))
    k3_elapsed = time.monotonic() - started
    assert cube.value == alpha_bar(k3).value == Fraction(1, 3)
    assert k3_elapsed < 1
    print(
        f"ACCEPTANCE 5 vertex-transitive-powers: PASS "
        f"(C5^2 in {c5_elapsed:.2f}s, K3^3 in {k3_elapsed:.2f}s)"
    )


def test_criterion_06_monotone_sequences():
    rng = random.Random(0xBEEF)
    for _ in range(50):
        g = random_measured_graph(rng, 4)
        seq = alpha_sequence(g, 3)
        assert list(seq.terms) == sorted(seq.terms)
        assert not seq.truncated
    print("ACCEPTANCE 6 monotone-sequences: PASS (50 random graphs, powers to 3)")


def test_criterion_07_majority_quantitative():
    started = time.monotonic()
    p3 = WeightedGraph([Fraction(1, 3)] * 3, [(0, 1), (1, 2)], ["u", "v", "w"])
    ends = mask_from([0, 2])
    tail = majority_set_measure(Fraction(2, 3), 5)
    assert tail == Fraction(64, 81)
    witness = majority_witness(p3, ends, 5)
    power = tensor_power(p3, 5)
    assert power.n == 243
    assert measure_of(power, witness) == tail
    first = next(
        n for n in range(1, 61) if majority_set_measure(Fraction(2, 3), n) > Fraction(99, 100)
    )
    elapsed = time.monotonic() - started
    assert elapsed < 5
    print(
        f"ACCEPTANCE 7 majority-quantitative: PASS "
        f"(tail 64/81 on 243 vertices, >99/100 at n={first}, {elapsed:.1f}s)"
    )


def test_criterion_08_lower_bound_soundness(corpus, condition_witnesses):
    checked = 0
    for g, witness in zip(corpus, condition_witnesses):
        if witness is None:
            continue
        bounds = lower_bound_sequence(g, witness, 3)
        mu_i = measure_of(g, witness)
        mu_ni = measure_of(g, neighborhood(g, witness))
        assert bounds.closed_form_limit == mu_i / (mu_i + mu_ni)
        assert bounds.closed_form_limit > HALF
        for bound, value in zip(bounds.terms, alpha_sequence(g, 3).terms, strict=True):
            assert bound <= value
        checked += 1
    print(f"ACCEPTANCE 8 lower-bound-soundness: PASS ({checked} graphs, powers to 3)")


def test_criterion_09_classifier_end_to_end():
    started = time.monotonic()
    p3 = WeightedGraph([Fraction(1, 3)] * 3, [(0, 1), (1, 2)], ["u", "v", "w"])
    verdict = classify(p3, 3)
    assert verdict.kind is VerdictKind.EXACT_ONE
    assert verdict.certificate.witness == mask_from([0, 2])

    k2 = WeightedGraph([HALF, HALF], [(0, 1)], ["u", "v"])
    verdict = classify(k2, 3)
    assert verdict.kind is VerdictKind.EXACT_HALF
    assert verdict.value == HALF

    biased = WeightedGraph([Fraction(2, 3), Fraction(1, 3)], [(0, 1)], ["u", "v"])
    verdict = classify(biased, 3)
    assert verdict.kind is VerdictKind.EXACT_ONE
    assert verdict.certificate.witness == mask_from([0])

    verdict = classify(complete_graph(3), 3)
    assert verdict.kind is VerdictKind.EXACT_VALUE
    assert verdict.value == Fraction(1, 3)

    chord = WeightedGraph(
        [Fraction(1, 7)] * 7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 2)]
    )
    verdict = classify(chord, 2)
    assert verdict.kind is VerdictKind.INTERVAL
    assert verdict.lo >= Fraction(3, 7)
    assert verdict.hi == HALF

    elapsed = time.monotonic() - started
    assert elapsed < 10
    print(f"ACCEPTANCE 9 classifier-end-to-end: PASS (5 verdicts, {elapsed:.1f}s)")


def test_criterion_10_mwis_oracle():
    started = time.monotonic()
    rng = random.Random(0xD1CE)
    for _ in range(200):
        g = random_measured_graph(rng, 14, min_vertices=8)
        scale = math.lcm(*(m.denominator for m in g.measures))
        weights = [int(m * scale) for m in g.measures]
        expected = Fraction(brute_alpha_value_int(list(g.adj), weights), scale)
        result = alpha_bar(g)
        assert result.value == expected
        assert is_independent(g, result.witness)
        assert measure_of(g, result.witness) == expected
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"ACCEPTANCE 10 mwis-oracle: PASS (200 graphs to 14 vertices, {elapsed:.1f}s)")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    p3_doc = {
        "vertices": [
            {"id": "u", "measure": "1/3"},
            {"id": "v", "measure": "1/3"},
            {"id": "w", "measure": "1/3"},
        ],
        "edges": [["u", "v"], ["v", "w"]],
    }
    p3_path = tmp_path / "p3.json"
    p3_path.write_text(json.dumps(p3_doc))

    outputs = []
    for _ in range(3):
        assert main(["analyze", str(p3_path), "--max-power", "2"]) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1] == outputs[2]

    bad_doc = {
        "vertices": [{"id": "u", "measure": "1/2"}, {"id": "v", "measure": "2/5"}],
        "edges": [["u", "v"]],
    }
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad_doc))
    assert main(["analyze", str(bad_path)]) == 2
    capsys.readouterr()

    assert main(["descriptor", str(p3_path)]) == 4
    capsys.readouterr()
    print("ACCEPTANCE 11 cli-determinism: PASS (3 identical reports, exits 2 and 4)")
