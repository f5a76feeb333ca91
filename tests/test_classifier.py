from __future__ import annotations

import itertools
import math
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorindep import (
    SizeCapExceeded,
    VerdictKind,
    WeightedGraph,
    alpha_bar,
    bipartition,
    build_descriptor,
    check_interval_hom,
    classify,
    complete_graph,
    cycle_graph,
    is_independent,
    lower_bound_sequence,
    majority_set_measure,
    majority_witness,
    mask_from,
    measure_of,
    tensor_power,
    violating_independent_set,
)
from tensorindep import classifier, mwis, tensor
from tensorindep.mwis import MWIS_CAP, default_power_cap

from conftest import measured_graphs
from oracles import (
    all_uniform_graphs,
    brute_alpha,
    brute_majority_set,
    brute_violating_any,
    random_measured_graph,
)

HALF = Fraction(1, 2)


class TestClassify:
    def test_p3_exact_one(self, p3):
        verdict = classify(p3, 3)
        assert verdict.kind is VerdictKind.EXACT_ONE
        assert verdict.value == 1
        assert verdict.upper_bound == 1
        assert verdict.certificate.witness == mask_from([0, 2])
        assert verdict.certificate.bound_limit > HALF

    def test_k2_exact_half(self, k2):
        verdict = classify(k2, 3)
        assert verdict.kind is VerdictKind.EXACT_HALF
        assert verdict.value == HALF
        assert verdict.rule == "alpha-reaches-half+descriptor"
        assert verdict.upper_bound == HALF

    def test_biased_edge_exact_one(self, k2_biased):
        # Bipartite graphs can still have limit 1 when the measure tilts.
        verdict = classify(k2_biased, 3)
        assert verdict.kind is VerdictKind.EXACT_ONE
        assert verdict.certificate.witness == mask_from([0])

    def test_k3_exact_value(self, k3):
        verdict = classify(k3, 3)
        assert verdict.kind is VerdictKind.EXACT_VALUE
        assert verdict.value == Fraction(1, 3)
        assert verdict.rule == "vertex-transitive-uniform"
        assert verdict.certificate.vertex_transitive is True

    def test_c7_chord_interval(self, c7_chord):
        verdict = classify(c7_chord, 2)
        assert verdict.kind is VerdictKind.INTERVAL
        assert verdict.lo == Fraction(3, 7)
        assert verdict.hi == HALF
        assert verdict.certificate.alpha_terms == (Fraction(3, 7), Fraction(3, 7))

    def test_even_cycle_by_bipartition_when_alpha_is_capped(self):
        # With more vertices than MWIS_CAP no alpha term exists, so the
        # bipartite rule settles the verdict.
        verdict = classify(cycle_graph(MWIS_CAP + 2), 2)
        assert verdict.kind is VerdictKind.EXACT_HALF
        assert verdict.rule == "bipartite+descriptor"
        assert verdict.certificate.alpha_truncated
        assert verdict.certificate.alpha_terms == ()

    def test_bipartite_without_violating_set_reaches_half_at_power_one(self, rng):
        # Each side X has mu(X) <= mu(N(X)) <= mu(Y) and vice versa, so both
        # sides weigh 1/2 and alpha(G) = 1/2 for any measure: the bipartite
        # rule can only fire when power 1 is over the search cap.
        measured = (random_measured_graph(rng, 6, max_weight=2) for _ in range(2000))
        checked = Counter()
        for g in itertools.chain(all_uniform_graphs(5), measured):
            if bipartition(g) is None or brute_violating_any(g) is not None:
                continue
            assert brute_alpha(g)[0] == HALF
            assert classify(g, 1).rule == "alpha-reaches-half+descriptor"
            checked[len(set(g.weights)) > 1] += 1
        assert checked[False] > 0 and checked[True] > 0

    def test_bipartition_is_sought_only_when_no_power_was_searched(self, monkeypatch):
        calls = []
        walk = classifier.bipartition
        monkeypatch.setattr(
            classifier, "bipartition", lambda g: calls.append(g.n) or walk(g)
        )
        for g in all_uniform_graphs(5):
            classify(g, 2)
        assert calls == []
        verdict = classify(cycle_graph(MWIS_CAP + 2), 1)
        assert verdict.rule == "bipartite+descriptor"
        assert calls == [MWIS_CAP + 2]

    def test_certificate_carries_the_descriptor(self, k2, k3, c7_chord, p3):
        for g in (k2, k3, c7_chord):
            descriptor = classify(g, 1).certificate.descriptor
            assert descriptor == build_descriptor(g)
            assert check_interval_hom(descriptor.hom, descriptor.cover) is None
        assert classify(p3, 1).certificate.descriptor is None

    def test_regular_graph_that_is_not_transitive_stays_bracketed(self):
        # A triangle beside a 4-cycle: regular, but no automorphism maps the
        # triangle into the 4-cycle, so the transitivity rule must not fire.
        g = WeightedGraph(
            [Fraction(1, 7)] * 7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
        )
        verdict = classify(g, 2)
        assert verdict.rule == "alpha-bracket+descriptor"
        assert verdict.certificate.vertex_transitive is False

    def test_interval_when_transitivity_capped(self):
        verdict = classify(cycle_graph(17), 1)
        assert verdict.kind is VerdictKind.INTERVAL
        assert any("transitivity" in note for note in verdict.certificate.notes)

    def test_power_cap_below_one_rejected_before_the_flow(self, p3, k2):
        # P3 has a violating set, so its verdict never reads n_max.
        for g in (p3, k2):
            with pytest.raises(ValueError, match="n_max"):
                classify(g, 0)

    def test_non_integer_power_cap_rejected_before_the_flow(self, monkeypatch, c5):
        # A non-integer cap is refused, as range(2.5) refuses it, and an
        # int-like is read; otherwise 2.5 would count up to three powers.
        def refuse(g):
            raise AssertionError("flow built")

        monkeypatch.setattr(classifier, "cover_flow", refuse)
        for n_max in (2.5, Fraction(5, 2)):
            with pytest.raises(TypeError):
                classify(c5, n_max)
        monkeypatch.undo()

        class Two:
            def __index__(self):
                return 2

        assert classify(c5, Two()) == classify(c5, 2)

    @pytest.mark.parametrize(
        "name, n_max, terms",
        [
            ("c7_chord", 2, (Fraction(3, 7),) * 2),  # odd 7-cycle cover, power 2 filled
            ("c5", 3, (Fraction(2, 5),) * 3),  # odd cycle cover, no power built
            ("k2", 3, (HALF,) * 3),  # 1/2 at power 1, the rest filled
        ],
    )
    def test_power_one_is_searched_once(self, request, monkeypatch, name, n_max, terms):
        g = request.getfixturevalue(name)
        searched = []
        search = mwis._max_weight

        def counted(adj, weights, mask):
            if mask == (1 << len(adj)) - 1:  # a whole graph, not a nested piece
                searched.append(len(adj))
            return search(adj, weights, mask)

        monkeypatch.setattr(mwis, "_max_weight", counted)
        sequences = []
        sequence = classifier.alpha_sequence
        monkeypatch.setattr(
            classifier,
            "alpha_sequence",
            lambda *args, **kwargs: sequences.append(args) or sequence(*args, **kwargs),
        )
        verdict = classify(g, n_max)
        assert verdict.certificate.alpha_terms == terms
        assert searched == [g.n]
        assert len(sequences) == 1

    def test_default_power_cap(self):
        assert default_power_cap(2) == 12
        assert default_power_cap(5) == 5
        assert default_power_cap(7) == 4
        assert default_power_cap(1) == 1
        assert default_power_cap(5000) == 1

    @settings(max_examples=40, deadline=None)
    @given(measured_graphs(max_vertices=4))
    def test_verdict_consistent_with_condition(self, g):
        verdict = classify(g, 2)
        witness = violating_independent_set(g)
        if witness is not None:
            assert verdict.kind is VerdictKind.EXACT_ONE
            assert verdict.upper_bound == 1
            assert verdict.certificate.bound_limit > HALF
        else:
            assert verdict.kind is not VerdictKind.EXACT_ONE
            assert verdict.upper_bound == HALF
            assert all(t <= HALF for t in verdict.certificate.alpha_terms)
            if verdict.kind is VerdictKind.INTERVAL:
                assert verdict.lo == max(verdict.certificate.alpha_terms)
                assert verdict.lo <= verdict.hi

    def test_round_trip_on_every_small_uniform_graph(self):
        # Exhaustive over all labeled graphs on up to 4 vertices: the flow
        # condition and the verdict kind must always line up.
        for g in all_uniform_graphs(4):
            verdict = classify(g, 2)
            witness = violating_independent_set(g)
            if witness is not None:
                assert verdict.kind is VerdictKind.EXACT_ONE
            else:
                assert verdict.kind in (
                    VerdictKind.EXACT_HALF,
                    VerdictKind.EXACT_VALUE,
                    VerdictKind.INTERVAL,
                )
                if verdict.kind is VerdictKind.EXACT_VALUE:
                    assert verdict.value <= HALF
                if verdict.kind is VerdictKind.INTERVAL:
                    assert verdict.hi == HALF

    def test_census_verdict_counts(self):
        # The census: every labeled graph on at most 5 vertices with the
        # uniform measure, 1,099 of them. Verdicts are counted by kind,
        # rule and value, or lo for an interval.
        counts = Counter()
        for g in all_uniform_graphs(5):
            verdict = classify(g, 2)
            value = verdict.lo if verdict.kind is VerdictKind.INTERVAL else verdict.value
            counts[verdict.kind.value, verdict.rule, value] += 1
        assert counts == {
            ("ExactOne", "violating-independent-set", 1): 677,
            ("ExactHalf", "alpha-reaches-half+descriptor", HALF): 37,
            ("ExactValue", "vertex-transitive-uniform", Fraction(1, 3)): 1,
            ("ExactValue", "vertex-transitive-uniform", Fraction(1, 4)): 1,
            ("ExactValue", "vertex-transitive-uniform", Fraction(1, 5)): 1,
            ("ExactValue", "vertex-transitive-uniform", Fraction(2, 5)): 12,
            ("Interval", "alpha-bracket+descriptor", Fraction(11, 25)): 150,
            ("Interval", "alpha-bracket+descriptor", Fraction(2, 5)): 220,
        }


class TestLowerBoundSequence:
    def test_recursion_from_isolated_reservoir(self):
        g = WeightedGraph(
            [Fraction(3, 10), Fraction(2, 10), Fraction(5, 10)],
            [(0, 1)],
            ["a", "b", "c"],
        )
        bounds = lower_bound_sequence(g, mask_from([0]), 3)
        assert bounds.terms == (Fraction(3, 10), Fraction(9, 20), Fraction(21, 40))
        assert bounds.closed_form_limit == Fraction(3, 5)
        # Matches the closed form (3/5) * (1 - 2^-k).
        for k, term in enumerate(bounds.terms, start=1):
            assert term == Fraction(3, 5) * (1 - Fraction(1, 2**k))

    def test_empty_reservoir_keeps_terms_constant(self, p3):
        bounds = lower_bound_sequence(p3, mask_from([0, 2]), 4)
        assert bounds.terms == (Fraction(2, 3),) * 4
        assert bounds.closed_form_limit == Fraction(2, 3)

    def test_default_seed_monotone_and_below_limit(self, c7_chord):
        bounds = lower_bound_sequence(c7_chord, mask_from([1, 3, 5]), 6)
        assert list(bounds.terms) == sorted(bounds.terms)
        assert all(t <= bounds.closed_form_limit for t in bounds.terms)

    def test_rejects_dependent_set(self, k2):
        with pytest.raises(ValueError, match="independent"):
            lower_bound_sequence(k2, 0b11, 2)

    def test_rejects_empty_set(self, k2):
        with pytest.raises(ValueError, match="nonempty"):
            lower_bound_sequence(k2, 0, 2)

    def test_rejects_doubly_null_set(self):
        g = WeightedGraph([Fraction(1), Fraction(0), Fraction(0)], [(1, 2)])
        with pytest.raises(ValueError, match="measure zero"):
            lower_bound_sequence(g, mask_from([1]), 2)

    @settings(max_examples=25, deadline=None)
    @given(measured_graphs(max_vertices=3), st.data())
    def test_sound_against_exact_powers(self, g, data):
        mask = data.draw(st.integers(1, g.full_mask))
        if not is_independent(g, mask):
            return
        try:
            bounds = lower_bound_sequence(g, mask, 3)
        except ValueError:
            return
        assert bounds.terms[0] <= brute_alpha(g)[0]
        for k in range(3):
            power = tensor_power(g, k + 1)
            assert bounds.terms[k] <= alpha_bar(power).value


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: lower_bound_sequence(cycle_graph(5), 1, 0),
            r"^count must be positive$",
            id="no-bound",
        ),
        pytest.param(
            lambda: majority_set_measure(HALF, 0), r"^n must be positive$", id="no-trial"
        ),
        # Neither is an exact rational: 0.5 is a float, True is 1.
        pytest.param(
            lambda: majority_set_measure(0.5, 3), r"^invalid rational 0\.5$", id="float-p"
        ),
        pytest.param(
            lambda: majority_set_measure(True, 3), r"^invalid rational True$", id="bool-p"
        ),
    ],
)
def test_public_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestMajorityMeasure:
    def test_three_trials(self):
        assert majority_set_measure(Fraction(3, 5), 3) == Fraction(81, 125)

    def test_five_trials(self):
        assert majority_set_measure(Fraction(2, 3), 5) == Fraction(64, 81)

    def test_certain_hit(self):
        assert majority_set_measure(Fraction(1), 9) == 1

    def test_even_count_needs_strict_majority(self):
        assert majority_set_measure(HALF, 2) == Fraction(1, 4)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            majority_set_measure(Fraction(3, 2), 3)

    def test_text_probability(self):
        assert majority_set_measure("3/5", 3) == Fraction(81, 125)
        assert majority_set_measure("0.6", 3) == Fraction(81, 125)

    def test_exponent_text_rejected_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent notation"):
            majority_set_measure("1e-10000000", 3)
        assert time.perf_counter() - start < 0.1

    def test_nondecreasing_along_odd_counts_above_half(self):
        values = [majority_set_measure(Fraction(3, 5), n) for n in range(1, 22, 2)]
        assert values == sorted(values)

    def test_tends_to_one(self):
        assert any(
            majority_set_measure(Fraction(3, 5), n) > Fraction(9, 10)
            for n in range(1, 61)
        )


class TestMajorityWitness:
    def test_p3_cube(self, p3):
        witness = majority_witness(p3, mask_from([0, 2]), 3)
        power = tensor_power(p3, 3)
        assert is_independent(power, witness)
        assert measure_of(power, witness) == Fraction(20, 27)

    def test_single_power_is_the_set_itself(self, p3):
        assert majority_witness(p3, mask_from([0, 2]), 1) == mask_from([0, 2])

    def test_zero_measure_set(self):
        g = WeightedGraph([Fraction(1), Fraction(0)], [])
        witness = majority_witness(g, mask_from([1]), 2)
        assert measure_of(tensor_power(g, 2), witness) == 0

    def test_rejects_dependent_set(self, k2):
        with pytest.raises(ValueError, match="independent"):
            majority_witness(k2, 0b11, 2)

    @settings(max_examples=20, deadline=None)
    @given(measured_graphs(max_vertices=3), st.data())
    def test_measure_matches_formula(self, g, data):
        mask = data.draw(st.integers(0, g.full_mask))
        if not is_independent(g, mask):
            return
        n = data.draw(st.integers(1, 3))
        witness = majority_witness(g, mask, n)
        power = tensor_power(g, n)
        assert measure_of(power, witness) == majority_set_measure(
            measure_of(g, mask), n
        )

    @settings(max_examples=80, deadline=None)
    @given(measured_graphs(max_vertices=4), st.integers(0, 15), st.integers(1, 5))
    def test_matches_brute_majority_set(self, g, mask, n):
        # Greedy independent part of a drawn mask: the empty set and sets
        # of zero-measure vertices are drawn too.
        independent = 0
        for v in range(g.n):
            if mask >> v & 1 and not g.adj[v] & independent:
                independent |= 1 << v
        witness = majority_witness(g, independent, n)
        assert witness == brute_majority_set(g, independent, n)

    def test_empty_set_and_strict_majority(self, k2, p3):
        assert [majority_witness(p3, 0, n) for n in range(1, 6)] == [0] * 5
        # An even n needs more than n / 2 coordinates inside: on K2 with
        # {u}, (u, v) and (v, u) have half of theirs inside and stay out.
        assert majority_witness(k2, 0b01, 2) == 0b0001
        assert majority_witness(k2, 0b01, 4) == brute_majority_set(k2, 0b01, 4)

    def test_power_must_be_positive(self, p3):
        with pytest.raises(ValueError, match=r"^power must be positive$"):
            majority_witness(p3, mask_from([0, 2]), 0)

    def test_oversized_power_is_refused(self):
        message = "power too large: 5**9 vertices exceeds cap 1000000"
        with pytest.raises(SizeCapExceeded, match=f"^{re.escape(message)}$"):
            majority_witness(cycle_graph(5), mask_from([0, 2]), 9)

    def test_result_is_rechecked_on_the_power(self, p3, monkeypatch):
        full = (1 << 27) - 1
        with monkeypatch.context() as patch:
            patch.setattr(classifier, "_power_reach", lambda adj, n, mask: full)
            with pytest.raises(AssertionError, match="not independent"):
                majority_witness(p3, mask_from([0, 2]), 3)
        monkeypatch.setattr(classifier, "_power_weight", lambda weights, n, mask: 0)
        with pytest.raises(AssertionError, match="binomial tail"):
            majority_witness(p3, mask_from([0, 2]), 3)

    def test_builds_no_power(self, k2, p3, monkeypatch):
        def refuse(g_adj, h_adj):
            raise AssertionError("majority_witness built rows of a power")

        monkeypatch.setattr(tensor, "_rows", refuse)
        for g, independent in ((k2, 0b01), (p3, mask_from([0, 2])), (cycle_graph(5), 0b101)):
            for n in range(1, 6):
                witness = majority_witness(g, independent, n)
                assert witness == brute_majority_set(g, independent, n)

    def test_k3_twelfth_power_within_a_second(self):
        # K3^12 has 531,441 vertices; its rows alone would take about 35 GB.
        start = time.perf_counter()
        witness = majority_witness(complete_graph(3), 0b001, 12)
        assert time.perf_counter() - start < 1
        # A vertex is inside when k > 6 of its coordinates are 0, and each
        # of the other 12 - k coordinates is 1 or 2.
        assert witness.bit_count() == sum(
            math.comb(12, k) * 2 ** (12 - k) for k in range(7, 13)
        )
