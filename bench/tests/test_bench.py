"""Tests of the benchmark itself: generators, checks, span arithmetic, tracer.

Run from the root of a checkout:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import filecmp
import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


def shape(base):
    return base.edges, base.measures


class TestGenerators:
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_same_seed_same_inputs(self, seed):
        def draw(s):
            rng = random.Random(s)
            return (
                shape(wl.random_base(rng, 6, violating=False)),
                shape(wl.random_base(rng, 5, violating=True)),
                shape(wl.planted_base(rng, 300)),
                wl.regular_edges(rng, 200, bipartite=True),
                wl.regular_edges(rng, 200, bipartite=False),
                shape(wl.random_tree(rng, 9)),
                [(label, shape(base), k, expect()) for label, base, k, expect in wl.analyze_inputs(rng)],
                shape(wl.random_materialize_base(rng, 4, 4)[0]),
            )

        assert draw(seed) == draw(seed)
        assert draw(seed) != draw(seed + 1)

    def test_analyze_files_are_reproducible(self, pkg, tmp_path):
        for name in ("a", "b"):
            os.makedirs(tmp_path / name)
            wl.analyze_ops(pkg, random.Random(7), str(tmp_path / name), run.ROOT)
        files = sorted(os.listdir(tmp_path / "a"))
        assert files and files == sorted(os.listdir(tmp_path / "b"))
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", files, shallow=False)
        assert mismatch == [] and errors == []

    def test_generated_properties_hold(self):
        rng = random.Random(3)
        planted = wl.planted_base(rng, 16)
        assert ref.has_violating_set(planted.adj, planted.measures)
        for violating in (True, False):
            base = wl.random_base(rng, 6, violating)
            assert ref.has_violating_set(base.adj, base.measures) == violating
        for bipartite, degree in ((True, 3), (False, 4)):
            regular = wl.Base(wl.regular_edges(rng, 120, bipartite), wl.uniform(120))
            assert {mask.bit_count() for mask in regular.adj} == {degree}


class TestChecks:
    def test_wrong_answers_fail(self, pkg):
        k3 = wl.Base([(0, 1), (1, 2), (0, 2)], wl.uniform(3))
        right = pkg.mwis.alpha_sequence(k3.build(pkg), 3)
        wrong = pkg.mwis.AlphaSequence((Fraction(1, 3), Fraction(1, 3), Fraction(1, 2)), False)
        assert wl.check_sequence(k3, 3, True)(wrong) is not None
        assert wl.check_sequence(k3, 3, True)(right) is None

        power = pkg.tensor.tensor_power(k3.build(pkg), 2)
        good = pkg.mwis.alpha_bar(power)
        # (0,0) and (1,1) are adjacent in K3^2; a value the witness does not attain.
        for bad in (pkg.mwis.AlphaResult(good.value, 0b10001),
                    pkg.mwis.AlphaResult(Fraction(1, 2), good.witness)):
            assert wl.check_alpha_bar(k3, 2, True)(bad) is not None
        assert wl.check_alpha_bar(k3, 2, True)(good) is None

        path = wl.Base([(0, 1), (1, 2)], wl.uniform(3))
        assert wl.check_violating(path)(None) is not None
        assert wl.check_violating(path)(0b010) is not None
        assert wl.check_violating(path)(0b101) is None

    def test_golden_check(self, tmp_path):
        golden = tmp_path / "golden.out"
        golden.write_text("report\n", encoding="utf-8")
        assert wl.check_golden(str(golden))((0, "report\n", "")) is None
        assert wl.check_golden(str(golden))((0, "report!\n", "")) is not None
        assert wl.check_golden(str(golden))((1, "report\n", "")) is not None

    def test_repeat_must_match_the_verified_result(self):
        check = wl.verified_once(lambda out: None, lambda out: out)
        assert check(1) is None
        assert check(1) is None
        assert check(2) is not None

    def test_runner_counts_wrong_answers_and_exceptions(self):
        def boom():
            raise ValueError("no")

        ops = [
            wl.Op("k", "right", lambda: 2, lambda out: None if out == 2 else "wrong",
                  lambda: False),
            wl.Op("k", "wrong", lambda: 3, lambda out: None if out == 2 else "wrong",
                  lambda: False),
            wl.Op("k", "raises", boom, lambda out: None, lambda: False),
        ]
        phase = run.run_passes(ops, passes=2)
        assert len(phase["spans"]) == 6
        assert len(phase["failures"]) == 4

    def test_majority_and_projection_checks(self, pkg):
        c5 = wl.Base(wl.cycle_edges(5), wl.uniform(5))
        g = c5.build(pkg)
        witness = pkg.classifier.majority_witness(g, 0b101, 3)
        assert wl.check_majority(c5, 0b101, 3, 1)(witness) is None
        assert wl.check_majority(c5, 0b101, 3, 1)(witness ^ 1 << 124) is not None
        mapping = pkg.tensor.projection_hom(pkg.tensor.TensorPowerView(g, 3), [0, 2])
        assert wl.check_projection(c5, 3, [0, 2], 1)(mapping) is None
        assert wl.check_projection(c5, 3, [0, 2], 1)(mapping[::-1]) is not None
        power = pkg.tensor.tensor_power(g, 3)
        assert wl.check_power(c5, 3, 1)(power) is None
        assert wl.check_power(c5, 2, 1)(power) is not None


class TestSpanArithmetic:
    def test_self_and_busy_times_on_a_hand_built_tree(self):
        # op 0..10
        #   cli.main 0..10
        #     classifier.classify 1..7
        #       hallflow.violating_set 2..4
        #         hallflow.max_flow 2.5..3.5
        #       mwis.alpha_sequence 4..6
        #         tensor.tensor_product 4.5..5
        #     descriptor.build_descriptor 7..9
        #       hallflow.max_flow 7.5..8.5
        spans = [
            [0, "analyze", 0.0, 10.0, -1, 0],
            [1, "cli.main", 0.0, 10.0, 0, 0],
            [2, "classifier.classify", 1.0, 7.0, 1, 0],
            [3, "hallflow.violating_set", 2.0, 4.0, 2, 0],
            [4, "hallflow.max_flow", 2.5, 3.5, 3, 0],
            [5, "mwis.alpha_sequence", 4.0, 6.0, 2, 0],
            [6, "tensor.tensor_product", 4.5, 5.0, 5, 0],
            [7, "descriptor.build_descriptor", 7.0, 9.0, 1, 0],
            [8, "hallflow.max_flow", 7.5, 8.5, 7, 0],
        ]
        t = tracing.span_times(spans)
        assert t["cli.self_s"] == pytest.approx(10 - 6 - 2)
        assert t["classifier.self_s"] == pytest.approx(6 - 2 - 2)
        assert t["hallflow.self_s"] == pytest.approx(2 + 1)
        assert t["hallflow.busy_s"] == pytest.approx(2 + 1)
        assert t["hallflow.max_flow.busy_s"] == pytest.approx(2)
        assert t["hallflow.violating_set.self_s"] == pytest.approx(1)
        assert t["mwis.self_s"] == pytest.approx(1.5)
        assert t["tensor.self_s"] == pytest.approx(0.5)
        assert t["descriptor.self_s"] == pytest.approx(1)
        assert sum(v for k, v in t.items() if k.count(".") == 1 and k.endswith("self_s")) == (
            pytest.approx(10)
        )

    def test_nested_same_layer_time_counts_once(self):
        spans = [
            [0, "tensor.tensor_power", 0.0, 4.0, -1, 0],
            [1, "tensor.tensor_product", 1.0, 3.0, 0, 0],
        ]
        t = tracing.span_times(spans)
        assert t["tensor.busy_s"] == pytest.approx(4)
        assert t["tensor.self_s"] == pytest.approx(4)
        assert t["tensor.tensor_power.self_s"] == pytest.approx(2)


class TestTracer:
    def analyze(self, pkg, tmp_path, base, name):
        ids = [f"v{i}" for i in range(base.n)]
        path = tmp_path / name
        wl.write_graph(str(path), base, ids, as_json=True)
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            rc, stdout, _ = wl.run_cli(pkg, ["analyze", str(path), "--max-power", "2"])
        finally:
            uninstall()
        assert rc == 0
        return tracer

    def test_circulant_without_violating_set(self, pkg, tmp_path):
        n = 8
        edges = [(i, (i + j) % n) for i in range(n) for j in (1, 2)]
        tracer = self.analyze(pkg, tmp_path, wl.Base(edges, wl.uniform(n)), "circulant.json")
        assert tracer.counters["cli.analyses"] == 1
        assert tracer.counters["hallflow.covers"] == 3
        assert tracer.counters["hallflow.flows"] == 2
        names = [s[1] for s in tracer.spans]
        # Nested calls bound by direct imports are seen too.
        assert "hallflow.max_flow" in names and "descriptor.build_descriptor" in names
        metrics = tracing.layer_metrics(tracer.spans, tracer.counters, 1, 0, 0.0)
        assert metrics["hallflow.covers_per_analysis"] == 3
        assert metrics["hallflow.flows_per_analysis"] == 2
        assert metrics["mwis.sequences_per_analysis"] == 1
        assert metrics["classifier.rule.vertex-transitive-uniform"] == 1

    def test_weighted_tree_with_violating_set(self, pkg, tmp_path):
        tree = wl.Base([(0, 1), (0, 2), (0, 3)], [Fraction(1, 10)] + [Fraction(3, 10)] * 3)
        tracer = self.analyze(pkg, tmp_path, tree, "tree.json")
        assert tracer.counters["hallflow.covers"] == 1
        assert tracer.counters["hallflow.flows"] == 1
        assert tracer.counters["classifier.rule.violating-independent-set"] == 1

    def test_uninstall_restores_every_binding(self, pkg):
        before = pkg.descriptor.max_flow
        uninstall = tracing.install(tracing.Tracer())
        assert pkg.descriptor.max_flow is not before
        assert pkg.hallflow.max_flow is pkg.descriptor.max_flow
        uninstall()
        assert pkg.descriptor.max_flow is before
