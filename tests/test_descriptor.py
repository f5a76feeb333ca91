from __future__ import annotations

import dataclasses
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorindep import (
    IntervalHom,
    IntervalPiece,
    SaturationRequired,
    TensorPowerView,
    WeightedGraph,
    build_descriptor,
    build_double_cover,
    check_interval_hom,
    complete_graph,
    interval_hom_from_json,
    interval_hom_to_json,
    projection_hom,
    tensor_power,
    verify_finite_hom,
    violating_independent_set,
)
from tensorindep.cli import load_graph
from tensorindep.descriptor import DescriptorReport, descriptor_from_flow
from tensorindep.graphs import _frac_str
from tensorindep.hallflow import cover_flow

from conftest import measured_graphs

HALF = Fraction(1, 2)

ROOT = Path(__file__).resolve().parent.parent


class TestBuildDescriptor:
    def test_k2_pieces(self, k2):
        report = build_descriptor(k2)
        cover = build_double_cover(k2)
        assert interval_hom_to_json(report.hom, cover) == [
            {"lo": "0/1", "hi": "1/4", "target": "(u,A)"},
            {"lo": "1/4", "hi": "1/2", "target": "(v,A)"},
            {"lo": "1/2", "hi": "3/4", "target": "(v,B)"},
            {"lo": "3/4", "hi": "1/1", "target": "(u,B)"},
        ]
        assert report.upper_bound == HALF

    def test_k3_fibers(self, k3):
        # The canonical flow routes 1/6 through three of the six cover
        # edges, so the map has three base pieces; every fiber still
        # carries exactly the cover measure 1/6.
        report = build_descriptor(k3)
        cover = build_double_cover(k3)
        fibers = {}
        for piece in report.hom.pieces:
            fibers[piece.target] = fibers.get(piece.target, Fraction(0)) + (
                piece.hi - piece.lo
            )
        assert fibers == {z: Fraction(1, 6) for z in range(6)}
        assert len([p for p in report.hom.pieces if p.hi <= HALF]) == 3

    def test_zero_flow_edges_contribute_no_piece(self, k3):
        report = build_descriptor(k3)
        assert all(p.hi > p.lo for p in report.hom.pieces)

    def test_base_pieces_tile_half(self, k2):
        report = build_descriptor(k2)
        base = [p for p in report.hom.pieces if p.hi <= HALF]
        assert sum((p.hi - p.lo for p in base), Fraction(0)) == HALF

    def test_requires_saturating_flow(self, p3):
        with pytest.raises(SaturationRequired, match="saturating"):
            build_descriptor(p3)

    def test_deterministic(self, k3):
        assert build_descriptor(k3) == build_descriptor(k3)

    def test_report_holds_the_map_and_the_flow_cover(self, c7_chord):
        # The bound is the class's, the cover is the one the flow ran on.
        assert [f.name for f in dataclasses.fields(DescriptorReport)] == ["hom", "cover"]
        assert DescriptorReport.upper_bound == HALF
        flow = cover_flow(c7_chord)
        report = descriptor_from_flow(flow)
        assert report.cover is flow.network.cover
        assert report == build_descriptor(c7_chord)

    def test_mirror_pairs_name_cover_edges(self, k2, k3):
        # Base piece i and mirror piece i + k are the A and B ends of the
        # cover edge whose flow produced them.
        for g in (k2, k3):
            report = build_descriptor(g)
            pieces = report.hom.pieces
            k = len(pieces) // 2
            for base, mirror in zip(pieces[:k], pieces[k:]):
                assert (mirror.lo, mirror.hi) == (base.lo + HALF, base.hi + HALF)
                assert base.target < g.n <= mirror.target
                assert report.cover.has_edge(base.target, mirror.target)

    @settings(max_examples=40)
    @given(measured_graphs())
    def test_construction_passes_verification(self, g):
        if violating_independent_set(g) is not None:
            return
        report = build_descriptor(g)
        cover = build_double_cover(g)
        assert check_interval_hom(report.hom, cover) is None

    @settings(max_examples=40)
    @given(measured_graphs())
    def test_tiles_are_over_the_least_denominator(self, g):
        # The flow's tiles sit over the cover's scale; rebuilding the map
        # from its Fraction pieces gives the same tiles and denominator.
        if violating_independent_set(g) is not None:
            return
        report = build_descriptor(g)
        again = IntervalHom(report.hom.pieces)
        assert again == report.hom
        assert hash(again) == hash(report.hom)
        assert check_interval_hom(again, report.cover) is None

    def test_cubic_bipartite_at_workload_size(self):
        # Uniform bipartite cubic graph on 1,400 vertices: three seeded
        # perfect matchings between the halves, with no edge twice.
        rng = random.Random(1)
        half = 700
        edges = set()
        while len(edges) < 3 * half:
            perm = list(range(half))
            rng.shuffle(perm)
            matching = {(i, half + perm[i]) for i in range(half)}
            if not matching & edges:
                edges |= matching
        g = WeightedGraph([Fraction(1, 2 * half)] * (2 * half), sorted(edges))
        report = build_descriptor(g)
        assert check_interval_hom(report.hom, report.cover) is None
        labels = report.cover.labels
        assert interval_hom_to_json(report.hom, report.cover) == [
            {"lo": _frac_str(p.lo), "hi": _frac_str(p.hi), "target": labels[p.target]}
            for p in report.hom.pieces
        ]


class TestVerifyIntervalHom:
    def test_tampered_target_fails_adjacency(self, k2):
        report = build_descriptor(k2)
        cover = build_double_cover(k2)
        pieces = list(report.hom.pieces)
        # Send the first base piece to the non-adjacent Y vertex.
        bad = IntervalPiece(pieces[0].lo, pieces[0].hi, 2)
        broken = IntervalHom(tuple([bad] + pieces[1:]))
        message = check_interval_hom(broken, cover)
        assert message is not None
        # Breaks the fiber measures before the adjacency pairing.
        assert "fiber" in message or "adjacent" in message
        assert check_interval_hom(broken, cover) is not None

    def test_swapped_targets_fail_homomorphism(self, k2):
        report = build_descriptor(k2)
        cover = build_double_cover(k2)
        pieces = list(report.hom.pieces)
        # Swap the two mirror targets: fibers stay right, adjacency breaks.
        swapped = [
            pieces[0],
            pieces[1],
            IntervalPiece(pieces[2].lo, pieces[2].hi, pieces[3].target),
            IntervalPiece(pieces[3].lo, pieces[3].hi, pieces[2].target),
        ]
        message = check_interval_hom(IntervalHom(tuple(swapped)), cover)
        assert message is not None and "not adjacent" in message

    def test_shortened_piece_fails_coverage(self, k2):
        report = build_descriptor(k2)
        cover = build_double_cover(k2)
        pieces = list(report.hom.pieces)
        short = IntervalPiece(pieces[0].lo, pieces[0].hi - Fraction(1, 8), pieces[0].target)
        message = check_interval_hom(IntervalHom(tuple([short] + pieces[1:])), cover)
        assert message is not None and "gap" in message

    def test_overlap_detected(self, k2):
        report = build_descriptor(k2)
        cover = build_double_cover(k2)
        pieces = list(report.hom.pieces)
        long = IntervalPiece(pieces[0].lo, pieces[0].hi + Fraction(1, 8), pieces[0].target)
        message = check_interval_hom(IntervalHom(tuple([long] + pieces[1:])), cover)
        assert message is not None and "overlap" in message

    def test_straddling_half_detected(self, k2):
        cover = build_double_cover(k2)
        pieces = (
            IntervalPiece(Fraction(0), Fraction(3, 4), 0),
            IntervalPiece(Fraction(3, 4), Fraction(1), 3),
        )
        message = check_interval_hom(IntervalHom(pieces), cover)
        assert message is not None


class TestGoldenDescriptors:
    """The descriptor arrays of the recorded analyze reports, rebuilt."""

    @pytest.mark.parametrize(
        "demo, golden",
        [
            ("c5_cycle.txt", "c5_cycle.txt.power3.out"),
            ("c7_chord.json", "c7_chord.json.power2.out"),
        ],
    )
    def test_matches_recorded_report(self, demo, golden):
        g = load_graph(str(ROOT / "demos" / "data" / demo))
        recorded = json.loads((ROOT / "bench" / "golden" / golden).read_text())
        cover = build_double_cover(g)
        rebuilt = interval_hom_to_json(build_descriptor(g).hom, cover)
        assert rebuilt == recorded["descriptor"]


def k2_pieces(*spans):
    """Pieces over the cover of uniform K2 from (lo, hi, target) triples."""
    return IntervalHom(
        tuple(IntervalPiece(Fraction(lo), Fraction(hi), t) for lo, hi, t in spans)
    )


class TestCheckIntervalHomMessages:
    """Each diagnostic, with its exact text, on the cover of uniform K2.

    The cover's vertices are (u,A)=0, (v,A)=1, (u,B)=2, (v,B)=3, each of
    measure 1/4; the edges are (u,A)-(v,B) and (v,A)-(u,B).
    """

    @pytest.mark.parametrize(
        "spans, message",
        [
            (
                [("0", "1/4", 0), ("1/4", "1/2", 1), ("1/2", "3/4", 3), ("3/4", "5/4", 2)],
                "piece [3/4,5/4) is not a half-open subinterval of [0,1)",
            ),
            (
                [("0", "1/4", 0), ("1/4", "1/4", 1), ("1/4", "1/2", 1)],
                "piece [1/4,1/4) is not a half-open subinterval of [0,1)",
            ),
            (
                [("0", "1/4", 0), ("1/4", "1/2", 4), ("1/2", "3/4", 3), ("3/4", "1", 2)],
                "piece target 4 is not a cover vertex",
            ),
            (
                [("0", "3/8", 0), ("1/4", "1/2", 1), ("1/2", "3/4", 3), ("3/4", "1", 2)],
                "pieces overlap at 1/4",
            ),
            (
                [("0", "1/8", 0), ("1/4", "1/2", 1), ("1/2", "3/4", 3), ("3/4", "1", 2)],
                "gap in coverage at 1/8",
            ),
            (
                [("0", "1/4", 0), ("1/4", "1/2", 1), ("1/2", "3/4", 3)],
                "coverage stops at 3/4 instead of 1",
            ),
            (
                [("0", "1/4", 1), ("1/4", "1/2", 1), ("1/2", "3/4", 3), ("3/4", "1", 2)],
                "fiber of (u,A) has length 0, measure is 1/4",
            ),
            (
                [
                    ("0", "1/4", 0),
                    ("1/4", "3/8", 1),
                    ("3/8", "5/8", 3),
                    ("5/8", "3/4", 1),
                    ("3/4", "1", 2),
                ],
                "piece [3/8,5/8) straddles 1/2",
            ),
            (
                [
                    ("0", "1/4", 0),
                    ("1/4", "1/2", 1),
                    ("1/2", "5/8", 3),
                    ("5/8", "3/4", 3),
                    ("3/4", "1", 2),
                ],
                "piece [0,1/4) has no mirror at +1/2",
            ),
            (
                [("0", "1/4", 0), ("1/4", "1/2", 1), ("1/2", "3/4", 2), ("3/4", "1", 3)],
                "mirror pair [0,1/4) targets (u,A) and (u,B), "
                "which are not adjacent in the cover",
            ),
        ],
    )
    def test_first_failure_message(self, k2, spans, message):
        assert check_interval_hom(k2_pieces(*spans), build_double_cover(k2)) == message

    def test_valid_map_passes(self, k2):
        hom = k2_pieces(("0", "1/4", 0), ("1/4", "1/2", 1), ("1/2", "3/4", 3), ("3/4", "1", 2))
        assert check_interval_hom(hom, build_double_cover(k2)) is None

    def test_no_pieces(self, k2):
        assert (
            check_interval_hom(IntervalHom(()), build_double_cover(k2))
            == "coverage stops at 0 instead of 1"
        )

class TestSerialization:
    def test_roundtrip(self, k3):
        report = build_descriptor(k3)
        cover = build_double_cover(k3)
        data = interval_hom_to_json(report.hom, cover)
        again = interval_hom_from_json(json.loads(json.dumps(data)), cover)
        assert again == report.hom
        assert check_interval_hom(again, cover) is None

    def test_byte_stable(self, k3):
        cover = build_double_cover(k3)
        one = json.dumps(interval_hom_to_json(build_descriptor(k3).hom, cover))
        two = json.dumps(interval_hom_to_json(build_descriptor(k3).hom, cover))
        assert one == two

    def test_bad_target_rejected(self, k2):
        cover = build_double_cover(k2)
        # An unknown target, and entries that are not objects at all.
        for data in ([{"lo": "0/1", "hi": "1/2", "target": "nope"}], [["x"]], ["s"], [None]):
            with pytest.raises(ValueError, match="invalid interval piece"):
                interval_hom_from_json(data, cover)

    def test_exponent_endpoint_rejected_at_once(self, k2):
        cover = build_double_cover(k2)
        data = [{"lo": "1e-10000000", "hi": "1/2", "target": cover.labels[0]}]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="invalid interval piece"):
            interval_hom_from_json(data, cover)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "NaN"])
    def test_non_finite_endpoint_rejected(self, k2, text):
        # JSON reads these as float infinities and NaN.
        cover = build_double_cover(k2)
        data = [{"lo": json.loads(text), "hi": "1/2", "target": cover.labels[0]}]
        with pytest.raises(ValueError, match="invalid interval piece"):
            interval_hom_from_json(data, cover)

    def test_long_endpoint_message_is_bounded(self, k2):
        cover = build_double_cover(k2)
        data = [{"lo": "1/" + "7" * 99_998, "hi": "x", "target": cover.labels[0]}]
        with pytest.raises(ValueError, match="invalid interval piece") as info:
            interval_hom_from_json(data, cover)
        assert len(str(info.value).encode()) < 200


class TestVerifyFiniteHom:
    def test_cover_projection(self, p3):
        cover = build_double_cover(p3)
        mapping = [z % p3.n for z in range(cover.n)]
        assert verify_finite_hom(mapping, cover, p3)

    def test_power_projection(self, p3):
        view = TensorPowerView(p3, 2)
        assert verify_finite_hom(
            projection_hom(view, [0]), tensor_power(p3, 2), p3
        )

    def test_constant_map_fails(self, k2):
        assert not verify_finite_hom([0, 0], k2, k2)

    def test_measure_mismatch_fails(self, k2, k2_biased):
        # Identity on vertices, but the measures disagree fiberwise.
        assert not verify_finite_hom([0, 1], k2, k2_biased)

    def test_partial_map_rejected(self, k2):
        with pytest.raises(ValueError, match="covers"):
            verify_finite_hom([0], k2, k2)

    @settings(max_examples=30)
    @given(measured_graphs(max_vertices=3), st.data())
    def test_composition_closes(self, g, data):
        # Compose the double-cover projection with a power projection:
        # measure-preserving homomorphisms compose.
        cover = build_double_cover(g)
        first = [z % g.n for z in range(cover.n)]
        assert verify_finite_hom(first, cover, g)
        view = TensorPowerView(cover, 2)
        second = projection_hom(view, [0])
        power = tensor_power(cover, 2)
        assert verify_finite_hom(second, power, cover)
        composed = [first[second[v]] for v in range(power.n)]
        assert verify_finite_hom(composed, power, g)


K2_COVER = build_double_cover(complete_graph(2))


def _piece_json(lo, hi) -> list[dict]:
    return [{"lo": lo, "hi": hi, "target": K2_COVER.labels[0]}]


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: verify_finite_hom([0, 2], complete_graph(2), complete_graph(2)),
            r"^mapping image out of range$",
            id="image-outside",
        ),
        # The constructor reads endpoints by _rational, as the JSON reader does.
        pytest.param(
            lambda: IntervalHom([IntervalPiece(0.5, Fraction(1), 0)]),
            r"^invalid rational 0\.5$",
            id="float-piece-endpoint",
        ),
        pytest.param(
            lambda: interval_hom_from_json([], K2_COVER.relabeled(["x"] * 4)),
            "^cover labels are not unique",
            id="repeated-labels",
        ),
        # The format writes endpoints as p/q strings; a JSON false or 0.5
        # is no exact rational.
        pytest.param(
            lambda: interval_hom_from_json(_piece_json(False, "1/2"), K2_COVER),
            r"^invalid interval piece .*'lo': False,",
            id="bool-endpoint",
        ),
        pytest.param(
            lambda: interval_hom_from_json(_piece_json("0/1", 0.5), K2_COVER),
            r"^invalid interval piece .*'hi': 0\.5,",
            id="float-endpoint",
        ),
        # A JSON null or a single piece is no list of pieces.
        pytest.param(
            lambda: interval_hom_from_json(None, K2_COVER),
            r"^interval pieces must be a list, not None$",
            id="null-document",
        ),
        pytest.param(
            lambda: interval_hom_from_json(_piece_json("0/1", "1/2")[0], K2_COVER),
            r"^interval pieces must be a list, not \{'hi': ",
            id="piece-document",
        ),
    ],
)
def test_public_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda x: verify_finite_hom([0, x], complete_graph(2), complete_graph(2)), id="image"
        ),
        pytest.param(
            lambda x: IntervalHom([IntervalPiece(Fraction(0), Fraction(1), x)]), id="piece-target"
        ),
    ],
)
def test_images_and_targets_are_ints(call):
    # Read by graphs._index: True would pass for vertex 1.
    for x in (1.0, Fraction(1), True):
        with pytest.raises(TypeError, match="^bool True is not read|cannot be interpreted as"):
            call(x)
