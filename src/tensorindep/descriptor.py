"""Interval descriptors built from a saturating cover flow.

When the cover network's maximum flow reaches 1/2 the flow decomposes
the half-open interval [0,1) into a measure-preserving map h onto the
double cover: the flow-carrying cover edges, in edge order, tile
[0, 1/2) with one interval of length f_xy each; the tile at [a, a+f)
maps to the X endpoint and its shift by +1/2 to the Y endpoint. The
implicit interval graph pairs t with t + 1/2, a continuum perfect
matching that is vertex transitive under rotation, so its existence
caps the limiting independence measure of the tensor powers at 1/2.

The interval graph itself is never materialized; the piece list is the
whole artifact, and the verifier checks its defining properties (an
exact tiling of [0,1), fiber lengths equal to the cover measures, and
adjacent targets on every mirror pair) at the finitely many breakpoints.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional, Sequence

from .errors import SaturationRequired
from .graphs import WeightedGraph, _frac_str, _integer_measures, _rational
from .hallflow import HALF, FlowResult, _cover_edge_flows, cover_flow
from .hallflow import max_flow  # noqa: F401  still bound here for bench/tests/test_bench.py


@dataclass(frozen=True)
class IntervalPiece:
    """Half-open interval [lo, hi) mapped to one cover vertex."""

    lo: Fraction
    hi: Fraction
    target: int


@dataclass(frozen=True)
class IntervalHom:
    """Piecewise-constant map from [0,1) onto the double cover."""

    pieces: tuple[IntervalPiece, ...]


@dataclass(frozen=True)
class DescriptorReport:
    """Descriptor map and the double cover it maps onto.

    ``cover`` is the graph from ``build_double_cover``; piece targets are
    its vertex indices. Every descriptor certifies the same bound, the
    class constant ``upper_bound`` = 1/2, on the limit of the power values.
    """

    upper_bound: ClassVar[Fraction] = HALF

    hom: IntervalHom
    cover: WeightedGraph


def build_descriptor(g: WeightedGraph) -> DescriptorReport:
    """The interval map read off the canonical maximum flow on the cover of ``g``."""
    return descriptor_from_flow(cover_flow(g))


def descriptor_from_flow(result: FlowResult) -> DescriptorReport:
    """Construct the interval map from a maximum flow from ``hallflow.cover_flow``.

    The map targets the cover the flow ran on, ``result.network.cover``.
    Requires the flow to saturate at exactly 1/2 (no violating set);
    otherwise no such map exists and SaturationRequired is raised. The
    cover edges that carry flow, and their flows, come from
    ``hallflow._cover_edge_flows`` in the network's arc order, which fixes
    the order of the tiles; an edge with no flow is not handed out and
    makes no piece. Pieces are listed by left endpoint, base tiles first,
    mirrors after, so with k tiles, pieces i and i + k target the two ends
    of the cover edge whose flow made them.
    """
    if result.value != HALF:
        raise SaturationRequired(
            f"descriptor requires saturating flow, got value {result.value}"
        )
    cover = result.network.cover
    scale = cover.scale
    half = scale // 2
    # Positions count units of 1/scale.
    base_pieces = []
    mirror_pieces = []
    position = 0
    lo, mirror_lo = Fraction(0), HALF
    for x, y, f in _cover_edge_flows(result):
        position += f
        # Each boundary is built once: a tile's hi is the next tile's lo.
        hi = Fraction(position, scale)
        mirror_hi = Fraction(position + half, scale)
        base_pieces.append(IntervalPiece(lo, hi, x))
        mirror_pieces.append(IntervalPiece(mirror_lo, mirror_hi, y))
        lo, mirror_lo = hi, mirror_hi
    if position != half:
        raise AssertionError(
            f"edge flows tile [0,{Fraction(position, scale)}) instead of [0,1/2)"
        )
    return DescriptorReport(IntervalHom(tuple(base_pieces + mirror_pieces)), cover)


def check_interval_hom(hom: IntervalHom, cover: WeightedGraph) -> Optional[str]:
    """Diagnose the first failed descriptor property, or None if all hold.

    Checked, in exact arithmetic: the pieces tile [0,1) with no gap or
    overlap; the total length mapped to each cover vertex equals its
    measure; and every tile of [0,1/2) has its exact +1/2 mirror with an
    adjacent target. A piecewise-constant map makes these finitely many
    breakpoint checks decide the continuum conditions. Every endpoint is
    put over one common denominator D, a multiple of 2, so the checks run
    on integer numerators; fibers are compared with the cover's weights
    over its scale by cross-multiplying, and a ``Fraction`` is built only
    for a message.
    """
    # Every endpoint, and 1/2 last, as integers over one denominator.
    numerators, den = _integer_measures(
        [e for p in hom.pieces for e in (p.lo, p.hi)] + [HALF]
    )
    half = numerators.pop()
    ends = list(zip(numerators[::2], numerators[1::2]))

    n = cover.n
    for p, (lo, hi) in zip(hom.pieces, ends):
        if not (0 <= lo < hi <= den):
            return f"piece [{p.lo},{p.hi}) is not a half-open subinterval of [0,1)"
        if not 0 <= p.target < n:
            return f"piece target {p.target} is not a cover vertex"

    ordered = sorted(zip(ends, hom.pieces), key=lambda e: e[0][0])
    cursor = 0
    for (lo, hi), p in ordered:
        if lo < cursor:
            return f"pieces overlap at {p.lo}"
        if lo > cursor:
            return f"gap in coverage at {Fraction(cursor, den)}"
        cursor = hi
    if cursor != den:
        return f"coverage stops at {Fraction(cursor, den)} instead of 1"

    fiber = [0] * n
    for p, (lo, hi) in zip(hom.pieces, ends):
        fiber[p.target] += hi - lo
    for z, w in enumerate(cover.weights):
        if fiber[z] * cover.scale != w * den:
            return (
                f"fiber of {cover.labels[z]} has length {Fraction(fiber[z], den)}, "
                f"measure is {cover.measures[z]}"
            )

    upper = {}
    for (lo, hi), p in ordered:
        if lo < half < hi:
            return f"piece [{p.lo},{p.hi}) straddles 1/2"
        if lo >= half:
            upper[(lo, hi)] = p.target
    for (lo, hi), p in ordered:
        if hi > half:
            continue
        key = (lo + half, hi + half)
        if key not in upper:
            return f"piece [{p.lo},{p.hi}) has no mirror at +1/2"
        mate = upper[key]
        if not cover.adj[p.target] >> mate & 1:
            return (
                f"mirror pair [{p.lo},{p.hi}) targets {cover.labels[p.target]} and "
                f"{cover.labels[mate]}, which are not adjacent in the cover"
            )
    return None


def verify_finite_hom(
    mapping: Sequence[int], h: WeightedGraph, g: WeightedGraph
) -> bool:
    """Is ``mapping`` a measure-preserving homomorphism from h onto g?

    Edges must map to edges, and each fiber must carry exactly the
    measure of its image vertex; by additivity the fiber check extends
    to every vertex subset.
    """
    if len(mapping) != h.n:
        raise ValueError(f"mapping covers {len(mapping)} of {h.n} vertices")
    if any(not 0 <= t < g.n for t in mapping):
        raise ValueError("mapping image out of range")
    for u, v in h.edges():
        iu, iv = mapping[u], mapping[v]
        if iu == iv or not g.adj[iu] >> iv & 1:
            return False
    fiber = [0] * g.n
    for t, w in zip(mapping, h.weights):
        fiber[t] += w
    return all(f * g.scale == w * h.scale for f, w in zip(fiber, g.weights))


def interval_hom_to_json(hom: IntervalHom, cover: WeightedGraph) -> list[dict]:
    """Serialize pieces as {lo, hi, target-label} dicts in piece order.

    Endpoints are p/q text from ``graphs._frac_str``.
    """
    labels = cover.labels
    return [
        {"lo": _frac_str(p.lo), "hi": _frac_str(p.hi), "target": labels[p.target]}
        for p in hom.pieces
    ]


def interval_hom_from_json(data: Sequence[dict], cover: WeightedGraph) -> IntervalHom:
    """Pieces from ``interval_hom_to_json`` output, endpoints read by ``_rational``."""
    labels = cover.labels
    if len(set(labels)) != len(labels):
        raise ValueError("cover labels are not unique; cannot resolve targets")
    index = {label: z for z, label in enumerate(labels)}
    pieces = []
    for entry in data:
        try:
            target = index[entry["target"]]
            piece = IntervalPiece(_rational(entry["lo"]), _rational(entry["hi"]), target)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid interval piece {reprlib.repr(entry)}") from exc
        pieces.append(piece)
    return IntervalHom(tuple(pieces))
