"""Interval descriptors built from a saturating cover flow.

When the cover network's maximum flow reaches 1/2 the flow decomposes
the half-open interval [0,1) into a measure-preserving map h onto the
double cover: the flow-carrying cover edges, in edge order, tile
[0, 1/2) with one interval of length f_xy each; the tile at [a, a+f)
maps to the X endpoint and its shift by +1/2 to the Y endpoint. The
implicit interval graph pairs t with t + 1/2, a continuum perfect
matching that is vertex transitive under rotation, so its existence
caps the limiting independence measure of the tensor powers at 1/2.

The interval graph itself is never materialized. The map is stored as
integer tiles (lo, hi, target) over one denominator ``den``, the least
that puts every endpoint and 1/2 on integers: the flow's units go into
the tiles as they are, and the verifier checks the map's defining
properties (an exact tiling of [0,1), fiber lengths equal to the cover
measures, and adjacent targets on every mirror pair) at the finitely
many breakpoints on those integers. ``IntervalPiece`` values, with
``Fraction`` endpoints, are built only when ``IntervalHom.pieces`` is
read.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Optional, Sequence

from .errors import SaturationRequired
from .graphs import WeightedGraph, _frac_str, _index, _integer_measures, _rational
from .hallflow import HALF, FlowResult, _cover_edge_flows, cover_flow
from .hallflow import max_flow  # noqa: F401  still bound here for bench/tests/test_bench.py


@dataclass(frozen=True)
class IntervalPiece:
    """Half-open interval [lo, hi) mapped to one cover vertex."""

    lo: Fraction
    hi: Fraction
    target: int


@dataclass(frozen=True, slots=True, init=False)
class IntervalHom:
    """Piecewise-constant map from [0,1) onto the double cover.

    ``tiles`` holds one integer triple (lo, hi, target) per piece, the
    piece being [lo/den, hi/den) mapped to cover vertex ``target``.
    ``den`` is the least denominator that puts every endpoint and 1/2 on
    integers, so equal maps compare equal. ``IntervalHom(pieces)`` takes
    ``IntervalPiece`` values: endpoints are read by ``_rational`` and
    targets by ``_index``. ``pieces`` builds them back on read.
    """

    tiles: tuple[tuple[int, int, int], ...]
    den: int

    def __init__(self, pieces: Iterable[IntervalPiece]):
        spans = [(_rational(p.lo), _rational(p.hi), _index(p.target)) for p in pieces]
        tiles, den = _over_den(spans)
        object.__setattr__(self, "tiles", tiles)
        object.__setattr__(self, "den", den)

    @classmethod
    def _from_tiles(cls, tiles: tuple[tuple[int, int, int], ...], den: int) -> "IntervalHom":
        # Internal fast path: ``den`` must already be the least denominator.
        hom = object.__new__(cls)
        object.__setattr__(hom, "tiles", tiles)
        object.__setattr__(hom, "den", den)
        return hom

    @property
    def pieces(self) -> tuple[IntervalPiece, ...]:
        """The tiles as ``IntervalPiece`` values with ``Fraction`` endpoints, built on read."""
        den = self.den
        return tuple(
            IntervalPiece(Fraction(lo, den), Fraction(hi, den), target)
            for lo, hi, target in self.tiles
        )


def _over_den(
    spans: Sequence[tuple[Fraction, Fraction, int]],
) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """(lo, hi, target) spans as integer tiles over their least denominator with 1/2."""
    numerators, den = _integer_measures([e for lo, hi, _ in spans for e in (lo, hi)] + [HALF])
    targets = [t for _, _, t in spans]
    return tuple(zip(numerators[::2], numerators[1::2], targets)), den


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
    # Positions count units of 1/scale; each tile's hi is the next one's lo.
    base_tiles = []
    mirror_tiles = []
    lo = 0
    for x, y, f in _cover_edge_flows(result):
        hi = lo + f
        base_tiles.append((lo, hi, x))
        mirror_tiles.append((lo + half, hi + half, y))
        lo = hi
    if lo != half:
        raise AssertionError(
            f"edge flows tile [0,{Fraction(lo, scale)}) instead of [0,1/2)"
        )
    # scale is already the least denominator: a saturating flow fills every
    # source arc, so the tiles of each x add up to its weight, and a factor
    # common to every boundary would divide all the weights, which have none.
    hom = IntervalHom._from_tiles(tuple(base_tiles + mirror_tiles), scale)
    return DescriptorReport(hom, cover)


def check_interval_hom(hom: IntervalHom, cover: WeightedGraph) -> Optional[str]:
    """Diagnose the first failed descriptor property, or None if all hold.

    Checked, in exact arithmetic: the pieces tile [0,1) with no gap or
    overlap; the total length mapped to each cover vertex equals its
    measure; and every tile of [0,1/2) has its exact +1/2 mirror with an
    adjacent target. A piecewise-constant map makes these finitely many
    breakpoint checks decide the continuum conditions. The checks run on
    the integer tiles over ``hom.den``, a multiple of 2; fibers are
    compared with the cover's weights over its scale by cross-multiplying,
    and a ``Fraction`` is built only for a message.
    """
    den = hom.den
    half = den // 2

    def span(lo: int, hi: int) -> str:
        return f"[{Fraction(lo, den)},{Fraction(hi, den)})"

    n = cover.n
    fiber = [0] * n
    for lo, hi, target in hom.tiles:
        if not (0 <= lo < hi <= den):
            return f"piece {span(lo, hi)} is not a half-open subinterval of [0,1)"
        if not 0 <= target < n:
            return f"piece target {target} is not a cover vertex"
        fiber[target] += hi - lo

    ordered = sorted(hom.tiles)
    cursor = 0
    for lo, hi, _ in ordered:
        if lo < cursor:
            return f"pieces overlap at {Fraction(lo, den)}"
        if lo > cursor:
            return f"gap in coverage at {Fraction(cursor, den)}"
        cursor = hi
    if cursor != den:
        return f"coverage stops at {Fraction(cursor, den)} instead of 1"

    for z, w in enumerate(cover.weights):
        if fiber[z] * cover.scale != w * den:
            return (
                f"fiber of {cover.labels[z]} has length {Fraction(fiber[z], den)}, "
                f"measure is {cover.measures[z]}"
            )

    upper = {}
    for lo, hi, target in ordered:
        if lo < half < hi:
            return f"piece {span(lo, hi)} straddles 1/2"
        if lo >= half:
            upper[(lo, hi)] = target
    for lo, hi, target in ordered:
        if hi > half:
            continue
        key = (lo + half, hi + half)
        if key not in upper:
            return f"piece {span(lo, hi)} has no mirror at +1/2"
        mate = upper[key]
        if not cover.adj[target] >> mate & 1:
            return (
                f"mirror pair {span(lo, hi)} targets {cover.labels[target]} and "
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
    mapping = list(map(_index, mapping))
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

    Endpoints are p/q text from ``graphs._frac_str``, one ``Fraction``
    built per distinct boundary.
    """
    den = hom.den
    ends = {e for lo, hi, _ in hom.tiles for e in (lo, hi)}
    text = {e: _frac_str(Fraction(e, den)) for e in ends}
    labels = cover.labels
    return [
        {"lo": text[lo], "hi": text[hi], "target": labels[target]}
        for lo, hi, target in hom.tiles
    ]


def interval_hom_from_json(data: list[dict], cover: WeightedGraph) -> IntervalHom:
    """The map from ``interval_hom_to_json`` output, endpoints read by ``_rational``.

    A document that is not a list, and a piece that is not such a dict,
    raise ``ValueError``.
    """
    if not isinstance(data, list):
        raise ValueError(f"interval pieces must be a list, not {reprlib.repr(data)}")
    labels = cover.labels
    if len(set(labels)) != len(labels):
        raise ValueError("cover labels are not unique; cannot resolve targets")
    index = {label: z for z, label in enumerate(labels)}
    spans = []
    for entry in data:
        try:
            spans.append((_rational(entry["lo"]), _rational(entry["hi"]), index[entry["target"]]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid interval piece {reprlib.repr(entry)}") from exc
    return IntervalHom._from_tiles(*_over_den(spans))
