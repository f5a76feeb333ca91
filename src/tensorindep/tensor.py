"""Tensor (categorical) products and powers with product measures.

In the tensor product two pairs are adjacent only when both coordinate
pairs are adjacent in their factors, and the measure of a pair is the
product of the coordinate measures. Powers use a mixed-radix vertex
encoding with the most significant coordinate first, so the n-th power
of a graph on m vertices puts (c_0, ..., c_{n-1}) at index
c_0 * m^(n-1) + ... + c_{n-1}. That makes coordinate projections plain
index arithmetic and keeps every construction deterministic.

Adjacency rows are ``int`` bitmasks, and the product's row (gi, hj) is
``h``'s row hj copied into the block of h.n bits of every neighbour of
gi. A row of ``g`` with lowest bit b is its *shape* (the row shifted
down by b) moved up by b blocks, and the rows of a shape are built once
per call: ``h``'s rows, ORed with one shifted copy of them for each
further bit of the shape. The cheap factor order puts the smaller graph
first, with few bits per shape, so a power is built base first, as
g x g^(n-1). Base rows that are shifts of one another (a cycle, a
complete graph) share one shape and cost one shift of each row; equal
base rows (twins) share one list of rows, and an isolated vertex gets a
block of zero rows.

A product's weights are the products of its factors' integer weights
over the product of their scales (see ``graphs.WeightedGraph``). As each
factor's scale is the sum of its weights, so is the product's, and no
``Fraction`` is built.

Powers are built in one place: ``_powers`` yields the rows and weights of
g, g^2, g^3, ... base first. ``tensor_power`` takes its n-th item and adds
the labels; ``mwis.alpha_sequence`` searches each item as it comes and
builds no graph for it. Whether a power fits a cap is decided in one
place as well: ``_largest_power`` gives the largest exponent within it,
and ``_refuse_oversized`` refuses one past it, for the CLI search cap too.

A question about one vertex set of g^n needs no power at all. Two
kernels answer it from the base and a bitmask over g^n's vertices:
``_power_reach`` gives the set's neighbourhood as one move per coordinate
position, and ``_power_weight`` its integer weight by folding one leading
coordinate at a time. ``classifier.majority_witness`` re-checks its sets
with them, so that K3^12 costs megabytes, where its rows would take
about 35 GB. ``_product_mask`` writes the mask of a product set
S_1 x ... x S_n, one side-pattern class of a bipartite base's power for
``mwis.alpha_sequence``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator, Sequence

from .errors import SizeCapExceeded
from .graphs import WeightedGraph, _index, _positive_int, iter_bits

#: Largest vertex count a product or power will materialize.
MATERIALIZATION_CAP = 10**6


def tensor_product(g: WeightedGraph, h: WeightedGraph) -> WeightedGraph:
    """Tensor product with vertices ordered lexicographically by (g, h) index.

    Both argument orders give the same graph up to the order of the
    coordinates. The cheap order puts the smaller factor first: its rows
    are then built once per shape from shifts of ``h``'s rows (module
    docstring).
    """
    n = g.n * h.n
    if n > MATERIALIZATION_CAP:
        raise SizeCapExceeded.over("power", n, MATERIALIZATION_CAP)
    weights = tuple([a * b for a in g.weights for b in h.weights])
    labels = tuple([f"({a},{b})" for a in g.labels for b in h.labels])
    return WeightedGraph._from_parts(
        labels, weights, g.scale * h.scale, tuple(_rows(g.adj, h.adj))
    )


def _rows(g_adj: Sequence[int], h_adj: Sequence[int]) -> list[int]:
    """Adjacency rows of the product of graphs with rows ``g_adj`` and ``h_adj``.

    Row (gi, hj) holds ``h_adj[hj]`` in the block of every neighbour gj
    of gi, the block of gj being bits gj * len(h_adj) onwards.

    ``built`` maps a row of ``g`` to its block of product rows. A shape
    (a row with bit 0 set) starts from ``h_adj`` itself and ORs in one
    shifted copy of it per further bit; a row with lowest bit b > 0
    shifts its shape's block by b blocks. Equal rows get the same list
    back; its ints are immutable, so sharing them copies nothing. The
    table is local to the call.
    """
    block = len(h_adj)
    adj: list[int] = []
    built: dict[int, list[int]] = {0: [0] * block}
    for row in g_adj:
        rows = built.get(row)
        if rows is None:
            low = (row & -row).bit_length() - 1
            shape = row >> low
            rows = built.get(shape)
            if rows is None:
                rows = list(h_adj)
                for gj in iter_bits(shape ^ 1):
                    shift = gj * block
                    rows = [r | s << shift for r, s in zip(rows, h_adj)]
                built[shape] = rows
            if low:
                shift = low * block
                rows = [r << shift for r in rows]
                built[row] = rows
        adj.extend(rows)
    return adj


@dataclass(frozen=True)
class TensorPowerView:
    """Adjacency oracle for a tensor power too large to materialize.

    Carries only the base graph and the exponent plus the mixed-radix
    codec between coordinate tuples and dense indices.
    """

    base: WeightedGraph
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", _positive_int(self.exponent, "exponent"))

    @property
    def size(self) -> int:
        return self.base.n**self.exponent

    def _coords(self, coords: Sequence[int]) -> Iterator[int]:
        """Each coordinate by ``graphs._index``, refused out of range or at the wrong length."""
        if len(coords) != self.exponent:
            raise ValueError(f"expected {self.exponent} coordinates, got {len(coords)}")
        m = self.base.n
        for c in map(_index, coords):
            if not 0 <= c < m:
                raise ValueError(f"coordinate {c} out of range")
            yield c

    def encode(self, coords: Sequence[int]) -> int:
        index = 0
        for c in self._coords(coords):
            index = index * self.base.n + c
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        index = _index(index)
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range")
        coords = []
        for _ in range(self.exponent):
            index, c = divmod(index, self.base.n)
            coords.append(c)
        return tuple(reversed(coords))


def power_adjacent(view: TensorPowerView, a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff every coordinate pair is adjacent in the base graph.

    Both tuples are read in full first, with ``encode``'s reads and
    messages, so one of the wrong length or with a coordinate out of range
    raises its ``ValueError``. No index is built: the reads are linear in
    the exponent, where the index of the m^n-vertex power would not be.
    """
    a, b = list(view._coords(a)), list(view._coords(b))
    adj = view.base.adj
    return all(adj[x] >> y & 1 for x, y in zip(a, b))


def _largest_power(m: int, limit: int, cap: int) -> int:
    """The largest k <= ``limit`` with ``m**k <= cap``; ``limit`` itself when m < 2.

    The one test of whether a power of an m-vertex graph fits a cap. It is
    0 when m > cap. The running product stops once it passes the cap, so a
    huge ``limit`` costs at most about log2(cap) multiplications, not a
    huge integer.
    """
    if m < 2:
        return limit
    k, size = 0, m
    while k < limit and size <= cap:
        k += 1
        size *= m
    return k


def _powers(g: WeightedGraph) -> Iterator[tuple[Sequence[int], Sequence[int]]]:
    """Adjacency rows and integer weights of g, g^2, g^3, ... in turn.

    Each power is built base first, as g x g^(k-1) (module docstring), and
    only when it is asked for; the weights of g^k are over ``g.scale**k``.
    """
    adj: Sequence[int] = g.adj
    weights: Sequence[int] = g.weights
    while True:
        yield adj, weights
        adj = _rows(g.adj, adj)
        weights = [a * b for a in g.weights for b in weights]


def _refuse_oversized(m: int, n: int, cap: int = MATERIALIZATION_CAP, stage: str = "power") -> None:
    """Refuse a power n below 1, and m**n over ``cap`` vertices, naming ``stage``."""
    n = _positive_int(n, "power")
    if _largest_power(m, n, cap) < n:
        raise SizeCapExceeded.over(stage, f"{m}**{n}", cap)


def tensor_power(g: WeightedGraph, n: int) -> WeightedGraph:
    """Iterated tensor product of ``n`` copies of ``g``; identity at n=1.

    Refuses n < 1 and a power over ``MATERIALIZATION_CAP`` before
    building anything. The rows and weights come from ``_powers``, and
    the graph is built once, with flat labels.
    """
    _refuse_oversized(g.n, n)
    if n == 1:
        return g
    adj, weights = next(islice(_powers(g), n - 1, None))
    # product() enumerates the coordinate tuples in the same mixed-radix
    # order as the indices.
    labels = tuple("(" + ",".join(t) + ")" for t in product(g.labels, repeat=n))
    return WeightedGraph._from_parts(labels, tuple(weights), g.scale**n, tuple(adj))


def _tiled(block: int, width: int, count: int) -> int:
    """``count`` copies of ``block``, one every ``width`` bits from bit 0.

    Built by doubling, so it costs about log2(count) shifts.
    """
    out = offset = 0
    while count:
        if count & 1:
            out |= block << offset
            offset += width
        block |= block << width
        width *= 2
        count >>= 1
    return out


def _power_reach(adj: Sequence[int], n: int, mask: int) -> int:
    """Neighbourhood in g^n of the vertex set ``mask``, g having rows ``adj``.

    Two vertices of g^n are adjacent when every coordinate pair is, so
    the neighbourhood is n moves, one per coordinate position: the set's
    vertices with coordinate c there move to coordinate d, for every
    neighbour d of c. A vertex's coordinate at a position with place
    value P is c when its index lies in the c-th block of P bits of a
    period of m * P bits, so the move is an AND with those blocks and a
    shift by (d - c) * P. That is n * 2|E(g)| shifts of m^n-bit ints, and
    no row of g^n is built.
    """
    m = len(adj)
    neighbours = [list(iter_bits(row)) for row in adj]
    size = place = m**n
    for _ in range(n):
        if not mask:
            break
        place //= m
        first = _tiled((1 << place) - 1, m * place, size // (m * place))
        moved = 0
        for c, ds in enumerate(neighbours):
            part = mask & first << c * place
            if not part:
                continue
            for d in ds:
                shift = (d - c) * place
                moved |= part << shift if shift >= 0 else part >> -shift
        mask = moved
    return mask


def _product_mask(m: int, sides: Sequence[int]) -> int:
    """Mask in g^k of the product set S_1 x ... x S_k, g having m vertices.

    ``sides`` holds each S_i as a bitmask of g's vertices, the most
    significant coordinate first. The mask is built from the last
    coordinate up: the mask over coordinates i+1..k is copied into the
    block of every c in S_i, so coordinate i costs |S_i| shifts.
    """
    mask, place = 1, 1
    for side in reversed(sides):
        out = 0
        for c in iter_bits(side):
            out |= mask << c * place
        mask = out
        place *= m
    return mask


def _power_weight(weights: Sequence[int], n: int, mask: int) -> int:
    """Integer weight, over ``scale**n``, of the vertex set ``mask`` of g^n.

    A vertex weighs the product of its coordinates' weights, so the set
    weighs the sum, over the leading coordinate c, of weights[c] times
    the weight in g^(n-1) of the block of the set under c. ``parts`` maps
    each distinct block of the current level to the factor it carries; a
    majority set has at most n + 1 of them, one per count of coordinates
    inside so far. No weight of g^n is built.
    """
    parts = {mask: 1}
    place = len(weights) ** n
    for _ in range(n):
        place //= len(weights)
        block = (1 << place) - 1
        below: dict[int, int] = {}
        for part, factor in parts.items():
            for w in weights:
                sub = part & block
                part >>= place
                if sub and w:
                    below[sub] = below.get(sub, 0) + factor * w
        parts = below
    return parts.get(1, 0)


def projection_hom(view: TensorPowerView, keep: Iterable[int]) -> list[int]:
    """Coordinate projection from the n-th power onto the power over ``keep``.

    ``keep`` must be a nonempty proper subset of the coordinate positions;
    the kept coordinates stay in increasing position order. The returned
    list maps each source index to its image index and is always a
    measure-preserving homomorphism. A power over ``MATERIALIZATION_CAP``
    vertices is refused before anything is built, as in ``tensor_power``.

    The list is built one position at a time, the last first: after
    position p it maps the indices of coordinates p..n-1 to their image,
    and p - 1, the next most significant, repeats that list m times, each
    copy offset by its coordinate's place value in the image (0 when the
    position is dropped).
    """
    kept = sorted(set(map(_index, keep)))
    if not kept:
        raise ValueError("keep must be nonempty")
    if any(not 0 <= k < view.exponent for k in kept):
        raise ValueError("keep contains an invalid coordinate position")
    if len(kept) == view.exponent:
        raise ValueError("keep must be a proper subset of the coordinates")
    m = view.base.n
    _refuse_oversized(m, view.exponent)
    mapping = [0]
    place = 1
    for position in reversed(range(view.exponent)):
        if position in kept:
            mapping = [c + i for c in range(0, m * place, place) for i in mapping]
            place *= m
        else:
            mapping = mapping * m
    return mapping
