"""Exact maximum-measure independent sets.

The optimizer is a branch-and-bound search on bitset graphs: absorb
isolated vertices and isolated edges (an edge component takes its
heavier end, with no search set up for it; K2^k is nothing else), split
the other connected components (tensor powers of sparse graphs shatter
into many), branch on a maximum-degree vertex, and prune
with a greedy clique-cover bound. A candidate set of maximum degree 2 is
a union of paths and cycles and is solved by dynamic programming instead
of branching. It runs on the graph's integer weights, its measures over
one common denominator, so the whole search stays in arbitrary-precision
integers and the optimum is exact.

False twins, non-adjacent vertices with one neighbourhood, are merged
before any branching. The opening scan of ``_max_weight`` groups the
vertices by their neighbourhood inside the mask, and searches each class
of two or more as its lowest vertex, carrying the class's total weight;
the weights are copied once, and only when some class has a second
member. A set holding one twin stays independent when the others join
it, so for any nonnegative weights some optimum takes all of a class or
none, and the value is unchanged. The merge is the quotient map
G -> G/twins, a measure-preserving homomorphism with the same alpha. A
tuple's neighbourhood in g^k is the product of its coordinates'
neighbourhoods, so the twin classes of g^k are products of g's, and a
base with twins has exponentially many in its powers: each component of
P3^5 is a complete bipartite graph and collapses to one edge. The merge
does not move the canonical witness below: under tie-ranked weights
every weight is at least 1, so the unique optimum is a union of twin
classes.

The search is one loop over an explicit stack of (candidates, weight
taken) pairs, the include child on top, so the interpreter's stack does
not grow with the depth of the search. When a branch's candidates fall
apart, the side with at most half of them is solved exactly in a nested
search and the other side stays in the loop; nested searches are
therefore fewer than log2(MWIS_CAP) = 12 deep, whatever the input.

On a triangle-free graph the clique cover is a cover by edges and cannot
bound below about half the weight, while an odd cycle of length L holds
at most (L-1)/2 of its L vertices. So on a component with an odd cycle,
``_odd_cycle_bound`` takes out greedy vertex-disjoint shortest odd cycles
of length at least 5 and leaves a rest (triangles stay in the rest, where
the clique cover already bounds them). An independent set meets each
cycle in an independent set of that cycle and the rest in at most one
vertex per clique, so the exact cycle DP of each cycle plus the clique
cover of the rest bounds the component from above, for any measure.
When that bound is at most the greedy incumbent, the incumbent is
optimal and the component needs no search: on C5^3 and C5^4 the bound
finds the diagonal 5-cycles and equals the optimum 2/5. It is taken
once, at the root: tried at every node it pruned few of them and slowed
the search down, on weighted powers of C5 and on relabeled C5^3 as well.
Components come from the layered walk ``graphs._walk``, which yields
each layer with the union of its rows, so an edge inside a layer, and
with it an odd cycle, costs one AND per layer to see: bipartite
components skip the bound at no extra cost. The bound walks the same
way, inside the free vertices.

The optimum value is independent of search order. The reported witness
is canonical as well, and comes from the same single search: vertex v's
integer weight w becomes ``w << n | 1 << (n - 1 - v)``. The tie bits of
all n vertices sum to at most 2^n - 1, less than one unit of integer
measure after the shift by n, so they can never outweigh a measure
difference; among the sets of maximum measure they rank the one that
prefers inclusion of lower-indexed vertices, vertex 0 first. The optimum then encodes both results: its
high part is the value and its low n bits spell out the witness.

``alpha_sequence`` searches the rows and weights that ``tensor._powers``
builds and builds no graph for a power. It fixes its last power before
any search, so a base over ``MWIS_CAP`` has not even power 1 searched,
and one rule fills the last term up to it once a term reaches a ceiling
(1 by default) or an odd cycle cover settles the answer. Let sigma be a
permutation of the vertices with v ~ sigma(v), whose cycles all have odd
lengths of at least 3 dividing an odd L, and with the measure constant
on each cycle. Applied to every coordinate at once, sigma splits g^n into
odd cycles of lengths dividing L that carry a constant measure, and an
independent set takes at most (L-1)/(2L) of each, so alpha(g^n) <=
(L-1)/(2L) for every n. When alpha(g) equals that bound, the
nondecreasing sequence is constant. The search for such a cover is one
loop over an explicit stack of paths too, and gives up after
``_COVER_STEPS`` path extensions. When no cover settles it, a uniform
vertex-transitive base of at most ``TRANSITIVITY_CAP`` vertices does:
then alpha(g x h) = max(alpha(g), alpha(h)) for every uniform h (Zhang,
J. Combin. Theory Ser. B, 2012), so alpha(g^n) = alpha(g) for every n.
Complete graphs K4 and up have no odd cover and stop there.

On a bipartite base with sides (X, Y), ``alpha_sequence`` searches only
part of each power. Every edge of g^k joins a vertex whose coordinates
follow a side pattern p in {X, Y}^k to one following the complementary
pattern ~p (Weichsel, "The Kronecker product of graphs", Proc. AMS
1962), so g^k falls into 2^(k-1) classes V(p) | V(~p) with no edge
between two of them, and its optimum is the sum of theirs. Permuting the
coordinates of g^k is a measure-preserving automorphism, and maps a
class onto one whose p has as many X's; so the classes fall into orbits,
one per j = 0 .. k // 2, and the orbit of V(X^j Y^(k-j)) | V(Y^j X^(k-j))
holds C(k, j) classes, C(k, j) / 2 when 2j = k. One search per orbit,
times the orbit's size, gives the optimum: P3^7 takes four searches
over 255 of its 2,187 vertices, K2^12 seven searches of one edge each.
Each class is a union of components, so disconnected bases and isolated
vertices need nothing more; an edgeless base has Y empty, and its only
nonempty class is everything. A base with an odd cycle is one class,
searched whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import SizeCapExceeded
from .graphs import (
    TRANSITIVITY_CAP,
    WeightedGraph,
    _positive_int,
    _walk,
    bipartition,
    is_independent,
    is_vertex_transitive_uniform,
    iter_bits,
    mask_from,
)
from .tensor import _largest_power, _powers, _product_mask

#: Largest vertex count the independent-set search accepts.
MWIS_CAP = 4096

# Path extensions the cycle-cover search may make before alpha_sequence
# falls back to searching the powers; a count, so runs stay deterministic.
_COVER_STEPS = 20_000


def default_power_cap(vertex_count: int) -> int:
    """Largest exponent whose power stays within ``MWIS_CAP`` (at least 1).

    ``tensor._largest_power`` decides what fits; a one-vertex base, whose
    every power fits, gets 1.
    """
    if vertex_count <= 1:
        return 1
    return max(1, _largest_power(vertex_count, MWIS_CAP, MWIS_CAP))


@dataclass(frozen=True)
class AlphaResult:
    """Maximum independent measure together with a witness attaining it."""

    value: Fraction
    witness: int


@dataclass(frozen=True)
class AlphaSequence:
    """Values for the powers g^1 .. g^n, possibly cut short by the size cap."""

    terms: tuple[Fraction, ...]
    truncated: bool


def _greedy(adj: tuple[int, ...], weights: Sequence[int], mask: int) -> int:
    order = sorted(iter_bits(mask), key=lambda v: (-weights[v], v))
    blocked = 0
    total = 0
    for v in order:
        if not blocked >> v & 1:
            total += weights[v]
            blocked |= adj[v] | (1 << v)
    return total


def _component_of(adj: tuple[int, ...], mask: int, start_bit: int) -> tuple[int, bool]:
    """The component of ``mask`` holding ``start_bit``, and whether it has an odd cycle.

    It is the union of the layers of ``graphs._walk`` from the start, and
    has an odd cycle exactly when an edge lies inside one of them.
    """
    comp = 0
    odd = False
    for layer, reach in _walk(adj, mask, start_bit):
        comp |= layer
        if reach & layer:
            odd = True
    return comp, odd


def _max_weight(adj: tuple[int, ...], weights: Sequence[int], mask: int) -> int:
    """Maximum total weight of an independent subset of ``mask``.

    One scan absorbs the isolated vertices and the isolated edges: when
    v's only neighbour u in ``mask`` has no other neighbour there, {u, v}
    is a whole component, and the heavier end (under tie-ranked weights,
    the canonical one) is added once, at the lower endpoint. A pendant
    vertex whose neighbour has other neighbours stays. The same scan
    merges each class of false twins into its lowest vertex, on a copy
    of ``weights`` (module docstring). The remaining connected components
    are solved separately; tensor powers of sparse graphs fall apart this
    way (K2^k into 2^(k-1) edges), which is where most of the speed comes
    from.
    """
    total = 0
    rest = []
    first: dict[int, int] = {}
    merged = None
    for v in iter_bits(mask):
        nb = adj[v] & mask
        if not nb:
            total += weights[v]
        elif nb.bit_count() == 1 and (adj[u := nb.bit_length() - 1] & mask).bit_count() == 1:
            if v < u:
                total += weights[v] if weights[v] > weights[u] else weights[u]
        elif (twin := first.setdefault(nb, v)) == v:
            rest.append(v)
        else:
            if merged is None:
                merged = list(weights)
            merged[twin] += weights[v]
    if merged is not None:
        weights = merged
    live = mask if len(rest) == mask.bit_count() else mask_from(rest)
    while live:
        comp, odd = _component_of(adj, live, live & -live)
        live &= ~comp
        total += _branch_and_bound(adj, weights, comp, odd)
    return total


def _cover_bound(adj: tuple[int, ...], weights: Sequence[int], cand: int) -> int:
    # Greedy clique cover: an independent set meets each clique at most
    # once, so the heaviest member per clique is a valid upper bound.
    bound = 0
    remaining = cand
    while remaining:
        low = remaining & -remaining
        v = low.bit_length() - 1
        heaviest = weights[v]
        grow = adj[v] & remaining
        clique = low
        while grow:
            low = grow & -grow
            u = low.bit_length() - 1
            clique |= low
            if weights[u] > heaviest:
                heaviest = weights[u]
            grow &= adj[u]
        bound += heaviest
        remaining &= ~clique
    return bound


def _chain_max(weights: Sequence[int], chain: Sequence[int]) -> int:
    """Maximum weight of an independent set of the path ``chain``."""
    take = skip = 0
    for v in chain:
        take, skip = skip + weights[v], take if take > skip else skip
    return take if take > skip else skip


def _cycle_max(weights: Sequence[int], cycle: Sequence[int]) -> int:
    """Maximum weight of an independent set of the cycle ``cycle``.

    Either the first vertex stays out and the rest is a path, or it is in
    and so are neither of its two neighbors on the cycle.
    """
    return max(
        _chain_max(weights, cycle[1:]),
        weights[cycle[0]] + _chain_max(weights, cycle[2:-1]),
    )


def _paths_and_cycles_max(adj: tuple[int, ...], weights: Sequence[int], cand: int) -> int:
    """Exact optimum of ``cand`` when every vertex has one or two neighbors in it.

    Such a set falls apart into paths and cycles: each path is walked from
    an end, then what is left are cycles, walked from any vertex.
    """
    ends = 0
    for v in iter_bits(cand):
        if (adj[v] & cand).bit_count() == 1:
            ends |= 1 << v
    total = 0
    left = cand
    while left:
        start = ends & left or left
        v = (start & -start).bit_length() - 1
        order = []
        while True:
            order.append(v)
            left &= ~(1 << v)
            step = adj[v] & left
            if not step:
                break
            v = (step & -step).bit_length() - 1
        if ends >> order[0] & 1:
            total += _chain_max(weights, order)
        else:
            total += _cycle_max(weights, order)
    return total


def _odd_cycle_bound(adj: tuple[int, ...], weights: Sequence[int], comp: int) -> int:
    """Upper bound on the optimum of ``comp``: odd cycles exactly, the rest by cliques.

    Greedy: from the lowest free vertex, a breadth-first walk inside the
    free vertices (``graphs._walk``) stops at the first layer with an
    inner edge u-w, u the lowest vertex of the layer with a neighbour in
    it and w the lowest such neighbour; the walks back from u and w along
    lowest-indexed parents meet, and close a shortest odd cycle. A cycle
    of length at least 5 adds its ``_cycle_max`` and leaves the rest; a
    triangle stays in the rest, where the clique cover already bounds it.
    A walk that finds no inner edge has traversed a bipartite piece, which
    stays in the rest whole. An independent set meets each cycle in an
    independent set of that cycle, and the rest in one per clique.
    """
    bound = 0
    free = rest = comp
    while free:
        layers = []
        for layer, reach in _walk(adj, free, free & -free):
            layers.append(layer)
            if reach & layer:
                break
        else:
            free &= ~sum(layers)
            continue
        inner = reach & layer
        u = (inner & -inner).bit_length() - 1
        inner = adj[u] & layer
        w = (inner & -inner).bit_length() - 1
        left, right = [u], [w]
        for layer in reversed(layers[:-1]):
            x = adj[left[-1]] & layer
            y = adj[right[-1]] & layer
            x = (x & -x).bit_length() - 1
            y = (y & -y).bit_length() - 1
            left.append(x)
            if x == y:
                break
            right.append(y)
        cycle = tuple(reversed(left)) + tuple(right)
        mask = sum(1 << v for v in cycle)
        free &= ~mask
        if len(cycle) >= 5:
            rest &= ~mask
            bound += _cycle_max(weights, cycle)
    return bound + _cover_bound(adj, weights, rest)


def _branch_and_bound(adj: tuple[int, ...], weights: Sequence[int], comp: int, odd: bool) -> int:
    best = _greedy(adj, weights, comp)
    if odd and _odd_cycle_bound(adj, weights, comp) <= best:
        return best

    # Depth first over (candidates, weight taken so far). The exclude child
    # is pushed first, so the include subtree is searched first.
    stack = [(comp, 0)]
    while stack:
        cand, current = stack.pop()
        # One scan: take the isolated vertices, find the max-degree pivot.
        isolated = 0
        pivot = -1
        pivot_degree = 0
        for v in iter_bits(cand):
            d = (adj[v] & cand).bit_count()
            if d == 0:
                current += weights[v]
                isolated |= 1 << v
            elif d > pivot_degree:
                pivot_degree = d
                pivot = v
        cand ^= isolated
        if current > best:
            best = current
        if pivot < 0 or current + _cover_bound(adj, weights, cand) <= best:
            continue
        if pivot_degree <= 2:
            current += _paths_and_cycles_max(adj, weights, cand)
            if current > best:
                best = current
            continue
        # Detached parts are strictly smaller subproblems. The side with at
        # most half the vertices is solved exactly in a nested search, so
        # searches nest fewer than log2(MWIS_CAP) deep; the other side
        # stays in this one.
        piece, _ = _component_of(adj, cand, 1 << pivot)
        if piece != cand:
            rest = cand & ~piece
            if 2 * piece.bit_count() <= cand.bit_count():
                stack.append((rest, current + _max_weight(adj, weights, piece)))
                continue
            current += _max_weight(adj, weights, rest)
            cand = piece
        stack.append((cand & ~(1 << pivot), current))
        stack.append((cand & ~(adj[pivot] | (1 << pivot)), current + weights[pivot]))
    return best


def alpha_bar(g: WeightedGraph) -> AlphaResult:
    """Maximum measure of an independent set, with a canonical witness.

    Among all optimal sets the witness is the one that prefers inclusion
    of lower-indexed vertices, so identical inputs always produce
    identical output. One search finds both: vertex v's weight carries
    the tie bit 2^(n-1-v) below its measure, and since all tie bits
    together stay under 2^n they never outweigh one unit of measure.
    """
    if g.n > MWIS_CAP:
        raise SizeCapExceeded.over("search", g.n, MWIS_CAP)
    n = g.n
    weights = g.weights
    ranked = [w << n | 1 << (n - 1 - v) for v, w in enumerate(weights)]
    best = _max_weight(g.adj, ranked, g.full_mask)
    value = best >> n
    witness = 0
    for bit in iter_bits(best & g.full_mask):
        witness |= 1 << (n - 1 - bit)
    taken = sum(weights[v] for v in iter_bits(witness))
    if taken != value or not is_independent(g, witness):
        raise AssertionError("canonical witness failed to attain the optimum")
    return AlphaResult(Fraction(value, g.scale), witness)


def _odd_cover_settles(g: WeightedGraph, alpha: Fraction) -> bool:
    """Whether an odd cycle cover of ``g`` proves alpha(g^n) = ``alpha`` for all n.

    Requires alpha < 1/2 with L = 1/(1 - 2 alpha) an odd integer, then
    backtracks for a cover whose cycles have lengths of at least 3
    dividing L and a constant measure on each: every step closes a cycle
    through the lowest free vertex, over free vertices of its measure.
    Gives up (False) after ``_COVER_STEPS`` path extensions.
    """
    if alpha >= Fraction(1, 2):
        return False
    ratio = 1 / (1 - 2 * alpha)
    if ratio.denominator != 1 or ratio.numerator % 2 == 0:
        return False
    period = ratio.numerator
    adj, weights = g.adj, g.weights
    # Depth first over (free, start, last, length, same): a path from start
    # to last of that length, the free vertices left, and those of the
    # cycle's measure. A state of length 0 opens a cycle at the lowest free
    # vertex; each pass of the loop makes one path extension.
    stack = [(g.full_mask, 0, 0, 0, 0)]
    for _ in range(_COVER_STEPS):
        if not stack:
            return False
        free, start, last, length, same = stack.pop()
        if not length:
            start = last = (free & -free).bit_length() - 1
            same = sum(1 << v for v in iter_bits(free) if weights[v] == weights[start])
            free &= ~(1 << start)
            length = 1
        if length < period:
            grow = adj[last] & free & same
            while grow:
                v = grow.bit_length() - 1
                grow ^= 1 << v
                stack.append((free & ~(1 << v), start, v, length + 1, same))
        # No self-loops and an odd period: a closable length is at least 3.
        # The closing move goes on top, so it is tried first.
        if period % length == 0 and adj[last] >> start & 1:
            if not free:
                return True
            stack.append((free, 0, 0, 0, 0))
    return False


def _pattern_classes(
    m: int, sides: Optional[tuple[int, int]], k: int
) -> Iterator[tuple[int, int]]:
    """(orbit size, mask) of one side-pattern class of g^k per orbit (module docstring).

    g has m vertices and ``sides`` is its bipartition (X, Y); without one,
    the only class is the whole power, once.
    """
    if sides is None:
        yield 1, (1 << m**k) - 1
        return
    x, y = sides
    for j in range(k // 2 + 1):
        pattern = [x] * j + [y] * (k - j)
        flipped = [y] * j + [x] * (k - j)
        size = math.comb(k, j) // (2 if 2 * j == k else 1)
        yield size, _product_mask(m, pattern) | _product_mask(m, flipped)


def alpha_sequence(
    g: WeightedGraph, n_max: int, *, _ceiling: Fraction = Fraction(1)
) -> AlphaSequence:
    """Exact values for g^1 .. g^n_max, stopping early at the size cap.

    The last power is fixed before any search, by one call of
    ``tensor._largest_power``: the largest k <= ``n_max`` with g^k within
    ``MWIS_CAP`` vertices. That is ``n_max`` for a one-vertex base, 0 when g
    has more than ``MWIS_CAP`` vertices, and otherwise at most
    ``default_power_cap(g.n)``; the sequence is ``truncated`` when it is
    below ``n_max``. The searches end at a term equal to ``_ceiling``
    (1 by default; the classifier passes 1/2 when no set is violating),
    which no power exceeds, or after power 1 when an odd cycle cover
    proves alpha(g^n) <= alpha(g) or g is uniform, vertex transitive and
    within ``TRANSITIVITY_CAP`` (module docstring). One fill then
    repeats the last term up to the last power, as the sequence is
    nondecreasing; a decrease would mean a bug in the search and raises.
    ``n_max`` is read by ``graphs._positive_int``, so 2.5 raises ``TypeError``.

    Each power is searched one side-pattern class per orbit of the
    coordinate permutations, on a bipartite base, and whole otherwise
    (module docstring); the classes index the rows of the whole power.
    """
    n_max = _positive_int(n_max, "n_max")
    last = _largest_power(g.n, n_max, MWIS_CAP)
    # Power 1 is one class, the whole base, with or without sides.
    sides = bipartition(g) if last > 1 else None
    terms: list[Fraction] = []
    # zip asks the range first, so no power past ``last`` is built.
    for k, (adj, weights) in zip(range(1, last + 1), _powers(g)):
        total = sum(
            size * _max_weight(adj, weights, mask)
            for size, mask in _pattern_classes(g.n, sides, k)
        )
        value = Fraction(total, g.scale**k)
        if terms and value < terms[-1]:
            raise AssertionError(
                f"independence measure decreased from {terms[-1]} to {value} at power {k}"
            )
        terms.append(value)
        if value == _ceiling or k == 1 < last and (
            _odd_cover_settles(g, value)
            or g.n <= TRANSITIVITY_CAP
            and is_vertex_transitive_uniform(g)
        ):
            break
    terms += terms[-1:] * (last - len(terms))
    return AlphaSequence(tuple(terms), last < n_max)
