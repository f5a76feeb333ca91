"""Verdicts on the limit of the independence measures of tensor powers.

The decision cascade is ordered so that every rule after the first only
fires once the limit is already pinned below 1/2 by the interval
descriptor:

1. a violating independent set forces the limit to 1;
2. otherwise a descriptor exists, so the limit is at most 1/2, and
   a. any power whose independence measure reaches 1/2 settles it there;
      when power 1 does, the later terms are 1/2 without a search,
   b. a bipartition settles it there as well; it is sought only when no
      power was searched (more than ``MWIS_CAP`` vertices), since each side
      X has mu(X) <= mu(N(X)) <= mu(Y) and vice versa, so both sides weigh
      1/2, alpha(G) = 1/2 for any measure and rule a has already fired,
   c. a vertex-transitive uniform graph has a constant sequence, so the
      limit equals the base value,
   d. failing all that, the limit is bracketed between the largest
      computed power value and 1/2.

Every verdict carries a certified upper bound 1 or 1/2 and a checkable
certificate; below 1 it holds the descriptor read off the rule 1 flow.

Majority sets, the vertices of G^n with more than half their coordinates
in an independent set, are the lower-bound objects behind these limits.
``majority_witness`` builds one as a bitmask and re-checks it with the
``tensor`` kernels, which read its neighbourhood and weight in G^n off the
base graph, so no row of the power is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .descriptor import DescriptorReport, descriptor_from_flow
from .errors import SizeCapExceeded
from .graphs import (
    WeightedGraph,
    _positive_int,
    _rational,
    bipartition,
    is_independent,
    is_vertex_transitive_uniform,
    measure_of,
    neighborhood,
)
from .hallflow import (
    HALF,
    cover_flow,
    independent_witness_from_set,
    violating_set_from_flow,
)
from .mwis import AlphaSequence, alpha_sequence
from .tensor import _power_reach, _power_weight, _refuse_oversized


class VerdictKind(Enum):
    EXACT_ONE = "ExactOne"
    EXACT_HALF = "ExactHalf"
    EXACT_VALUE = "ExactValue"
    INTERVAL = "Interval"


@dataclass(frozen=True)
class Certificate:
    """Evidence backing a verdict; fields are filled as the cascade runs."""

    witness: Optional[int] = None
    alpha_terms: tuple[Fraction, ...] = ()
    alpha_truncated: bool = False
    bipartition: Optional[tuple[int, int]] = None
    vertex_transitive: Optional[bool] = None
    bound_limit: Optional[Fraction] = None
    notes: tuple[str, ...] = ()
    descriptor: Optional[DescriptorReport] = None


@dataclass(frozen=True)
class LimitVerdict:
    kind: VerdictKind
    rule: str
    upper_bound: Fraction
    certificate: Certificate
    value: Optional[Fraction] = None
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None


@dataclass(frozen=True)
class BoundSequence:
    """Recursive lower bounds on the power values, with their limit."""

    terms: tuple[Fraction, ...]
    closed_form_limit: Fraction


def classify(g: WeightedGraph, n_max: int) -> LimitVerdict:
    """Run the decision cascade and return a certified verdict.

    ``n_max``, the highest power searched, is a positive int (2.5 raises
    ``TypeError``) that the caller chooses; ``analyze`` passes
    ``mwis.default_power_cap(g.n)`` by default. Size-cap signals never
    abort the classification; whatever was computed stays in the
    certificate and the cascade falls through to the next applicable rule.
    """
    n_max = _positive_int(n_max, "n_max")
    flow = cover_flow(g)
    q = violating_set_from_flow(g, flow)
    if q is not None:
        witness = independent_witness_from_set(g, q)
        limit = lower_bound_sequence(g, witness, 1).closed_form_limit
        cert = Certificate(witness=witness, bound_limit=limit)
        return LimitVerdict(
            VerdictKind.EXACT_ONE, "violating-independent-set", Fraction(1), cert, value=Fraction(1)
        )

    # No violating set: a descriptor exists, so the limit is at most 1/2.
    descriptor = descriptor_from_flow(flow)
    # Every power is at most 1/2 now, so a power that reaches 1/2 ends the
    # searches and the later terms are 1/2.
    seq: AlphaSequence = alpha_sequence(g, n_max, _ceiling=HALF)
    notes: list[str] = []
    if seq.truncated:
        notes.append(f"alpha sequence truncated after {len(seq.terms)} of {n_max} powers")
    if any(t > HALF for t in seq.terms):
        raise AssertionError(
            "independence measure above 1/2 although no violating set exists"
        )

    def bounded_by_half(kind, rule, *, value=None, lo=None, hi=None, **evidence):
        cert = Certificate(
            alpha_terms=seq.terms,
            alpha_truncated=seq.truncated,
            descriptor=descriptor,
            notes=tuple(notes),
            **evidence,
        )
        return LimitVerdict(kind, rule, HALF, cert, value=value, lo=lo, hi=hi)

    if HALF in seq.terms:
        return bounded_by_half(
            VerdictKind.EXACT_HALF, "alpha-reaches-half+descriptor", value=HALF
        )

    sides = None if seq.terms else bipartition(g)
    if sides is not None:
        return bounded_by_half(
            VerdictKind.EXACT_HALF, "bipartite+descriptor", value=HALF, bipartition=sides
        )

    transitive: Optional[bool]
    try:
        transitive = is_vertex_transitive_uniform(g)
    except SizeCapExceeded as exc:
        transitive = None
        notes.append(str(exc))
    if transitive:
        return bounded_by_half(
            VerdictKind.EXACT_VALUE,
            "vertex-transitive-uniform",
            value=seq.terms[0],
            vertex_transitive=True,
        )

    return bounded_by_half(
        VerdictKind.INTERVAL,
        "alpha-bracket+descriptor",
        lo=max(seq.terms, default=Fraction(0)),
        hi=HALF,
        vertex_transitive=transitive,
    )


def lower_bound_sequence(g: WeightedGraph, independent: int, count: int) -> BoundSequence:
    """Affine recursion of lower bounds seeded by an independent set.

    With I the given set, U the vertices outside I and N(I), and m_k the
    independence measure of the k-th power, m_k >= mu(I) + mu(U) m_{k-1}:
    prepend I on the first coordinate or continue an optimal set of the
    remaining power over U. terms[0] is mu(I), and term k lower-bounds
    m_{k+1}; the recursion converges to mu(I) / (mu(I) + mu(N(I))).
    """
    count = _positive_int(count, "count")
    if independent == 0:
        raise ValueError("independent set must be nonempty")
    if not is_independent(g, independent):
        raise ValueError("set is not independent")
    mu_i = measure_of(g, independent)
    mu_ni = measure_of(g, neighborhood(g, independent))
    if mu_i + mu_ni == 0:
        raise ValueError("set and neighborhood both have measure zero; limit undefined")
    mu_u = 1 - mu_i - mu_ni
    terms = [mu_i]
    for _ in range(count - 1):
        terms.append(mu_i + mu_u * terms[-1])
    return BoundSequence(tuple(terms), mu_i / (mu_i + mu_ni))


def majority_set_measure(p: Fraction | str, n: int) -> Fraction:
    """Probability that strictly more than half of n independent trials hit.

    Exact binomial tail: sum over k > n/2 of C(n,k) p^k (1-p)^(n-k). ``p``
    is read by ``graphs._rational``, which refuses exponents, floats and
    bools.
    """
    p = _rational(p)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0,1]")
    n = _positive_int(n, "n")
    q = 1 - p
    return sum(
        (math.comb(n, k) * p**k * q ** (n - k) for k in range(n // 2 + 1, n + 1)),
        Fraction(0),
    )


def majority_witness(g: WeightedGraph, independent: int, n: int) -> int:
    """Vertices of the n-th power with more than half their coordinates inside.

    The set is built level by level as count masks: ``exactly[h]`` holds
    the vertices of the power so far with h coordinates inside, and a new
    leading coordinate c moves each mask up by c times the current size.
    Both properties of the result follow from independence of the base
    set and the product measure, but they are re-verified rather than
    trusted, on the base graph and the set's bitmask alone: its
    neighbourhood in g^n (``tensor._power_reach``) misses it, and its
    exact measure (``tensor._power_weight`` over ``g.scale**n``) equals
    the binomial tail at p = mu(independent). No row or weight of g^n is
    built, but a power over ``MATERIALIZATION_CAP`` vertices is refused
    as in ``tensor_power``.
    """
    if not is_independent(g, independent):
        raise ValueError("set is not independent")
    _refuse_oversized(g.n, n)
    exactly = [1]
    size = 1
    for _ in range(n):
        grown = [0] * (len(exactly) + 1)
        for c in range(g.n):
            hit = independent >> c & 1
            shift = c * size
            for h, mask in enumerate(exactly):
                grown[h + hit] |= mask << shift
        exactly = grown
        size *= g.n
    witness = 0
    for mask in exactly[n // 2 + 1 :]:
        witness |= mask
    if _power_reach(g.adj, n, witness) & witness:
        raise AssertionError("majority set is not independent")
    expected = majority_set_measure(measure_of(g, independent), n)
    if Fraction(_power_weight(g.weights, n, witness), g.scale**n) != expected:
        raise AssertionError("majority set measure disagrees with the binomial tail")
    return witness
