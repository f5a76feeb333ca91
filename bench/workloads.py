"""The four benchmark workloads: seeded inputs, operations and their checks.

Each workload function returns one *pass*: the list of operations the closed loop
runs in order, again and again. Every operation carries a check written
against :mod:`reference`, which the runner calls outside the timed
interval. A check verifies the first result of an operation in full and
afterwards requires each repeat to reproduce that verified result, since
every operation is deterministic. Reference facts (brute-force values,
violating sets, golden reports) are computed or read at the first check,
so set-up holds only input generation.

Sizes are fixed per slot and the seed draws structure (edges, measures,
labels, vertex order), so the cost of a pass barely moves between seeds
while the inputs differ.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import reference as ref

HALF = Fraction(1, 2)


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # Property whose share each workload reports: the base graph has no
    # independent set outweighing its neighbourhood (the flow saturates).
    # Called after the timed runs.
    no_violating: Callable[[], bool]
    out_bytes: Callable[[object], int] = field(default=lambda out: 0)


def verified_once(full_check: Callable[[object], Optional[str]], key: Callable[[object], object]):
    """Check the first result in full, then require repeats to match it.

    Only the hash of the verified key is kept, so no checker state the
    size of an output stays alive for the rest of the run.
    """
    seen = []

    def check(out) -> Optional[str]:
        if seen:
            return None if hash(key(out)) == seen[0] else "result differs from the verified first run"
        problem = full_check(out)
        if problem is None:
            seen.append(hash(key(out)))
        return problem

    return check


class Base:
    """Raw base-graph data the checks use: adjacency masks and measures."""

    def __init__(self, edges, measures):
        self.n = len(measures)
        self.measures = [Fraction(m) for m in measures]
        adj = [0] * self.n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = adj
        self.edges = sorted((min(u, v), max(u, v)) for u, v in edges)

    def build(self, pkg):
        return pkg.graphs.WeightedGraph(self.measures, self.edges)

    @functools.cached_property
    def violating(self) -> bool:
        return ref.has_violating_set(self.adj, self.measures)


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def uniform(n):
    return [Fraction(1, n)] * n


def random_base(rng, n, violating):
    """Random weighted base on n vertices, none isolated, with the asked property."""
    p = 0.45 if violating else 0.7
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        base = Base(edges, [1] * n)
        if not all(base.adj):
            continue
        weights = [rng.randint(1, 6) for _ in range(n)]
        base = Base(edges, [Fraction(w, sum(weights)) for w in weights])
        if base.violating == violating:
            return base


# ---------------------------------------------------------------- powers

def check_sequence(base, k, transitive):
    def full(seq) -> Optional[str]:
        alpha = ref.brute_alpha(base.adj, base.measures)
        terms = list(seq.terms)
        if seq.truncated or len(terms) != k:
            return f"expected {k} terms, got {len(terms)} (truncated={seq.truncated})"
        if any(b < a for a, b in zip(terms, terms[1:])):
            return "sequence decreases"
        if not base.violating and any(t > HALF for t in terms):
            return "term above 1/2 without a violating set"
        if terms[0] != alpha:
            return f"alpha(G) is {alpha}, got {terms[0]}"
        if transitive and any(t != alpha for t in terms):
            return "vertex-transitive uniform base must keep alpha(G) at every power"
        for j in range(2, k + 1):
            if base.n**j <= 20:
                adj, measures = ref.power_graph(base.adj, base.measures, j)
                if terms[j - 1] != ref.brute_alpha(adj, measures):
                    return f"power {j} disagrees with brute force"
        return None

    return verified_once(full, lambda seq: (tuple(seq.terms), seq.truncated))


def check_alpha_bar(base, k, transitive):
    def full(res) -> Optional[str]:
        alpha = ref.brute_alpha(base.adj, base.measures)
        ok, mass = ref.witness_in_power_ok(base.adj, base.measures, k, res.witness)
        if not ok:
            return "witness is not independent"
        if mass != res.value:
            return f"witness measure {mass} differs from value {res.value}"
        if res.value < alpha:
            return "power value below alpha(G)"
        if not base.violating and res.value > HALF:
            return "value above 1/2 without a violating set"
        if transitive and res.value != alpha:
            return "vertex-transitive uniform base must keep alpha(G)"
        if base.n**k <= 20:
            adj, measures = ref.power_graph(base.adj, base.measures, k)
            if res.value != ref.brute_alpha(adj, measures):
                return "value disagrees with brute force"
        return None

    return verified_once(full, lambda res: (res.value, res.witness))


def powers_ops(pkg, rng, workdir, root):
    # Op weights place p50 inside the K3^4 alpha_bar block (a witness op on
    # a base with no violating set, about 20 ms scaled) and p90 inside the
    # P3^5 alpha_bar block (a witness op on a base with a violating set,
    # about 34 ms); only the two C5^3 ops rank above it. Of the 65 ops per pass,
    # the 27 lighter ones, the seeded bases among them (at most 49 power
    # vertices, a few ms), all rank below both blocks, so the percentiles
    # never sit on a boundary between op classes and do not move with the
    # seed.
    families = [
        # (label, base, vertex-transitive uniform, [(kind, power, weight), ...])
        ("C5", Base(cycle_edges(5), uniform(5)), True,
         [("seq", 3, 1), ("bar", 3, 1), ("seq", 2, 1), ("bar", 2, 1)]),
        ("K3", Base([(0, 1), (1, 2), (0, 2)], uniform(3)), True,
         [("seq", 4, 1), ("bar", 4, 10), ("seq", 3, 1), ("bar", 3, 1), ("bar", 2, 1)]),
        ("C7chord", Base(cycle_edges(7) + [(0, 2)], uniform(7)), False,
         [("seq", 2, 1), ("bar", 2, 1)]),
        ("P3", Base([(0, 1), (1, 2)], uniform(3)), False,
         [("seq", 5, 1), ("bar", 5, 26), ("seq", 4, 1), ("bar", 4, 1), ("bar", 2, 1)]),
        ("K2biased", Base([(0, 1)], [Fraction(2, 3), Fraction(1, 3)]), False,
         [("seq", 7, 1), ("bar", 7, 1), ("bar", 4, 1)]),
    ]
    for i in range(6):
        n = 4 + i % 4
        base = random_base(rng, n, violating=i % 2 == 0)
        families.append((f"R{i}n{n}", base, False, [("seq", 2, 1), ("bar", 2, 1)]))

    ops = []
    for label, base, transitive, plan in families:
        g = base.build(pkg)
        no_violating = lambda base=base: not base.violating
        for kind, k, weight in plan:
            if kind == "seq":
                op = Op("alpha_sequence", f"{label}^{k}",
                        lambda g=g, k=k: pkg.mwis.alpha_sequence(g, k),
                        check_sequence(base, k, transitive), no_violating)
            else:
                op = Op("alpha_bar", f"{label}^{k}",
                        lambda g=g, k=k: pkg.mwis.alpha_bar(pkg.tensor.tensor_power(g, k)),
                        check_alpha_bar(base, k, transitive), no_violating)
            ops.extend([op] * weight)
    warmup = next(op for op in ops if op.label == "C5^2" and op.kind == "alpha_bar")
    return ops, warmup


# ------------------------------------------------------------------ hall

# (kind, n): "planted" is a weighted graph with a planted violating set,
# "cycles" a uniform union of two Hamiltonian cycles (4-regular), "cubic" a
# uniform bipartite 3-regular graph. Thirteen cubic n=500 graphs hold p50
# and seven cubic n=1400 graphs hold p90. Flow cost varies between random
# graphs of one size (by about 9% for cubic n=500, 4% for cubic n=1400 and
# more for cycle unions), so each block takes the median of many graphs.
HALL_PLAN = (
    *(("planted", n) for n in (100, 120, 160, 250, 300, 350, 800, 1000, 1400, 2000)),
    ("cycles", 100), ("cubic", 160), ("cubic", 200), ("cycles", 250), ("cycles", 350),
    *(("cubic", 500),) * 13,
    ("cycles", 1000),
    *(("cubic", 1400),) * 7,
    ("cycles", 2000),
)


def regular_edges(rng, n, bipartite):
    """Random simple regular graph: 3 perfect matchings across two halves
    (bipartite, 3-regular) or a union of 2 Hamiltonian cycles (4-regular)."""
    edges = set()
    rounds = 3 if bipartite else 2
    for _ in range(rounds):
        while True:
            if bipartite:
                half = n // 2
                perm = list(range(half))
                rng.shuffle(perm)
                new = {(i, half + perm[i]) for i in range(half)}
            else:
                order = list(range(n))
                rng.shuffle(order)
                new = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
            if not new & edges:
                edges |= new
                break
    return sorted(edges)


def planted_base(rng, n, avg_degree=4):
    """Sparse weighted graph with a planted independent set I whose measure
    exceeds that of N(I), by the smallest step 1/W of the total weight W
    whenever the drawn weights do not already make I heavier."""
    edges = set()
    while len(edges) < n * avg_degree // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    base = Base(sorted(edges), [1] * n)
    planted = 0
    blocked = 0
    for v in rng.sample(range(n), max(2, n // 10)):
        if not blocked >> v & 1:
            planted |= 1 << v
            blocked |= base.adj[v] | 1 << v
    weights = [rng.randint(1, 4) for _ in range(n)]
    members = ref.bits(planted)
    deficit = sum(weights[v] for v in ref.bits(ref.neighbours(base.adj, planted))) - sum(
        weights[v] for v in members
    ) + 1
    for i in range(max(0, deficit)):
        weights[members[i % len(members)]] += 1
    total = sum(weights)
    return Base(base.edges, [Fraction(w, total) for w in weights])


def check_violating(base):
    def full(witness) -> Optional[str]:
        if witness is None:
            return "planted violating set not found"
        if not ref.is_violating_witness(base.adj, base.measures, witness):
            return "witness is not an independent set outweighing its neighbourhood"
        return None

    return verified_once(full, lambda w: w)


def check_descriptor(base):
    def full(out) -> Optional[str]:
        report, problem = out
        if problem is not None:
            return f"check_interval_hom reports: {problem}"
        if report.upper_bound != HALF:
            return "descriptor upper bound is not 1/2"
        pieces = [(p.lo, p.hi, p.target) for p in report.hom.pieces]
        return ref.descriptor_problem(pieces, base.adj, base.measures)

    return verified_once(full, lambda out: tuple((p.lo, p.hi, p.target) for p in out[0].hom.pieces))


def hall_ops(pkg, rng, workdir, root):
    ops = []
    for kind, n in HALL_PLAN:
        if kind == "planted":
            base = planted_base(rng, n)
            g = base.build(pkg)
            ops.append(Op("violating_independent_set", f"planted n={n}",
                          lambda g=g: pkg.hallflow.violating_independent_set(g),
                          check_violating(base), lambda: False))
            continue
        base = Base(regular_edges(rng, n, bipartite=kind == "cubic"), uniform(n))
        g = base.build(pkg)

        def descriptor(g=g):
            report = pkg.descriptor.build_descriptor(g)
            cover = pkg.hallflow.build_double_cover(g)
            return report, pkg.descriptor.check_interval_hom(report.hom, cover)

        ops.append(Op("build_descriptor", f"{kind} n={n}", descriptor, check_descriptor(base),
                      lambda: True))
    warmup = next(op for op in ops if op.label == "cycles n=100")
    return ops, warmup


# --------------------------------------------------------------- analyze

# Demo inputs, each at powers that finish (the largest included); default
# flags do not finish on c5_cycle, c7_chord and triangle, so every op
# passes --max-power.
DEMO_RUNS = (
    ("c5_cycle.txt", 3),
    ("c7_chord.json", 2),
    ("triangle.json", 5),
    ("k2_uniform.json", 8),
    ("k2_uniform.json", 10),
    ("k2_uniform.json", 11),
    ("k2_uniform.json", 12),
    ("k2_biased.json", 8),
    ("k2_biased.json", 10),
    ("k2_biased.json", 11),
    ("k2_biased.json", 12),
    ("p3_path.json", 5),
    ("p3_path.json", 7),
)
# Copies per pass: the twelve power-11 K2 reports form the block p90 falls
# in, above every generated input (each a few ms at power 1 or 2).
DEMO_WEIGHT = {("k2_uniform.json", 11): 6, ("k2_biased.json", 11): 6}


def golden_path(name, k):
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", f"{name}.power{k}.out")


def run_cli(pkg, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pkg.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def write_graph(path, base, ids, as_json):
    if as_json:
        doc = {
            "vertices": [{"id": ids[v], "measure": f"{m.numerator}/{m.denominator}"}
                         for v, m in enumerate(base.measures)],
            "edges": [[ids[u], ids[v]] for u, v in base.edges],
        }
        text = json.dumps(doc, indent=1)
    else:
        lines = [f"v {ids[v]} {m.numerator}/{m.denominator}" for v, m in enumerate(base.measures)]
        lines += [f"e {ids[u]} {ids[v]}" for u, v in base.edges]
        text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def shuffled(rng, base):
    """The same graph with vertices in a seeded order under seeded ids."""
    order = list(range(base.n))
    rng.shuffle(order)
    where = {v: i for i, v in enumerate(order)}
    relabeled = Base([(where[u], where[v]) for u, v in base.edges], [base.measures[v] for v in order])
    ids = [f"x{rng.randrange(10**6)}_{i}" for i in range(base.n)]
    return relabeled, ids


def random_tree(rng, n):
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    weights = [rng.randint(1, 5) for _ in range(n)]
    return Base(edges, [Fraction(w, sum(weights)) for w in weights])


def check_report(base, ids, expect):
    def full(out) -> Optional[str]:
        expected_kind, expected_value = expect()
        rc, stdout, _ = out
        if rc != 0:
            return f"exit code {rc}"
        report = json.loads(stdout)
        if report["timing"] is not None:
            return "timing is not null"
        verdict = report["verdict"]
        if verdict["kind"] != expected_kind:
            return f"verdict {verdict['kind']}, expected {expected_kind}"
        if expected_kind == "ExactOne":
            index = {vid: v for v, vid in enumerate(ids)}
            witness = sum(1 << index[vid] for vid in report["condition"]["witness"])
            if not ref.is_violating_witness(base.adj, base.measures, witness):
                return "reported witness does not outweigh its neighbourhood"
        elif expected_kind == "Interval":
            if (Fraction(verdict["lo"]), Fraction(verdict["hi"])) != (expected_value, HALF):
                return f"interval [{verdict['lo']}, {verdict['hi']}] is wrong"
        elif Fraction(verdict["value"]) != expected_value:
            return f"value {verdict['value']}, expected {expected_value}"
        return None

    return verified_once(full, lambda out: out)


def check_golden(path):
    @functools.cache
    def golden() -> str:
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    def check(out) -> Optional[str]:
        rc, stdout, _ = out
        if rc != 0:
            return f"exit code {rc}"
        return None if stdout == golden() else "report differs from the golden output"

    return check


def known(kind, value):
    return lambda: (kind, value)


def tree_verdict(base):
    """A weighted tree's verdict: value 1 with a violating set, else 1/2."""
    return ("ExactOne", Fraction(1)) if base.violating else ("ExactHalf", HALF)


def analyze_inputs(rng):
    """(label, base, power, expect) for generated inputs, where expect()
    gives the expected verdict kind and value.

    analyze_ops draws the set twice per pass, so p50, which falls among
    these inputs, rests on twice as many of them.
    """
    # Power 2 only where the power has at most 49 vertices; the seed picks
    # structure and vertex order, which can swing search cost on larger ones.
    cases = []
    for n in (6, 7, 8, 9, 10, 12):
        base = random_tree(rng, n)
        cases.append((f"tree n={n}", base, 2 if n <= 7 else 1, functools.partial(tree_verdict, base)))
    for n, k in ((6, 2), (8, 1), (10, 1), (14, 1), (20, 1), (24, 1)):
        cases.append((f"C{n}", Base(cycle_edges(n), uniform(n)), k, known("ExactHalf", HALF)))
    for n, k in ((5, 2), (7, 2), (9, 1), (11, 1), (13, 1), (17, 1), (21, 1)):
        value = Fraction(n // 2, n)
        kind = "ExactValue" if n <= 16 else "Interval"
        cases.append((f"C{n}", Base(cycle_edges(n), uniform(n)), k, known(kind, value)))
    for n in (8, 12, 16, 20, 24, 28):
        base = Base(regular_edges(rng, n, bipartite=True), uniform(n))
        cases.append((f"bipartite cubic n={n}", base, 1, known("ExactHalf", HALF)))
    for n in (10, 16, 20, 24, 30, 40):
        cases.append((f"planted n={n}", planted_base(rng, n, avg_degree=3), 1,
                      known("ExactOne", Fraction(1))))
    return cases


def analyze_ops(pkg, rng, workdir, root):
    ops = []
    for name, k in DEMO_RUNS:
        path = os.path.join(root, "demos", "data", name)
        argv = ["analyze", path, "--max-power", str(k)]
        no_violating = name not in ("p3_path.json", "k2_biased.json")
        op = Op("analyze", f"demo {name}@{k}", lambda argv=argv: run_cli(pkg, argv),
                check_golden(golden_path(name, k)), lambda v=no_violating: v,
                lambda out: len(out[1].encode()))
        ops.extend([op] * DEMO_WEIGHT.get((name, k), 1))
    for i, (label, base, k, expect) in enumerate(analyze_inputs(rng) + analyze_inputs(rng)):
        base, ids = shuffled(rng, base)
        as_json = i % 2 == 0
        path = os.path.join(workdir, f"in{i}.{'json' if as_json else 'txt'}")
        write_graph(path, base, ids, as_json)
        argv = ["analyze", path, "--max-power", str(k)]
        ops.append(Op("analyze", f"{label}@{k}", lambda argv=argv: run_cli(pkg, argv),
                      check_report(base, ids, expect), lambda expect=expect: expect()[0] != "ExactOne",
                      lambda out: len(out[1].encode())))
    warmup = next(op for op in ops if op.label == "demo k2_biased.json@8")
    return ops, warmup


# ----------------------------------------------------------- materialize

def check_power(base, k, rng_seed):
    m = base.n

    def full(power) -> Optional[str]:
        if power.n != m**k:
            return f"{power.n} vertices, expected {m**k}"
        if sum(power.measures, Fraction(0)) != 1:
            return "measures do not sum to 1"
        degree_sum = sum(mask.bit_count() for mask in power.adj)
        if degree_sum != sum(mask.bit_count() for mask in base.adj) ** k:
            return "2|E(G^k)| differs from (2|E(G)|)^k"
        sampler = random.Random(rng_seed)
        for _ in range(200):
            i, j = sampler.randrange(power.n), sampler.randrange(power.n)
            a, b = ref.decode(i, m, k), ref.decode(j, m, k)
            if bool(power.adj[i] >> j & 1) != ref.power_adjacent(base.adj, a, b):
                return f"adjacency of {a} and {b} is wrong"
            if power.measures[i] != ref.power_measure(base.measures, a):
                return f"measure of {a} is wrong"
        return None

    return verified_once(full, lambda power: (power.n, power.adj, power.measures))


def check_majority(base, independent, k, rng_seed):
    m = base.n

    def inside(coords):
        return 2 * sum(1 for c in coords if independent >> c & 1) > k

    def full(witness) -> Optional[str]:
        members = [ref.decode(i, m, k) for i in ref.bits(witness)]
        if not all(inside(c) for c in members):
            return "a vertex with at most half its coordinates inside was taken"
        mass = sum((ref.power_measure(base.measures, c) for c in members), Fraction(0))
        tail = ref.binomial_tail(ref.measure(base.measures, independent), k)
        if mass != tail:
            return f"majority set measure {mass} differs from the binomial tail {tail}"
        sampler = random.Random(rng_seed)
        for _ in range(200):
            i = sampler.randrange(m**k)
            if bool(witness >> i & 1) != inside(ref.decode(i, m, k)):
                return f"vertex {i} misclassified"
        return None

    return verified_once(full, lambda w: w)


def check_projection(base, k, keep, rng_seed):
    m = base.n

    def full(mapping) -> Optional[str]:
        if len(mapping) != m**k:
            return f"mapping has {len(mapping)} entries, expected {m**k}"
        if min(mapping) < 0 or max(mapping) >= m ** len(keep):
            return "image index out of range"
        sampler = random.Random(rng_seed)
        for _ in range(500):
            i = sampler.randrange(m**k)
            coords = ref.decode(i, m, k)
            if mapping[i] != ref.encode([coords[p] for p in keep], m):
                return f"vertex {i} maps to {mapping[i]}"
        return None

    return verified_once(full, lambda mapping: tuple(mapping))


def random_materialize_base(rng, n, edge_count):
    """Uniform base with a seeded edge set of fixed size, no isolated vertex,
    and a seeded independent pair; fixed sizes keep op costs seed-independent."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        edges = rng.sample(pairs, edge_count)
        base = Base(edges, uniform(n))
        free = [(u, v) for u, v in pairs if not base.adj[u] >> v & 1]
        if all(base.adj) and free:
            u, v = rng.choice(free)
            return base, 1 << u | 1 << v


def materialize_ops(pkg, rng, workdir, root):
    k3 = Base([(0, 1), (1, 2), (0, 2)], uniform(3))
    c5 = Base(cycle_edges(5), uniform(5))
    c7 = Base(cycle_edges(7), uniform(7))
    p3 = Base([(0, 1), (1, 2)], uniform(3))
    # (label, base, independent set, power, kinds)
    plan = [
        ("K3", k3, 0b1, 9, ("power", "projection")),
        ("K3", k3, 0b1, 8, ("power", "majority", "projection")),
        ("C5", c5, 0b101, 6, ("power", "majority", "projection")),
        ("C7", c7, 0b10101, 5, ("power", "majority", "projection")),
        ("P3", p3, 0b101, 9, ("power", "majority", "projection")),
        ("K3", k3, 0b1, 7, ("power", "majority", "projection")),
        ("C5", c5, 0b101, 5, ("power", "majority", "projection")),
        ("P3", p3, 0b101, 7, ("power", "majority", "projection")),
    ]
    for i in range(6):
        n = 4 + i % 2
        base, independent = random_materialize_base(rng, n, 4 if n == 4 else 6)
        plan.append((f"R{i}n{n}", base, independent, 6 if n == 4 else 5, ("power", "majority", "projection")))

    ops = []
    for label, base, independent, k, kinds in plan:
        g = base.build(pkg)
        no_violating = lambda base=base: not base.violating
        for kind in kinds:
            seed = rng.randrange(2**32)
            if kind == "power":
                run = lambda g=g, k=k: pkg.tensor.tensor_power(g, k)
                check = check_power(base, k, seed)
            elif kind == "majority":
                run = lambda g=g, k=k, s=independent: pkg.classifier.majority_witness(g, s, k)
                check = check_majority(base, independent, k, seed)
            else:
                keep = sorted(rng.sample(range(k), rng.randint(1, k - 1)))
                run = lambda g=g, k=k, keep=keep: pkg.tensor.projection_hom(
                    pkg.tensor.TensorPowerView(g, k), keep)
                check = check_projection(base, k, keep, seed)
            name = {"power": "tensor_power", "majority": "majority_witness",
                    "projection": "projection_hom"}[kind]
            ops.append(Op(name, f"{label}^{k}", run, check, no_violating))
    warmup = next(op for op in ops if op.label == "P3^7" and op.kind == "tensor_power")
    return ops, warmup


WORKLOADS = {
    "powers": powers_ops,
    "hall": hall_ops,
    "analyze": analyze_ops,
    "materialize": materialize_ops,
}
