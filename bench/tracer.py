"""Spans around the public functions of each tensorindep layer.

The tracer lives entirely in the benchmark: no file of the package changes.
It wraps every public module-level function of each layer module and puts
the wrapper into every namespace that binds the function. The package
imports names directly (``from .hallflow import max_flow``), so patching
only the defining module would leave nested calls such as
``descriptor.build_descriptor -> max_flow`` unseen.

Spans are kept in memory as ``[span_id, name, start, end, parent_id, op]``
and written out by :meth:`Tracer.dump`. Counters are read off arguments
and results at the same boundaries; they never depend on the machine.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, Sequence

LAYERS = ("graphs", "tensor", "mwis", "hallflow", "descriptor", "classifier", "cli")

# iter_bits returns a lazy generator, so a span around the call would time
# nothing, and it runs inside every bit loop of every layer.
UNWRAPPED = {"graphs.iter_bits"}

RULES = (
    "violating-independent-set",
    "alpha-reaches-half+descriptor",
    "bipartite+descriptor",
    "vertex-transitive-uniform",
    "alpha-bracket+descriptor",
)

HALF = Fraction(1, 2)


# Vertices of the graphs handed to the search, fixed by the op list: how
# much the search was given, not how much of it the search visited.
def _count_alpha_sequence(args, kwargs, result, add):
    g = args[0]
    add("mwis.input_vertices", sum(g.n**k for k in range(1, len(result.terms) + 1)))


def _count_alpha_bar(args, kwargs, result, add):
    add("mwis.input_vertices", args[0].n)


def _count_tensor_product(args, kwargs, result, add):
    add("tensor.vertices_built", result.n)
    # Computed, not measured: the bytes the adjacency masks need at minimum.
    add("tensor.adj_bytes_built", sum((m.bit_length() + 7) // 8 for m in result.adj))


def _count_max_flow(args, kwargs, result, add):
    add("hallflow.flows", 1)
    add("hallflow.arcs", len(args[0].arcs))
    if result.value == HALF:
        add("hallflow.flows_saturated", 1)


def _count_cover(args, kwargs, result, add):
    add("hallflow.covers", 1)


def _count_descriptor(args, kwargs, result, add):
    add("descriptor.pieces", len(result.hom.pieces))


def _count_classify(args, kwargs, result, add):
    add("classifier.rule." + result.rule, 1)


def _count_analysis(args, kwargs, result, add):
    add("cli.analyses", 1)


COUNTERS: dict[str, Callable] = {
    "mwis.alpha_sequence": _count_alpha_sequence,
    "mwis.alpha_bar": _count_alpha_bar,
    "tensor.tensor_product": _count_tensor_product,
    "hallflow.max_flow": _count_max_flow,
    "hallflow.build_double_cover": _count_cover,
    "descriptor.build_descriptor": _count_descriptor,
    "classifier.classify": _count_classify,
    "cli.cmd_analyze": _count_analysis,
}


class Tracer:
    """In-memory span recorder with one stack of open spans (single thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.op = -1

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.op])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def add(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if count is not None:
                count(args, kwargs, result, self.add)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "counters": dict(self.counters)}, handle)
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every public layer function everywhere it is bound; return an undo."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"tensorindep.{layer}"]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNWRAPPED
            ):
                wrappers[obj] = tracer.wrap(name, obj)
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "tensorindep" and not mod_name.startswith("tensorindep."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                patched.append((module, attr, obj))

    def uninstall() -> None:
        for module, attr, obj in patched:
            setattr(module, attr, obj)

    return uninstall


def span_times(spans: Sequence[Sequence]) -> dict[str, float]:
    """Self and busy seconds per layer and per function from a span list.

    Self time attributes each instant to the innermost open span, so a
    span's self time is its duration minus the time its direct children
    cover, and a layer's self time is the sum over its spans. That equals
    the layer's span time minus the time covered by child spans from other
    layers, without counting nested same-layer calls twice. Busy time is
    the time at least one span of the layer (or function) is open: the sum
    of the durations of its outermost spans. Spans whose name has no dot
    (benchmark op roots) take part in nesting but report nothing.
    """
    by_id = {s[0]: s for s in spans}
    child_time: Counter = Counter()
    for sid, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Counter = Counter()
    for sid, name, start, end, parent, _ in spans:
        if "." not in name:
            continue
        layer = name.split(".", 1)[0]
        duration = end - start
        exclusive = duration - child_time[sid]
        out[f"{layer}.self_s"] += exclusive
        out[f"{name}.self_s"] += exclusive
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(by_id[p][1])
            p = by_id[p][4]
        if not any(a.split(".", 1)[0] == layer for a in ancestors if "." in a):
            out[f"{layer}.busy_s"] += duration
        if name not in ancestors:
            out[f"{name}.busy_s"] += duration
    return dict(out)


PER_LAYER = (
    # (name, unit): every value is per pass over the workload's op schedule.
    *(
        (f"{layer}.{what}", unit)
        for layer in LAYERS
        for what, unit in (("calls", "count/pass"), ("busy_s", "s/pass"), ("self_s", "s/pass"))
    ),
    ("mwis.input_vertices", "count/pass"),
    ("mwis.alpha_bar.self_s", "s/pass"),
    ("mwis.alpha_sequence.self_s", "s/pass"),
    ("mwis.sequences_per_analysis", "ratio"),
    ("tensor.vertices_built", "count/pass"),
    ("tensor.adj_bytes_built", "B/pass"),
    ("hallflow.max_flow.busy_s", "s/pass"),
    ("hallflow.arcs", "count/pass"),
    ("hallflow.flows_saturated", "count/pass"),
    ("hallflow.covers_per_analysis", "ratio"),
    ("hallflow.flows_per_analysis", "ratio"),
    ("descriptor.pieces", "count/pass"),
    ("descriptor.check_interval_hom.busy_s", "s/pass"),
    *((f"classifier.rule.{rule.replace('+', '_')}", "count/pass") for rule in RULES),
    ("cli.analyses", "count/pass"),
    ("cli.report_bytes", "B/pass"),
    ("trace.overhead_s", "s/pass"),
)


def layer_metrics(
    spans: Sequence[Sequence],
    counters: Counter,
    passes: int,
    report_bytes: int,
    overhead_s: float,
) -> dict[str, float]:
    """Every per-layer metric, normalised to one pass over the schedule."""
    times = span_times(spans)
    calls = Counter(s[1].split(".", 1)[0] for s in spans if "." in s[1])
    analyses = counters["cli.analyses"]

    def per_analysis(count: int) -> float:
        return count / analyses if analyses else 0.0

    raw = {
        **{f"{layer}.calls": calls[layer] for layer in LAYERS},
        **times,
        **counters,
        "cli.report_bytes": report_bytes,
        "trace.overhead_s": overhead_s,
    }
    for rule in RULES:
        raw[f"classifier.rule.{rule.replace('+', '_')}"] = counters["classifier.rule." + rule]
    out = {}
    for name, unit in PER_LAYER:
        if unit == "ratio":
            continue
        out[name] = raw.get(name, 0) / passes
    out["mwis.sequences_per_analysis"] = per_analysis(
        sum(1 for s in spans if s[1] == "mwis.alpha_sequence")
    )
    out["hallflow.covers_per_analysis"] = per_analysis(counters["hallflow.covers"])
    out["hallflow.flows_per_analysis"] = per_analysis(counters["hallflow.flows"])
    return out
