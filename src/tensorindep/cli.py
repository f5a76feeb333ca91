"""Command-line front end: file formats, report emission, exit codes.

Exit codes: 0 success, 2 invalid input, 3 size cap hit: a requested power
has more than ``MWIS_CAP`` vertices (``analyze`` still emits the partial
report), 4 precondition unmet (descriptor requested for a graph with a
violating set), 5 verification failed. Every refusal of input, by the
parsers here or by the library, is a plain ``ValueError``. A reader that
closes stdout or stderr early does not change the exit code (``_emit``).

Graphs are read from a JSON document

    {"vertices": [{"id": "u", "measure": "1/2"}, ...],
     "edges": [["u", "v"], ...]}

or from a hand-editable edge-list text format with one record per line
(``v <id> <p/q>`` declares a vertex, ``e <id> <id>`` an edge, ``#``
starts a comment). JSON is canonical; rationals always travel as "p/q"
strings so no tool in a pipeline ever sees a float. Graph and map files
are read as UTF-8 with an optional byte-order mark.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import reprlib
import sys
from typing import Optional, Sequence, TextIO

from .classifier import VerdictKind, classify, lower_bound_sequence
from .descriptor import build_descriptor, interval_hom_to_json, verify_finite_hom
from .errors import SaturationRequired, SizeCapExceeded
from .graphs import WeightedGraph, _frac_str, _positive_int, iter_bits, mask_from
from .mwis import MWIS_CAP, alpha_bar, alpha_sequence, default_power_cap
from .tensor import _refuse_oversized, tensor_power

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_SIZE_CAP = 3
EXIT_PRECONDITION = 4
EXIT_VERIFICATION = 5


def parse_graph_json(text: str) -> WeightedGraph:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, huge integer, deep nesting
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("top-level JSON value must be an object")
    vertices = data.get("vertices")
    edges = data.get("edges", [])
    if not isinstance(vertices, list) or not vertices:
        raise ValueError('document needs a nonempty "vertices" array')
    ids: list[str] = []
    measures: list[str] = []
    for entry in vertices:
        if not isinstance(entry, dict) or "id" not in entry or "measure" not in entry:
            raise ValueError(f"vertex entry {reprlib.repr(entry)} needs id and measure")
        ids.append(str(entry["id"]))
        # As text, so a JSON 0.1 means 1/10 and WeightedGraph reads it.
        measures.append(str(entry["measure"]))
    if not isinstance(edges, list):
        raise ValueError('"edges" must be an array of id pairs')
    raw_edges = []
    for pair in edges:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"edge entry {reprlib.repr(pair)} must be an [id, id] pair")
        raw_edges.append((str(pair[0]), str(pair[1])))
    return _assemble(ids, measures, raw_edges)


def parse_graph_edgelist(text: str) -> WeightedGraph:
    ids: list[str] = []
    measures: list[str] = []
    raw_edges: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "v" and len(fields) == 3:
            ids.append(fields[1])
            measures.append(fields[2])
        elif fields[0] == "e" and len(fields) == 3:
            raw_edges.append((fields[1], fields[2]))
        else:
            raise ValueError(f"line {lineno}: expected 'v <id> <p/q>' or 'e <id> <id>'")
    if not ids:
        raise ValueError("no vertices declared")
    return _assemble(ids, measures, raw_edges)


def _assemble(
    ids: list[str], measures: list[str], raw_edges: list[tuple[str, str]]
) -> WeightedGraph:
    index: dict[str, int] = {}
    for vid in ids:
        if vid in index:
            raise ValueError(f"duplicate vertex id {reprlib.repr(vid)}")
        index[vid] = len(index)
    edges = []
    for a, b in raw_edges:
        if a not in index or b not in index:
            raise ValueError(
                f"edge [{reprlib.repr(a)}, {reprlib.repr(b)}] references an undeclared vertex"
            )
        edges.append((index[a], index[b]))
    return WeightedGraph(measures, edges, ids)


def load_graph(path: str) -> WeightedGraph:
    """The graph in ``path``: JSON when its first non-blank character is ``{`` or ``[``."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if text.lstrip()[:1] in ("{", "["):
        return parse_graph_json(text)
    return parse_graph_edgelist(text)


def _ids_of(g: WeightedGraph, mask: int) -> list[str]:
    return [g.labels[v] for v in iter_bits(mask)]


def _echo_graph(g: WeightedGraph) -> dict:
    return {
        "vertices": [
            {"id": vid, "measure": _frac_str(m)} for vid, m in zip(g.labels, g.measures)
        ],
        "edges": [[g.labels[u], g.labels[v]] for u, v in g.edges()],
    }


def _certificate_json(g: WeightedGraph, verdict) -> dict:
    cert = verdict.certificate
    return {
        "witness": None if cert.witness is None else _ids_of(g, cert.witness),
        "alpha_terms": [_frac_str(t) for t in cert.alpha_terms],
        "alpha_truncated": cert.alpha_truncated,
        "bipartition": None
        if cert.bipartition is None
        else [_ids_of(g, side) for side in cert.bipartition],
        "vertex_transitive": cert.vertex_transitive,
        "bound_limit": None if cert.bound_limit is None else _frac_str(cert.bound_limit),
        "notes": list(cert.notes),
    }


def build_report(
    g: WeightedGraph,
    n_max: int,
    seed_set: Optional[int],
) -> tuple[dict, bool]:
    """Assemble the full analysis report; returns (report, cap_was_hit)."""
    verdict = classify(g, n_max)
    cert = verdict.certificate
    if verdict.kind is VerdictKind.EXACT_ONE:
        seq = alpha_sequence(g, n_max)
        terms, truncated = seq.terms, seq.truncated
    else:  # classify already computed the sequence for the certificate
        terms, truncated = cert.alpha_terms, cert.alpha_truncated

    verdict_json: dict = {"kind": verdict.kind.value}
    if verdict.kind is VerdictKind.INTERVAL:
        verdict_json["lo"] = _frac_str(verdict.lo)
        verdict_json["hi"] = _frac_str(verdict.hi)
    else:
        verdict_json["value"] = _frac_str(verdict.value)
    verdict_json["rule"] = verdict.rule
    verdict_json["upper_bound"] = _frac_str(verdict.upper_bound)
    verdict_json["certificate"] = _certificate_json(g, verdict)

    descriptor_json = None
    if cert.descriptor is not None:
        descriptor_json = interval_hom_to_json(cert.descriptor.hom, cert.descriptor.cover)

    lower_bound_json = None
    if seed_set is not None:
        # One bound per power the alpha sequence covers, not n_max of them.
        bounds = lower_bound_sequence(g, seed_set, max(1, len(terms)))
        lower_bound_json = {
            "set": _ids_of(g, seed_set),
            "terms": [_frac_str(t) for t in bounds.terms],
            "closed_form_limit": _frac_str(bounds.closed_form_limit),
        }

    report = {
        "input": _echo_graph(g),
        "alpha_sequence": [_frac_str(t) for t in terms],
        "condition": {
            "holds": cert.witness is not None,
            "witness": None if cert.witness is None else _ids_of(g, cert.witness),
        },
        "verdict": verdict_json,
        "descriptor": descriptor_json,
        "lower_bound": lower_bound_json,
        "timing": None,
    }
    return report, truncated


def render_text(report: dict) -> str:
    lines = []
    vertices = report["input"]["vertices"]
    lines.append(f"graph: {len(vertices)} vertices, {len(report['input']['edges'])} edges")
    for entry in vertices:
        lines.append(f"  {entry['id']}: {entry['measure']}")
    lines.append("alpha sequence: " + (", ".join(report["alpha_sequence"]) or "(none)"))
    cond = report["condition"]
    if cond["holds"]:
        lines.append("condition: holds, witness {" + ", ".join(cond["witness"]) + "}")
    else:
        lines.append("condition: fails (no set outweighs its neighborhood)")
    verdict = report["verdict"]
    if "value" in verdict:
        lines.append(f"verdict: {verdict['kind']} value={verdict['value']} rule={verdict['rule']}")
    else:
        lines.append(
            f"verdict: {verdict['kind']} lo={verdict['lo']} hi={verdict['hi']} rule={verdict['rule']}"
        )
    lines.append(f"upper bound: {verdict['upper_bound']}")
    if report["descriptor"] is not None:
        lines.append(f"descriptor: {len(report['descriptor'])} interval pieces")
    if report["lower_bound"] is not None:
        lb = report["lower_bound"]
        lines.append(
            "lower bound from {"
            + ", ".join(lb["set"])
            + "}: "
            + ", ".join(lb["terms"])
            + f" -> {lb['closed_form_limit']}"
        )
    lines.extend(f"note: {note}" for note in verdict["certificate"]["notes"])
    lines.append("timing: null")
    return "\n".join(lines)


def _parse_seed_set(g: WeightedGraph, ids: str) -> int:
    index = {vid: v for v, vid in enumerate(g.labels)}
    chosen = []
    for token in ids.split(","):
        token = token.strip()
        if token not in index:
            raise ValueError(f"unknown vertex id {reprlib.repr(token)} in --seed-independent-set")
        chosen.append(index[token])
    return mask_from(chosen)


def _emit(text: str, stream: TextIO) -> None:
    """Print ``text`` to ``stream``, flushed; a reader that closed the pipe ends the output.

    After a ``BrokenPipeError`` the stream points at ``os.devnull``, so
    later writes and the interpreter's final flush stay quiet and the
    command still returns its own exit code.
    """
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def cmd_analyze(args) -> int:
    g = load_graph(args.path)
    n_max = default_power_cap(g.n) if args.max_power is None else args.max_power
    n_max = _positive_int(n_max, "--max-power")
    seed_set = None
    if args.seed_independent_set:
        seed_set = _parse_seed_set(g, args.seed_independent_set)
    report, truncated = build_report(g, n_max, seed_set)
    text = json.dumps(report, indent=2) if args.format == "json" else render_text(report)
    _emit(text, sys.stdout)
    if truncated:
        _emit("size cap hit: alpha sequence truncated", sys.stderr)
    return EXIT_SIZE_CAP if truncated else EXIT_OK


def cmd_alpha(args) -> int:
    g = load_graph(args.path)
    _refuse_oversized(g.n, _positive_int(args.power, "--power"), MWIS_CAP, "search")
    power = tensor_power(g, args.power)
    result = alpha_bar(power)
    witness = " ".join(power.labels[v] for v in iter_bits(result.witness))
    _emit(f"{_frac_str(result.value)}\nwitness: {witness}", sys.stdout)
    return EXIT_OK


def cmd_descriptor(args) -> int:
    g = load_graph(args.path)
    report = build_descriptor(g)  # raises SaturationRequired when condition holds
    payload = json.dumps(interval_hom_to_json(report.hom, report.cover), indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from exc
    else:
        _emit(payload, sys.stdout)
    return EXIT_OK


def cmd_verify_hom(args) -> int:
    h = load_graph(args.path_h)
    g = load_graph(args.path_g)
    try:
        with open(args.path_map, "r", encoding="utf-8-sig") as handle:
            raw = json.load(handle)
    # ValueError: bad JSON or bad UTF-8; RecursionError: deep nesting
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read map file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("map file must be a JSON object of id -> id")
    g_index = {vid: v for v, vid in enumerate(g.labels)}
    mapping = []
    for vid in h.labels:
        if vid not in raw:
            raise ValueError(f"map is missing vertex {reprlib.repr(vid)}")
        target = str(raw[vid])
        if target not in g_index:
            raise ValueError(
                f"map sends {reprlib.repr(vid)} to unknown vertex {reprlib.repr(target)}"
            )
        mapping.append(g_index[target])
    extra = set(raw) - set(h.labels)
    if extra:
        raise ValueError(f"map mentions unknown vertices {reprlib.repr(sorted(extra))}")
    if verify_finite_hom(mapping, h, g):
        _emit("measure-preserving homomorphism: yes", sys.stdout)
        return EXIT_OK
    _emit("measure-preserving homomorphism: no", sys.stdout)
    return EXIT_VERIFICATION


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="tensorindep",
        description="Exact independence analysis of tensor graph powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full classification report")
    p.add_argument("path")
    p.add_argument("--max-power", type=int, default=None, metavar="N")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--seed-independent-set", default="", metavar="IDS")

    p = sub.add_parser("alpha", help="independence measure of one power")
    p.add_argument("path")
    p.add_argument("--power", type=int, default=1, metavar="N")

    p = sub.add_parser("descriptor", help="interval descriptor as JSON")
    p.add_argument("path")
    p.add_argument("--out", default="", metavar="FILE")

    p = sub.add_parser("verify-hom", help="check a measure-preserving homomorphism")
    p.add_argument("path_h")
    p.add_argument("path_g")
    p.add_argument("path_map")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.

    The parser is built on the first call and reused by later ones in the
    same process. It names no handler: each call looks the ``cmd_*``
    function up by the command's name at call time, so a function put
    into this module's namespace later (a tracer's wrapper, say) is the
    one that runs. Every refusal of input is a ``ValueError``, whether the
    parsers here or the library raise it, and exits 2 with its message on
    stderr; ``SizeCapExceeded`` exits 3 and ``SaturationRequired`` 4.
    """
    args = make_parser().parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "alpha": cmd_alpha,
        "descriptor": cmd_descriptor,
        "verify-hom": cmd_verify_hom,
    }[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        _emit(f"error: {exc}", sys.stderr)
        return EXIT_INVALID_INPUT
    except SizeCapExceeded as exc:
        _emit(f"error: {exc}", sys.stderr)
        return EXIT_SIZE_CAP
    except SaturationRequired as exc:
        _emit(f"error: {exc}", sys.stderr)
        return EXIT_PRECONDITION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
