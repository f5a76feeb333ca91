"""Closed-loop benchmark of tensorindep: one client, one operation in flight.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload powers --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

  powers       alpha_sequence / alpha_bar on tensor powers of small bases
  hall         the flow condition test and its descriptor on large graphs
  analyze      ``tensorindep analyze`` in process, stdout captured
  materialize  tensor_power, majority_witness, projection_hom on big powers

The package is imported from ``src/`` of the checkout and receives only the
graphs and files generated from ``--seed``. A run repeats one *pass* (the
workload's seeded list of operations) until the wall time spent inside
operations reaches ``--seconds``, stopping at a pass boundary so every run
has the same op mix. Each output is checked outside its timed interval.

Scaled time. Where cores are shared with other tenants, CPU speed can
drift by a third within seconds, inside long operations too (seen on a
2-vCPU x86-64 VM, in CPU time as well as wall time). So a timer times a
fixed pure-Python probe (:func:`speed_probe`) every PROBE_INTERVAL_S
seconds, during operations as well as between them. Each
operation's wall time, less the probes that ran inside it, is scaled to a
reference speed: time x PROBE_REFERENCE_S / (median probe time over a
window as long as the operation). A program change moves scaled times
exactly as it moves wall times, because the probe runs no package code.
The unscaled figures are printed above the result line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
ops_per_s, latency_p50_ms, latency_p90_ms, setup_s (median of several
set-ups: import, input generation, input files, one warm-up op) and
peak_rss_mb. With ``--trace 1`` the run spends half its time untraced and
then replays the same passes with spans around every public layer function;
the last line carries the per-layer metrics, each per pass, and the spans
go to ``.bench_work/traces/``. Span times are unscaled wall seconds and
include the probes that ran inside them (about 2% of the time);
trace.overhead_s is the scaled traced total less the scaled untraced
total. Failures (exceptions, wrong answers,
undocumented exit codes) are counted in ``failed``; the error rate is
printed above the result line.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from reference import bits  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
# Fewest ops an end-to-end run measures, so that p90 has ten samples beyond it.
MIN_OPS = 100
WATCHDOG_S = 170
PROBE_INTERVAL_S = 0.05
# Nominal duration of speed_probe(); scaled times are times at the speed
# where the probe takes this long (its median on a 2-core x86-64 VM under
# CPython 3.11 is about 1.1 ms).
PROBE_REFERENCE_S = 0.001


class Watchdog(BaseException):
    """Raised from the timer so that no `except Exception` in an op swallows it."""


def speed_probe() -> float:
    """Seconds taken by a fixed kernel of Fractions and big-int bit work."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i % 7 + 1, i % 11 + 2)
    mask = (1 << 400) - 1
    word = 0
    for i in range(2000):
        word = ((word << 3) ^ (word >> 5) ^ i) & mask
    bits(word)
    return time.perf_counter() - start


class SpeedSampler:
    """SIGALRM handler that times speed_probe() and enforces the watchdog."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.running = False

    def __call__(self, signum, frame) -> None:
        if time.perf_counter() > self.deadline:
            raise Watchdog()
        if self.running:
            return
        self.running = True
        try:
            start = time.perf_counter()
            duration = speed_probe()
            self.starts.append(start)
            self.durations.append(duration)
        finally:
            self.running = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, start: float, end: float) -> float:
        """Wall time of [start, end) less probes inside it, at reference speed.

        The speed comes from the probes within half the interval's length
        (at least 0.5 s, about twenty probes) of it, and at least the four
        nearest probes.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = end - start - sum(self.durations[lo:hi])
        pad = max((end - start) / 2, 0.5)
        lo = bisect.bisect_left(self.starts, start - pad)
        hi = bisect.bisect_right(self.starts, end + pad)
        if hi - lo < 4:
            at = bisect.bisect_left(self.starts, start)
            lo, hi = max(0, at - 2), at + 2
        return own * PROBE_REFERENCE_S / statistics.median(self.durations[lo:hi])


def import_package():
    """Import tensorindep afresh from the checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    for name in [m for m in sys.modules if m == "tensorindep" or m.startswith("tensorindep.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    pkg = importlib.import_module("tensorindep")
    importlib.import_module("tensorindep.cli")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise ImportError(f"tensorindep resolved to {pkg.__file__}, not {src}")
    return pkg


def set_up(workload, seed, workdir):
    """One full set-up; returns ((start, end), package, ops in pass order)."""
    start = time.perf_counter()
    pkg = import_package()
    ops, warmup = WORKLOADS[workload](pkg, random.Random(seed), workdir, ROOT)
    random.Random(seed).shuffle(ops)
    try:
        warmup.run()
    except Exception:
        pass  # the same op runs again in the timed loop, where it counts as failed
    return (start, time.perf_counter()), pkg, ops


def run_passes(ops, budget_s=None, passes=None, tracer=None, min_ops=0):
    """Closed loop over whole passes; stop on the pass count or time budget.

    With a time budget the loop stops before a pass that would end more
    than half a pass past the budget, so runs measure about ``budget_s``,
    but not before ``min_ops`` ops have run.
    """
    spans, failures = [], []
    busy = 0.0
    done = 0
    out_bytes = 0
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op += 1
                sid = tracer.begin(op.kind)
            start = time.perf_counter()
            try:
                out, problem = op.run(), None
            except Exception as exc:
                out, problem = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if tracer is not None:
                tracer.end(sid)
            if problem is None:
                try:
                    problem = op.check(out)
                    out_bytes += op.out_bytes(out)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
            out = None  # release the output before the next op runs
            if problem is not None:
                failures.append(f"{op.kind} {op.label}: {problem}")
            spans.append((start, end))
            busy += end - start
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif busy + busy / done / 2 >= budget_s and len(spans) >= min_ops:
            break
    return {
        "spans": spans,
        "failures": failures,
        "passes": done,
        "out_bytes": out_bytes,
    }


def deciles_ms(seconds):
    return statistics.quantiles([x * 1000 for x in seconds], n=10, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tensorindep closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(ROOT, "src", "tensorindep", "__init__.py")]
    if args.workload == "analyze":
        needed.append(os.path.join(ROOT, "demos", "data"))
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    sampler = SpeedSampler(time.perf_counter() + WATCHDOG_S)
    work = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    sampler.start()
    try:
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            span, pkg, ops = set_up(args.workload, args.seed, workdir)
            setup_spans.append(span)
        if args.trace:
            plain = run_passes(ops, budget_s=args.seconds / 2)
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                traced = run_passes(ops, passes=plain["passes"], tracer=tracer)
            finally:
                uninstall()
            phases = [plain, traced]
        else:
            phases = [run_passes(ops, budget_s=args.seconds, min_ops=MIN_OPS)]
        # Let the last probes land after the last op before scaling it.
        time.sleep(0.2)
    except Watchdog:
        print(f"error: run exceeded {WATCHDOG_S} s", file=sys.stderr)
        return 3
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    for phase in phases:
        phase["latencies"] = [sampler.scaled(s, e) for s, e in phase["spans"]]
        phase["raw"] = [e - s for s, e in phase["spans"]]
    last = phases[-1]
    attempted = sum(len(p["spans"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    correct_ops = len(last["spans"]) - len(last["failures"])
    if args.trace:
        passes = traced["passes"]
        overhead = (sum(traced["latencies"]) - sum(plain["latencies"])) / passes
        metrics = tracing.layer_metrics(
            tracer.spans, tracer.counters, passes, traced["out_bytes"], overhead
        )
        units = dict(tracing.PER_LAYER)
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        os.makedirs(os.path.join(work, "traces"), exist_ok=True)
        tracer.dump(
            os.path.join(work, "traces", f"{args.workload}-seed{args.seed}.jsonl"),
            {"workload": args.workload, "seed": args.seed, "passes": passes},
        )
    else:
        deciles = deciles_ms(last["latencies"])
        setups = [sampler.scaled(s, e) for s, e in setup_spans]
        result_metrics = {
            "ops_per_s": {"value": correct_ops / sum(last["latencies"]), "unit": "1/s"},
            "latency_p50_ms": {"value": deciles[4], "unit": "ms"},
            "latency_p90_ms": {"value": deciles[8], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }

    samples = len(last["spans"])
    # Runs repeat whole passes, so one pass gives the share of the run.
    no_violating = sum(op.no_violating() for op in ops) / len(ops)
    raw_deciles = deciles_ms(last["raw"])
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
          f"{last['passes']} passes x {samples // last['passes']} ops, "
          f"{sum(last['raw']):.2f} s wall in ops")
    print(f"  share of ops whose base has no violating set (the flow saturates): "
          f"{no_violating:.3f}")
    print(f"  latency samples: {samples}; speed probes: {len(sampler.durations)}")
    print(f"  unscaled wall time: {correct_ops / sum(last['raw']):.4g} ops/s, "
          f"p50 {raw_deciles[4]:.4g} ms, p90 {raw_deciles[8]:.4g} ms")
    for name, entry in result_metrics.items():
        print(f"  {name:46s} {entry['value']:.6g} {entry['unit']}")
    print(f"  error_rate {len(failures) / attempted:.4f} ({len(failures)}/{attempted})")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
