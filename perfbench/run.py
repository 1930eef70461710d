#!/usr/bin/env python3
"""rfoverlay benchmark: end-to-end scenario timings and a traced per-layer split.

    python3 perfbench/run.py --workload join512 --seed 1 --seconds 60 --trace 0

One process, one caller, no pools: each scenario starts after the previous one
returns. A run derives its ScenarioConfigs from --seed, then repeats passes
over them while the next pass is expected to end within --seconds (at least
one pass). With --trace 0 every pass is untraced and the end-to-end metrics
are printed, as times at a fixed reference speed (see Stopwatch); with
--trace 1 one untraced pass is followed by traced passes and the per-layer
metrics are printed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full result, with
provenance and simulated counts, goes to perfbench/results/.

Gates (any failure prints GATE FAILURE lines and exits 1):
  * determinism: every pass over the same configs, traced or not, and every
    earlier result file of the same workload, seed and sources, must give
    identical simulated counts and trace sha256;
  * correctness: every recorded trace goes through verify_trace; mismatches
    and TraceError, JoinError or QuiescenceError count as failed scenarios;
  * probes: traced call counts must equal the counts in the trace, and the
    span self times must account for the traced wall time within 5%.

Run from any directory of a checkout; the package is imported from the
checkout's src/, never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import ModuleType

import probes
from tracer import Tracer, patched

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_REPEATS = 7
# Set-ups timed after each end-to-end pass, so that the set-up samples spread
# over the whole run like the scenario samples do.
SETUP_REPEATS_PER_PASS = 3
# verify_trace is short on some workloads, so an end-to-end pass times it this
# many times on the same trace, for as many samples as the other calls give.
VERIFY_REPEATS = 3
ACCOUNTING_TOLERANCE = 0.05

# One run of every GAUGES function takes REFERENCE_NOMINAL_S at the reference
# speed; timed calls read the gauge every GAUGE_EVERY_S. Fixed, so that times
# stay comparable between commits.
REFERENCE_NOMINAL_S = 0.01
GAUGE_EVERY_S = 0.25


@dataclass(frozen=True)
class Workload:
    """A basic-topology scenario shape; `scenarios` consecutive seeds a run."""

    nodes: int
    lam: float
    intervals: int
    interleaved: bool = False
    scenarios: int = 1

    def configs(self, rf: ModuleType, seed: int) -> list:
        return [
            rf.ScenarioConfig(
                node_count=self.nodes,
                workload=rf.WorkloadConfig(
                    lam=self.lam, threshold=2, intervals=self.intervals, seed=s
                ),
                seed=s,
            )
            for s in range(seed, seed + self.scenarios)
        ]


# Why each shape was chosen is in README.md next to this file.
WORKLOADS = {
    "join512": Workload(nodes=512, lam=2.0, intervals=4),
    "churn128": Workload(nodes=128, lam=3.0, intervals=500),
    "interleaved6": Workload(nodes=6, lam=3.0, intervals=20, interleaved=True, scenarios=200),
}

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("run_unrecorded_s", "s"),
    ("verify_s", "s"),
    ("dump_s", "s"),
    ("scenario_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class SourceError(RuntimeError):
    """The checkout does not hold the rfoverlay sources."""


@dataclass
class Outcome:
    """One scenario executed once: its timings and simulated counts.

    `seconds` (host time) and `scaled` (reference time) hold every sample of
    each timed call by metric name.
    """

    seed: int
    seconds: dict[str, list[float]] = field(default_factory=dict)
    scaled: dict[str, list[float]] = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.counts.get("mismatches", 0) > 0

    @property
    def wall_s(self) -> float:
        return scenario_total(self.seconds)

    @property
    def scaled_s(self) -> float:
        return scenario_total(self.scaled)


def scenario_total(times: dict[str, list[float]]) -> float:
    """run + verify + dump, each the median of its samples."""
    return sum(statistics.median(times[k]) for k in ("run_s", "verify_s", "dump_s") if k in times)


# ---------------------------------------------------------------------------
# Timing


# Fixed pure-Python work of the three kinds the simulator does.


def gauge_loop() -> int:
    """Heap and dict traffic, as in the event loop."""
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    total = 0
    for i in range(4000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[1]
    return total + len(table)


def gauge_codec() -> int:
    """JSON lines of event-like records, as in dump_trace."""
    out = io.StringIO()
    for i in range(600):
        record = {"kind": "Deliver", "t": i, "detail": {"key": {"topic": "ore", "node": i % 97}}}
        out.write(json.dumps(record, sort_keys=True))
        out.write("\n")
    return len(out.getvalue())


def gauge_alloc() -> int:
    """Many small tuples, strings and dicts, as in recording a trace."""
    records = [(i, str(i), {"n": i}) for i in range(6000)]
    return sum(len(r[1]) for r in records)


GAUGES = (gauge_loop, gauge_codec, gauge_alloc)


def gauge_s() -> float:
    """The host's current speed: the time of one run of every gauge.

    The collector is off meanwhile, so that the gauge never pays for
    collecting the program's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    for gauge in GAUGES:
        gauge()
    elapsed = perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


class Stopwatch:
    """Times calls in host seconds and in seconds at the reference speed.

    A shared host's speed drifts by up to 1.5x within seconds, for any code it
    runs. So the gauge is read just before a timed call, every GAUGE_EVERY_S
    during it (from a SIGALRM handler, whose time is taken out of the call's),
    and just after it; the call's host time is rescaled by REFERENCE_NOMINAL_S
    over the mean reading. Consecutive calls share a reading. A disabled
    stopwatch (traced runs) reads no gauge and gives no scaled times.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.last = gauge_s() if enabled else 0.0
        self.readings: list[float] = []
        self.paused = 0.0

    def _read(self, signum, frame) -> None:
        start = perf_counter()
        self.readings.append(gauge_s())
        self.paused += perf_counter() - start

    def time(self, fn, *args, **kwargs) -> tuple:
        """(fn's result, host seconds, reference seconds or None)."""
        if not self.enabled:
            start = perf_counter()
            result = fn(*args, **kwargs)
            return result, perf_counter() - start, None
        self.readings, self.paused = [self.last], 0.0
        previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            host = perf_counter() - start - self.paused
            readings = self.readings
            signal.signal(signal.SIGALRM, previous)
        self.last = gauge_s()
        readings.append(self.last)
        return result, host, host * REFERENCE_NOMINAL_S / statistics.fmean(readings)


# ---------------------------------------------------------------------------
# Set-up


def source_digest() -> str:
    """sha256 over the package sources and the benchmark's own code."""
    digest = hashlib.sha256()
    files = sorted(SRC.joinpath("rfoverlay").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load(workload: Workload, seed: int) -> tuple[ModuleType, list]:
    rf = importlib.import_module("rfoverlay")
    return rf, workload.configs(rf, seed)


def import_fresh(workload: Workload, seed: int, watch: Stopwatch) -> tuple[ModuleType, list, float]:
    """Import rfoverlay afresh and build the configs; also returns the scaled time taken.

    The heap is collected first, so the timing starts from a clean heap as at
    process start and does not pay for a previous scenario's garbage.
    """
    for name in [n for n in sys.modules if n == "rfoverlay" or n.startswith("rfoverlay.")]:
        del sys.modules[name]
    gc.collect()
    (rf, configs), _host, scaled = watch.time(load, workload, seed)
    return rf, configs, scaled


def set_up(workload: Workload, seed: int) -> tuple[ModuleType, list, list[float]]:
    """Set up SETUP_REPEATS times from the checkout's src/; keep the last import."""
    if not (SRC / "rfoverlay" / "__init__.py").is_file():
        raise SourceError(f"no rfoverlay package under {SRC}")
    sys.path.insert(0, str(SRC))
    watch = Stopwatch()
    times = []
    for _ in range(SETUP_REPEATS):
        rf, configs, seconds = import_fresh(workload, seed, watch)
        times.append(seconds)
    if Path(rf.__file__).resolve().parent != (SRC / "rfoverlay").resolve():
        raise SourceError(f"rfoverlay was imported from {rf.__file__}, not from {SRC}")
    return rf, configs, times


# ---------------------------------------------------------------------------
# Scenario execution


def timed_scenario(rf: ModuleType, cfg, interleaved: bool, end_to_end: bool, outcome: Outcome,
                   watch: Stopwatch):
    """The timed unit: recorded run, verify, dump.

    An end-to-end pass also times an unrecorded run first and repeats verify
    VERIFY_REPEATS times; a per-layer pass calls each once, so that its counts
    are those of one scenario.

    Every call is looked up through its module at call time, so the traced
    run's wrappers are the ones called.
    """
    scenario = rf.scenario

    def timed(name: str, fn, *args, **kwargs):
        result, host, scaled = watch.time(fn, *args, **kwargs)
        outcome.seconds.setdefault(name, []).append(host)
        if scaled is not None:
            outcome.scaled.setdefault(name, []).append(scaled)
        return result

    if end_to_end:
        timed("run_unrecorded_s", scenario.run_scenario, cfg, interleaved_toggles=interleaved,
              record=False)
    events, metrics = timed("run_s", scenario.run_scenario, cfg, interleaved_toggles=interleaved)
    for _ in range(VERIFY_REPEATS if end_to_end else 1):
        report = timed("verify_s", scenario.verify_trace, events, cfg)
    stream = io.StringIO()
    timed("dump_s", rf.trace.dump_trace, events, stream)
    return events, metrics, report, stream


def simulated_counts(events, metrics, report, stream: io.StringIO) -> dict:
    text = stream.getvalue().encode()
    delivered = Counter(e.detail["key"]["topic"] for e in events if e.kind == "Deliver")
    return {
        "events": len(events),
        "deliveries": metrics.deliveries,
        "join_deliveries": metrics.setup.deliveries,
        "deliveries_per_topic": dict(sorted(delivered.items())),
        "publications_per_topic": dict(metrics.publications_per_topic),
        "trace_bytes": len(text),
        "trace_sha256": hashlib.sha256(text).hexdigest(),
        "mismatches": len(report.mismatches),
    }


def run_pass(rf, configs, workload: Workload, end_to_end: bool, tracer: Tracer | None = None):
    """Every config once, in order; traced under a `harness` span if asked.

    Only untraced passes read the speed gauge, so that it adds no time to the spans.
    """
    timed = timed_scenario if tracer is None else tracer.span("harness", timed_scenario)
    watch = Stopwatch(enabled=tracer is None)
    scenario_errors = (rf.TraceError, rf.JoinError, rf.QuiescenceError)
    outcomes = []
    for cfg in configs:
        gc.collect()
        outcome = Outcome(seed=cfg.seed)
        try:
            result = timed(rf, cfg, workload.interleaved, end_to_end, outcome, watch)
        except scenario_errors as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.counts = {"error": outcome.error}
        else:
            outcome.counts = simulated_counts(*result)
            del result
        outcomes.append(outcome)
    return outcomes


def counts_of(outcomes: list[Outcome]) -> dict[str, dict]:
    return {str(o.seed): o.counts for o in outcomes}


# ---------------------------------------------------------------------------
# Modes


def passes_within(seconds: float, start: float):
    """Yield once per pass that should end within `seconds` of `start`, at least once.

    A pass is expected to take as long as the longest one so far, so a run
    overshoots its budget only when a single pass is longer than the budget.
    """
    longest = 0.0
    while True:
        began = perf_counter()
        yield
        longest = max(longest, perf_counter() - began)
        if perf_counter() - start + longest > seconds:
            return


def measure_end_to_end(rf, configs, workload, seed, seconds, setup_times, gate):
    """Untraced passes; later set-ups import anew but the passes keep using `rf`."""
    outcomes: list[Outcome] = []
    reference = None
    for _ in passes_within(seconds, perf_counter()):
        done = run_pass(rf, configs, workload, end_to_end=True)
        outcomes += done
        if reference is None:
            reference = counts_of(done)
        elif counts_of(done) != reference:
            gate.append("simulated counts differ between passes of one run")
        watch = Stopwatch()
        setup_times += [
            import_fresh(workload, seed, watch)[2] for _ in range(SETUP_REPEATS_PER_PASS)
        ]
    timings = ("run_s", "run_unrecorded_s", "verify_s", "dump_s")
    metrics = {"setup_s": statistics.median(setup_times)}
    samples = {name: [t for o in outcomes for t in o.scaled.get(name, ())] for name in timings}
    for name in timings:
        metrics[name] = median_or_none(samples[name])
    metrics["scenario_s"] = median_or_none([o.scaled_s for o in outcomes if o.error is None])
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["setup_s"] = setup_times
    host_s = {
        name: median_or_none([t for o in outcomes for t in o.seconds.get(name, ())])
        for name in timings
    }
    return outcomes, reference, metrics, {"samples": samples, "host_s": host_s}


def measure_per_layer(rf, configs, workload, seconds, gate):
    start = perf_counter()
    outcomes = run_pass(rf, configs, workload, end_to_end=False)
    reference = counts_of(outcomes)
    untraced_wall = sum(o.wall_s for o in outcomes)
    passes: list[dict[str, float]] = []
    layer_totals: list[dict[str, float]] = []
    for _ in passes_within(seconds, start):
        tracer = Tracer()
        with patched(lambda patches: probes.install(tracer, rf, patches)):
            done = run_pass(rf, configs, workload, end_to_end=False, tracer=tracer)
        outcomes += done
        if counts_of(done) != reference:
            gate.append("traced and untraced runs of the same seed differ in simulated counts")
        ok = [o.counts for o in done if o.error is None]
        tracer.counts["trace.events"] = sum(c["events"] for c in ok)
        tracer.counts["trace.bytes"] = sum(c["trace_bytes"] for c in ok)
        values = probes.layer_metrics(tracer)
        wall = sum(o.wall_s for o in done)
        values["traced.wall_s"] = wall
        values["traced.accounted_ratio"] = ratio(sum(tracer.self_s.values()), wall)
        values["traced.overhead_ratio"] = ratio(wall, untraced_wall)
        if len(ok) == len(done):
            check_probes(values, ok, gate)
        if abs(1.0 - values["traced.accounted_ratio"]) > ACCOUNTING_TOLERANCE:
            gate.append(
                f"span self times cover {values['traced.accounted_ratio']:.3f} "
                "of the traced wall time"
            )
        if passes and any(values[n] != passes[0][n] for n in probes.EXACT):
            gate.append("per-layer work counts differ between traced passes")
        passes.append(values)
        layer_totals.append(probes.layer_self_s(tracer))
    metrics = {}
    for name, _unit in probes.PER_LAYER:
        if name in probes.EXACT:
            metrics[name] = passes[0][name]
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    layers = {layer: statistics.median(t[layer] for t in layer_totals) for layer in probes.LAYERS}
    return outcomes, reference, metrics, {"layer_self_s": layers, "traced_passes": len(passes)}


def check_probes(values: dict, counts: list[dict], gate: list[str]) -> None:
    """The probes must see exactly the work the trace records."""
    expected = {
        "bus.publish.calls": sum(sum(c["publications_per_topic"].values()) for c in counts),
        "protocol.handle_delivery.calls": sum(c["deliveries"] for c in counts),
        "trace.record.calls": sum(c["events"] for c in counts),
    }
    for name, want in expected.items():
        if values[name] != want:
            gate.append(f"{name} is {values[name]}, the traces say {want}")


def median_or_none(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was timed because every scenario raised."""
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# Provenance and result files


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def provenance(args, digest: str) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_digest": digest,
    }


def check_earlier_results(args, digest: str, counts: dict, gate: list[str]) -> None:
    """Counts must match every earlier run of this workload, seed and code."""
    normalized = json.loads(json.dumps(counts))
    for path in sorted(RESULTS.glob(f"{args.workload}-seed{args.seed}-trace*.json")):
        try:
            earlier = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            gate.append(f"cannot read earlier result {path.name}: {exc}")
            continue
        if earlier["provenance"]["source_digest"] == digest and earlier["counts"] != normalized:
            gate.append(f"simulated counts differ from the earlier run in {path.name}")


def write_result(args, result: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    partial = path.with_suffix(".partial")
    partial.write_text(json.dumps(result, indent=1) + "\n")
    os.replace(partial, path)
    return path


# ---------------------------------------------------------------------------
# Command line


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        rf, configs, setup_times = set_up(workload, args.seed)
    except (SourceError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    digest = source_digest()
    gate: list[str] = []
    if args.trace:
        outcomes, counts, metrics, extra = measure_per_layer(rf, configs, workload, args.seconds, gate)
        units = dict(probes.PER_LAYER)
    else:
        outcomes, counts, metrics, extra = measure_end_to_end(
            rf, configs, workload, args.seed, args.seconds, setup_times, gate
        )
        units = dict(END_TO_END)
    check_earlier_results(args, digest, counts, gate)

    attempted = len(outcomes)
    failures = [o for o in outcomes if o.failed]
    if failures:
        gate.append(
            f"verification failed on {len(failures)} of {attempted} scenario runs "
            f"(first: seed {failures[0].seed}, {failures[0].error or 'oracle mismatch'})"
        )
    correct = not gate

    ok = [c for c in counts.values() if "error" not in c]
    deliveries = sum(c["deliveries"] for c in ok)
    joins = sum(c["join_deliveries"] for c in ok)
    summary = {
        "verify_fail_ratio": len(failures) / attempted,
        "scenarios_per_pass": len(configs),
        "join_share_of_deliveries": joins / deliveries if deliveries else None,
        **extra,
    }
    result = {
        "provenance": provenance(args, digest),
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "summary": summary,
        "gate_failures": gate,
        "counts": counts,
    }
    path = write_result(args, result)

    print(f"rfoverlay benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in units.items():
        value = metrics[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34} {shown:>14} {unit}")
    print(f"  {'verify_fail_ratio':34} {summary['verify_fail_ratio']:>14.6g} ratio"
          f"  ({len(failures)}/{attempted} scenario runs)")
    if deliveries:
        print(f"  join phase carries {joins}/{deliveries} deliveries "
              f"({joins / deliveries:.1%}), toggle phase {1 - joins / deliveries:.1%}")
    print(f"  result file: {path}")
    for problem in gate:
        print(f"GATE FAILURE: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
