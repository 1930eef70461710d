"""Tests of the benchmark itself: tracer, probes, gates and output format.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import probes
import run
from tracer import Tracer, patched

SMALL = run.Workload(nodes=16, lam=3.0, intervals=8)


@pytest.fixture
def rf():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return importlib.import_module("rfoverlay")


def owners(rf):
    return (rf.scenario, rf.protocol, rf.trace, rf.VirtualBus, rf.Network, rf.TraceRecorder, rf.RingModel)


def snapshot(rf) -> list[dict]:
    return [dict(vars(owner)) for owner in owners(rf)]


def same_objects(before: list[dict], after: list[dict]) -> bool:
    return all(
        a.keys() == b.keys() and all(a[k] is b[k] for k in a) for a, b in zip(before, after)
    )


def test_self_time_is_exact_on_a_synthetic_nested_call():
    # outer [0, 10) encloses child [1, 3), which encloses leaf [1.5, 2.5),
    # and a second child [5, 6).
    ticks = iter([0.0, 1.0, 1.5, 2.5, 3.0, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.span("leaf", lambda: None)
    child = tracer.span("child", lambda: leaf())
    second = tracer.span("second", lambda: None)

    def body():
        child()
        second()

    tracer.span("outer", body)()
    assert dict(tracer.self_s) == {"leaf": 1.0, "child": 1.0, "second": 1.0, "outer": 7.0}
    assert tracer.total_s["outer"] == sum(tracer.self_s.values()) == 10.0
    assert dict(tracer.calls) == {"leaf": 1, "child": 1, "second": 1, "outer": 1}


def test_a_span_closes_when_its_call_raises():
    ticks = iter([0.0, 1.0, 2.0, 4.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def fail():
        raise KeyError("boom")

    inner = tracer.span("inner", fail)

    def body():
        with pytest.raises(KeyError):
            inner()

    tracer.span("outer", body)()
    assert tracer.self_s["inner"] == 1.0
    assert tracer.self_s["outer"] == 3.0
    assert tracer._open == []


def test_the_stopwatch_rescales_host_time_by_the_mean_gauge_reading(monkeypatch):
    monkeypatch.setattr(run, "gauge_s", lambda: 2 * run.REFERENCE_NOMINAL_S)
    handler = signal.getsignal(signal.SIGALRM)
    watch = run.Stopwatch()
    _, host, scaled = watch.time(time.sleep, 2.5 * run.GAUGE_EVERY_S)
    assert len(watch.readings) == 4  # before, twice during, after
    assert scaled == pytest.approx(host / 2)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert run.Stopwatch(enabled=False).time(time.sleep, 0)[2] is None


def test_every_wrapper_is_removed_after_a_traced_run(rf):
    before = snapshot(rf)
    tracer = Tracer()
    with patched(lambda patches: probes.install(tracer, rf, patches)):
        assert not same_objects(before, snapshot(rf))
        run.run_pass(rf, SMALL.configs(rf, 1), SMALL, end_to_end=False, tracer=tracer)
    assert same_objects(before, snapshot(rf))
    assert tracer.calls["scenario.run"] == 1

    with pytest.raises(RuntimeError):
        with patched(lambda patches: probes.install(Tracer(), rf, patches)):
            raise RuntimeError("interrupted traced run")
    assert same_objects(before, snapshot(rf))


def test_a_traced_run_gives_the_counts_and_hash_of_an_untraced_one(rf):
    configs = SMALL.configs(rf, 2)
    untraced = run.run_pass(rf, configs, SMALL, end_to_end=False)
    tracer = Tracer()
    with patched(lambda patches: probes.install(tracer, rf, patches)):
        traced = run.run_pass(rf, configs, SMALL, end_to_end=False, tracer=tracer)
    assert run.counts_of(traced) == run.counts_of(untraced)
    assert untraced[0].counts["trace_sha256"]

    values = probes.layer_metrics(tracer)
    gate: list[str] = []
    run.check_probes(values, [o.counts for o in traced], gate)
    assert gate == []
    assert values["protocol.handle_delivery.calls"] == (
        values["network.drain.join.deliveries"] + values["network.drain.toggle.deliveries"]
    )
    assert values["workload.build_schedule.calls"] == 2  # run, then verify redraws it


def test_a_scenario_that_raises_counts_as_failed_and_is_not_skipped(rf):
    def broken_verify(fn):
        def verify(*args, **kwargs):
            raise rf.TraceError("synthetic")

        return verify

    with patched(lambda patches: patches.wrap(rf.scenario, "verify_trace", broken_verify)):
        outcomes = run.run_pass(rf, SMALL.configs(rf, 1), SMALL, end_to_end=False)
    assert [o.failed for o in outcomes] == [True]
    assert outcomes[0].counts == {"error": "TraceError: synthetic"}


def test_counts_that_differ_from_an_earlier_result_fail_the_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    args = run.parse_args(["--workload", "join512", "--seed", "4", "--seconds", "1"])
    counts = {"4": {"events": 10}}
    run.write_result(args, {"provenance": {"source_digest": "d"}, "counts": counts})
    gate: list[str] = []
    run.check_earlier_results(args, "d", counts, gate)
    assert gate == []
    run.check_earlier_results(args, "d", {"4": {"events": 11}}, gate)
    assert len(gate) == 1
    other_sources: list[str] = []
    run.check_earlier_results(args, "other sources", {"4": {"events": 11}}, other_sources)
    assert other_sources == []


@pytest.mark.parametrize("trace", ["0", "1"])
def test_the_last_line_is_the_result_object(trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "small", SMALL)
    argv = ["--workload", "small", "--seed", "3", "--seconds", "0.01", "--trace", trace]
    assert run.main(argv) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    table = probes.PER_LAYER if trace == "1" else run.END_TO_END
    assert {n: m["unit"] for n, m in last["metrics"].items()} == dict(table)
    saved = json.loads((tmp_path / f"small-seed3-trace{trace}.json").read_text())
    assert saved["provenance"]["seed"] == 3 and saved["provenance"]["nproc"] >= 1


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(probes.PER_LAYER)


def test_a_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bench)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join512", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
