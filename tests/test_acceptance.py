"""Acceptance criteria, one test per criterion.

Each test prints exactly one summary line (visible with -s) and fails loudly
when its criterion does not hold. Criteria 2 and 4 share one exhaustive
toggle sweep so the heavy work runs once.

  1. serialized joins form the arrival-order ring at four publications each
  2. quiescent knowledge equals the oracle for every vector up to m = 8
  3. recovery from a total outage wakes every node in one delivery each
  4. a toggle's status wave is bounded by the dead run behind the toggler
  5. the workload sampler matches the closed-form count distribution
  6. the directional and shortest-path oracles are internally correct
  7. equal seeds reproduce traces byte for byte
"""

import itertools
import random
import time

import pytest

from rfoverlay.bus import ONEBACK_KEY, TopicName
from rfoverlay.network import Network
from rfoverlay.oracle import RingModel, basic_tst, brf_tst, sbrf_tst
from rfoverlay.scenario import ScenarioConfig, oracle_mismatches, run_scenario
from rfoverlay.trace import TraceRecorder, dumps_trace
from rfoverlay.workload import WorkloadConfig, poisson_pmf, sample_k


SWEEP_ORDERS_PER_VECTOR = 20
SWEEP_SEED = 0xACCE
SWEEP_MAX_RING = 8


def joined_network(count: int, recorder=None) -> Network:
    net = Network(recorder=recorder)
    for node in range(count):
        net.add_node(node)
    return net


def toggle_settled(net: Network, node: int, available: bool) -> int:
    """Apply one toggle, drain, and return the number of deliveries."""
    net.bus.advance()
    net.toggle(node, available)
    return net.dispatch_to_quiescence()


def dead_run_before(state: dict, node: int, size: int) -> int:
    """Consecutive Unavailable nodes immediately behind `node` in ring order."""
    run = 0
    probe = (node - 1) % size
    while probe != node and not state[probe]:
        run += 1
        probe = (probe - 1) % size
    return run


@pytest.fixture(scope="module")
def toggle_sweep():
    """Exhaustive serialized-toggle sweep shared by criteria 2 and 4.

    For every ring size up to eight and every availability vector, the
    vector is reached from all-Available by toggling the down set in twenty
    seeded random orders (one order when fewer than two toggles make every
    order identical). Each toggle runs to quiescence; the sweep records
    oracle mismatches at each vector's quiescent point and every violation
    of the per-toggle publication bound.
    """
    rng = random.Random(SWEEP_SEED)
    mismatches = []
    bound_violations = []
    runs = 0
    started = time.perf_counter()
    for size in range(1, SWEEP_MAX_RING + 1):
        base = joined_network(size)
        for bits in itertools.product((True, False), repeat=size):
            downs = [n for n, b in enumerate(bits) if not b]
            orders = SWEEP_ORDERS_PER_VECTOR if len(downs) > 1 else 1
            for _ in range(orders):
                order = downs[:]
                rng.shuffle(order)
                net = base.clone()
                state = {n: True for n in range(size)}
                for node in order:
                    allowed = dead_run_before(state, node, size) + 1
                    before = net.bus.publish_counts[TopicName.MYBOX]
                    toggle_settled(net, node, False)
                    state[node] = False
                    waves = net.bus.publish_counts[TopicName.MYBOX] - before
                    if waves > allowed:
                        bound_violations.append((size, bits, order, node, waves, allowed))
                diff = oracle_mismatches(net)
                if diff:
                    mismatches.append((size, bits, tuple(order), diff))
                runs += 1
    return {
        "mismatches": mismatches,
        "bound_violations": bound_violations,
        "runs": runs,
        "elapsed": time.perf_counter() - started,
    }


def test_criterion_1_ring_construction():
    started = time.perf_counter()
    problems = []
    for size in range(1, 33):
        net = Network()
        costs = []
        for node in range(size):
            before = sum(net.bus.publish_counts.values())
            net.add_node(node)
            costs.append(sum(net.bus.publish_counts.values()) - before)
        for node in range(size):
            view = net.views[node]
            if view.joining:
                problems.append(f"m={size}: {node} never finished joining")
            if view.ore != (node + 1) % size or view.ose != (node - 1) % size:
                problems.append(f"m={size}: {node} has ore={view.ore} ose={view.ose}")
        if costs != [1] + [4] * (size - 1):
            problems.append(f"m={size}: join costs {costs}")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 1.0
    print(f"[criterion 1] arrival-order ring at 4 publications per join: "
          f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not problems, problems[:5]
    assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s"


def test_criterion_2_oracle_equivalence(toggle_sweep):
    ok = not toggle_sweep["mismatches"] and toggle_sweep["elapsed"] < 60.0
    print(f"[criterion 2] quiescent knowledge equals the oracle over "
          f"{toggle_sweep['runs']} runs (rings to {SWEEP_MAX_RING}): "
          f"{'PASS' if ok else 'FAIL'} ({toggle_sweep['elapsed']:.2f}s)")
    assert not toggle_sweep["mismatches"], toggle_sweep["mismatches"][:3]
    assert toggle_sweep["elapsed"] < 60.0


def test_criterion_3_total_outage_recovery():
    started = time.perf_counter()
    problems = []
    for size in range(1, 33):
        net = joined_network(size)
        for node in range(size):
            toggle_settled(net, node, False)
        recoverer = size // 2
        recorder = TraceRecorder()
        net.recorder = recorder
        sleepers = {n for n in range(size) if n != recoverer}
        woke_by = {}
        seen = {n: 0 for n in sleepers}

        net.bus.advance()
        net.toggle(recoverer, True)
        while net.bus.pending_count > 0:
            node, sample = net.step()
            if node in sleepers and node not in woke_by:
                seen[node] += 1
                if net.views[node].tre is not None:
                    woke_by[node] = (sample, seen[node])

        oneback = sum(
            1 for e in recorder.events
            if e.kind == "Publish" and e.detail["key"]["topic"] == "OneBack"
        )
        own_status = sum(
            1 for e in recorder.events
            if e.kind == "Publish" and e.node == recoverer
            and e.detail["key"]["topic"] == "MyBox"
        )
        if oneback != 1:
            problems.append(f"m={size}: {oneback} wake-up publications")
        if own_status != 1:
            problems.append(f"m={size}: recoverer published {own_status} status values")
        if set(woke_by) != sleepers:
            problems.append(f"m={size}: {sleepers - set(woke_by)} never woke")
        for node, (sample, nth) in woke_by.items():
            # one dispatch round each: the first delivery already wakes it,
            # carrying either the wake-up call or a redirect it caused
            if nth != 1:
                problems.append(f"m={size}: {node} needed {nth} deliveries")
            key = sample.key
            if key != ONEBACK_KEY and key.topic is not TopicName.MYBOX:
                problems.append(f"m={size}: {node} woke on {key}")
        if oracle_mismatches(net):
            problems.append(f"m={size}: settled state disagrees with the oracle")
    elapsed = time.perf_counter() - started
    ok = not problems
    print(f"[criterion 3] one wake-up delivery revives every node: "
          f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not problems, problems[:5]


def test_criterion_4_propagation_bound(toggle_sweep):
    started = time.perf_counter()
    wrap_failures = []
    for size in range(1, 17):
        net = joined_network(size)
        try:
            for node in range(size):
                toggle_settled(net, node, False)  # default budget applies
        except Exception as exc:  # QuiescenceError means the wave never stopped
            wrap_failures.append(f"m={size}: {exc}")
    extra = time.perf_counter() - started
    ok = not toggle_sweep["bound_violations"] and not wrap_failures
    print(f"[criterion 4] status waves stay within the dead run + 1 and "
          f"full wraps terminate: {'PASS' if ok else 'FAIL'} "
          f"({toggle_sweep['elapsed']:.2f}s shared + {extra:.2f}s)")
    assert not toggle_sweep["bound_violations"], toggle_sweep["bound_violations"][:3]
    assert not wrap_failures, wrap_failures


def test_criterion_5_workload_fidelity():
    started = time.perf_counter()
    draws = 1_000_000
    problems = []
    for lam in (0.5, 1.0, 4.0):
        rng = random.Random(17)
        counts = [0] * 64
        for _ in range(draws):
            k = sample_k(rng, lam)
            if k < 64:
                counts[k] += 1
        for k in range(13):
            gap = abs(counts[k] / draws - poisson_pmf(k, lam))
            if gap >= 2e-3:
                problems.append(f"lam={lam} k={k}: |empirical-exact|={gap:.2e}")
        total = sum(poisson_pmf(k, lam) for k in range(51))
        if abs(total - 1.0) >= 1e-12:
            problems.append(f"lam={lam}: pmf sums to {total!r}")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 10.0
    print(f"[criterion 5] sampler within 2e-3 of the closed form, pmf "
          f"normalized to 1e-12: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not problems, problems[:5]
    assert elapsed < 10.0, f"took {elapsed:.2f}s, limit 10s"


def test_criterion_6_variant_oracles():
    started = time.perf_counter()
    problems = []
    for size in range(1, 9):
        for bits in itertools.product((True, False), repeat=size):
            ring = RingModel(tuple(range(size)), bits)
            # The brute force reads the raw tuples only, sharing no code
            # with the oracle module it checks.
            nodes, avail = ring.nodes, ring.avail
            live = [n for n, up in zip(nodes, avail) if up]
            pairs = brf_tst(ring)
            shortest = sbrf_tst(ring)

            for position, node in enumerate(nodes):
                cw, ccw = pairs[node]
                # direction-correct: first Available strictly ahead / behind
                expect_cw = next(
                    (nodes[(position + s) % size] for s in range(1, size + 1)
                     if avail[(position + s) % size]),
                    None,
                )
                expect_ccw = next(
                    (nodes[(position - s) % size] for s in range(1, size + 1)
                     if avail[(position - s) % size]),
                    None,
                )
                if (cw, ccw) != (expect_cw, expect_ccw):
                    problems.append(f"m={size} {bits}: {node} pair {(cw, ccw)}")
                if cw is not None and not avail[nodes.index(cw)]:
                    problems.append(f"m={size} {bits}: {node} names a dead node")
                if len(live) == 1 and (cw, ccw) != (live[0], live[0]):
                    problems.append(f"m={size} {bits}: no collapse at {node}")

                entry = shortest[node]
                if avail[position]:
                    if entry != pairs[node]:
                        problems.append(f"m={size} {bits}: {node} lost its pair")
                elif not live:
                    if entry is not None:
                        problems.append(f"m={size} {bits}: {node} found {entry}")
                else:

                    def hops(target):
                        gap = (nodes.index(target) - position) % size
                        return min(gap, size - gap)

                    best = min(hops(x) for x in live)
                    clockwise = next(
                        (x for x in live
                         if (nodes.index(x) - position) % size == best),
                        None,
                    )
                    if entry not in live or hops(entry) != best:
                        problems.append(f"m={size} {bits}: {node} candidate {entry}")
                    elif clockwise is not None and entry != clockwise:
                        problems.append(f"m={size} {bits}: {node} lost the tie-break")

            for turns in range(1, size):
                rotated = RingModel(
                    ring.nodes[turns:] + ring.nodes[:turns],
                    bits[turns:] + bits[:turns],
                )
                if basic_tst(rotated) != basic_tst(ring):
                    problems.append(f"m={size} {bits}: rotation {turns} (basic)")
                if brf_tst(rotated) != pairs:
                    problems.append(f"m={size} {bits}: rotation {turns} (pairs)")
                if sbrf_tst(rotated) != shortest:
                    problems.append(f"m={size} {bits}: rotation {turns} (shortest)")
    elapsed = time.perf_counter() - started
    ok = not problems
    print(f"[criterion 6] directional and shortest-path oracles correct and "
          f"rotation-stable: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not problems, problems[:5]


def test_criterion_7_determinism():
    started = time.perf_counter()
    configs = [
        ScenarioConfig(node_count=9, workload=WorkloadConfig(intervals=40, seed=5), seed=5),
        ScenarioConfig(
            node_count=6, delivery_delay=2,
            workload=WorkloadConfig(lam=1.0, threshold=0, intervals=30, seed=11), seed=11,
        ),
    ]
    problems = []
    for cfg in configs:
        first, _ = run_scenario(cfg)
        second, _ = run_scenario(cfg)
        if not first:
            problems.append(f"seed={cfg.seed}: empty trace")
        if dumps_trace(first) != dumps_trace(second):
            problems.append(f"seed={cfg.seed}: traces differ")
    elapsed = time.perf_counter() - started
    ok = not problems
    print(f"[criterion 7] equal seeds give byte-identical traces: "
          f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not problems, problems
