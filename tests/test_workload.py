"""Workload tests: the count distribution, the sampler, and the schedule."""

import math
import random

import pytest

from rfoverlay import workload
from rfoverlay.workload import (
    MAX_RATE,
    WorkloadConfig,
    _substream_seed,
    build_schedule,
    poisson_pmf,
    sample_k,
)

scipy_stats = pytest.importorskip("scipy.stats")


# -- the distribution itself -----------------------------------------------------


def test_pmf_known_values():
    e = math.exp(-1.0)
    assert poisson_pmf(0, 1.0) == pytest.approx(e, abs=1e-15)
    assert poisson_pmf(1, 1.0) == pytest.approx(e, abs=1e-15)
    assert poisson_pmf(2, 2.0) == pytest.approx(2.0 * math.exp(-2.0), abs=1e-15)
    assert poisson_pmf(3, 2.0) == pytest.approx(8.0 / 6.0 * math.exp(-2.0), abs=1e-15)


def test_pmf_normalizes():
    for lam in (0.5, 1.0, 2.0, 4.0, 12.0, MAX_RATE):
        total = sum(poisson_pmf(k, lam) for k in range(300))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_pmf_matches_scipy():
    for lam in (0.3, 1.0, 2.0, 7.5, 30.0):
        for k in range(0, 60):
            reference = float(scipy_stats.poisson.pmf(k, lam))
            assert poisson_pmf(k, lam) == pytest.approx(reference, rel=1e-10, abs=1e-300)


def test_pmf_peaks_at_the_mode():
    lam = 4.0
    values = [poisson_pmf(k, lam) for k in range(20)]
    mode = values.index(max(values))
    assert mode == int(lam) or mode == int(lam) - 1
    assert values[:mode] == sorted(values[:mode])
    assert values[mode:] == sorted(values[mode:], reverse=True)


def test_pmf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        poisson_pmf(-1, 1.0)
    with pytest.raises(ValueError):
        poisson_pmf(0, 0.0)


# -- the sampler -------------------------------------------------------------------


def test_sampler_is_deterministic():
    a = random.Random(1234)
    b = random.Random(1234)
    assert [sample_k(a, 2.0) for _ in range(200)] == [sample_k(b, 2.0) for _ in range(200)]


def test_sampler_respects_rate_bounds():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        sample_k(rng, 0.0)
    with pytest.raises(ValueError):
        sample_k(rng, MAX_RATE + 1.0)


def test_sampler_counts_are_non_negative_and_finite():
    rng = random.Random(7)
    draws = [sample_k(rng, 30.0) for _ in range(2000)]
    assert min(draws) >= 0
    assert max(draws) < 200


def test_sampler_tracks_the_distribution():
    """Loose Monte Carlo: 20k draws land near the pmf for small k."""
    rng = random.Random(42)
    n = 20_000
    draws = [sample_k(rng, 2.0) for _ in range(n)]
    for k in range(6):
        empirical = draws.count(k) / n
        assert empirical == pytest.approx(poisson_pmf(k, 2.0), abs=0.02)


def test_sampler_mean_is_close():
    rng = random.Random(99)
    n = 20_000
    mean = sum(sample_k(rng, 4.0) for _ in range(n)) / n
    assert mean == pytest.approx(4.0, abs=0.1)


# -- configuration ------------------------------------------------------------------


def test_config_validates():
    with pytest.raises(ValueError):
        WorkloadConfig(lam=0.0)
    with pytest.raises(ValueError):
        WorkloadConfig(lam=MAX_RATE + 0.5)
    with pytest.raises(ValueError):
        WorkloadConfig(threshold=-1)
    with pytest.raises(ValueError):
        WorkloadConfig(intervals=-1)


# -- the schedule --------------------------------------------------------------------


def test_schedule_is_reproducible():
    cfg = WorkloadConfig(lam=2.0, threshold=2, intervals=50, seed=11)
    first = build_schedule(cfg, range(6))
    second = build_schedule(cfg, range(6))
    assert first.states == second.states


def test_schedule_is_drawn_once_and_handed_out_read_only(monkeypatch):
    draws = []

    def counted(rng, lam):
        draws.append(lam)
        return sample_k(rng, lam)

    monkeypatch.setattr(workload, "sample_k", counted)
    workload._draw_schedule.cache_clear()
    cfg = WorkloadConfig(lam=2.0, threshold=2, intervals=20, seed=11)
    first = build_schedule(cfg, range(6))
    assert build_schedule(cfg, iter(range(6))) is first
    assert len(draws) == 6 * 20
    with pytest.raises(TypeError):
        first.states[0] = ()


def test_schedule_changes_with_the_seed():
    base = WorkloadConfig(lam=2.0, threshold=2, intervals=50, seed=11)
    other = WorkloadConfig(lam=2.0, threshold=2, intervals=50, seed=12)
    assert build_schedule(base, range(6)).states != build_schedule(other, range(6)).states


def test_node_streams_are_independent_of_the_node_set():
    """Adding nodes never perturbs the draws of the existing ones."""
    cfg = WorkloadConfig(lam=2.0, threshold=2, intervals=80, seed=5)
    small = build_schedule(cfg, [0, 1])
    large = build_schedule(cfg, [0, 1, 2, 3, 4, 5, 6, 7])
    assert small.states[0] == large.states[0]
    assert small.states[1] == large.states[1]


def test_threshold_drives_availability():
    """Recompute the states straight from the substream draws."""
    cfg = WorkloadConfig(lam=2.0, threshold=2, intervals=40, seed=9)
    schedule = build_schedule(cfg, range(4))
    for node in range(4):
        rng = random.Random(_substream_seed(cfg.seed, node))
        for interval in range(cfg.intervals):
            k = sample_k(rng, cfg.lam)
            expected = k <= cfg.threshold
            assert schedule.state(node, interval) is expected


def test_higher_threshold_means_more_availability():
    strict = WorkloadConfig(lam=2.0, threshold=0, intervals=200, seed=3)
    lax = WorkloadConfig(lam=2.0, threshold=5, intervals=200, seed=3)

    def up_fraction(cfg):
        schedule = build_schedule(cfg, range(5))
        states = [s for seq in schedule.states.values() for s in seq]
        return states.count(True) / len(states)

    assert up_fraction(strict) < up_fraction(lax)


def test_schedule_vector_slices_one_interval():
    cfg = WorkloadConfig(lam=2.0, threshold=2, intervals=10, seed=1)
    schedule = build_schedule(cfg, range(3))
    vector = schedule.vector(4)
    assert set(vector) == {0, 1, 2}
    for node in range(3):
        assert vector[node] is schedule.state(node, 4)


def test_duplicate_nodes_are_rejected():
    cfg = WorkloadConfig(intervals=5)
    with pytest.raises(ValueError):
        build_schedule(cfg, [0, 0, 1])
