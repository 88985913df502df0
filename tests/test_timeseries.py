"""Time-series probe."""

from __future__ import annotations

import pytest

from repro.cluster.machine import Cluster
from repro.metrics.timeseries import StateProbe, StateSample
from repro.schedulers.registry import make_scheduler
from repro.sim.driver import SchedulingSimulation
from repro.workload.job import fresh_copies
from repro.workload.synthetic import generate_trace
from tests.conftest import make_job


def run_probed(jobs, scheduler, n_procs, interval=300.0):
    probe = StateProbe(interval=interval)
    sim = SchedulingSimulation(Cluster(n_procs), scheduler, probe=probe)
    result = sim.run(jobs)
    return probe, result


def test_probe_validates_interval():
    with pytest.raises(ValueError):
        StateProbe(interval=0.0)


def test_probe_collects_samples():
    jobs = [make_job(job_id=i, submit=600.0 * i, run=500.0, procs=2) for i in range(5)]
    probe, _ = run_probed(jobs, make_scheduler("easy"), n_procs=4)
    assert probe.samples
    times = probe.times()
    assert times == sorted(times)


def test_probe_decimates_by_interval():
    jobs = [make_job(job_id=i, submit=float(i), run=10.0, procs=1) for i in range(50)]
    probe, _ = run_probed(jobs, make_scheduler("easy"), n_procs=4, interval=20.0)
    times = probe.times()
    assert all(b - a >= 20.0 - 1e-9 for a, b in zip(times, times[1:], strict=False))
    assert len(times) < 50


def test_sample_consistency():
    jobs = generate_trace("SDSC", n_jobs=200, seed=5)
    probe, _ = run_probed(
        fresh_copies(jobs), make_scheduler("ss", suspension_factor=2.0), n_procs=128
    )
    for s in probe.samples:
        assert s.busy_procs + s.free_procs == 128
        assert s.queued == s.queued_fresh + s.queued_suspended
        assert s.running >= 0


def test_suspended_jobs_visible_in_series():
    jobs = [
        make_job(job_id=0, submit=0.0, run=10_000.0, procs=4),
        make_job(job_id=1, submit=10.0, run=60.0, procs=4),
    ]
    probe, result = run_probed(
        jobs,
        make_scheduler("ss", suspension_factor=1.5, preemption_interval=10.0),
        n_procs=4,
        interval=5.0,
    )
    assert result.total_suspensions >= 1
    assert probe.peak("queued_suspended") >= 1


def test_series_accessors():
    jobs = [make_job(job_id=i, submit=100.0 * i, run=50.0, procs=2) for i in range(4)]
    probe, _ = run_probed(jobs, make_scheduler("easy"), n_procs=4, interval=30.0)
    util = probe.series("utilization")
    assert all(0.0 <= u <= 1.0 for u in util)
    assert probe.mean("busy_procs") >= 0.0
    with pytest.raises(KeyError):
        probe.series("nonsense")


def test_sample_is_frozen():
    s = StateSample(0.0, 1, 2, 3, 4, 4)
    with pytest.raises(AttributeError):
        s.running = 5  # type: ignore[misc]
