"""The migratable-restart ablation switch (Parsons & Sevcik model)."""

from __future__ import annotations

from repro.cluster.bitset import mask_from_ids
from repro.cluster.machine import Cluster
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.experiments.runner import simulate
from repro.metrics.aggregate import overall_stats
from repro.obs import InMemoryRecorder
from repro.sim.driver import SchedulingSimulation
from repro.workload.archive import SDSC
from repro.workload.synthetic import generate_trace
from tests.conftest import make_job


def test_migratable_job_restarts_anywhere():
    """With migration, a suspended job resumes on whatever is free."""

    class Script(SelectiveSuspensionScheduler):
        pass

    victim = make_job(job_id=0, submit=0.0, run=500.0, procs=2)
    preemptor = make_job(job_id=1, submit=1.0, run=5000.0, procs=2)
    squatter = make_job(job_id=2, submit=2.0, run=60.0, procs=2)
    sim = SchedulingSimulation(
        Cluster(4),
        SelectiveSuspensionScheduler(suspension_factor=1.2, preemption_interval=10.0),
        migratable=True,
    )
    sim.run([victim, preemptor, squatter])
    # at least one suspension happened and everything drained anyway
    assert victim.state.value == "finished"
    if victim.suspension_count:
        assert not victim.needs_specific_procs  # pins were cleared


def test_migration_never_hurts_drain():
    jobs = generate_trace("SDSC", n_jobs=250, seed=19)
    local = simulate(
        jobs, SelectiveSuspensionScheduler(suspension_factor=2.0), SDSC.n_procs
    )
    migr = simulate(
        jobs,
        SelectiveSuspensionScheduler(suspension_factor=2.0),
        SDSC.n_procs,
        migratable=True,
    )
    assert len(local.jobs) == len(migr.jobs) == len(jobs)


def test_migration_weakly_improves_turnaround_of_suspended_jobs():
    """Freeing the same-processors constraint can only shorten the wait
    of suspended jobs in aggregate (statistical claim on a fixed seed)."""
    jobs = generate_trace("SDSC", n_jobs=400, seed=19)
    local = simulate(
        jobs, SelectiveSuspensionScheduler(suspension_factor=1.5), SDSC.n_procs
    )
    migr = simulate(
        jobs,
        SelectiveSuspensionScheduler(suspension_factor=1.5),
        SDSC.n_procs,
        migratable=True,
    )
    sd_local = overall_stats(local.jobs).slowdown.mean
    sd_migr = overall_stats(migr.jobs).slowdown.mean
    # allow slack: schedules diverge, but migration shouldn't be much worse
    assert sd_migr <= sd_local * 1.25


def test_default_remains_local():
    jobs = generate_trace("SDSC", n_jobs=150, seed=19)
    result = simulate(
        jobs, SelectiveSuspensionScheduler(suspension_factor=1.5), SDSC.n_procs
    )
    # any job that was suspended carried a pinned set until resume; the
    # invariant is enforced inside Job.mark_started, so reaching here
    # with suspensions proves local restart held
    assert result.total_suspensions >= 0


def test_migratable_suspension_clears_the_pin():
    """A migratable suspension leaves nothing pinned: the job's
    ``suspended_mask`` is 0 and placement no longer avoids its
    processors (regression: the mask used to survive the suspension)."""
    sched = SelectiveSuspensionScheduler(suspension_factor=2.0)
    sim = SchedulingSimulation(Cluster(8), sched, migratable=True)
    sched.bind(sim)
    job = make_job(job_id=0, submit=0.0, run=100.0, procs=2)
    job.mark_submitted(0.0)
    sim._queued[job.job_id] = job
    sim.start_job(job, mask=mask_from_ids({0, 1}))
    sim.suspend_job(job)
    assert job.suspended_mask == 0
    assert not job.needs_specific_procs
    assert sched.preemption._pinned_mask() & mask_from_ids({0, 1}) == 0
    fresh = make_job(job_id=1, procs=2)
    assert sched.preemption._place_mask(fresh) == mask_from_ids({0, 1})


def test_stale_pin_would_move_a_fresh_start():
    """Hand-built run where a leaked pin changes a traced placement.

    Job 2 preempts the 7-wide job 0 at t=30 and takes procs 0-3; job 1
    frees proc 7 at t=45.  When job 3 arrives at t=50, job 0 still
    waits (7 > 4 free), and procs 4-6 -- job 0's old processors -- are
    free.  Migratable, nothing is pinned, so job 3 takes the lowest
    free proc, 4; a leaked pin on 0-6 would have pushed it to 7.
    """
    jobs = [
        make_job(job_id=0, submit=0.0, run=1000.0, procs=7),
        make_job(job_id=1, submit=0.0, run=45.0, procs=1),
        make_job(job_id=2, submit=1.0, run=100.0, procs=4),
        make_job(job_id=3, submit=50.0, run=10.0, procs=1),
    ]
    recorder = InMemoryRecorder()
    sim = SchedulingSimulation(
        Cluster(8),
        SelectiveSuspensionScheduler(suspension_factor=1.2, preemption_interval=10.0),
        migratable=True,
        recorder=recorder,
    )
    sim.run(jobs)
    events = recorder.dicts()
    suspends = [e for e in events if e["type"] == "suspend"]
    assert [(e["t"], e["job"], e["procs"]) for e in suspends][:1] == [
        (30.0, 0, [0, 1, 2, 3, 4, 5, 6])
    ]
    (start3,) = [e for e in events if e["type"] == "start" and e["job"] == 3]
    assert start3["t"] == 50.0
    assert start3["procs"] == [4]
