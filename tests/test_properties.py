"""Property-based tests (hypothesis) on core structures and invariants."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.machine import Cluster
from repro.metrics.slowdown import bounded_slowdown, turnaround_time, wait_time
from repro.metrics.utilization import busy_area_from_jobs
from repro.schedulers.profiles import AvailabilityProfile
from repro.schedulers.registry import make_scheduler
from repro.sim.events import EventKind, EventQueue
from repro.workload.job import Job, JobState
from tests.conftest import run_sim

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
N_PROCS = 16

job_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5000.0),  # submit
        st.floats(min_value=1.0, max_value=5000.0),  # run
        st.integers(min_value=1, max_value=N_PROCS),  # procs
        st.floats(min_value=1.0, max_value=4.0),  # estimate factor
    ),
    min_size=1,
    max_size=25,
)


def build_jobs(raw) -> list[Job]:
    return [
        Job(
            job_id=i,
            submit_time=submit,
            run_time=run,
            estimate=run * est_factor,
            procs=procs,
        )
        for i, (submit, run, procs, est_factor) in enumerate(raw)
    ]


# ----------------------------------------------------------------------
# event queue ordering
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=200))
def test_event_queue_pops_sorted(times):
    q = EventQueue()
    for t in times:
        q.schedule(t, EventKind.GENERIC, t)
    popped = [q.pop().time for _ in range(len(times))]
    assert popped == sorted(times)


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100),
    st.data(),
)
def test_event_queue_cancellation_preserves_rest(times, data):
    q = EventQueue()
    events = [q.schedule(t, EventKind.GENERIC, i) for i, t in enumerate(times)]
    kill = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(times) - 1), max_size=len(times) - 1)
    )
    for i in kill:
        q.cancel(events[i])
    expected = sorted(
        (t, i) for i, t in enumerate(times) if i not in kill
    )
    popped = [(e.time, e.payload) for e in q.drain()]
    assert [p[1] for p in popped] == [e[1] for e in expected] or [
        p[0] for p in popped
    ] == [e[0] for e in expected]


# ----------------------------------------------------------------------
# availability profile
# ----------------------------------------------------------------------
claims = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0),  # start
        st.floats(min_value=0.1, max_value=1000.0),  # duration
        st.integers(min_value=1, max_value=4),  # count
    ),
    max_size=30,
)


@given(claims)
def test_profile_free_never_negative_or_above_capacity(claim_list):
    p = AvailabilityProfile(32, origin=0.0)
    for start, duration, count in claim_list:
        if p.min_free(start, start + duration) >= count:
            p.claim(start, duration, count)
    for _t, free in p.breakpoints():
        assert 0 <= free <= 32


@given(claims, st.floats(min_value=0.1, max_value=500.0), st.integers(1, 32))
def test_profile_anchor_window_actually_fits(claim_list, duration, count):
    p = AvailabilityProfile(32, origin=0.0)
    for start, dur, cnt in claim_list:
        if p.min_free(start, start + dur) >= cnt:
            p.claim(start, dur, cnt)
    anchor = p.find_anchor(duration, count)
    assert p.fits(anchor, duration, count)
    # and no earlier breakpoint admits the same window
    for t, _ in p.breakpoints():
        if t < anchor:
            assert not p.fits(t, duration, count)


# ----------------------------------------------------------------------
# whole-simulation invariants
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_fcfs_schedule_invariants(raw):
    jobs = build_jobs(raw)
    result = run_sim(jobs, make_scheduler("fcfs"), n_procs=N_PROCS)
    _assert_schedule_sane(jobs, result)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_easy_schedule_invariants(raw):
    jobs = build_jobs(raw)
    result = run_sim(jobs, make_scheduler("easy"), n_procs=N_PROCS)
    _assert_schedule_sane(jobs, result)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_ss_schedule_invariants(raw):

    jobs = build_jobs(raw)
    result = run_sim(
        jobs,
        make_scheduler("ss", suspension_factor=2.0, preemption_interval=60.0),
        n_procs=N_PROCS,
    )
    _assert_schedule_sane(jobs, result)


def _assert_schedule_sane(jobs: list[Job], result) -> None:
    """Invariants every valid schedule satisfies (DESIGN.md section 5)."""
    assert len(result.jobs) == len(jobs)
    for j in result.jobs:
        assert j.state is JobState.FINISHED
        assert j.first_start_time is not None and j.finish_time is not None
        # causality and duration
        assert j.first_start_time >= j.submit_time
        assert turnaround_time(j) >= j.run_time - 1e-6
        assert wait_time(j) >= -1e-6
        assert bounded_slowdown(j) >= 1.0
        # occupancy bookkeeping closed out
        assert j.pending_overhead == 0.0
        assert j.remaining_useful == 0.0
    # conservation: busy integral equals job areas
    assert abs(result.busy_proc_seconds - busy_area_from_jobs(result.jobs)) < 1e-6
    # utilisation in range
    assert 0.0 <= result.utilization <= 1.0 + 1e-9


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_determinism_across_runs(raw):
    """Two identical simulations produce identical schedules."""
    a = run_sim(build_jobs(raw), make_scheduler("easy"), n_procs=N_PROCS)
    b = run_sim(build_jobs(raw), make_scheduler("easy"), n_procs=N_PROCS)
    assert [(j.job_id, j.first_start_time, j.finish_time) for j in a.jobs] == [
        (j.job_id, j.first_start_time, j.finish_time) for j in b.jobs
    ]


# ----------------------------------------------------------------------
# cluster random-walk
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=8)),
        max_size=60,
    )
)
def test_cluster_random_walk_keeps_invariants(ops):
    c = Cluster(16)
    held: dict[int, int] = {}
    next_owner = 0
    for is_alloc, count in ops:
        if is_alloc and c.can_allocate(count):
            held[next_owner] = c.allocate(count, owner=next_owner)
            next_owner += 1
        elif not is_alloc and held:
            owner, mask = next(iter(held.items()))
            c.release(mask, owner)
            del held[owner]
        c.check_invariants()
        assert c.free_count + sum(m.bit_count() for m in held.values()) == 16


class _SetModelCluster:
    """Reference model for :class:`Cluster`: plain sets and dicts.

    Mirrors the machine-model semantics (lowest-id-first allocation,
    exclusive ownership, all-or-nothing release) with the most obvious
    data structures so the bitmask implementation can be checked
    operation for operation against it.
    """

    def __init__(self, n_procs: int) -> None:
        self.n_procs = n_procs
        self.free: set[int] = set(range(n_procs))
        self.owner_procs: dict[int, set[int]] = {}

    def allocate(self, count: int, owner: int) -> frozenset[int] | None:
        if count <= 0 or count > len(self.free):
            return None
        chosen = set(sorted(self.free)[:count])
        self.free -= chosen
        self.owner_procs.setdefault(owner, set()).update(chosen)
        return frozenset(chosen)

    def allocate_specific(self, procs: set[int], owner: int) -> frozenset[int] | None:
        if not procs or not procs <= self.free:
            return None
        self.free -= procs
        self.owner_procs.setdefault(owner, set()).update(procs)
        return frozenset(procs)

    def release(self, procs: set[int], owner: int) -> bool:
        if not procs <= self.owner_procs.get(owner, set()):
            return False  # all-or-nothing: reject, change nothing
        self.owner_procs[owner] -= procs
        if not self.owner_procs[owner]:
            del self.owner_procs[owner]
        self.free |= procs
        return True


_proc_sets = st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6)

_cluster_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=10)),
        st.tuples(st.just("alloc_mask"), _proc_sets),
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("release_part"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("bad_release"), _proc_sets),
        st.tuples(st.just("query"), _proc_sets),
    ),
    max_size=80,
)


def _reference_owners(model: _SetModelCluster, query: set[int]) -> tuple[int, ...]:
    """Owners holding processors in *query*, walked processor by
    processor: each owner appears once, at the first processor it holds."""
    out: list[int] = []
    for p in range(model.n_procs):
        if p not in query:
            continue
        for owner, procs in sorted(model.owner_procs.items()):
            if p in procs and owner not in out:
                out.append(owner)
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(_cluster_ops)
def test_cluster_agrees_with_set_model(ops):
    """The bitmask Cluster is operation-for-operation equivalent to the
    set-based reference model: same allocations, same rejections, same
    observable state after every step, and ``owners_in_mask`` in the
    order of a per-processor walk."""
    import pytest

    from repro.cluster.bitset import mask_from_ids
    from repro.cluster.machine import AllocationError

    real = Cluster(16)
    model = _SetModelCluster(16)
    next_owner = 0
    query: set[int] = set(range(16))

    for kind, arg in ops:
        if kind == "alloc":
            expected = model.allocate(arg, owner=next_owner)
            if expected is None:
                with pytest.raises(AllocationError):
                    real.allocate(arg, owner=next_owner)
            else:
                assert real.allocate(arg, owner=next_owner) == mask_from_ids(expected)
                next_owner += 1
        elif kind == "alloc_mask":
            expected = model.allocate_specific(set(arg), owner=next_owner)
            if expected is None:
                with pytest.raises(AllocationError):
                    real.allocate_mask(mask_from_ids(arg), owner=next_owner)
            else:
                got = real.allocate_mask(mask_from_ids(arg), owner=next_owner)
                assert got == mask_from_ids(expected)
                next_owner += 1
        elif kind in ("release", "release_part"):
            # release some existing owner's holding (all of it, or its
            # lowest half), chosen by index
            owners = sorted(model.owner_procs)
            if not owners:
                continue
            owner = owners[arg % len(owners)]
            procs = sorted(model.owner_procs[owner])
            if kind == "release_part":
                procs = procs[: max(1, len(procs) // 2)]
            assert model.release(set(procs), owner)
            real.release(mask_from_ids(procs), owner)
        elif kind == "bad_release":  # arbitrary procs under a bogus owner
            assert not model.release(set(arg), owner=-1)
            with pytest.raises(AllocationError):
                real.release(mask_from_ids(arg), owner=-1)
        else:  # query: remember a mask to ask owners_in_mask about
            query = set(arg)

        # observable state identical after every operation
        real.check_invariants()
        assert real.free_mask == mask_from_ids(model.free)
        assert real.free_count == len(model.free)
        for owner, procs in model.owner_procs.items():
            assert real.owner_mask(owner) == mask_from_ids(procs)
        for p in range(16):
            expected_owner = next(
                (o for o, ps in model.owner_procs.items() if p in ps), None
            )
            assert real.owner_of(p) == expected_owner
        for q in (query, set(range(16))):
            assert real.owners_in_mask(mask_from_ids(q)) == _reference_owners(model, q)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_is_schedule_invariants(raw):

    jobs = build_jobs(raw)
    result = run_sim(jobs, make_scheduler("is"), n_procs=N_PROCS)
    _assert_schedule_sane(jobs, result)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_gang_schedule_invariants(raw):

    jobs = build_jobs(raw)
    result = run_sim(jobs, make_scheduler("gang", quantum=300.0), n_procs=N_PROCS)
    _assert_schedule_sane(jobs, result)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_speculative_schedule_invariants(raw):
    """Kills discard progress but every invariant the auditor knows
    about must still hold (conservation includes wasted time)."""
    from repro.sim.audit import audit_result

    jobs = build_jobs(raw)
    result = run_sim(
        jobs, make_scheduler("speculative", speculation_window=300.0), n_procs=N_PROCS
    )
    assert len(result.jobs) == len(jobs)
    audit_result(result)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_audit_accepts_every_generated_schedule(raw):
    """The auditor must never flag a schedule the driver produced."""
    from repro.sim.audit import audit_result

    jobs = build_jobs(raw)
    result = run_sim(
        jobs, make_scheduler("tss", suspension_factor=2.0), n_procs=N_PROCS
    )
    audit_result(result)


#: every timer-driven scheme, as registry configs
_TIMER_CONFIGS = (
    {"scheme": "ss", "suspension_factor": 1.5},
    {"scheme": "ss", "suspension_factor": 2.0},
    {"scheme": "ss", "suspension_factor": 5.0},
    {"scheme": "tss"},
    {"scheme": "ss-easy"},
    {"scheme": "tss-conservative"},
    {"scheme": "is"},
    {"scheme": "gang"},
)


#: job lists that arrive close together, so queues stay busy and the
#: sweeps preempt
busy_job_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1500.0),  # submit
        st.floats(min_value=30.0, max_value=5000.0),  # run
        st.integers(min_value=1, max_value=N_PROCS),  # procs
        st.floats(min_value=1.0, max_value=4.0),  # estimate factor
    ),
    min_size=2,
    max_size=25,
)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(busy_job_lists)
def test_busy_tick_skipping_changes_no_outcome(raw):
    """Skipping ticks up to ``quiet_until`` leaves every run unchanged.

    Each timer-driven scheme runs untraced twice: as registered, and
    with ``quiet_until`` returning ``now`` so every tick is dispatched.
    """
    from repro.schedulers.registry import scheduler_from_config
    from repro.sim.driver import SchedulingSimulation

    jobs = build_jobs(raw)

    def outcome(config, skip):
        scheduler = scheduler_from_config(config)
        if not skip:
            scheduler.quiet_until = lambda now: now
        sim = SchedulingSimulation(Cluster(N_PROCS), scheduler)
        result = sim.run([j.copy_static() for j in jobs])
        per_job = [
            (j.job_id, j.first_start_time, j.finish_time, j.suspension_count)
            for j in result.jobs
        ]
        return per_job, result.events_dispatched, result.total_suspensions, sim.now

    for config in _TIMER_CONFIGS:
        assert outcome(config, skip=True) == outcome(config, skip=False), config
