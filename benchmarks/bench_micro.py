"""Micro-benchmarks of the simulation substrate.

Conventional pytest-benchmark timings (many rounds) for the hot paths:
event calendar throughput, profile operations, cluster allocation, and
end-to-end simulation rate in jobs/second for each scheduler family.
Regressions here silently inflate every figure bench, so they are
tracked separately -- ``tools/bench_gate.py`` runs this module, writes
a schema-versioned ``BENCH_*.json`` artifact and fails CI on
regressions against the committed baseline.

The pre-optimisation kernel survives here as *executable references*:

* :class:`LegacyCluster` -- the set/dict free-pool bookkeeping that the
  bitmask :class:`repro.cluster.machine.Cluster` replaced;
* :class:`LegacySweepScheduler` -- the SS sweep that recomputed
  priorities per access, re-sorted ``running_jobs()`` per idle job and
  rebuilt the pinned set per placement;
* :class:`LegacyAvailabilityProfile` -- the candidates-times-``fits``
  anchor rescan and the double-``list.insert`` claim.

Each has a ``*_legacy`` bench twin so every speedup claim is measured
in the same run it is reported from, and the ``test_*_identical``
cases assert the optimised kernel makes byte-for-byte the same
scheduling decisions as the legacy one -- the speedups are asserted,
not claimed.
"""

from __future__ import annotations

from typing import Iterable

import pytest

from repro.cluster.bitset import iter_bits
from repro.cluster.machine import AllocationError, Cluster
from repro.core.immediate_service import ImmediateServiceScheduler
from repro.core.priorities import PreemptionCriteria, suspension_priority
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.easy import EasyBackfillScheduler
from repro.schedulers.profiles import AvailabilityProfile, ProfileError
from repro.sim.driver import SchedulingSimulation
from repro.sim.events import EventKind, EventQueue
from repro.workload.job import Job, fresh_copies
from repro.workload.load import scale_load
from repro.workload.swf import stream_jobs, stream_swf, write_synthetic_swf
from repro.workload.synthetic import generate_trace
from tests.conftest import run_sim

JOBS_SDSC = generate_trace("SDSC", n_jobs=400, seed=3)
#: the regime the ROADMAP cares about: a long, overloaded SDSC trace
#: where queues stay deep and the kernel's quadratic terms dominate
JOBS_CONGESTED = scale_load(generate_trace("SDSC", n_jobs=700, seed=5), 1.8)
#: the SDSC trace at twice its load: the high-load cell of the load
#: sweep, where waiting jobs keep the queue busy between preemptions
JOBS_LOAD2 = scale_load(JOBS_SDSC, 2.0)


# ----------------------------------------------------------------------
# legacy reference implementations (pre-bitmask kernel)
# ----------------------------------------------------------------------
class LegacyCluster:
    """The set/dict cluster the bitmask :class:`Cluster` replaced.

    Free pool as ``set[int]``, ownership as ``dict[proc, owner]``; same
    public API and error behaviour, so it drops into the driver for the
    ``*_legacy`` benches and the equivalence assertions.
    """

    def __init__(self, n_procs: int, policy=None) -> None:
        from repro.cluster.allocation import LowestIdFirst

        self.n_procs = int(n_procs)
        self._free: set[int] = set(range(self.n_procs))
        self._owner: dict[int, int] = {}
        self.policy = policy or LowestIdFirst()

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def busy_count(self) -> int:
        return self.n_procs - len(self._free)

    def free_set(self) -> frozenset[int]:
        return frozenset(self._free)

    def is_free(self, proc: int) -> bool:
        return proc in self._free

    def owner_of(self, proc: int) -> int | None:
        return self._owner.get(proc)

    def owners_overlapping(self, procs: Iterable[int]) -> set[int]:
        out: set[int] = set()
        for p in procs:
            owner = self._owner.get(p)
            if owner is not None:
                out.add(owner)
        return out

    def can_allocate(self, count: int) -> bool:
        return count <= len(self._free)

    def can_allocate_specific(self, procs: Iterable[int]) -> bool:
        return all(p in self._free for p in procs)

    def can_allocate_mask(self, mask: int) -> bool:
        # the driver resumes suspended jobs through the mask entry
        # points; the legacy cluster decodes the mask to ids
        return self.can_allocate_specific(iter_bits(mask))

    def allocate(self, count: int, owner: int) -> frozenset[int]:
        if count <= 0:
            raise AllocationError(f"job {owner}: nonpositive request {count}")
        if count > self.n_procs:
            raise AllocationError(
                f"job {owner}: requests {count} > machine size {self.n_procs}"
            )
        if count > len(self._free):
            raise AllocationError(
                f"job {owner}: requests {count}, only {len(self._free)} free"
            )
        chosen = self.policy.select(self._free, count)
        return self._claim(chosen, owner)

    def allocate_specific(self, procs: Iterable[int], owner: int) -> frozenset[int]:
        chosen = frozenset(procs)
        if not chosen:
            raise AllocationError(f"job {owner}: empty specific allocation")
        missing = [p for p in chosen if p not in self._free]
        if missing:
            raise AllocationError(
                f"job {owner}: processors {sorted(missing)[:8]} not free"
            )
        return self._claim(chosen, owner)

    def allocate_mask(self, mask: int, owner: int) -> frozenset[int]:
        return self.allocate_specific(iter_bits(mask), owner)

    def _claim(self, chosen: frozenset[int], owner: int) -> frozenset[int]:
        for p in chosen:
            self._owner[p] = owner
        self._free -= chosen
        return chosen

    def release(self, procs: Iterable[int], owner: int) -> None:
        procs = frozenset(procs)
        for p in procs:
            actual = self._owner.get(p)
            if actual != owner:
                raise AllocationError(
                    f"release of processor {p} by job {owner}, "
                    f"but it is owned by {actual!r}"
                )
        for p in procs:
            del self._owner[p]
        self._free |= procs


class LegacyAvailabilityProfile(AvailabilityProfile):
    """The pre-optimisation profile operations.

    ``find_anchor`` re-walks the whole window per candidate (O(n^2));
    ``claim`` pays two O(n) ``list.insert`` shifts per call.  Kept as
    the measured baseline for the merged-walk/splice rewrite.
    """

    def _ensure_breakpoint(self, t: float) -> int:
        from bisect import bisect_right

        idx = bisect_right(self._times, t) - 1
        if self._times[idx] == t:
            return idx
        self._times.insert(idx + 1, t)
        self._free.insert(idx + 1, self._free[idx])
        return idx + 1

    def claim(self, start: float, duration: float, count: int) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if start < self.origin:
            raise ValueError(f"claim at t={start} before origin={self.origin}")
        end = start + duration
        i0 = self._ensure_breakpoint(start)
        i1 = self._ensure_breakpoint(end)
        for i in range(i0, i1):
            if self._free[i] < count:
                raise ProfileError(
                    f"claim of {count} procs over [{start}, {end}) underflows "
                    f"at t={self._times[i]} (free={self._free[i]})"
                )
            self._free[i] -= count

    def find_anchor(
        self, duration: float, count: int, earliest: float | None = None
    ) -> float:
        if count > self.n_procs:
            raise ProfileError(
                f"{count} processors can never be free on a "
                f"{self.n_procs}-proc machine"
            )
        start = self.origin if earliest is None else max(earliest, self.origin)
        candidates = [start, *(t for t in self._times if t > start)]
        for t in candidates:
            if self.fits(t, duration, count):
                return t
        if self._free[-1] >= count:
            return self._times[-1]
        raise ProfileError(
            f"no anchor for count={count}, duration={duration}: profile tail "
            f"only has {self._free[-1]} free -- unterminated claim?"
        )


class _RecomputingPriorities(dict):
    """job_id -> xfactor mapping that recomputes on *every* access.

    Stores the Job objects and calls :func:`suspension_priority` in
    ``__getitem__``, reproducing the pre-optimisation sweep's cost
    profile (priority evaluated inside sort keys and per-victim
    filters, O(queue x running) calls per sweep) while flowing through
    the same code paths as the snapshot dict.
    """

    def __init__(self, jobs, now: float) -> None:
        super().__init__((j.job_id, j) for j in jobs)
        self._now = now

    def __getitem__(self, job_id):  # type: ignore[override]
        return suspension_priority(super().__getitem__(job_id), self._now)


class LegacySweepScheduler(Scheduler):
    """Reference SS with the full pre-optimisation sweep.

    Benchmark-only and deliberately **self-contained** on the bare
    :class:`Scheduler` interface: since the policy-kernel refactor the
    production SS delegates its sweep to the composed
    ``SweepPreemption`` engine, so subclass overrides of the old
    ``sweep``/``_try_start`` internals would be dead code silently
    benchmarking the optimised path.  Everything here is the legacy
    implementation: priorities recomputed per access, ``running_jobs()``
    re-sorted inside every ``_try_start``, the pinned set rebuilt from
    the queue on every ``_place``, and all placement done on id sets.
    Pins down what the sweep-scoped snapshot/victim-list/pinned-mask
    structures buy, and that they buy it without changing a single
    scheduling decision (``test_kernel_equivalence_identical`` asserts
    the schedules match event for event).
    """

    scheme_id = "ss"

    def __init__(
        self,
        suspension_factor: float = 2.0,
        preemption_interval: float = 60.0,
        width_rule: bool = True,
    ) -> None:
        super().__init__()
        self.criteria = PreemptionCriteria(
            suspension_factor=suspension_factor, width_rule=width_rule
        )
        self.timer_interval = float(preemption_interval)
        self.name = f"SS(SF={suspension_factor:g})"

    def config(self) -> dict[str, object]:
        return {
            "scheme": self.scheme_id,
            "suspension_factor": self.criteria.suspension_factor,
            "preemption_interval": self.timer_interval,
            "width_rule": self.criteria.width_rule,
        }

    def on_arrival(self, job: Job) -> None:
        self.sweep(allow_suspension=False)

    def on_finish(self, job: Job) -> None:
        self.sweep(allow_suspension=False)

    def on_timer(self) -> None:
        self.sweep(allow_suspension=True)

    def victim_preemptable(
        self, victim: Job, now: float, priority: float | None = None
    ) -> bool:
        return True  # plain SS never protects a running job

    def sweep(self, allow_suspension: bool) -> None:
        driver = self.driver
        assert driver is not None
        now = driver.now
        queued = driver.queued_jobs()
        pool = list(queued)
        if allow_suspension:
            pool.extend(driver.running_jobs())
        priorities = _RecomputingPriorities(pool, now)
        idle = sorted(
            queued,
            key=lambda j: (-priorities[j.job_id], j.submit_time, j.job_id),
        )
        for job in idle:
            if job.needs_specific_procs:
                self._try_resume(job, allow_suspension, priorities)
            else:
                self._try_start(job, allow_suspension, priorities)

    def _pinned_procs(self) -> set[int]:
        driver = self.driver
        assert driver is not None
        pinned: set[int] = set()
        for j in driver.queued_jobs():
            if j.needs_specific_procs:
                pinned |= j.suspended_procs
        return pinned

    def _place(self, job: Job, preferred: frozenset[int] = frozenset()) -> frozenset[int]:
        driver = self.driver
        assert driver is not None
        free = driver.cluster.free_set()
        pinned = self._pinned_procs()
        chosen: list[int] = sorted(preferred & free)[: job.procs]
        if len(chosen) < job.procs:
            taken = set(chosen)
            unpinned = sorted(free - taken - pinned)
            chosen.extend(unpinned[: job.procs - len(chosen)])
        if len(chosen) < job.procs:
            taken = set(chosen)
            rest = sorted(free - taken)
            chosen.extend(rest[: job.procs - len(chosen)])
        return frozenset(chosen)

    def _try_start(self, job: Job, allow_suspension: bool, priorities) -> bool:
        driver = self.driver
        assert driver is not None
        if driver.cluster.can_allocate(job.procs):
            driver.start_job(job, procs=self._place(job))
            return True
        if not allow_suspension:
            return False
        free = driver.cluster.free_count
        candidates: list[Job] = []
        covered = free
        for victim in sorted(
            driver.running_jobs(),
            key=lambda r: (priorities[r.job_id], r.job_id),
        ):
            if covered >= job.procs:
                break
            victim_priority = priorities[victim.job_id]
            width = len(victim.allocated_procs)
            if not self.victim_preemptable(victim, driver.now, victim_priority):
                continue
            if not self.criteria.priority_allows(
                priorities[job.job_id], victim_priority
            ):
                continue
            if not self.criteria.width_allows(job.procs, width, reentry=False):
                continue
            candidates.append(victim)
            covered += width
        if covered < job.procs:
            return False
        chosen: list[Job] = []
        covered_free = free
        for victim in sorted(
            candidates, key=lambda c: (-len(c.allocated_procs), c.job_id)
        ):
            if covered_free >= job.procs:
                break
            chosen.append(victim)
            covered_free += len(victim.allocated_procs)
        freed: set[int] = set()
        for victim in chosen:
            freed |= victim.allocated_procs
            driver.suspend_job(victim, preemptor=job.job_id)
        driver.start_job(job, procs=self._place(job, preferred=frozenset(freed)))
        return True

    def _try_resume(self, job: Job, allow_suspension: bool, priorities) -> bool:
        driver = self.driver
        assert driver is not None
        needed = job.suspended_procs
        if driver.cluster.can_allocate_specific(needed):
            driver.start_job(job)
            return True
        if not allow_suspension:
            return False
        idle_priority = priorities[job.job_id]
        owner_ids = driver.cluster.owners_overlapping(needed)
        owners = sorted(
            (r for r in driver.running_jobs() if r.job_id in owner_ids),
            key=lambda r: r.job_id,
        )
        if len(owners) != len(owner_ids):  # pragma: no cover - defensive
            return False
        for victim in owners:
            victim_priority = priorities[victim.job_id]
            if not self.victim_preemptable(victim, driver.now, victim_priority):
                return False
            if not self.criteria.priority_allows(idle_priority, victim_priority):
                return False
        for victim in owners:
            driver.suspend_job(victim, preemptor=job.job_id)
        if driver.cluster.can_allocate_specific(needed):
            driver.start_job(job)
            return True
        return False  # pragma: no cover - owners covered all of `needed`


class UnelidedImmediateService(ImmediateServiceScheduler):
    """IS with every timer tick dispatched (no quiet-tick elision).

    Its quiet bound is always *now*, so the driver runs the full 60-s
    chain; ``test_is_elision_identical`` checks that skipping the quiet
    ticks changes nothing observable.
    """

    def quiet_until(self, now: float) -> float:
        return now


class UnskippedSelectiveSuspension(SelectiveSuspensionScheduler):
    """SS with every timer tick dispatched (no quiet-tick elision);
    the reference of ``test_ss_busy_skip_identical``."""

    def quiet_until(self, now: float) -> float:
        return now


def run_sim_legacy(jobs, scheduler, n_procs):
    """run_sim twin on the full legacy kernel (LegacyCluster)."""
    driver = SchedulingSimulation(cluster=LegacyCluster(n_procs), scheduler=scheduler)
    return driver.run(jobs)


def _schedule_signature(result):
    """Every externally observable per-job outcome, for exact equality."""
    return [
        (
            j.job_id,
            j.first_start_time,
            j.finish_time,
            j.suspension_count,
        )
        for j in result.jobs
    ]


# ----------------------------------------------------------------------
# substrate micro-benches
# ----------------------------------------------------------------------
def test_event_queue_push_pop(benchmark):
    def run():
        q = EventQueue()
        for i in range(2000):
            q.schedule(float(i % 97), EventKind.GENERIC, i)
        while q:
            q.pop()

    benchmark(run)


def test_event_queue_with_cancellation(benchmark):
    def run():
        q = EventQueue()
        events = [q.schedule(float(i % 53), EventKind.GENERIC, i) for i in range(2000)]
        for ev in events[::2]:
            q.cancel(ev)
        while q:
            q.pop()

    benchmark(run)


def _profile_workload(profile_cls):
    p = profile_cls(430, origin=0.0)
    for i in range(300):
        width = 8 + (i * 7) % 48
        anchor = p.find_anchor(100.0 + (i % 60), width)
        p.claim(anchor, 100.0 + (i % 60), width)
    return p


def test_profile_claim_and_anchor(benchmark):
    benchmark(_profile_workload, AvailabilityProfile)


def test_profile_claim_and_anchor_legacy(benchmark):
    """The O(n^2) rescan + insert-churn profile, same workload."""
    benchmark(_profile_workload, LegacyAvailabilityProfile)


def test_profile_ops_identical():
    """Merged-walk anchors and spliced claims change cost, not plans."""
    fast = _profile_workload(AvailabilityProfile)
    slow = _profile_workload(LegacyAvailabilityProfile)
    assert fast.breakpoints() == slow.breakpoints()


def _cluster_workload(cluster_cls):
    c = cluster_cls(430)
    for round_ in range(50):
        held = []
        for i in range(100):
            held.append((i, c.allocate(4, owner=i)))
        for owner, procs in held:
            c.release(procs, owner)
    return c


def test_cluster_allocate_release(benchmark):
    c = benchmark(_cluster_workload, Cluster)
    assert c.free_count == 430


def test_cluster_allocate_release_legacy(benchmark):
    """The set/dict cluster, same allocate/release workload."""
    c = benchmark(_cluster_workload, LegacyCluster)
    assert c.free_count == 430


# ----------------------------------------------------------------------
# end-to-end simulation rate
# ----------------------------------------------------------------------
def test_simulation_rate_easy(benchmark):
    def run():
        return run_sim(fresh_copies(JOBS_SDSC), EasyBackfillScheduler(), n_procs=128)

    result = benchmark(run)
    assert len(result.jobs) == len(JOBS_SDSC)


def test_simulation_rate_ss(benchmark):
    def run():
        return run_sim(
            fresh_copies(JOBS_SDSC),
            SelectiveSuspensionScheduler(suspension_factor=2.0),
            n_procs=128,
        )

    result = benchmark(run)
    assert len(result.jobs) == len(JOBS_SDSC)


def test_simulation_rate_ss_null_recorder(benchmark):
    """SS throughput with the null recorder attached.

    The zero-overhead-when-off contract (docs/TRACING.md): passing a
    disabled recorder must leave ``driver.tracer is None``, so the only
    possible cost over ``test_simulation_rate_ss`` is the per-site
    ``if tracer is not None`` guards.  Compare the two benches in the
    same run; the gap stays within the noise floor (<2% measured).
    """
    from repro.obs import NULL_RECORDER

    def run():
        driver = SchedulingSimulation(
            cluster=Cluster(128),
            scheduler=SelectiveSuspensionScheduler(suspension_factor=2.0),
            recorder=NULL_RECORDER,
        )
        return driver.run(fresh_copies(JOBS_SDSC))

    result = benchmark(run)
    assert result.counters is None  # disabled recorder -> no tracer
    assert len(result.jobs) == len(JOBS_SDSC)


def test_simulation_rate_ss_load2(benchmark):
    """SS on the SDSC trace at load 2.0.

    Waiting jobs keep the queue busy between preemptions, so most
    60-s ticks find work they cannot yet act on; the driver skips them
    up to the sweep's closed-form quiet bound.
    """

    def run():
        return run_sim(
            fresh_copies(JOBS_LOAD2),
            SelectiveSuspensionScheduler(suspension_factor=2.0),
            n_procs=128,
        )

    result = benchmark(run)
    assert len(result.jobs) == len(JOBS_LOAD2)


def test_simulation_rate_is(benchmark):
    """IS throughput on the SDSC trace.

    The timeslice engine re-serves waiting jobs on every 60-s tick; this
    bench times it with quiet ticks skipped and re-entry on the mask
    fast paths.
    """

    def run():
        return run_sim(fresh_copies(JOBS_SDSC), ImmediateServiceScheduler(), n_procs=128)

    result = benchmark(run)
    assert len(result.jobs) == len(JOBS_SDSC)


def test_simulation_rate_ss_legacy_sweep(benchmark):
    """The full pre-optimisation kernel on the same SDSC trace.

    Compare this bench's time against ``test_simulation_rate_ss`` in
    the same run: the gap is what the bitmask cluster plus the
    sweep-scoped snapshot/victim-list/pinned-mask structures save (it
    widens with congestion -- see the ``*_congested`` pair).
    """

    def run():
        return run_sim_legacy(
            fresh_copies(JOBS_SDSC),
            LegacySweepScheduler(suspension_factor=2.0),
            n_procs=128,
        )

    result = benchmark(run)
    assert len(result.jobs) == len(JOBS_SDSC)


def test_simulation_rate_ss_congested(benchmark):
    """SS on the overloaded trace where the quadratic terms dominated."""

    def run():
        return run_sim(
            fresh_copies(JOBS_CONGESTED),
            SelectiveSuspensionScheduler(suspension_factor=2.0),
            n_procs=128,
        )

    result = benchmark(run)
    assert len(result.jobs) == len(JOBS_CONGESTED)


def test_simulation_rate_ss_congested_legacy(benchmark):
    """The legacy kernel on the same overloaded trace."""

    def run():
        return run_sim_legacy(
            fresh_copies(JOBS_CONGESTED),
            LegacySweepScheduler(suspension_factor=2.0),
            n_procs=128,
        )

    result = benchmark(run)
    assert len(result.jobs) == len(JOBS_CONGESTED)


# ----------------------------------------------------------------------
# decision equivalence: the speedups change cost, never the schedule
# ----------------------------------------------------------------------
def test_kernel_equivalence_identical():
    """Optimised kernel == full legacy kernel, decision for decision.

    Runs the bitmask-cluster/incremental-sweep kernel and the complete
    legacy reference (set cluster + naive sweep) over the same traces
    and asserts per-job start/finish/suspension equality plus the
    aggregate counters.  This is the in-run witness behind every
    speedup ratio ``tools/bench_gate.py`` reports.
    """
    for jobs in (JOBS_SDSC, JOBS_CONGESTED):
        fast = run_sim(
            fresh_copies(jobs),
            SelectiveSuspensionScheduler(suspension_factor=2.0),
            n_procs=128,
        )
        slow = run_sim_legacy(
            fresh_copies(jobs),
            LegacySweepScheduler(suspension_factor=2.0),
            n_procs=128,
        )
        assert _schedule_signature(fast) == _schedule_signature(slow)
        assert fast.total_suspensions == slow.total_suspensions
        assert fast.makespan == slow.makespan


def test_sweep_priority_snapshot_identical():
    """The snapshot optimisation changes cost, not decisions.

    The original PR-1 witness, retained: optimised sweep vs the naive
    recomputing sweep on the *same* (bitmask) cluster.
    """
    fast = run_sim(
        fresh_copies(JOBS_SDSC),
        SelectiveSuspensionScheduler(suspension_factor=2.0),
        n_procs=128,
    )
    slow = run_sim(
        fresh_copies(JOBS_SDSC),
        LegacySweepScheduler(suspension_factor=2.0),
        n_procs=128,
    )
    assert _schedule_signature(fast) == _schedule_signature(slow)
    assert fast.total_suspensions == slow.total_suspensions
    assert fast.makespan == slow.makespan


def test_is_elision_identical():
    """Skipping IS's quiet ticks changes cost, not the run.

    Same trace through IS as registered and through a subclass that
    dispatches every tick: identical per-job outcomes, suspension
    total, makespan and logical event count.
    """
    fast = run_sim(fresh_copies(JOBS_SDSC), ImmediateServiceScheduler(), n_procs=128)
    full = run_sim(fresh_copies(JOBS_SDSC), UnelidedImmediateService(), n_procs=128)
    assert _schedule_signature(fast) == _schedule_signature(full)
    assert fast.total_suspensions == full.total_suspensions > 0
    assert fast.makespan == full.makespan
    assert fast.events_dispatched == full.events_dispatched


def test_ss_busy_skip_identical():
    """Skipping SS's busy-queue ticks changes cost, not the run.

    SS as registered against a subclass that dispatches every tick, on
    the normal, congested and load-2.0 traces: identical per-job
    outcomes, suspension total, makespan and logical event count.
    """
    for jobs in (JOBS_SDSC, JOBS_CONGESTED, JOBS_LOAD2):
        fast = run_sim(
            fresh_copies(jobs),
            SelectiveSuspensionScheduler(suspension_factor=2.0),
            n_procs=128,
        )
        full = run_sim(
            fresh_copies(jobs),
            UnskippedSelectiveSuspension(suspension_factor=2.0),
            n_procs=128,
        )
        assert _schedule_signature(fast) == _schedule_signature(full)
        assert fast.total_suspensions == full.total_suspensions > 0
        assert fast.makespan == full.makespan
        assert fast.events_dispatched == full.events_dispatched


# ----------------------------------------------------------------------
# ingestion: streaming SWF parse / convert throughput
# ----------------------------------------------------------------------
#: records in the bench log; large enough that per-record costs dominate
#: file-open overhead, small enough to keep the suite fast.  The >=100k
#: peak-RSS assertion lives in tools/bench_gate.py (it needs subprocess
#: isolation to measure ru_maxrss, which pytest-benchmark cannot give).
INGEST_LINES = 20_000


@pytest.fixture(scope="module")
def ingest_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("ingest") / "ingest.swf"
    write_synthetic_swf(path, INGEST_LINES)
    return path


def test_swf_stream_parse(benchmark, ingest_log):
    """Raw streaming parse rate: lines -> SWFRecord, no conversion."""

    def run() -> int:
        return sum(1 for _ in stream_swf(ingest_log))

    assert benchmark(run) == INGEST_LINES


def test_swf_stream_to_jobs(benchmark, ingest_log):
    """Full ingestion rate: parse + hygiene filters + Job construction."""

    def run() -> int:
        return sum(1 for _ in stream_jobs(stream_swf(ingest_log), max_procs=128))

    assert benchmark(run) == INGEST_LINES
