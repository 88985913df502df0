"""The traced run and the per-layer metrics it reports.

One traced run covers the workload's first ``fixed_rounds`` rounds.
It is, in order:

1. an untraced repetition (the baseline for the tracing overhead);
2. a repetition under the layer wrappers.  For a pooled workload this
   is the pooled run with only the coordinator wrapped (executor,
   cache, shm, metrics), followed by a serial pass over the same cells
   with everything wrapped, which supplies the simulator, policy and
   cluster numbers that pool workers cannot report back;
3. a counting pass: each simulated cell again, with an enabled trace
   recorder, so the driver fills ``TraceCounters`` (suspensions,
   preemption grants).  It runs without wrappers, so the recorder's own
   cost stays out of the layer times, and its outcomes must equal the
   untraced ones.

Metric names, units and the workload each should move are listed in
``PREDICTIONS.md``.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable

from probes import ALL, COORDINATOR, CountingRecorder, Probes
from spans import SpanRecorder

from repro.experiments import reference, runner
from repro.metrics import aggregate
from repro.schedulers.registry import scheduler_from_config

PAPER_NS_SLOWDOWN = {
    "CTC": reference.PAPER_TABLE_4_CTC_NS_SLOWDOWN,
    "SDSC": reference.PAPER_TABLE_5_SDSC_NS_SLOWDOWN,
}

Metrics = dict[str, tuple[float, str]]


def ns_slowdown_err(workload: Any, iteration: Any) -> float:
    """Mean relative error of NS per-category mean slowdown vs Tables IV/V.

    Over every (cell, category) pair of the workload's NS cells at load
    1.0; 0.0 for a workload without NS cells.
    """
    errors = []
    for trace, prefix in workload.ns_prefixes:
        for key in sorted(k for k in iteration.results if k.startswith(prefix)):
            stats = aggregate.per_category_stats(iteration.results[key].jobs)
            paper = PAPER_NS_SLOWDOWN[trace]
            for category in sorted(paper):
                if category in stats:
                    got = stats[category].slowdown.mean
                    errors.append(abs(got - paper[category]) / paper[category])
    return statistics.fmean(errors) if errors else 0.0


def _layer(summary: dict[str, dict[str, float]], prefix: str, field: str) -> float:
    return sum(v[field] for k, v in summary.items() if k.startswith(prefix))


def _get(summary: dict[str, dict[str, float]], name: str, field: str) -> float:
    return summary.get(name, {}).get(field, 0)


def _traced_pass(probes: Probes, group: str, run: Callable[[], Any]) -> Any:
    probes.install(group)
    try:
        return run()
    finally:
        probes.uninstall()


def traced_run(
    workload: Any, prep: Any, check: Any, timed_iteration: Callable[..., Any]
) -> tuple[Metrics, dict[str, SpanRecorder]]:
    """Run the three passes above; return per-layer metrics and the spans."""
    base = timed_iteration(workload, prep, 0, prep.rounds)
    check.check_iteration(base.iteration)
    ns_err = ns_slowdown_err(workload, base.iteration)
    base.iteration = None

    coord_rec = SpanRecorder()
    coord_probes = Probes(coord_rec)
    if workload.workers > 1:
        traced = _traced_pass(
            coord_probes, COORDINATOR, lambda: timed_iteration(workload, prep, 1, prep.rounds)
        )
        check.check_iteration(traced.iteration)
        sim_rec = SpanRecorder()
        sim_probes = Probes(sim_rec)
        serial = _traced_pass(
            sim_probes, ALL, lambda: timed_iteration(workload, prep, 2, prep.rounds, workers=1)
        )
        check.check_iteration(serial.iteration)
        recorders = {"coordinator": coord_rec, "serial": sim_rec}
    else:
        traced = serial = _traced_pass(
            coord_probes, ALL, lambda: timed_iteration(workload, prep, 1, prep.rounds)
        )
        check.check_iteration(traced.iteration)
        sim_rec, sim_probes = coord_rec, coord_probes
        recorders = {"all": coord_rec}

    # counting pass: TraceCounters from an enabled recorder, no wrappers
    suspensions = attempts = grants = 0
    for cell in serial.iteration.simulated:
        result = runner.simulate(
            cell.jobs,
            scheduler_from_config(cell.scheduler_config),
            cell.n_procs,
            recorder=CountingRecorder(),
        )
        check.check_cell(cell.key, result)
        suspensions += result.counters.suspensions
        attempts += result.counters.preempt_attempts
        grants += result.counters.preempt_grants

    coord = coord_rec.summary()
    sim = sim_rec.summary()
    ticks = sim_probes.ticks
    it = traced.iteration
    results = serial.iteration.results
    events = sum(results[c.key].events_dispatched for c in serial.iteration.simulated)
    sim_total = _get(sim, "sim.run", "total_s")
    on_timer = _get(sim, "policy.on_timer", "calls")
    if suspensions != _get(sim, "sim.suspend_job", "calls"):
        check.fail("trace", "TraceCounters.suspensions != suspend_job calls")
    grid_s = _get(coord, "experiments.run_grid", "total_s")
    # executor time not spent simulating: in-process, run_grid minus its
    # simulations; pooled, run_grid minus the workers' CPU spread over the
    # pool (pool idle time included)
    if workload.workers > 1:
        overhead = grid_s - traced.child_cpu_s / workload.workers
    else:
        overhead = grid_s - sim_total
    trace_overhead_s = traced.wall_s - base.wall_s

    metrics: Metrics = {
        "workload.generate_s": (prep.generate_s, "s"),
        "workload.jobs": (prep.jobs_generated, "count"),
        "sim.self_s": (_layer(sim, "sim.", "self_s"), "s"),
        "sim.events": (events, "count"),
        "sim.events_per_s": (events / sim_total if sim_total else 0.0, "1/s"),
        "sim.timer_ticks": (ticks.timer_events, "count"),
        "sim.ticks_empty_queue": (ticks.empty_queue, "count"),
        "sim.ticks_useful": (ticks.useful, "count"),
        "sim.ticks_useful_ratio": (ticks.useful / on_timer if on_timer else 0.0, "ratio"),
        "sim.running_jobs.calls": (_get(sim, "sim.running_jobs", "calls"), "count"),
        "sim.start_job.calls": (_get(sim, "sim.start_job", "calls"), "count"),
        "sim.suspend_job.calls": (_get(sim, "sim.suspend_job", "calls"), "count"),
        "policy.on_timer.self_s": (_get(sim, "policy.on_timer", "self_s"), "s"),
        "policy.on_timer.calls": (on_timer, "count"),
        "policy.on_arrival.self_s": (_get(sim, "policy.on_arrival", "self_s"), "s"),
        "policy.on_finish.self_s": (_get(sim, "policy.on_finish", "self_s"), "s"),
        "policy.service_pass.self_s": (_get(sim, "policy.service_pass", "self_s"), "s"),
        "policy.plan_head.self_s": (_get(sim, "policy.plan_head", "self_s"), "s"),
        "policy.fill.self_s": (_get(sim, "policy.fill", "self_s"), "s"),
        "policy.suspensions": (suspensions, "count"),
        "policy.preempt_grant_ratio": (grants / attempts if attempts else 0.0, "ratio"),
        "cluster.self_s": (_layer(sim, "cluster.", "self_s"), "s"),
        "cluster.calls": (_layer(sim, "cluster.", "calls"), "count"),
        "cluster.owners_overlapping.calls": (
            _get(sim, "cluster.owners_overlapping", "calls"),
            "count",
        ),
        "cluster.owners_in_mask.calls": (_get(sim, "cluster.owners_in_mask", "calls"), "count"),
        "metrics.self_s": (_layer(coord, "metrics.", "self_s"), "s"),
        "metrics.ns_slowdown_err": (ns_err, "ratio"),
        "experiments.overhead_s": (overhead, "s"),
        "experiments.fingerprint_s": (_get(coord, "experiments.fingerprint", "self_s"), "s"),
        "experiments.cache.get_s": (_get(coord, "experiments.cache.get", "self_s"), "s"),
        "experiments.cache.put_s": (_get(coord, "experiments.cache.put", "self_s"), "s"),
        "experiments.cache.hits": (it.cache_hits, "count"),
        "experiments.cache.misses": (it.cache_misses, "count"),
        "experiments.cache.bytes": (it.cache_bytes, "B"),
        "experiments.shm.publish_s": (_get(coord, "experiments.shm.publish", "self_s"), "s"),
        "experiments.shm.segments": (it.shm_segments, "count"),
        "experiments.warm_replay_s": (it.replay_s, "s"),
        "trace.untraced_wall_s": (base.wall_s, "s"),
        "trace.traced_wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (trace_overhead_s, "s"),
        "trace.overhead_ratio": (trace_overhead_s / base.wall_s, "ratio"),
        "trace.spans": (sum(len(r) for r in recorders.values()), "count"),
    }
    return metrics, recorders
