"""Running policies over workloads.

:func:`simulate` is the one-call public entry point: fresh cluster,
fresh job copies, one scheduler, one result.  :func:`compare_schemes`
reproduces the paper's standard comparison -- NS (EASY backfilling), IS,
and SS at several suspension factors, or TSS variants -- over a single
trace, reusing a calibration run where TSS needs one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cluster.machine import Cluster
from repro.core.tss import limits_from_result
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.driver import (
    SchedulingSimulation,
    SimulationResult,
    SuspensionOverheadModel,
)
from repro.workload.job import Job, fresh_copies

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import TraceRecorder

__all__ = [
    "SchemeSpec",
    "SuspensionOverheadModel",
    "compare_schemes",
    "simulate",
    "standard_schemes",
    "tuned_schemes",
]


def simulate(
    jobs: list[Job],
    scheduler: Scheduler,
    n_procs: int,
    overhead_model: SuspensionOverheadModel | None = None,
    copy_jobs: bool = True,
    migratable: bool = False,
    recorder: "TraceRecorder | None" = None,
) -> SimulationResult:
    """Run *scheduler* over *jobs* on an ``n_procs`` machine.

    Parameters
    ----------
    jobs:
        The workload.  Copied by default so the list stays reusable.
    scheduler:
        Any :class:`~repro.schedulers.base.Scheduler`; a given scheduler
        instance must not be reused across runs (it carries bindings).
    n_procs:
        Machine size; every job must fit (``procs <= n_procs``).
    overhead_model:
        Optional suspension-overhead pricing (e.g.
        :class:`~repro.core.overhead.DiskSwapOverheadModel`).
    copy_jobs:
        Set false to simulate the given objects in place (saves a copy
        when the caller already made one).
    migratable:
        Allow suspended jobs to restart on any processors (Parsons &
        Sevcik's migratable model; off in every paper experiment --
        local restart is the paper's defining constraint).
    recorder:
        Optional :class:`~repro.obs.recorder.TraceRecorder` receiving
        the run's decision-trace event stream (see ``docs/TRACING.md``).
        ``None`` (the default) keeps the run untraced at zero cost.
        The caller owns the recorder's lifecycle -- close a
        :class:`~repro.obs.recorder.JsonlRecorder` after the run (or
        use it as a context manager).
    """
    too_wide = [j.job_id for j in jobs if j.procs > n_procs]
    if too_wide:
        raise ValueError(
            f"jobs {too_wide[:5]} request more than {n_procs} processors "
            "and could never run; filter the trace first"
        )
    work = fresh_copies(jobs) if copy_jobs else jobs
    driver = SchedulingSimulation(
        cluster=Cluster(n_procs),
        scheduler=scheduler,
        overhead_model=overhead_model,
        migratable=migratable,
        recorder=recorder,
    )
    return driver.run(work)


@dataclass(frozen=True)
class SchemeSpec:
    """A named scheduler factory for comparison runs.

    Factories (not instances) because scheduler objects are single-use.
    """

    label: str
    factory: Callable[[], Scheduler]
    #: set true for TSS specs that want calibrated limits from the NS run
    needs_baseline: bool = False
    #: factory variant receiving the NS baseline result
    factory_with_baseline: Callable[[SimulationResult], Scheduler] | None = field(
        default=None
    )


def _scheme(label: str, name: str, **params: object) -> SchemeSpec:
    return SchemeSpec(label=label, factory=functools.partial(make_scheduler, name, **params))


def _baselines() -> list[SchemeSpec]:
    return [_scheme("No Suspension", "easy"), _scheme("IS", "is")]


def standard_schemes(suspension_factors: tuple[float, ...] = (1.5, 2.0, 5.0)) -> list[SchemeSpec]:
    """The paper's section IV comparison set: SS at each SF, NS, IS."""
    specs = [_scheme(f"SF = {sf:g}", "ss", suspension_factor=sf) for sf in suspension_factors]
    return specs + _baselines()


def tuned_schemes(
    suspension_factors: tuple[float, ...] = (1.5, 2.0, 5.0),
) -> list[SchemeSpec]:
    """The section V comparison set: TSS (calibrated) at each SF, NS, IS."""
    specs = [
        SchemeSpec(
            label=f"SF = {sf:g} Tuned",
            factory=functools.partial(make_scheduler, "tss", suspension_factor=sf),
            needs_baseline=True,
            factory_with_baseline=(
                lambda baseline, sf=sf: make_scheduler(
                    "tss", suspension_factor=sf, limits=limits_from_result(baseline)
                )
            ),
        )
        for sf in suspension_factors
    ]
    return specs + _baselines()


def compare_schemes(
    jobs: list[Job],
    n_procs: int,
    schemes: list[SchemeSpec],
    overhead_model: SuspensionOverheadModel | None = None,
) -> dict[str, SimulationResult]:
    """Run every scheme over (fresh copies of) the same workload.

    TSS specs flagged ``needs_baseline`` receive calibrated limits from
    an NS (EASY) run over the same trace, executed once and shared.

    For multi-core fan-out and an on-disk result cache see
    :func:`repro.experiments.parallel.compare_schemes_parallel`, a
    drop-in replacement verified byte-identical to this path.
    """
    baseline: SimulationResult | None = None
    if any(s.needs_baseline for s in schemes):
        baseline = simulate(jobs, make_scheduler("easy"), n_procs, overhead_model)
    out: dict[str, SimulationResult] = {}
    for spec in schemes:
        if spec.needs_baseline:
            assert baseline is not None and spec.factory_with_baseline is not None
            scheduler = spec.factory_with_baseline(baseline)
        else:
            scheduler = spec.factory()
        out[spec.label] = simulate(jobs, scheduler, n_procs, overhead_model)
    return out
