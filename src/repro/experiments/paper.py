"""The paper's experiments as one declarative table.

Every regenerated table/figure group is one :class:`Experiment` record
in :data:`EXPERIMENTS`, keyed by the id ``repro-sched experiment <id>``
takes.  A record is data: the workload recipe (estimate model, load
axis; the preset is the run's ``trace``), the scheme entries, the
statistic and the estimate-quality split.  One runner, :func:`run`,
executes any record and returns an :class:`ExperimentOutput`: plain data
(dicts keyed by scheme and category) plus a rendered ASCII report::

    from repro.experiments import paper
    print(paper.run("figs-7-10", "CTC").report)

Keyword overrides replace record fields for one run, e.g. a shorter
load axis: ``paper.run("figs-35-44", "SDSC", loads=(1.0, 1.2))``.

Every simulated figure runs through the same scheme grid (:func:`_grid`):
NS calibration runs first (calibrated TSS limits depend on them), then
every (load, scheme) cell in one :func:`~repro.experiments.parallel.run_grid`
fan-out, so ``workers``/``cache``/``policy`` apply to all of them alike.
The three records without a scheme grid -- the job distribution, the NS
baseline table and the two-task theory figures -- name a ``tabulate``
function instead and always run serially and uncached.

Default sizes (2500 jobs) keep a full figure regeneration in
seconds-to-minutes on a laptop while leaving category populations large
enough for stable averages; pass ``n_jobs`` to scale up.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from repro.analysis.report import scheme_comparison_report
from repro.analysis.tables import category_grid_table, series_table
from repro.core.overhead import DiskSwapOverheadModel
from repro.core.theory import two_task_timeline
from repro.core.tss import limits_from_result
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import GridCell, GridPolicy, run_grid
from repro.experiments.runner import simulate
from repro.metrics.aggregate import category_shares, overall_stats, per_category_stats
from repro.schedulers.registry import make_scheduler
from repro.sim.driver import SimulationResult
from repro.workload.archive import get_preset
from repro.workload.categories import classify_four_way
from repro.workload.estimates import EstimateModel, InaccurateEstimates
from repro.workload.job import Job
from repro.workload.load import scale_load
from repro.workload.synthetic import generate_trace

#: Default trace size for experiment regeneration.
DEFAULT_N_JOBS = 2500
#: Default workload seed (any fixed value; 7 matches EXPERIMENTS.md).
DEFAULT_SEED = 7

#: the metrics every scheme-grid report shows, in block order
METRICS = ("slowdown", "turnaround")


@dataclass
class ExperimentOutput:
    """The regenerated artefact for one paper table/figure group."""

    exp_id: str
    title: str
    trace: str
    #: experiment-specific payload, described by the builder that renders
    #: it (``_scheme_report``, ``_load_report`` or the record's ``tabulate``)
    data: dict[str, Any]
    report: str
    #: the raw simulation results, for further slicing
    results: dict[str, SimulationResult] = field(default_factory=dict)


@dataclass(frozen=True)
class Scheme:
    """One scheme entry of an experiment grid: a column of its report."""

    #: report column and ``ExperimentOutput.results`` key
    label: str
    #: scheme-table id (see :func:`~repro.schedulers.registry.make_scheduler`)
    scheme: str
    params: Mapping[str, object] = field(default_factory=dict)
    #: TSS category limits calibrated from an NS run over the same workload
    calibrated: bool = False
    #: price suspensions with the disk-swap overhead model (section V-A)
    overhead: bool = False


#: what a ``tabulate`` function returns: data, report, results
Tabulation = tuple[dict[str, Any], str, dict[str, SimulationResult]]


@dataclass(frozen=True)
class Experiment:
    """One paper table/figure group: what to simulate and how to report it."""

    #: the CLI id, also ``ExperimentOutput.exp_id``
    id: str
    title: str
    #: report block title, formatted with ``trace``, ``metric``,
    #: ``quality`` (``"all"``/``"well"``/``"badly"``) and ``fig``
    heading: str = ""
    #: preset -> the figure label each report block prints (one per
    #: metric); presets the paper does not plot borrow SDSC's labels
    figures: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    #: presets the paper reports; empty for a workload-free record
    traces: tuple[str, ...] = ("CTC", "SDSC")
    #: workload recipe: estimate model (``None``: accurate) and load axis
    #: (``None``: the trace as generated; otherwise one workload per factor)
    estimates: EstimateModel | None = None
    loads: tuple[float, ...] | None = None
    schemes: tuple[Scheme, ...] = ()
    #: ``"mean"`` or ``"worst"`` per category
    statistic: str = "mean"
    #: estimate-quality split; ``(None,)`` reports all jobs only
    qualities: tuple[str | None, ...] = (None,)
    #: report builder for records without a scheme grid
    tabulate: Callable[[Experiment, str, list[Job]], Tabulation] | None = None

    def figure(self, trace: str, block: int = 0) -> str:
        """The figure label report block *block* prints for *trace*."""
        labels = self.figures.get(trace) or self.figures.get("SDSC")
        return labels[block] if labels else ""


# ----------------------------------------------------------------------
# the scheme grid: NS calibrations, then every (load, scheme) cell
# ----------------------------------------------------------------------
def _cell_key(label: str, load: float | None) -> str:
    return label if load is None else f"{label}@{load:g}"


def _grid(
    exp: Experiment,
    trace: str,
    jobs: list[Job],
    workers: int | None,
    cache: ResultCache | None,
    policy: GridPolicy | None,
) -> dict[str, SimulationResult]:
    """Simulate every (load, scheme) cell of *exp*; results by cell key."""
    n_procs = get_preset(trace).n_procs
    overhead_model = DiskSwapOverheadModel()
    if exp.loads is None:
        workloads: dict[float | None, list[Job]] = {None: jobs}
    else:
        workloads = {load: scale_load(jobs, load) for load in exp.loads}

    def cell(
        key: str, load: float | None, overhead: bool, config: Mapping[str, object]
    ) -> GridCell:
        return GridCell(
            key=key,
            jobs=workloads[load],
            n_procs=n_procs,
            scheduler_config=config,
            overhead_model=overhead_model if overhead else None,
        )

    def ns_key(load: float | None, overhead: bool) -> str:
        return _cell_key("NS+OH" if overhead else "NS", load)

    # Phase 1: one NS run per (load, overhead) that a calibrated scheme needs.
    ns_config = make_scheduler("easy").config()
    calibrations = sorted({s.overhead for s in exp.schemes if s.calibrated})
    baseline_cells = [
        cell(ns_key(load, oh), load, oh, ns_config) for load in workloads for oh in calibrations
    ]
    baselines = run_grid(baseline_cells, workers=workers, cache=cache, policy=policy).results

    # Phase 2: every (load, scheme) cell in one fan-out.
    cells: list[GridCell] = []
    for load in workloads:
        for s in exp.schemes:
            params = dict(s.params)
            if s.calibrated:
                params["limits"] = limits_from_result(baselines[ns_key(load, s.overhead)])
            config = make_scheduler(s.scheme, **params).config()
            cells.append(cell(_cell_key(s.label, load), load, s.overhead, config))
    return run_grid(cells, workers=workers, cache=cache, policy=policy).results


def _category_grids(
    results: Mapping[str, SimulationResult],
    metric: str,
    statistic: str,
    quality: str | None,
) -> dict[str, dict[tuple[str, str], float]]:
    out: dict[str, dict[tuple[str, str], float]] = {}
    for label, r in results.items():
        stats = per_category_stats(r.jobs, quality=quality)
        out[label] = {c: getattr(getattr(s, metric), statistic) for c, s in stats.items()}
    return out


def _scheme_report(
    exp: Experiment, trace: str, results: dict[str, SimulationResult]
) -> tuple[dict[str, Any], str]:
    """One comparison block per (quality, metric); data keyed the same way.

    ``data``: metric -> scheme -> category -> statistic, nested under
    ``"all"``/``"well"``/``"badly"`` when the record splits by quality.
    """
    data: dict[str, Any] = {}
    blocks: list[str] = []
    for quality in exp.qualities:
        qkey = quality or "all"
        data[qkey] = {
            m: _category_grids(results, m, exp.statistic, quality) for m in METRICS
        }
        for i, metric in enumerate(METRICS):
            title = exp.heading.format(
                trace=trace, metric=metric, quality=qkey, fig=exp.figure(trace, i)
            )
            blocks.append(
                scheme_comparison_report(
                    title, results, metric=metric, statistic=exp.statistic, quality=quality
                )
            )
    if exp.qualities == (None,):
        data = data["all"]
    return data, "\n\n".join(blocks)


def _load_report(
    exp: Experiment, trace: str, results: dict[str, SimulationResult]
) -> tuple[dict[str, Any], str]:
    """Utilisation and per-4-way-category series over the load axis.

    ``data``: ``"loads"``, ``"utilization"`` (scheme -> [..]),
    ``"slowdown"``/``"turnaround"`` (scheme -> category -> [..]).
    """
    assert exp.loads is not None
    loads = list(exp.loads)
    labels = [s.label for s in exp.schemes]
    utilization: dict[str, list[float]] = {s: [] for s in labels}
    series: dict[str, dict[str, dict[tuple[str, str], list[float]]]] = {
        m: {s: {} for s in labels} for m in METRICS
    }
    for load in loads:
        for label in labels:
            r = results[_cell_key(label, load)]
            utilization[label].append(r.steady_utilization)
            stats = per_category_stats(r.jobs, classifier=classify_four_way)
            for cat, s in stats.items():
                for m in METRICS:
                    value = getattr(getattr(s, m), exp.statistic)
                    series[m][label].setdefault(cat, []).append(value)
    sd = series["slowdown"]
    blocks = [
        series_table(
            "load",
            loads,
            {s: [100 * u for u in utilization[s]] for s in labels},
            title=exp.heading.format(trace=trace, fig=exp.figure(trace)),
            precision=1,
        )
    ]
    for cat in (("S", "N"), ("S", "W"), ("L", "N"), ("L", "W")):
        blocks.append(
            series_table(
                "load",
                loads,
                {s: sd[s].get(cat, [float("nan")] * len(loads)) for s in labels},
                title=f"{trace}: mean slowdown vs load, category {cat[0]} {cat[1]}",
            )
        )
    data = {"loads": loads, "utilization": utilization, **series}
    return data, "\n\n".join(blocks)


# ----------------------------------------------------------------------
# records without a scheme grid
# ----------------------------------------------------------------------
def _job_distribution(exp: Experiment, trace: str, jobs: list[Job]) -> Tabulation:
    """``data``: ``"shares16"``, ``"shares4"`` (category -> fraction)."""
    shares16 = category_shares(jobs)
    shares4 = category_shares(jobs, classify_four_way)
    report = "\n\n".join(
        [
            category_grid_table(
                {c: 100 * v for c, v in shares16.items()},
                title=f"{trace}: % of jobs per 16-way category (Tables II/III)",
                precision=1,
            ),
            category_grid_table(
                {c: 100 * v for c, v in shares4.items()},
                title=f"{trace}: % of jobs per 4-way category (Tables VII/VIII)",
                precision=1,
                four_way=True,
            ),
        ]
    )
    return {"shares16": shares16, "shares4": shares4}, report, {}


def _ns_slowdowns(exp: Experiment, trace: str, jobs: list[Job]) -> Tabulation:
    """``data``: ``"grid"`` (category -> mean slowdown), ``"overall"``."""
    result = simulate(jobs, make_scheduler("easy"), get_preset(trace).n_procs)
    grid = {c: s.slowdown.mean for c, s in per_category_stats(result.jobs).items()}
    overall = overall_stats(result.jobs).slowdown.mean
    report = "\n".join(
        [
            category_grid_table(
                grid, title=exp.heading.format(trace=trace, fig=exp.figure(trace))
            ),
            f"overall: {overall:.2f}   utilization: {result.utilization:.3f}",
        ]
    )
    return {"grid": grid, "overall": overall}, report, {"No Suspension": result}


#: suspension factors the two-task figures compare
TWO_TASK_SUSPENSION_FACTORS = (1.0, 1.5, 2.0)


def _two_task(exp: Experiment, trace: str, jobs: list[Job]) -> Tabulation:
    """``data``: SF -> {semantics -> (suspension count, segment list)}."""
    data: dict[str, Any] = {}
    lines: list[str] = ["Two equal whole-machine tasks, L = 1 (Figs 4-6)"]
    for sf in TWO_TASK_SUSPENSION_FACTORS:
        per_sem = {}
        for sem in ("frozen", "age"):
            # Fig 4's SF=1 pattern alternates at the sweep granularity;
            # L/10 makes that legible in the printed timeline.
            outcome = two_task_timeline(
                sf, semantics=sem, max_suspensions=40, min_interval=0.1
            )
            per_sem[sem] = outcome
            pattern = " ".join(
                f"T{seg.task}[{seg.start:.3f},{seg.end:.3f})"
                for seg in outcome.segments[:12]
            )
            more = " ..." if len(outcome.segments) > 12 else ""
            lines.append(
                f"SF={sf:<4g} {sem:<6s} suspensions={outcome.suspensions:<3d} {pattern}{more}"
            )
        data[f"SF={sf:g}"] = per_sem
    return data, "\n".join(lines), {}


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
NS = Scheme("No Suspension", "easy")
IS = Scheme("IS", "is")


def _ss(sf: float, label: str | None = None) -> Scheme:
    return Scheme(label or f"SF = {sf:g}", "ss", {"suspension_factor": sf})


def _tss(sf: float, label: str | None = None, overhead: bool = False) -> Scheme:
    return Scheme(
        label or f"SF = {sf:g} Tuned",
        "tss",
        {"suspension_factor": sf},
        calibrated=True,
        overhead=overhead,
    )


EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in (
        Experiment(
            id="distribution",
            title="Job distribution by category",
            tabulate=_job_distribution,
        ),
        Experiment(
            id="tables-4-5",
            title="NS per-category average slowdown",
            heading="{trace}: mean bounded slowdown, NS scheme (Table {fig})",
            figures={"CTC": ("IV",), "SDSC": ("V",)},
            tabulate=_ns_slowdowns,
        ),
        Experiment(
            id="figs-4-6",
            title="Two-task alternation vs suspension factor",
            traces=(),
            tabulate=_two_task,
        ),
        Experiment(
            id="figs-7-10",
            title="SS average metrics vs NS and IS",
            heading="{trace}: average {metric}, SS scheme (Fig {fig})",
            figures={"CTC": ("7", "8"), "SDSC": ("9", "10")},
            schemes=(_ss(1.5), _ss(2.0), _ss(5.0), NS, IS),
        ),
        Experiment(
            id="figs-11-16",
            title="SS worst-case metrics",
            heading="{trace}: worst-case {metric} (Figs {fig})",
            figures={"CTC": ("11/12", "11/12"), "SDSC": ("15/16", "15/16")},
            schemes=(_ss(2.0), NS, IS),
            statistic="worst",
        ),
        Experiment(
            id="figs-13-18",
            title="TSS worst-case metrics",
            heading="{trace}: worst-case {metric} with TSS (Figs {fig})",
            figures={"CTC": ("13/14", "13/14"), "SDSC": ("17/18", "17/18")},
            schemes=(_ss(2.0), _tss(2.0), NS, IS),
            statistic="worst",
        ),
        Experiment(
            id="figs-19-30",
            title="Impact of user estimate inaccuracy",
            heading="{trace}: average {metric}, inaccurate estimates "
            "({quality} jobs; Figs 19-30)",
            estimates=InaccurateEstimates(),
            schemes=(_tss(1.5), _tss(2.0), _tss(5.0), NS, IS),
            qualities=(None, "well", "badly"),
        ),
        Experiment(
            id="figs-31-34",
            title="Suspension overhead impact",
            heading="{trace}: average {metric} with suspension overhead (Figs {fig})",
            figures={"CTC": ("31/32", "31/32"), "SDSC": ("33/34", "33/34")},
            estimates=InaccurateEstimates(),
            schemes=(
                _tss(2.0, "SF = 2"),
                _tss(2.0, "SF = 2 OH", overhead=True),
                replace(NS, overhead=True),
                replace(IS, overhead=True),
            ),
        ),
        # Utilisation is SimulationResult.steady_utilization (the arrival
        # window), which on finite traces is what the paper's months-long
        # logs effectively report; Figs 41-44 pair it with the metrics.
        Experiment(
            id="figs-35-44",
            title="Load variation study",
            heading="{trace}: overall utilisation % vs load (Figs {fig})",
            figures={"CTC": ("35-37, 41-42",), "SDSC": ("38-40, 43-44",)},
            loads=(1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
            schemes=(_tss(2.0), NS, IS),
        ),
        # beyond the paper (DESIGN.md section 12): the policy kernel's
        # guarantee + preemption hybrids next to the schemes they compose
        Experiment(
            id="hybrids",
            title="Hybrid guarantee+preemption schemes vs their parents",
            heading="{trace}: average {metric}, hybrid schemes (policy kernel)",
            schemes=(
                _ss(2.0, "SS (SF = 2)"),
                Scheme("SS+EASY (SF = 2)", "ss-easy", {"suspension_factor": 2.0}),
                Scheme("TSS+CONS (SF = 2)", "tss-conservative", {"suspension_factor": 2.0}),
                NS,
            ),
        ),
    )
}


def run(
    exp_id: str,
    trace: str = "CTC",
    n_jobs: int = DEFAULT_N_JOBS,
    seed: int = DEFAULT_SEED,
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
    **overrides: Any,
) -> ExperimentOutput:
    """Regenerate experiment *exp_id* on preset *trace*.

    *overrides* replace fields of the record for this run (``loads=``,
    ``estimates=``, ...).  ``workers``/``cache``/``policy`` reach every
    cell of a scheme grid (see :func:`~repro.experiments.parallel.run_grid`);
    records without one ignore them.  Workload-free records ignore the
    trace arguments and report trace ``"-"``.
    """
    exp = replace(EXPERIMENTS[exp_id], **overrides)
    jobs: list[Job] = []
    if exp.traces:
        jobs = generate_trace(trace, n_jobs=n_jobs, seed=seed, estimate_model=exp.estimates)
    else:
        trace = "-"
    if exp.tabulate is not None:
        data, report, results = exp.tabulate(exp, trace, jobs)
    else:
        results = _grid(exp, trace, jobs, workers, cache, policy)
        render = _scheme_report if exp.loads is None else _load_report
        data, report = render(exp, trace, results)
    return ExperimentOutput(exp.id, exp.title, trace, data, report, results)
