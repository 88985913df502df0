"""The benchmark's workloads: the paper's figure grids, built from public APIs.

Each workload is a :class:`Workload`:

* ``prepare(seed, n_jobs, rounds, workdir)`` -- the set-up before the
  first simulation: scheduler configs, the first ``rounds`` rounds'
  synthetic traces (load-scaled for the load grid) and the work
  directory.  ``setup_s`` times it with ``rounds=1``.
* ``Prepared.round(index)`` -- one more round's traces and grid cells.
* ``iterate(prepared, index, rounds)`` -- the figure grid regenerated
  for the given rounds, from the first ``run_grid`` call to the last
  ``per_category_stats`` call.  ``wall_s`` times it, one round at a time.

A round is one independently generated synthetic trace per trace
family, each drawn from its own seed (:func:`round_seed`), so the same
``--seed`` always gives the same rounds in the same order.  Simulation
cost depends strongly on the trace: one IS trace of 60 jobs can cost
tens of times another, and the CTC and SDSC traces of one generator
seed are correlated.  A measured run therefore covers as many small rounds as
fit in its time, each family on its own seed, so that the run's mean
round time is set by the trace distribution rather than by the seed.

The program under test only ever receives generated job lists and
scheduler configs; every call goes through the repo's public modules
(``workload``, ``experiments``, ``metrics``), looked up as module
attributes at call time so the traced run's wrappers see them.
"""

from __future__ import annotations

import functools
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.experiments import cache as cache_mod
from repro.experiments import parallel, runner
from repro.metrics import aggregate
from repro.workload import archive, categories, load, synthetic

TRACES = ("CTC", "SDSC")
LOADS = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
#: the paper's SS suspension factors plus the NS baseline (Figs 7-10)
SS_LABELS = ("SF = 1.5", "SF = 2", "SF = 5", "No Suspension")
IS_LABEL = "IS"
NS_LABEL = "No Suspension"
TSS_LABEL = "SF = 2 Tuned"


def round_seed(seed: int, index: int, trace: str) -> int:
    """Generator seed of one trace, independent across seeds, rounds and families."""
    entropy = [seed % 2**64, index, TRACES.index(trace)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass
class Round:
    """One round's inputs: traces and the grid cells fixed when it is made."""

    traces: dict[str, list[Any]]
    #: grid cells per ``run_grid`` call (serial workloads) or the NS
    #: baseline cells (load grid)
    grids: list[list[Any]]


@dataclass
class Prepared:
    """What ``prepare`` hands to ``iterate``."""

    seed: int
    n_jobs: int
    workdir: Path
    #: ``(seed, n_jobs, index) -> Round``
    make_round: Callable[[int, int, int], Round]
    #: the rounds made at set-up
    rounds: list[Round] = field(default_factory=list)
    #: host seconds spent generating and load-scaling traces
    generate_s: float = 0.0

    def round(self, index: int) -> Round:
        """Round *index*: made at set-up, or generated now (timed in ``generate_s``)."""
        if index < len(self.rounds):
            return self.rounds[index]
        t0 = time.perf_counter()
        rnd = self.make_round(self.seed, self.n_jobs, index)
        self.generate_s += time.perf_counter() - t0
        return rnd

    @property
    def jobs_generated(self) -> int:
        return sum(len(t) for r in self.rounds for t in r.traces.values())


@dataclass
class Iteration:
    """What one ``iterate`` call produced."""

    #: every result keyed by cell key
    results: dict[str, Any]
    #: the ``GridCell`` objects the iteration simulated (cache hits excluded)
    simulated: list[Any]
    #: cells passed through ``run_grid`` (cache hits included)
    cells: int
    #: figure statistics: cell key -> category -> (slowdown, turnaround)
    stats: dict[str, dict[tuple[str, str], tuple[float, float]]]
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes: int = 0
    shm_segments: int = 0
    #: duration of the warm-cache replay ``run_grid`` call
    replay_s: float = 0.0
    #: (served key, original key): a result served from the cache must
    #: equal the result first simulated under the original key
    must_match: list[tuple[str, str]] = field(default_factory=list)


def _spec(specs: list[Any], label: str) -> Any:
    (spec,) = [s for s in specs if s.label == label]
    return spec


def _figure_stats(
    results: dict[str, Any], classifier: Callable[[Any], tuple[str, str]] | None = None
) -> dict[str, dict[tuple[str, str], tuple[float, float]]]:
    out = {}
    for key, result in results.items():
        if classifier is None:
            stats = aggregate.per_category_stats(result.jobs)
        else:
            stats = aggregate.per_category_stats(result.jobs, classifier=classifier)
        out[key] = {c: (s.slowdown.mean, s.turnaround.mean) for c, s in stats.items()}
    return out


def _cell(key: str, jobs: list[Any], trace: str, config: dict[str, object]) -> Any:
    return parallel.GridCell(
        key=key,
        jobs=jobs,
        n_procs=archive.get_preset(trace).n_procs,
        scheduler_config=config,
    )


# ----------------------------------------------------------------------
# serial pair: the Figs 7-10 cell set, split by scheme family
# ----------------------------------------------------------------------
@functools.cache
def _configs(labels: tuple[str, ...]) -> tuple[dict[str, object], ...]:
    specs = runner.standard_schemes()
    return tuple(_spec(specs, label).factory().config() for label in labels)


def _serial_round(labels: tuple[str, ...], seed: int, n_jobs: int, index: int) -> Round:
    configs = _configs(labels)
    traces = {
        t: synthetic.generate_trace(t, n_jobs=n_jobs, seed=round_seed(seed, index, t))
        for t in TRACES
    }
    grids = [
        [
            _cell(f"{label}/{t}/r{index}", traces[t], t, config)
            for label, config in zip(labels, configs, strict=True)
        ]
        for t in TRACES
    ]
    return Round(traces=traces, grids=grids)


def _iterate_serial(
    prep: Prepared, index: int, rounds: list[Round], workers: int = 1
) -> Iteration:
    it = Iteration(results={}, simulated=[], cells=0, stats={})
    for rnd in rounds:
        round_results: dict[str, Any] = {}
        for grid in rnd.grids:
            round_results.update(parallel.run_grid(grid, workers=workers).results)
            it.simulated += grid
            it.cells += len(grid)
        it.stats.update(_figure_stats(round_results))
        it.results.update(round_results)
    return it


def is_round(seed: int, n_jobs: int, index: int) -> Round:
    return _serial_round((IS_LABEL,), seed, n_jobs, index)


def ss_round(seed: int, n_jobs: int, index: int) -> Round:
    return _serial_round(SS_LABELS, seed, n_jobs, index)


# ----------------------------------------------------------------------
# pooled load grid: Figs 35-44 on CTC without the IS column
# ----------------------------------------------------------------------
def load_round(seed: int, n_jobs: int, index: int) -> Round:
    (ns_config,) = _configs((NS_LABEL,))
    base = synthetic.generate_trace("CTC", n_jobs=n_jobs, seed=round_seed(seed, index, "CTC"))
    scaled = {f: load.scale_load(base, f) for f in LOADS}
    grid = [_cell(f"NS@{f:g}/r{index}", scaled[f], "CTC", ns_config) for f in LOADS]
    return Round(traces={"CTC": base}, grids=[grid])


def iterate_load(prep: Prepared, index: int, rounds: list[Round], workers: int = 2) -> Iteration:
    """NS baselines, calibrated TSS plus NS again, then a warm replay.

    Each phase is one ``run_grid`` call over every given round's cells,
    so the pool stays busy across rounds; the cache is fresh per call.
    """
    tss_spec = _spec(runner.tuned_schemes((2.0,)), TSS_LABEL)
    cache_dir = prep.workdir / f"cache-{index}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = cache_mod.ResultCache(cache_dir)
    ns_cells = [c for rnd in rounds for c in rnd.grids[0]]

    # phase 1: the NS baseline at every load (calibrates TSS)
    baselines = parallel.run_grid(ns_cells, workers=workers, cache=cache)
    # phase 2: TSS calibrated per load, plus the NS cells again (cache hits)
    grid = []
    for ns in ns_cells:
        tss = tss_spec.factory_with_baseline(baselines.results[ns.key])
        at = ns.key.removeprefix("NS")
        grid.append(_cell(f"{TSS_LABEL}{at}", ns.jobs, "CTC", tss.config()))
        grid.append(_cell(f"{NS_LABEL}{at}", ns.jobs, "CTC", ns.scheduler_config))
    fresh = parallel.run_grid(grid, workers=workers, cache=cache)
    # phase 3: the whole figure regenerated from the warm cache
    t0 = time.perf_counter()
    replay = parallel.run_grid(grid, workers=workers, cache=cache)
    replay_s = time.perf_counter() - t0
    stats = _figure_stats(replay.results, categories.classify_four_way)

    outcomes = (baselines, fresh, replay)
    n_cells = len(ns_cells) + 2 * len(grid)
    hits = sum(o.cache_hits for o in outcomes)
    results = {**baselines.results, **fresh.results}
    results.update({f"replay:{k}": r for k, r in replay.results.items()})
    return Iteration(
        results=results,
        simulated=ns_cells + grid[::2],
        cells=n_cells,
        stats=stats,
        cache_hits=hits,
        cache_misses=n_cells - hits,
        cache_bytes=sum(p.stat().st_size for p in cache_dir.rglob("*.pkl")),
        shm_segments=sum(o.counters.shm_segments for o in outcomes),
        replay_s=replay_s,
        must_match=[(g.key, ns.key) for g, ns in zip(grid[1::2], ns_cells, strict=True)]
        + [(f"replay:{k}", k) for k in replay.results],
    )


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[int, int, int], Round]
    iterate: Callable[..., Iteration]
    #: jobs per synthetic trace
    n_jobs: int
    #: rounds of the traced run, and rounds pinned in ``expected.json``
    fixed_rounds: int
    #: pool size of the measured run (1 = in-process)
    workers: int = 1
    #: (trace, cell-key prefix) of the NS cells at load 1.0 whose
    #: per-category slowdowns are compared with the paper's Tables IV/V
    ns_prefixes: tuple[tuple[str, str], ...] = ()

    def prepare(self, seed: int, n_jobs: int, rounds: int, workdir: Path) -> Prepared:
        prep = Prepared(seed=seed, n_jobs=n_jobs, workdir=workdir, make_round=self.make_round)
        prep.rounds = [prep.round(index) for index in range(rounds)]
        workdir.mkdir(parents=True, exist_ok=True)
        return prep


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="is-timeslice",
            make_round=is_round,
            iterate=_iterate_serial,
            n_jobs=60,
            fixed_rounds=40,
        ),
        Workload(
            name="ss-ticks",
            make_round=ss_round,
            iterate=_iterate_serial,
            n_jobs=250,
            fixed_rounds=6,
            ns_prefixes=tuple((t, f"{NS_LABEL}/{t}/") for t in TRACES),
        ),
        # run by hand only: not in BENCHMARK.json, because its time is too
        # seed-dependent for the spread bound (see PREDICTIONS.md)
        Workload(
            name="load-grid",
            make_round=load_round,
            iterate=iterate_load,
            n_jobs=2500,
            fixed_rounds=1,
            workers=2,
            ns_prefixes=(("CTC", "NS@1/"),),
        ),
    )
}
