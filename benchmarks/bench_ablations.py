"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures -- these probe the knobs the paper fixes (or leaves
unstated) to show which ones the results actually depend on:

* the half-width rule (section IV-B) on vs off;
* TSS limit source: calibrated-from-NS vs online running averages;
* the preemption-sweep interval (60 s in the paper);
* victim placement: preemptor on victims' processors vs policy default;
* overhead severity: paper's 2 MB/s vs a 2x-slower disk.

Every ablation is expressed as a :class:`~repro.experiments.parallel.GridCell`
grid and executed through :func:`~repro.experiments.parallel.run_grid`, so
``REPRO_BENCH_WORKERS`` fans the variants of each ablation out over a
process pool and ``REPRO_BENCH_CACHE`` lets interrupted sessions resume
where they stopped.  Results are identical to the old serial
``simulate`` calls -- the grid merge is deterministic.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import CACHE, POLICY, SEED, WORKERS, run_once
from repro.core.overhead import DiskSwapOverheadModel
from repro.core.tss import limits_from_result
from repro.experiments.parallel import GridCell, run_grid
from repro.metrics.aggregate import overall_stats, per_category_stats
from repro.schedulers.registry import make_scheduler
from repro.workload.archive import get_preset
from repro.workload.synthetic import generate_trace

N_JOBS = 1500
TRACE = "SDSC"


def _mean_sd(result, cat):
    stats = per_category_stats(result.jobs)
    return stats[cat].slowdown.mean if cat in stats else None


def _grid(jobs, n_procs, variants, **cell_kwargs):
    """Run one ablation: {key: scheduler_config} -> {key: result}.

    *variants* may also map to a ``(config, extra_cell_kwargs)`` pair for
    per-variant overhead models / migratable flags.
    """
    cells = []
    for key, spec in variants.items():
        extra = dict(cell_kwargs)
        if isinstance(spec, tuple):
            config, per_cell = spec
            extra.update(per_cell)
        else:
            config = spec
        cells.append(
            GridCell(
                key=key, jobs=jobs, n_procs=n_procs, scheduler_config=config, **extra
            )
        )
    return run_grid(cells, workers=WORKERS, cache=CACHE, policy=POLICY).results


@pytest.fixture(scope="module")
def workload():
    preset = get_preset(TRACE)
    return generate_trace(TRACE, n_jobs=N_JOBS, seed=SEED), preset.n_procs


def test_ablation_width_rule(benchmark, workload):
    """Without the half-width rule, wide jobs suffer narrow preemptors."""
    jobs, n_procs = workload

    def run():
        res = _grid(
            jobs,
            n_procs,
            {
                "on": make_scheduler("ss", suspension_factor=2.0, width_rule=True).config(),
                "off": make_scheduler("ss", suspension_factor=2.0, width_rule=False).config(),
            },
        )
        return res["on"], res["off"]

    with_rule, without = run_once(benchmark, run)
    print()
    rows = []
    for cat in (("VS", "VW"), ("S", "VW"), ("L", "VW"), ("VL", "VW"), ("VL", "W")):
        rows.append(
            (cat, _mean_sd(with_rule, cat), _mean_sd(without, cat))
        )
    print("category | width rule ON | width rule OFF (mean slowdown)")
    for cat, a, b in rows:
        print(f"{cat}: {a} | {b}")
    print(
        f"suspensions: on={with_rule.total_suspensions} off={without.total_suspensions}"
    )
    # dropping the rule lets narrow jobs suspend wide ones => at least
    # as many suspensions overall
    assert without.total_suspensions >= with_rule.total_suspensions * 0.8


def test_ablation_tss_limit_source(benchmark, workload):
    """Calibrated vs online TSS limits agree on the headline metrics."""
    jobs, n_procs = workload

    def run():
        # the calibrated variant's limits come from the NS run, so the
        # baseline is its own (cacheable) one-cell grid phase
        ns = run_grid(
            [
                GridCell(
                    key="ns",
                    jobs=jobs,
                    n_procs=n_procs,
                    scheduler_config=make_scheduler("easy").config(),
                )
            ],
            workers=WORKERS,
            cache=CACHE,
            policy=POLICY,
        ).results["ns"]
        res = _grid(
            jobs,
            n_procs,
            {
                "calibrated": make_scheduler(
                    "tss", suspension_factor=2.0, limits=limits_from_result(ns)
                ).config(),
                "online": make_scheduler("tss", suspension_factor=2.0).config(),
            },
        )
        return ns, res["calibrated"], res["online"]

    ns, calibrated, online = run_once(benchmark, run)
    sd_cal = overall_stats(calibrated.jobs).slowdown.mean
    sd_onl = overall_stats(online.jobs).slowdown.mean
    sd_ns = overall_stats(ns.jobs).slowdown.mean
    print()
    print(f"overall slowdown: NS={sd_ns:.2f} TSS(calibrated)={sd_cal:.2f} TSS(online)={sd_onl:.2f}")
    # both TSS variants clearly beat NS, and land near each other
    assert sd_cal < sd_ns and sd_onl < sd_ns
    assert abs(sd_cal - sd_onl) < 0.5 * (sd_ns - min(sd_cal, sd_onl))


def test_ablation_preemption_interval(benchmark, workload):
    """The 60 s sweep: coarser sweeps slow the short jobs' rescue."""
    jobs, n_procs = workload
    intervals = (60.0, 600.0, 3600.0)

    def run():
        res = _grid(
            jobs,
            n_procs,
            {
                f"{interval:g}": make_scheduler(
                    "ss", suspension_factor=2.0, preemption_interval=interval
                ).config()
                for interval in intervals
            },
        )
        return {interval: res[f"{interval:g}"] for interval in intervals}

    results = run_once(benchmark, run)
    print()
    for interval, r in results.items():
        print(
            f"interval={interval:>6.0f}s overall sd="
            f"{overall_stats(r.jobs).slowdown.mean:6.2f} suspensions={r.total_suspensions}"
        )
    sd = {k: overall_stats(r.jobs).slowdown.mean for k, r in results.items()}
    # a much coarser sweep must not *improve* responsiveness
    assert sd[3600.0] >= sd[60.0] * 0.8
    # sweeping less often suspends (weakly) less
    assert results[3600.0].total_suspensions <= results[60.0].total_suspensions


def test_ablation_overhead_severity(benchmark, workload):
    """2x slower disk: SS's advantage must survive (robustness of V-A)."""
    jobs, n_procs = workload

    def run():
        ss = make_scheduler("ss", suspension_factor=2.0).config()
        res = _grid(
            jobs,
            n_procs,
            {
                "ns": make_scheduler("easy").config(),
                "paper_disk": (
                    ss,
                    {"overhead_model": DiskSwapOverheadModel(mb_per_sec_per_proc=2.0)},
                ),
                "slow_disk": (
                    ss,
                    {"overhead_model": DiskSwapOverheadModel(mb_per_sec_per_proc=1.0)},
                ),
            },
        )
        return res["ns"], res["paper_disk"], res["slow_disk"]

    ns, paper_disk, slow_disk = run_once(benchmark, run)
    sd_ns = overall_stats(ns.jobs).slowdown.mean
    sd_paper = overall_stats(paper_disk.jobs).slowdown.mean
    sd_slow = overall_stats(slow_disk.jobs).slowdown.mean
    print()
    print(f"overall slowdown: NS={sd_ns:.2f} SS@2MB/s={sd_paper:.2f} SS@1MB/s={sd_slow:.2f}")
    assert sd_paper < sd_ns
    assert sd_slow < sd_ns  # still wins with a half-speed disk


def test_ablation_migration(benchmark, workload):
    """Cost of the no-migration constraint: local vs migratable restart.

    The paper restricts restart to the original processors because its
    clusters cannot migrate processes; Parsons & Sevcik's migratable
    model lifts that.  This quantifies what the constraint costs SS.
    """
    jobs, n_procs = workload

    def run():
        ss = make_scheduler("ss", suspension_factor=2.0).config()
        res = _grid(
            jobs,
            n_procs,
            {
                "local": ss,
                "migratable": (ss, {"migratable": True}),
            },
        )
        return res["local"], res["migratable"]

    local, migratable = run_once(benchmark, run)
    sd_local = overall_stats(local.jobs).slowdown.mean
    sd_migr = overall_stats(migratable.jobs).slowdown.mean
    print()
    print(
        f"overall slowdown: local={sd_local:.2f} migratable={sd_migr:.2f}   "
        f"suspensions: local={local.total_suspensions} "
        f"migratable={migratable.total_suspensions}"
    )
    # migration relaxes a constraint; it must not make things much worse
    assert sd_migr <= sd_local * 1.25


def test_ablation_gang_vs_selective(benchmark, workload):
    """Indiscriminate (gang) vs selective (SS) preemption.

    Gang scheduling rescues short jobs through blind time slicing; SS
    does it through priorities.  Compare slowdowns and suspension bills
    on the same workload -- SS should match gang's responsiveness for
    short jobs at a fraction of the context switches.
    """

    jobs, n_procs = workload

    def run():
        res = _grid(
            jobs,
            n_procs,
            {
                "ss": make_scheduler("ss", suspension_factor=2.0).config(),
                "gang": make_scheduler("gang", quantum=600.0).config(),
            },
        )
        return res["ss"], res["gang"]

    ss, gang = run_once(benchmark, run)
    print()
    print(
        f"overall slowdown: SS={overall_stats(ss.jobs).slowdown.mean:.2f} "
        f"GANG={overall_stats(gang.jobs).slowdown.mean:.2f}   "
        f"suspensions: SS={ss.total_suspensions} GANG={gang.total_suspensions}"
    )
    print(
        f"VS mean sd: SS={_mean_sd(ss, ('VS', 'N'))} GANG={_mean_sd(gang, ('VS', 'N'))}"
    )
    # the selective scheme suspends far less than blind time slicing
    assert ss.total_suspensions < gang.total_suspensions


def test_ablation_conservative_substrate(benchmark, workload):
    """Conservative vs EASY as the NS baseline: both show the same
    short-wide pathology that motivates preemption."""

    jobs, n_procs = workload

    def run():
        res = _grid(
            jobs,
            n_procs,
            {
                "easy": make_scheduler("easy").config(),
                "cons": make_scheduler("conservative").config(),
            },
        )
        return res["easy"], res["cons"]

    easy, cons = run_once(benchmark, run)
    print()
    for name, r in (("EASY", easy), ("CONS", cons)):
        print(
            f"{name}: overall sd={overall_stats(r.jobs).slowdown.mean:6.2f} "
            f"VS-VW sd={_mean_sd(r, ('VS', 'VW'))}"
        )
    for r in (easy, cons):
        vsvw = _mean_sd(r, ("VS", "VW"))
        overall = overall_stats(r.jobs).slowdown.mean
        if vsvw is not None:
            assert vsvw > overall  # the pathology exists under both
