"""The experiment table, run through its one runner (small sizes for speed)."""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import paper
from repro.experiments.cache import ResultCache

N = 220
SEED = 3


def test_job_distribution_outputs():
    out = paper.run("distribution", "CTC", N, SEED)
    assert out.exp_id == "distribution"
    assert abs(sum(out.data["shares16"].values()) - 1.0) < 1e-9
    assert abs(sum(out.data["shares4"].values()) - 1.0) < 1e-9
    assert "Tables II/III" in out.report


def test_ns_baseline_slowdowns_outputs():
    out = paper.run("tables-4-5", "SDSC", N, SEED)
    assert out.data["overall"] >= 1.0
    assert all(v >= 1.0 for v in out.data["grid"].values())
    assert "Table V" in out.report
    assert "No Suspension" in out.results


def test_two_task_figures_outputs():
    out = paper.run("figs-4-6")
    assert out.data["SF=2"]["frozen"].suspensions == 0
    assert out.data["SF=1.5"]["frozen"].suspensions == 1
    assert "SF=1.5" in out.report


def test_ss_average_metrics_outputs():
    out = paper.run("figs-7-10", "SDSC", N, SEED)
    for metric in ("slowdown", "turnaround"):
        grids = out.data[metric]
        assert set(grids) == {"SF = 1.5", "SF = 2", "SF = 5", "No Suspension", "IS"}
        for grid in grids.values():
            assert grid  # nonempty
    assert "Fig 9" in out.report and "Fig 10" in out.report


def test_ss_worst_case_outputs():
    out = paper.run("figs-11-16", "SDSC", N, SEED)
    assert set(out.data["slowdown"]) == {"SF = 2", "No Suspension", "IS"}
    # worst >= mean structurally; just check worst >= 1
    for grid in out.data["slowdown"].values():
        assert all(v >= 1.0 for v in grid.values())


def test_tss_worst_case_outputs():
    out = paper.run("figs-13-18", "SDSC", N, SEED)
    assert "SF = 2 Tuned" in out.data["slowdown"]
    assert "SF = 2" in out.data["slowdown"]


def test_estimate_impact_outputs():
    out = paper.run("figs-19-30", "SDSC", N, SEED)
    assert set(out.data) == {"all", "well", "badly"}
    all_counts = out.data["all"]["slowdown"]["No Suspension"]
    assert all_counts
    # every job is either well or badly estimated: the union of group
    # categories covers the all-jobs categories
    union = set(out.data["well"]["slowdown"]["No Suspension"]) | set(
        out.data["badly"]["slowdown"]["No Suspension"]
    )
    assert set(all_counts) <= union


def test_overhead_impact_outputs():
    out = paper.run("figs-31-34", "SDSC", N, SEED)
    assert set(out.data["slowdown"]) == {"SF = 2", "SF = 2 OH", "No Suspension", "IS"}
    # the overhead run must actually charge overhead to suspended jobs
    oh_run = out.results["SF = 2 OH"]
    if oh_run.total_suspensions:
        assert any(j.total_overhead > 0 for j in oh_run.jobs)
    free_run = out.results["SF = 2"]
    assert all(j.total_overhead == 0 for j in free_run.jobs)


def test_load_variation_outputs():
    out = paper.run("figs-35-44", "SDSC", N, SEED, loads=(1.0, 1.2))
    assert out.data["loads"] == [1.0, 1.2]
    for label in ("SF = 2 Tuned", "No Suspension", "IS"):
        assert len(out.data["utilization"][label]) == 2
        for series in out.data["slowdown"][label].values():
            assert len(series) == 2
    assert "utilisation" in out.report


def test_unknown_trace_raises():
    with pytest.raises(KeyError):
        paper.run("tables-4-5", "NOPE", N, SEED)


#: sha256 of each experiment's report at (N, SEED), per trace; the
#: workload-free figs-4-6 runs on trace "-"
REPORT_SHA256 = {
    "figs-4-6/-": "b6fcf2a22e4640eb0c247e6dfb9d6dbbd0083536d73237332f72630cfba8f543",
    "distribution/CTC": "ebd55ccfc7ec9a06b63ae10f4989ee152210e29050642562347840917a3795e1",
    "distribution/SDSC": "71bc5be9238a8c2d3265ab9a7e089a8b05d93503bbc70d811ef00660ea3b6018",
    "tables-4-5/CTC": "4c5e28aa35332bae9c55d739c6a27ac1f4b34c27b9a7d6b3529043dd203c0fe2",
    "tables-4-5/SDSC": "c063cb80d086913de624b9308138590d4a2e9c7f18398d0e372d88426251df51",
    "figs-7-10/CTC": "4b83d66f3c827a181fe1c532e9f2a60e6fe91f5d55f01bb8a21ba57a4f24ad8e",
    "figs-7-10/SDSC": "d9729f5230146b7f8f1878394f27df26bc0a7268488c0d98848a7f8005be9c93",
    "figs-11-16/CTC": "5c02790b2e7bf1460f15fdb15f444c424cfb0922991d512a6300c76ad9319055",
    "figs-11-16/SDSC": "47d5dc5e6600d2b75779531894ace4baf643228cae9e662af78d08d1e7d1cdcf",
    "figs-13-18/CTC": "b1bce92b37e018e566188c18b4506e27c84679959e2d9be9b971777898451d3e",
    "figs-13-18/SDSC": "cb200483138fdd02e2a42214b8ec373dd06711f26d6714065d80166348faeef7",
    "figs-19-30/CTC": "4dd24081fa9958004263a513e469212e204456872a2dfef0c57ddadcd2827172",
    "figs-19-30/SDSC": "88a3348f4d9a47527431cfd225d48a70d477482d7873bcf4dfabc44a8e9a00fb",
    "figs-31-34/CTC": "a62747e7e3a97b5acc3f07a1e21f761bf13a63c81051a1b248ea3641d73ea92d",
    "figs-31-34/SDSC": "916b8b94b81d4584eb74d7623b7e156cb69fbb3090240f39bcecb4f0486014a4",
    "figs-35-44/CTC": "651a1150ae656ecc75e9878c5c1cf254597183c4bbd39d30947755808594c43e",
    "figs-35-44/SDSC": "c98a9e31c3e292ed1964cd2b82d3050b701122b3b9fdd51527b76bcd3b392260",
    "hybrids/CTC": "db0adbd85212b7c64f54845bf09c286aea5a0f11fcc41475e965c37220163f02",
    "hybrids/SDSC": "760860423c24b89495f156dd2aee0b250794480118dcd1a7c0caf793cb9a7f67",
}


def _sha256(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("exp_id", list(paper.EXPERIMENTS))
def test_experiment_report_is_pinned(exp_id, tmp_path):
    """Every record's report is pinned on each trace it applies to; a
    scheme grid also reports the same through a pool, and a second run
    over the same cache directory finds every cell already stored."""
    exp = paper.EXPERIMENTS[exp_id]
    for trace in exp.traces or ("-",):
        report = paper.run(exp_id, trace, N, SEED).report
        assert _sha256(report) == REPORT_SHA256[f"{exp_id}/{trace}"], trace
    if exp.tabulate is not None:
        return
    cache_dir = tmp_path / "cache"
    pooled = paper.run(exp_id, trace, N, SEED, workers=2, cache=ResultCache(cache_dir))
    assert pooled.report == report
    entries = sorted(cache_dir.rglob("*.pkl"))
    assert entries
    rerun = paper.run(exp_id, trace, N, SEED, cache=ResultCache(cache_dir))
    assert rerun.report == report
    assert sorted(cache_dir.rglob("*.pkl")) == entries
