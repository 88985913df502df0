"""Report rendering over real simulation results."""

from __future__ import annotations

import pytest

from repro.analysis.report import experiment_report, scheme_comparison_report
from repro.experiments.runner import compare_schemes, simulate, standard_schemes
from repro.schedulers.registry import make_scheduler
from repro.workload.synthetic import generate_trace


@pytest.fixture(scope="module")
def small_result():
    jobs = generate_trace("SDSC", n_jobs=150, seed=2)
    return simulate(jobs, make_scheduler("easy"), 128)


@pytest.fixture(scope="module")
def small_comparison():
    jobs = generate_trace("SDSC", n_jobs=150, seed=2)
    return compare_schemes(jobs, 128, standard_schemes(suspension_factors=(2.0,)))


def test_experiment_report_sections(small_result):
    out = experiment_report("my title", small_result)
    assert "my title" in out
    assert "scheduler: EASY" in out
    assert "overall mean slowdown" in out
    assert "Seq" in out and "VW" in out


def test_experiment_report_other_metrics(small_result):
    out = experiment_report("t", small_result, metric="turnaround")
    assert "turnaround" in out
    out = experiment_report("t", small_result, metric="wait")
    assert "wait" in out


def test_comparison_report_columns(small_comparison):
    out = scheme_comparison_report("cmp", small_comparison)
    header = out.splitlines()[4]  # banner (3 lines) + subtitle, then header
    for label in small_comparison:
        assert label in header
    assert "overall:" in out


def test_comparison_report_worst_statistic(small_comparison):
    mean = scheme_comparison_report("cmp", small_comparison, statistic="mean")
    worst = scheme_comparison_report("cmp", small_comparison, statistic="worst")
    assert mean != worst
    assert "worst slowdown" in worst


def test_comparison_report_quality_filter(small_comparison):
    out = scheme_comparison_report("cmp", small_comparison, quality="well")
    assert "well estimated jobs" in out
