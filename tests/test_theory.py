"""Two-task alternation theory (section IV-A, Figs 4-6)."""

from __future__ import annotations

import pytest

from repro.core.priorities import GOLDEN_RATIO
from repro.core.theory import (
    suspension_count,
    threshold_for_max_suspensions,
    two_task_timeline,
)
from repro.schedulers.registry import make_scheduler


def test_sf2_zero_suspensions():
    """The paper's headline: SF = 2 removes all suspensions (Fig 6)."""
    out = two_task_timeline(2.0)
    assert out.suspensions == 0
    assert [s.task for s in out.segments] == [1, 2]
    assert out.finish == (1.0, 2.0)


def test_above_two_same_as_two():
    """Any SF > 2 behaves exactly like SF = 2 for equal jobs."""
    for sf in (2.5, 3.0, 10.0):
        out = two_task_timeline(sf)
        assert out.suspensions == 0
        assert out.finish == (1.0, 2.0)


def test_between_thresholds_one_suspension():
    out = two_task_timeline(1.5)
    assert out.suspensions == 1
    # T1 runs (SF-1)L = 0.5, T2 runs to completion, T1 finishes
    assert [s.task for s in out.segments] == [1, 2, 1]
    assert out.segments[0].end == pytest.approx(0.5)


def test_sf1_alternates_at_granularity():
    """Fig 4: SF = 1 swaps every sweep interval."""
    out = two_task_timeline(1.0, min_interval=0.1, max_suspensions=100)
    tasks = [s.task for s in out.segments]
    assert tasks[:6] == [1, 2, 1, 2, 1, 2]
    assert all(s.duration == pytest.approx(0.1) for s in out.segments[:-1])


def test_suspension_count_monotone_in_sf():
    counts = [suspension_count(sf) for sf in (1.1, 1.3, 1.5, 1.8, 2.0)]
    assert counts == sorted(counts, reverse=True)


def test_frozen_thresholds_match_closed_form():
    assert threshold_for_max_suspensions(0) == pytest.approx(2.0, abs=1e-6)
    assert threshold_for_max_suspensions(1) == pytest.approx(2**0.5, abs=1e-6)
    assert threshold_for_max_suspensions(2) == pytest.approx(2 ** (1 / 3), abs=1e-6)


def test_age_thresholds_include_golden_ratio():
    """The paper's prose derivation: at most one suspension at the
    golden ratio -- reproduced under age-based semantics."""
    assert threshold_for_max_suspensions(0, "age") == pytest.approx(2.0, abs=1e-6)
    assert threshold_for_max_suspensions(1, "age") == pytest.approx(
        GOLDEN_RATIO, abs=1e-6
    )


def test_age_more_suspensions_than_frozen():
    """Age-based priority grows faster, so alternation lasts longer."""
    for sf in (1.3, 1.5):
        assert suspension_count(sf, "age") >= suspension_count(sf, "frozen")


def test_segments_partition_the_schedule():
    for sf in (1.2, 1.5, 2.0):
        out = two_task_timeline(sf)
        # contiguous, non-overlapping, starting at 0
        assert out.segments[0].start == 0.0
        for a, b in zip(out.segments, out.segments[1:], strict=False):
            assert a.end == pytest.approx(b.start)
        # each task gets exactly L = 1 of run time
        for task in (1, 2):
            total = sum(s.duration for s in out.segments if s.task == task)
            assert total == pytest.approx(1.0)


def test_makespan_is_two_l():
    """Work conservation: total makespan is always 2L on one machine."""
    for sf in (1.1, 1.5, 2.0, 5.0):
        out = two_task_timeline(sf, length=3.0)
        assert out.makespan == pytest.approx(6.0)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        two_task_timeline(0.5)
    with pytest.raises(ValueError):
        two_task_timeline(2.0, length=0.0)
    with pytest.raises(ValueError):
        two_task_timeline(2.0, semantics="bogus")
    with pytest.raises(ValueError):
        threshold_for_max_suspensions(-1)


def test_simulated_ss_matches_theory():
    """Cross-check: the full SS scheduler on two whole-machine jobs
    reproduces the theoretical suspension counts (fine sweep interval)."""
    from tests.conftest import make_job, run_sim

    for sf, expected in ((2.0, 0), (1.5, 1)):
        jobs = [
            make_job(job_id=1, submit=0.0, run=1000.0, procs=4),
            make_job(job_id=2, submit=0.0, run=1000.0, procs=4),
        ]
        result = run_sim(
            jobs,
            make_scheduler(
                "ss", suspension_factor=sf, preemption_interval=1.0
            ),
            n_procs=4,
        )
        assert result.total_suspensions == expected, f"SF={sf}"
