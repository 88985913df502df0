"""Suspension priorities and the preemption criteria."""

from __future__ import annotations

import pytest

from repro.cluster.bitset import mask_from_ids
from repro.core.priorities import (
    GOLDEN_RATIO,
    PreemptionCriteria,
    instantaneous_priority,
    max_suspensions_threshold,
    suspension_priority,
)
from tests.conftest import make_job


def test_suspension_priority_is_xfactor():
    j = make_job(run=100.0, estimate=100.0)
    j.mark_submitted(0.0)
    assert suspension_priority(j, 50.0) == pytest.approx(1.5)


def test_instantaneous_priority_matches_definition():
    j = make_job(run=1000.0)
    j.mark_submitted(0.0)
    j.mark_started(100.0, mask_from_ids({0}))
    assert instantaneous_priority(j, 300.0) == pytest.approx((100 + 200) / 200)


def test_threshold_closed_form():
    assert max_suspensions_threshold(0) == pytest.approx(2.0)
    assert max_suspensions_threshold(1) == pytest.approx(2.0**0.5)
    assert max_suspensions_threshold(2) == pytest.approx(2.0 ** (1 / 3))


def test_threshold_monotone_decreasing_to_one():
    values = [max_suspensions_threshold(n) for n in range(8)]
    assert values == sorted(values, reverse=True)
    assert values[-1] > 1.0


def test_threshold_rejects_negative():
    with pytest.raises(ValueError):
        max_suspensions_threshold(-1)


def test_golden_ratio_constant():
    assert GOLDEN_RATIO == pytest.approx(1.6180339887, abs=1e-9)


# ----------------------------------------------------------------------
# PreemptionCriteria
# ----------------------------------------------------------------------
def test_criteria_rejects_sf_below_one():
    with pytest.raises(ValueError):
        PreemptionCriteria(suspension_factor=0.9)


def test_priority_threshold():
    c = PreemptionCriteria(suspension_factor=2.0)
    assert c.priority_allows(2.0, 1.0)
    assert c.priority_allows(4.0, 2.0)
    assert not c.priority_allows(1.9, 1.0)


def test_width_rule_blocks_narrow_suspending_wide():
    c = PreemptionCriteria(width_rule=True)
    # victim may be at most twice the idle job's width
    assert c.width_allows(idle_procs=4, victim_procs=8, reentry=False)
    assert not c.width_allows(idle_procs=4, victim_procs=9, reentry=False)
    assert not c.width_allows(idle_procs=1, victim_procs=300, reentry=False)


def test_width_rule_waived_on_reentry():
    c = PreemptionCriteria(width_rule=True)
    assert c.width_allows(idle_procs=1, victim_procs=300, reentry=True)


def test_width_rule_can_be_disabled():
    c = PreemptionCriteria(width_rule=False)
    assert c.width_allows(idle_procs=1, victim_procs=300, reentry=False)


def test_allows_combines_both_conditions():
    c = PreemptionCriteria(suspension_factor=2.0, width_rule=True)
    idle = make_job(job_id=1, run=60.0, procs=4)
    victim = make_job(job_id=2, run=3600.0, procs=6)
    idle.mark_submitted(0.0)
    victim.mark_submitted(0.0)
    victim.mark_started(0.0, mask_from_ids(range(6)))
    # victim priority frozen at 1; idle needs xfactor >= 2: wait 60s
    assert not c.allows(idle, victim, now=30.0, reentry=False)
    assert c.allows(idle, victim, now=120.0, reentry=False)


def test_allows_respects_width_rule():
    c = PreemptionCriteria(suspension_factor=1.0, width_rule=True)
    idle = make_job(job_id=1, run=60.0, procs=1)
    victim = make_job(job_id=2, run=3600.0, procs=10)
    idle.mark_submitted(0.0)
    victim.mark_submitted(0.0)
    victim.mark_started(0.0, mask_from_ids(range(10)))
    assert not c.allows(idle, victim, now=10_000.0, reentry=False)
    assert c.allows(idle, victim, now=10_000.0, reentry=True)
