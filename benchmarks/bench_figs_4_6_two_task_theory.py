"""Figs 4-6: execution pattern of two identical tasks vs SF.

Prints the alternation timelines at SF = 1, 1.5, 2 (the paper's three
figures) under both priority semantics, and checks the suspension-count
thresholds, including the paper's SF = 2 (zero suspensions) and golden
ratio (one suspension, age-based semantics) results.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.core.priorities import GOLDEN_RATIO
from repro.core.theory import threshold_for_max_suspensions, two_task_timeline
from repro.experiments import paper


def test_figs_4_6_two_task_patterns(benchmark):
    out = run_once(benchmark, paper.run, "figs-4-6")
    print()
    print(out.report)
    # Fig 6: SF = 2 -> no suspension, strict serial execution
    sf2 = out.data["SF=2"]["frozen"]
    assert sf2.suspensions == 0
    # Fig 5: 1 < SF < threshold -> exactly one suspension (frozen)
    sf15 = out.data["SF=1.5"]["frozen"]
    assert sf15.suspensions == 1
    # Fig 4: SF = 1 -> alternation bounded only by the sweep granularity
    sf1 = out.data["SF=1"]["frozen"]
    assert sf1.suspensions >= 10


def test_threshold_table(benchmark):
    """Regenerates the threshold table of repro.core.theory's docstring."""

    def build():
        rows = []
        for n in range(4):
            rows.append(
                (
                    n,
                    threshold_for_max_suspensions(n, "frozen"),
                    threshold_for_max_suspensions(n, "age"),
                )
            )
        return rows

    rows = run_once(benchmark, build)
    print()
    print("at most n suspensions | frozen SF >= | age-based SF >=")
    for n, frozen, age in rows:
        print(f"{n:>21d} | {frozen:12.4f} | {age:15.4f}")
    assert abs(rows[0][1] - 2.0) < 1e-6
    assert abs(rows[1][1] - 2**0.5) < 1e-6
    assert abs(rows[1][2] - GOLDEN_RATIO) < 1e-6  # the paper's phi


def test_alternation_work_conserving(benchmark):
    """Sanity: for any SF the two-task schedule is work conserving."""

    def sweep():
        return [two_task_timeline(sf) for sf in (1.1, 1.25, 1.4, 1.6, 2.0, 3.0)]

    outcomes = run_once(benchmark, sweep)
    for out in outcomes:
        assert out.makespan == 2.0
