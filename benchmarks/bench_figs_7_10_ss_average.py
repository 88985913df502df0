"""Figs 7-10: average slowdown & turnaround -- SS(1.5/2/5) vs NS vs IS.

The paper's headline figures.  Shape checks encode section IV-D's
conclusions:

* SS crushes the NS slowdown of the short-wide categories (VS-VW drops
  from ~34 to <3 on CTC, ~113 to ~7 on SDSC);
* lower SF helps the short categories;
* the VL categories get slightly worse under SS;
* IS beats SS only on the VS categories.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import N_JOBS, SEED, run_once
from repro.experiments import paper


@pytest.mark.parametrize("trace", ["CTC", "SDSC"])
def test_figs_7_10_average_metrics(benchmark, trace):
    out = run_once(
        benchmark, paper.run, "figs-7-10", trace=trace, n_jobs=N_JOBS, seed=SEED
    )
    print()
    print(out.report)
    sd = out.data["slowdown"]
    ns = sd["No Suspension"]
    sf2 = sd["SF = 2"]
    sf15 = sd["SF = 1.5"]
    is_ = sd["IS"]

    # headline: the VS-VW catastrophe is fixed by SS
    cat = ("VS", "VW")
    if cat in ns and cat in sf2:
        assert sf2[cat] < ns[cat] / 3.0, f"{trace}: VS-VW {ns[cat]} -> {sf2[cat]}"

    # SS helps the short-wide block broadly
    helped = 0
    for c in (("VS", "W"), ("VS", "VW"), ("S", "W"), ("S", "VW")):
        if c in ns and c in sf2 and ns[c] > 2.0:
            assert sf2[c] < ns[c], c
            helped += 1
    assert helped >= 2

    # lower SF no worse for the very short categories (on average)
    vs_cats = [c for c in sf15 if c[0] == "VS" and c in sf2]
    if vs_cats:
        mean_15 = sum(sf15[c] for c in vs_cats) / len(vs_cats)
        mean_2 = sum(sf2[c] for c in vs_cats) / len(vs_cats)
        assert mean_15 <= mean_2 * 1.5

    # VL categories: SS may degrade them, but only slightly
    for c in (("VL", "Seq"), ("VL", "N"), ("VL", "W"), ("VL", "VW")):
        if c in ns and c in sf2:
            assert sf2[c] <= ns[c] * 3.0 + 1.0, c

    # IS is worse than SS somewhere outside VS (the long categories)
    long_cats = [c for c in is_ if c[0] in ("L", "VL") and c in sf2]
    assert any(is_[c] > sf2[c] for c in long_cats)

    # turnaround trends mirror slowdown trends (paper's Figs 8/10 note)
    tat = out.data["turnaround"]
    if cat in tat["No Suspension"] and cat in tat["SF = 2"]:
        assert tat["SF = 2"][cat] < tat["No Suspension"][cat]
