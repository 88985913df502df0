"""Golden decision traces: the optimised kernel is byte-pinned to the
pre-optimisation one.

PR 4 rebuilt the simulation kernel for speed -- bitmask cluster,
sweep-scoped caching, O(n) anchor walk -- under the contract that **no
schedule changes**.  These hashes are SHA-256 digests of complete JSONL
decision traces (every dispatch, suspension, resume, verdict and
reservation) produced by the *seed* kernel before any of that work
landed.  The optimised kernel must reproduce them byte for byte.

If an intentional semantic change ever lands (a new tie-break, a
different verdict rule), regenerate the hashes in the same commit and
say so in its message; a perf-only PR that trips this test has a bug.

The grid deliberately spans both machines the paper models at
meaningfully different scales (CTC at 430 processors, SDSC at 128) and
every scheduler family it compares (SS, TSS, EASY, conservative), so a
regression anywhere in cluster/profile/sweep code has a cell that
notices.

The policy-kernel refactor decomposed those schedulers into
queue/reservation/backfill/preemption policies composed by one
``PolicyKernel`` -- under the same byte-identical contract, which these
hashes enforce.  The hybrid schemes it unlocked (``ss-easy``,
``tss-conservative``) have no seed-kernel ancestor; their traces are
pinned in :data:`HYBRID_TRACE_SHA256` at the commit that introduced
them, freezing the composed semantics the same way.

Immediate Service had no byte-level witness until its timeslice engine
was moved onto the sweep's mask and lookup fast paths; its traces are
pinned in :data:`IS_TRACE_SHA256` at the commit before that port.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.cluster.machine import Cluster
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.core.tss import TunableSelectiveSuspensionScheduler
from repro.obs.recorder import JsonlRecorder
from repro.schedulers.base import Scheduler
from repro.schedulers.conservative import ConservativeBackfillScheduler
from repro.schedulers.easy import EasyBackfillScheduler
from repro.sim.driver import SchedulingSimulation
from repro.workload.synthetic import generate_trace

#: (trace preset, n_procs, n_jobs, seed)
_WORKLOADS = {
    "CTC": ("CTC", 430, 60, 11),
    "SDSC": ("SDSC", 128, 80, 7),
}

#: SHA-256 of the seed kernel's JSONL decision trace per grid cell,
#: captured at commit cb1017f (pre-bitmask, pre-sweep-cache kernel)
GOLDEN_TRACE_SHA256 = {
    ("CTC", "ss"): "d5d3fe1f2da73f8ade3907237661d96db640c992dbea740594d3024b4b03e866",
    ("CTC", "tss"): "e665d49128febcf9837cac2d163570c7b8bc8d40fa6cd2e47b4a608522297378",
    ("CTC", "easy"): "da41a9f20641c3f1eb45856ef6259a60c15c24d45b66c440e9ed71e5784140ee",
    ("CTC", "conservative"): (
        "87955d46406819187b0bd2686a1da65b2c93d5f3da1c6eb9f8ba85d1a4e4534b"
    ),
    ("SDSC", "ss"): "f7ce1d7bbaa7372769034a2a067f4c3372c12656ebfd9e51c8b261fa5efcc47b",
    ("SDSC", "tss"): "7cbf16e9b31f1a6c5f07f943f6c4b1bec5619d3de9fc3700b70ec863b9c201c4",
    ("SDSC", "easy"): "1c12bf4b03326daaf63874b278ec8cca77dd09758735fe0408d911cd770f5a2e",
    ("SDSC", "conservative"): (
        "a3c7aae1d88ff45b0c4df0ad2a53beee6c6cbfe0fec5ccacf610e690a680e63c"
    ),
}

#: SHA-256 of the hybrid schemes' JSONL decision traces, pinned at the
#: commit introducing the policy kernel (no seed-kernel ancestor exists)
HYBRID_TRACE_SHA256 = {
    ("CTC", "ss-easy"): (
        "244258e52371642c49fb3a07ebfa17920aee0d17392d16773685e472bd17c5ab"
    ),
    ("CTC", "tss-conservative"): (
        "cd7b13e0676d31a3f297cd1760abb82dcbfa474b919e801b282d1da46fdaa976"
    ),
    ("SDSC", "ss-easy"): (
        "06f075785379f4c80c4ee66fe2512bd7a2c6ffea733ddc6303dfe61303393de3"
    ),
    ("SDSC", "tss-conservative"): (
        "ed1b261913f4e65db1d192f7c92c3a561e4524afa2dd22facde871dee484a468"
    ),
}


#: SHA-256 of the IS JSONL decision traces, pinned before the timeslice
#: engine's fast-path port
IS_TRACE_SHA256 = {
    ("CTC", "is"): "07b13f467b80aff3e52d8e7f47c500f22756879e018bf1bf57920845bd49c6bc",
    ("SDSC", "is"): "16af33ce1b792c2985551a23ece2b4af64f4a8754a2a9f2592a5c0ea5a91ea31",
}


def _make_scheduler(name: str) -> Scheduler:
    if name == "ss":
        return SelectiveSuspensionScheduler(suspension_factor=2.0)
    if name == "tss":
        return TunableSelectiveSuspensionScheduler(suspension_factor=2.0)
    if name == "easy":
        return EasyBackfillScheduler()
    if name == "ss-easy":
        from repro.schedulers.hybrids import SuspensionWithHeadGuarantee

        return SuspensionWithHeadGuarantee(suspension_factor=2.0)
    if name == "tss-conservative":
        from repro.schedulers.hybrids import TunableSuspensionWithGuarantees

        return TunableSuspensionWithGuarantees(suspension_factor=2.0)
    if name == "is":
        from repro.core.immediate_service import ImmediateServiceScheduler

        return ImmediateServiceScheduler()
    return ConservativeBackfillScheduler()


@pytest.mark.parametrize(
    ("workload", "scheme"),
    sorted(GOLDEN_TRACE_SHA256) + sorted(HYBRID_TRACE_SHA256) + sorted(IS_TRACE_SHA256),
    ids=lambda v: str(v),
)
def test_trace_matches_seed_kernel(workload: str, scheme: str, tmp_path: Path) -> None:
    trace_name, n_procs, n_jobs, seed = _WORKLOADS[workload]
    path = tmp_path / f"{workload}-{scheme}.jsonl"
    rec = JsonlRecorder(str(path))
    sim = SchedulingSimulation(Cluster(n_procs), _make_scheduler(scheme), recorder=rec)
    sim.run(generate_trace(trace_name, n_jobs=n_jobs, seed=seed))
    rec.close()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    expected = {**GOLDEN_TRACE_SHA256, **HYBRID_TRACE_SHA256, **IS_TRACE_SHA256}
    assert digest == expected[(workload, scheme)], (
        f"{workload}/{scheme}: decision trace diverged from the seed "
        "kernel -- a perf change altered the schedule (or an intentional "
        "semantic change forgot to regenerate the golden hashes)"
    )
