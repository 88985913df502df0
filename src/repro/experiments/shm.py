"""Zero-copy workload plane: shared-memory job segments for grid dispatch.

The grid executor (:mod:`repro.experiments.parallel`) ships every cell
to its worker as a pickle.  A scheme x load x seed grid over one trace
serialises the *same* job list dozens of times -- for a 120k-job
workload that is hundreds of megabytes of redundant pickle bytes per
``run_grid`` call, re-paid on every retry.  This module removes the
workload from the dispatch payload entirely:

* :func:`encode_jobs` packs the **static** fields of a job list into a
  struct-of-arrays binary blob (stdlib :mod:`array`/:mod:`struct`, no
  new dependencies) -- seven contiguous arrays behind a self-describing
  header that carries :func:`~repro.experiments.cache.fingerprint_jobs`
  for integrity checking;
* :class:`WorkloadPlane` publishes such blobs once per distinct
  workload via :class:`multiprocessing.shared_memory.SharedMemory`,
  memoised by jobs fingerprint, and unlinks them deterministically on
  :meth:`~WorkloadPlane.close` (``run_grid`` wraps its internal plane
  in ``try/finally``);
* :class:`JobsRef` is the picklable hand-off -- fingerprint + segment
  name + job count;
* :func:`resolve_jobs` is the worker-side decode: attach, verify the
  fingerprint, decode, and memoise per process by segment -- N cells
  over one workload decode once per worker, not once per cell.

Lifetime and crash-safety
-------------------------

The *creating* process owns a segment: only :meth:`WorkloadPlane.close`
unlinks it.  Creation registers the segment with the multiprocessing
``resource_tracker``, so if the coordinator is SIGKILLed mid-grid the
tracker process (which outlives it and ignores SIGTERM) unlinks every
published segment the moment the last holder of its pipe exits --
``/dev/shm`` is left clean even on the path where no ``finally`` ever
runs.  Attaching processes **unregister** immediately (CPython < 3.13
registers attachments too, which would let a dying worker's tracker
record double-count the segment) and close their handle as soon as the
decode copies the data out.

Degradation matrix (see DESIGN.md section 11): publish failure -> the
cell keeps its inline jobs; attach/integrity failure in the creating
process -> decode falls back to the locally registered source list;
attach failure in a worker -> the cell attempt fails and the executor's
ordinary retry/degrade machinery takes over (degraded cells resolve
in-process, where the fallback registry is available).
"""

from __future__ import annotations

import os
import struct
from array import array
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Sequence

from repro.experiments.cache import fingerprint_jobs
from repro.workload.job import Job

#: header magic; bump the trailing digit on any layout change
_MAGIC = b"RPRJOBS1"
#: header: magic + little-endian job count + 64 hex chars of jobs fingerprint
_HEADER = struct.Struct("<8sQ64s")
#: (field name, array typecode) in segment order; 'q'/'d' are 8 bytes each,
#: so every int field must fit in a signed 64-bit -- true for SWF ids,
#: widths and user ids by format definition
_LAYOUT: tuple[tuple[str, str], ...] = (
    ("job_id", "q"),
    ("submit_time", "d"),
    ("run_time", "d"),
    ("estimate", "d"),
    ("procs", "q"),
    ("memory_mb", "d"),
    ("user", "q"),
)

#: default segment-name prefix; names are ``<prefix>-<fp12>-<pid>-<seq>``
#: so a leaked segment is attributable to its creating process (tests and
#: the CI orphan guard grep ``/dev/shm`` for the prefix)
SEGMENT_PREFIX = "rprs"


class SegmentIntegrityError(RuntimeError):
    """The attached segment does not contain what the ref promised."""


def encode_jobs(jobs: Sequence[Job], jobs_fp: str | None = None) -> bytes:
    """Struct-of-arrays encoding of the static fields of *jobs*.

    Only static (trace) fields travel -- dynamic state is reset by
    ``fresh_copies`` before every simulation, so it cannot influence a
    cell's outcome.  Floats are IEEE doubles (exact round-trip), ints
    are signed 64-bit (an out-of-range id raises ``OverflowError``
    rather than truncating).  *jobs_fp* skips re-hashing when the
    caller already fingerprinted the list.
    """
    fp = jobs_fp if jobs_fp is not None else fingerprint_jobs(list(jobs))
    parts = [_HEADER.pack(_MAGIC, len(jobs), fp.encode("ascii"))]
    for field_name, typecode in _LAYOUT:
        values = array(typecode, (getattr(j, field_name) for j in jobs))
        parts.append(values.tobytes())
    return b"".join(parts)


def decode_jobs(buf: bytes | memoryview) -> tuple[str, list[Job]]:
    """Decode an :func:`encode_jobs` blob into ``(jobs_fp, fresh jobs)``.

    The returned fingerprint is the one *recorded in the header*;
    callers holding a :class:`JobsRef` compare it against the promised
    one (:func:`resolve_jobs` does, and raises
    :class:`SegmentIntegrityError` on mismatch).
    """
    view = memoryview(buf)
    if len(view) < _HEADER.size:
        raise SegmentIntegrityError(
            f"segment truncated: {len(view)} bytes < {_HEADER.size}-byte header"
        )
    magic, count, fp_bytes = _HEADER.unpack_from(view, 0)
    if magic != _MAGIC:
        raise SegmentIntegrityError(f"bad segment magic {magic!r} (want {_MAGIC!r})")
    columns: dict[str, array[int] | array[float]] = {}
    offset = _HEADER.size
    for field_name, typecode in _LAYOUT:
        col: array[int] | array[float] = array(typecode)
        end = offset + 8 * count
        if end > len(view):
            raise SegmentIntegrityError(
                f"segment truncated inside column {field_name!r}: "
                f"need {end} bytes, have {len(view)}"
            )
        col.frombytes(view[offset:end])
        columns[field_name] = col
        offset = end
    jobs = [
        Job(
            job_id=int(columns["job_id"][i]),
            submit_time=columns["submit_time"][i],
            run_time=columns["run_time"][i],
            estimate=columns["estimate"][i],
            procs=int(columns["procs"][i]),
            memory_mb=columns["memory_mb"][i],
            user=int(columns["user"][i]),
        )
        for i in range(count)
    ]
    return fp_bytes.decode("ascii"), jobs


@dataclass(frozen=True)
class JobsRef:
    """Picklable reference to a published workload segment.

    A :class:`~repro.experiments.parallel.GridCell` carries this
    *instead of* an inline job list: ~200 bytes of pickle regardless of
    trace length.  ``jobs_fp`` is also the cell's cache-key workload
    hash, so a ref cell and its inline twin share cache entries.
    """

    #: fingerprint of the encoded jobs
    jobs_fp: str
    #: shared-memory segment name (``SharedMemory(name=...)`` attaches)
    segment: str
    #: job count in the segment (decode sanity check)
    n_jobs: int


@dataclass
class DecodeStats:
    """Process-local tallies of the worker-side decode path.

    Every process (coordinator or pool worker) counts its *own*
    activity; :func:`repro.experiments.parallel.run_grid` folds the
    coordinator's delta into :class:`~repro.obs.counters.GridCounters`
    (the serial, degraded and fallback paths), and pool workers report
    a per-cell delta alongside each result (see
    :func:`repro.experiments.parallel.simulate_cell_with_stats`), which
    the coordinator folds into the ``shm_worker_*`` counters -- four
    integers riding the existing result pickle, not a side channel.
    """

    #: successful segment attaches in this process
    attaches: int = 0
    #: full blob decodes (memo misses) in this process
    decodes: int = 0
    #: refs served from the per-process memo
    memo_hits: int = 0
    #: refs resolved from the local fallback registry because the
    #: segment could not be attached or failed its integrity check
    fallbacks: int = 0

    def snapshot(self) -> tuple[int, int, int, int]:
        return (self.attaches, self.decodes, self.memo_hits, self.fallbacks)


#: the current process's decode tallies (see :class:`DecodeStats`)
DECODE_STATS = DecodeStats()

#: per-process decode memo: segment -> decoded job list.
#: Entries for a plane's segments are evicted when the plane closes (in
#: the owning process); pool workers are per-``run_grid`` so their memos
#: die with them.
_DECODE_MEMO: dict[str, list[Job]] = {}

#: segments *created* by this process -- their resource-tracker
#: registration is the SIGKILL safety net and must not be unregistered
#: by a self-attach (the tracker's cache is a set; one unregister would
#: erase the creation record too)
_OWNED_SEGMENTS: set[str] = set()

#: segment name -> (jobs fingerprint, source job list), registered by
#: the creating process so in-process (serial/degraded) execution can
#: resolve a ref even if the segment itself cannot be attached; the
#: fingerprint guards the fallback the same way decode guards a segment
_LOCAL_JOBS: dict[str, tuple[str, list[Job]]] = {}


def decode_stats_snapshot() -> tuple[int, int, int, int]:
    """Copy of this process's :data:`DECODE_STATS` (for delta folding)."""
    return DECODE_STATS.snapshot()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to *name* without disturbing the creator's tracker record.

    CPython < 3.13 registers every attach with the resource tracker;
    a worker exiting would then count as a "leak" and -- worse -- an
    explicit unregister from the creating process would erase its own
    creation record.  Attachers that do not own the segment unregister
    immediately; owners leave the record alone (3.13+ offers
    ``track=False``, used when available).
    """
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track kwarg
        shm = shared_memory.SharedMemory(name=name)
        if name not in _OWNED_SEGMENTS:
            try:
                # _name carries the platform-specific leading-slash form
                # that SharedMemory.__init__ registered
                resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
            except (OSError, ValueError, KeyError):
                pass  # tracker already gone; tracking is best-effort
    return shm


def _decode_segment(ref: JobsRef) -> list[Job]:
    """Attach, verify, decode and detach *ref*'s base segment."""
    shm = _attach(ref.segment)
    try:
        DECODE_STATS.attaches += 1
        fp, jobs = decode_jobs(shm.buf)
        DECODE_STATS.decodes += 1
    finally:
        shm.close()
    if fp != ref.jobs_fp:
        raise SegmentIntegrityError(
            f"segment {ref.segment} holds workload {fp[:12]}..., "
            f"ref promised {ref.jobs_fp[:12]}..."
        )
    if len(jobs) != ref.n_jobs:
        raise SegmentIntegrityError(
            f"segment {ref.segment} holds {len(jobs)} jobs, ref promised {ref.n_jobs}"
        )
    return jobs


def resolve_jobs(ref: JobsRef) -> list[Job]:
    """The job list *ref* stands for, decoded at most once per process.

    Callers must not mutate the returned list or its jobs -- it is
    shared across every cell that references the same segment.  The
    simulation path is safe by construction:
    :func:`~repro.experiments.runner.simulate` takes fresh copies
    before running (``copy_jobs=True``).
    """
    hit = _DECODE_MEMO.get(ref.segment)
    if hit is not None:
        DECODE_STATS.memo_hits += 1
        return hit
    try:
        jobs = _decode_segment(ref)
    except SegmentIntegrityError:
        raise  # the ref is wrong, not the transport; never paper over it
    except OSError:
        local = _LOCAL_JOBS.get(ref.segment)
        if local is None or local[0] != ref.jobs_fp:
            raise
        DECODE_STATS.fallbacks += 1
        jobs = local[1]
    _DECODE_MEMO[ref.segment] = jobs
    return jobs


@dataclass
class _Segment:
    """One published segment plus what this process knows about it."""

    shm: shared_memory.SharedMemory
    ref: JobsRef


class WorkloadPlane:
    """Coordinator-side publisher of shared-memory workload segments.

    One plane per ``run_grid`` call.  ``publish`` is memoised by jobs
    fingerprint, so a grid with 24 cells over one workload creates
    exactly one segment.  :meth:`close` unlinks every
    segment this plane created and evicts this process's decode memo
    for them; it is idempotent and safe under partial failure.  Usable
    as a context manager.
    """

    def __init__(self, prefix: str = SEGMENT_PREFIX) -> None:
        self._prefix = prefix
        self._by_fp: dict[str, _Segment] = {}
        #: pins the source lists published so far: identity-keyed memo
        #: entries stay valid only while the keyed object is alive
        self._pins: dict[int, tuple[list[Job], str]] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    @property
    def segments(self) -> int:
        """Number of distinct segments this plane has published."""
        return len(self._by_fp)

    def _fingerprint(self, jobs: list[Job], jobs_fp: str | None) -> str:
        if jobs_fp is not None:
            return jobs_fp
        pinned = self._pins.get(id(jobs))
        if pinned is not None and pinned[0] is jobs:
            return pinned[1]
        fp = fingerprint_jobs(jobs)
        self._pins[id(jobs)] = (jobs, fp)
        return fp

    def publish(self, jobs: list[Job], jobs_fp: str | None = None) -> JobsRef | None:
        """Publish *jobs* (once per fingerprint) and return a ref.

        Returns ``None`` when shared memory is unavailable (``/dev/shm``
        full or missing) -- the caller keeps its inline jobs and the
        grid still runs, just without the payload savings.
        """
        fp = self._fingerprint(jobs, jobs_fp)
        seg = self._by_fp.get(fp)
        if seg is None:
            blob = encode_jobs(jobs, jobs_fp=fp)
            name = f"{self._prefix}-{fp[:12]}-{os.getpid()}-{self._seq}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=len(blob)
                )
            except OSError:
                return None
            self._seq += 1
            shm.buf[: len(blob)] = blob
            ref = JobsRef(jobs_fp=fp, segment=shm.name, n_jobs=len(jobs))
            seg = _Segment(shm=shm, ref=ref)
            self._by_fp[fp] = seg
            _OWNED_SEGMENTS.add(shm.name)
            _LOCAL_JOBS[shm.name] = (fp, jobs)
        return seg.ref

    def close(self) -> None:
        """Unlink every published segment; idempotent, never raises."""
        segments, self._by_fp = self._by_fp, {}
        self._pins.clear()
        for seg in segments.values():
            name = seg.shm.name
            _OWNED_SEGMENTS.discard(name)
            _LOCAL_JOBS.pop(name, None)
            _DECODE_MEMO.pop(name, None)
            try:
                seg.shm.close()
            except (OSError, BufferError):
                pass
            try:
                seg.shm.unlink()
            except (FileNotFoundError, OSError):
                pass  # already unlinked (e.g. by the resource tracker)

    def __enter__(self) -> "WorkloadPlane":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        self.close()
