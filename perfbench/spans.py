"""In-memory span recording for the traced benchmark run.

A span is one call of a wrapped function: a name, a start, an end and
the span that was open when it began (its parent).  Spans are kept in
flat typed arrays (about 24 bytes each, so the million-span IS run fits
in tens of megabytes) and only summarised or written out after the run.

Self time is a span's duration minus the durations of its direct
children; children of one parent never overlap because the simulator
is single-threaded.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

NO_PARENT = -1


class SpanRecorder:
    """Records nested spans of wrapped callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = [NO_PARENT]

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Return *fn* recording one span named *name* per call."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        opened = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            idx = len(names)
            names.append(nid)
            parents.append(opened[-1])
            ends.append(0.0)
            opened.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                opened.pop()

        return span

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int32) if len(self) else np.zeros(0, np.int32)
        parent = (
            np.frombuffer(self.parent, dtype=np.int32) if len(self) else np.zeros(0, np.int32)
        )
        dur = np.asarray(self.end, dtype=np.float64) - np.asarray(self.start, dtype=np.float64)
        return name, parent, dur

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus its children's durations."""
        _, parent, dur = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "total_s", "self_s"} over every recorded span."""
        name, _, dur = self._arrays()
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self.self_times(), minlength=n)
        return {
            nm: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, nm in enumerate(self.names)
        }

    def write(self, stem: Path) -> None:
        """Write the spans as ``<stem>.json`` (names) plus ``<stem>.npz``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        name, parent, _ = self._arrays()
        np.savez(
            stem.with_suffix(".npz"),
            name=name,
            parent=parent,
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
        )
        stem.with_suffix(".json").write_text(json.dumps({"names": self.names}) + "\n")
