"""Low-overhead span tracer: per-task ring buffers of timed phases.

The paper's whole argument is about *where* a Python HPC platform
spends its time; the run-total counters of
:mod:`repro.runtime.tracing` can say how much was waited on, but not
*when*, *by which rank*, or *in which step*.  This module records the
missing dimension: **spans** — named, timestamped intervals, one ring
buffer per task (rank, thread) — cheap enough to leave compiled in
everywhere, and off by default.

Design constraints:

* **Disabled path is one flag check.**  :meth:`Tracer.span` returns a
  shared no-op context manager when tracing is off; no buffer lookup,
  no clock read, no allocation beyond the call itself.
* **Recording is allocation-light.**  Events are stored as tuples in a
  bounded ``deque`` per task; overflow drops the *oldest* events and
  counts the drop (never silently).
* **Cross-process mergeable.**  Timestamps are ``perf_counter_ns``
  readings plus a per-buffer wall-clock anchor, so buffers recorded in
  forked rank processes align with the parent's on one timeline (same
  host ⇒ same wall clock) when shipped back over the result channel.

Every phase is timed with the context manager::

    with tracer.span("halo.wait", pages=12):
        ...
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..runtime.task import current_task

__all__ = [
    "Tracer",
    "SpanBuffer",
    "global_tracer",
    "DEFAULT_CAPACITY",
]

#: Ring-buffer capacity per task.  65k events absorb thousands of steps
#: of the platform's per-step span rate; beyond that the oldest events
#: are dropped (and counted), keeping memory bounded on long runs.
DEFAULT_CAPACITY = 65536

#: Environment variable enabling tracing without touching code
#: (``REPRO_TRACE=1``); read once at import, consulted by
#: ``Platform(tracing=None)``.
TRACE_ENV_VAR = "REPRO_TRACE"


def env_tracing_default() -> bool:
    """Whether ``REPRO_TRACE`` asks for tracing (``1``/``true``/``yes``/``on``)."""
    return os.environ.get(TRACE_ENV_VAR, "").strip().lower() in (
        "1", "true", "yes", "on"
    )


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Thread identifier of the simulated-runtime task threads is the OMP
#: thread index (an int); auxiliary threads (e.g. the process backend's
#: receiver) use a string label instead.
ThreadId = Union[int, str]


class SpanBuffer:
    """Ring buffer of one task's span events (one per (rank, thread))."""

    __slots__ = ("rank", "thread", "events", "stack", "epoch_offset_ns", "dropped")

    def __init__(self, rank: int, thread: ThreadId, capacity: int) -> None:
        self.rank = rank
        self.thread = thread
        self.events: deque = deque(maxlen=capacity)
        #: Names of the currently-open synchronous spans on this task,
        #: innermost last — recorded into each event as its flamegraph
        #: path (``"processing;sweep"``).
        self.stack: List[str] = []
        #: Wall-clock anchor: adding this to a ``perf_counter_ns``
        #: reading yields an epoch-based nanosecond timestamp, which is
        #: what makes buffers from different processes line up.
        self.epoch_offset_ns = time.time_ns() - time.perf_counter_ns()
        self.dropped = 0

    def append(self, event: tuple) -> None:
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(event)


class _Span:
    """One live synchronous span (context manager)."""

    __slots__ = ("_buffer", "_name", "_attrs", "_t0")

    def __init__(self, buffer: SpanBuffer, name: str, attrs: Optional[dict]) -> None:
        self._buffer = buffer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._buffer.stack.append(self._name)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> None:
        t1 = time.perf_counter_ns()
        buffer = self._buffer
        path = ";".join(buffer.stack)
        buffer.stack.pop()
        buffer.append(("X", self._name, path, self._t0, t1 - self._t0, self._attrs))


class Tracer:
    """Thread-safe registry of per-task span buffers for one process.

    The tracer is *disabled* by default: every :meth:`span` call then
    reduces to one attribute check.  The
    Platform driver enables it for the duration of a traced run and
    snapshots the buffers into the :class:`~repro.annotation.driver.PlatformRun`.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.enabled = False
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._buffers: Dict[Tuple[int, ThreadId], SpanBuffer] = {}
        #: Events merged in from other processes (already dict-shaped,
        #: epoch-aligned); appended by :meth:`merge_events`.
        self._merged: List[dict] = []

    # -- lifecycle ------------------------------------------------------
    def set_enabled(self, enabled: bool) -> None:
        self.enabled = bool(enabled)

    def reset(self) -> None:
        """Drop every buffer and merged event (start of a traced run)."""
        with self._lock:
            self._buffers.clear()
            self._merged.clear()

    # -- recording ------------------------------------------------------
    def buffer_for(
        self, rank: Optional[int] = None, thread: Optional[ThreadId] = None
    ) -> SpanBuffer:
        """The (creating if needed) buffer of ``(rank, thread)``.

        Defaults come from the calling thread's task context, so span
        call sites never need to know which rank they run on.
        """
        if rank is None or thread is None:
            task = current_task()
            if rank is None:
                rank = task.mpi_rank
            if thread is None:
                thread = task.omp_thread
        key = (rank, thread)
        buffer = self._buffers.get(key)
        if buffer is None:
            with self._lock:
                buffer = self._buffers.get(key)
                if buffer is None:
                    buffer = SpanBuffer(rank, thread, self.capacity)
                    self._buffers[key] = buffer
        return buffer

    def span(self, name: str, **attrs: Any):
        """Context manager timing a synchronous phase on the current task."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self.buffer_for(), name, attrs or None)

    def span_at(self, name: str, rank: int, thread: ThreadId, **attrs: Any):
        """Like :meth:`span`, but on an explicit (rank, thread) track.

        For threads with no task context of their own — e.g. the process
        backend's receiver thread, whose serve spans belong on its
        rank's ``"recv"`` track, not on the defaulted serial task.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self.buffer_for(rank, thread), name, attrs or None)

    # -- snapshot / merge -----------------------------------------------
    def snapshot(self) -> List[dict]:
        """Every recorded event as an epoch-aligned dict (pickle-safe).

        Keys: ``ph`` (``"X"``, a complete span), ``name``, ``ts_ns``
        (epoch ns), ``dur_ns``, the flamegraph ``path``, ``rank``,
        ``thread``, ``args``.
        """
        with self._lock:
            buffers = list(self._buffers.values())
            merged = list(self._merged)
        out: List[dict] = []
        for buffer in buffers:
            offset = buffer.epoch_offset_ns
            rank, thread = buffer.rank, buffer.thread
            for _, name, path, t0, dur, attrs in list(buffer.events):
                out.append({
                    "ph": "X", "name": name, "path": path,
                    "ts_ns": t0 + offset, "dur_ns": dur,
                    "rank": rank, "thread": thread, "args": attrs,
                })
        out.extend(merged)
        out.sort(key=lambda e: e["ts_ns"])
        return out

    def merge_events(self, events: Iterable[dict]) -> None:
        """Fold another process's snapshot in (process-backend ranks)."""
        events = list(events)
        if not events:
            return
        with self._lock:
            self._merged.extend(events)

    def dropped_events(self) -> int:
        """Total events dropped to ring-buffer overflow across all tasks."""
        with self._lock:
            return sum(b.dropped for b in self._buffers.values())


#: Process-wide tracer.  The Platform driver enables/resets it around
#: traced runs; forked rank processes inherit the enabled flag and ship
#: their buffers back over the result channel.
_GLOBAL = Tracer()


def global_tracer() -> Tracer:
    """Return the process-wide span tracer."""
    return _GLOBAL
