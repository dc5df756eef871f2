"""Execution tracing: per-task counters feeding the cost model and reports.

The paper's evaluation relies on measurements of a real cluster.  Our
substitute collects, for every task of a simulated run, the quantities
that determine performance on such a cluster:

* how many element updates the task performed,
* how many pages/bytes it pulled from other tasks (and how many
  messages that corresponds to),
* how many refresh rounds failed (forcing recomputation).

Env searches and MMAT hits are counted per Env, by
:class:`repro.memory.EnvStats`.

The :class:`repro.runtime.costmodel.CostModel` converts these counters
into modelled wall-clock times for the scaling figures, and the
benchmark harness prints them alongside measured Python wall-clock for
the single-task overhead figure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .task import TaskContext, current_task

__all__ = ["TaskCounters", "TraceRecorder", "global_trace"]


@dataclass
class TaskCounters:
    """Counters of one task (one rank/thread pair) during one run."""

    updates: int = 0
    steps: int = 0
    recomputed_steps: int = 0
    pages_fetched: int = 0
    bytes_fetched: int = 0
    messages: int = 0
    collectives: int = 0
    #: Steady-state ("productive") work and traffic: the deltas accumulated by
    #: the *successful* attempt of each step only, excluding warm-up passes
    #: and re-executed failed attempts.  The paper's scaling figures measure
    #: long runs where warm-up is amortised away, so the cost model prefers
    #: these when they are non-zero.
    productive_updates: int = 0
    productive_bytes: int = 0
    productive_messages: int = 0
    #: The halo pages the paper's prototype would fetch — one request/reply
    #: pair each — at the successful non-warm-up refreshes, and their
    #: payload bytes: the Dry-run record united with the compiled plans'
    #: halo pages.  The scaling figures model this traffic, whatever
    #: protocol moved the halo.
    paper_pages: int = 0
    paper_bytes: int = 0
    #: Access-plan activity (MMAT §III-B6 pushed into compiled bulk
    #: gathers): how many element accesses compiled plans served, how
    #: many plans were compiled, and how many batched accesses fell back
    #: to the scalar path (MMAT disabled or plan invalidated mid-run).
    #: How many plans executed is ``MMAT.stats()["plan_executions"]``.
    plan_sites: int = 0
    plan_compiles: int = 0
    #: Per-call plan compiles for uncached ``gather_global`` (no ``key=``):
    #: recompiled every call by design, tracked apart from ``plan_compiles``
    #: so plan-coverage numbers are not skewed by dynamic address tables.
    plan_compiles_uncached: int = 0
    plan_fallback_sites: int = 0
    #: Fused-kernel activity (plan + fn bound into one kernel): how
    #: many fusions were built and how many sweeps ran
    #: through a fused kernel instead of the gather/apply/scatter path.
    kernel_fuse: int = 0
    kernel_fused_calls: int = 0
    #: Halo completion: the time spent blocked in ``CommHandle.wait`` by
    #: every halo exchange the refresh advice waited for (ns) — page
    #: exchanges and published slots alike.  ``halo_pushes`` /
    #: ``halo_sites`` count the slots this task copied out and the element
    #: rows they carried (each slot one message of its bytes in
    #: ``messages`` / ``bytes_fetched``) — over the run they equal what
    #: the owners' ``NetworkStats`` published.
    halo_pushes: int = 0
    halo_sites: int = 0
    halo_wait_ns: int = 0
    #: Resilience activity: epoch checkpoints saved.
    checkpoints: int = 0
    #: Qualitative access pattern of the workload ('contiguous'|'random'|'bucketed')
    #: recorded by the DSL layer, consumed by the shared-memory contention model.
    access_pattern: str = "contiguous"
    bytes_per_update: int = 40

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class TraceRecorder:
    """Thread-safe registry of per-task counters for one platform run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[int, int], TaskCounters] = {}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self._counters.clear()

    def for_task(self, task: Optional[TaskContext] = None) -> TaskCounters:
        """Return (creating if needed) the counters of ``task`` (default: current)."""
        task = task or current_task()
        key = (task.mpi_rank, task.omp_thread)
        with self._lock:
            counters = self._counters.get(key)
            if counters is None:
                counters = TaskCounters()
                self._counters[key] = counters
            return counters

    def all_counters(self) -> Dict[Tuple[int, int], TaskCounters]:
        with self._lock:
            return dict(self._counters)

    def merge_counters(self, counters: Dict[Tuple[int, int], TaskCounters]) -> None:
        """Fold another recorder's counters in (process-backend rank results).

        Numeric fields are added.  Descriptive fields (access pattern,
        bytes per update) are *not* additive: they are set once by the
        DSL layer that ran the task, so the merge keeps the first value
        that differs from the dataclass default instead of letting
        whichever rank merges last clobber an already-recorded profile
        with its default.
        """
        descriptive = {
            "access_pattern": TaskCounters.access_pattern,
            "bytes_per_update": TaskCounters.bytes_per_update,
        }
        with self._lock:
            for key, incoming in counters.items():
                mine = self._counters.get(key)
                if mine is None:
                    self._counters[key] = incoming
                    continue
                for attr, value in incoming.as_dict().items():
                    if attr in descriptive:
                        if getattr(mine, attr) == descriptive[attr]:
                            setattr(mine, attr, value)
                    else:
                        setattr(mine, attr, getattr(mine, attr) + value)


#: Process-wide recorder.  The Platform driver resets it at the start of
#: every run and snapshots it at the end, so independent runs do not mix.
_GLOBAL = TraceRecorder()


def global_trace() -> TraceRecorder:
    """Return the process-wide trace recorder."""
    return _GLOBAL
