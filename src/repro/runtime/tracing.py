"""Execution tracing: per-task counts feeding the cost model and reports.

The paper's evaluation relies on measurements of a real cluster.  Our
substitute counts, for every task of a simulated run, the work that
determines performance on such a cluster: element updates, the halo
pages the paper's prototype would fetch, collectives entered, steps
re-executed.  Each fact is counted in one place: the bytes and messages
a world moved are :class:`repro.runtime.network.NetworkStats`' (one per
world, ``PlatformRun.network``), Env searches and MMAT hits are
:class:`repro.memory.EnvStats`', and what describes the application
rather than its run (access pattern, bytes per update) is the app's.

The :class:`repro.runtime.costmodel.CostModel` converts these counters
into modelled wall-clock times for the scaling figures, and the
benchmark harness prints them alongside measured Python wall-clock for
the single-task overhead figure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .task import TaskContext, current_task

__all__ = ["TaskCounters", "TraceRecorder", "global_trace"]


@dataclass
class TaskCounters:
    """Counters of one task (one rank/thread pair) during one run."""

    updates: int = 0
    steps: int = 0
    recomputed_steps: int = 0
    #: Halo pages this task installed from page exchanges.
    pages_fetched: int = 0
    collectives: int = 0
    #: Steady-state ("productive") work: the updates of the *successful*
    #: attempt of each step only, excluding warm-up passes and re-executed
    #: failed attempts.  The paper's scaling figures measure long runs
    #: where warm-up is amortised away, so the cost model prefers it when
    #: it is non-zero.
    productive_updates: int = 0
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
    #: exchanges and published slots alike.  ``halo_pushes`` counts the
    #: slots this task copied out: over the run, what the owners'
    #: ``NetworkStats`` published.
    halo_pushes: int = 0
    halo_wait_ns: int = 0
    #: Resilience activity: epoch checkpoints saved.
    checkpoints: int = 0

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
        """Fold another recorder's counters in (process-backend rank
        results): every field is a count, so they add."""
        with self._lock:
            for key, incoming in counters.items():
                mine = self._counters.get(key)
                if mine is None:
                    self._counters[key] = incoming
                    continue
                for attr, value in incoming.as_dict().items():
                    setattr(mine, attr, getattr(mine, attr) + value)


#: Process-wide recorder.  The Platform driver resets it at the start of
#: every run and snapshots it at the end, so independent runs do not mix.
_GLOBAL = TraceRecorder()


def global_trace() -> TraceRecorder:
    """Return the process-wide trace recorder."""
    return _GLOBAL
