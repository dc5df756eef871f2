"""Shared-memory aspect module (the paper's "aspect of OpenMP").

"In the aspect of OpenMP, the starting tasks Advices is performed
before Processing as AspectType I.  Moreover, AspectType III is not
implemented because OpenMP is a shared-memory parallel system."
(§IV-A)

Concretely this module provides:

* **AspectType I** — around ``Processing``: create a
  :class:`~repro.runtime.simomp.ThreadTeam` and run the processing body
  once per team member, all sharing the application instance and its
  Env (the paper's "tasks share the Env [to] save the memory usage").
* **AspectType II** — around ``Env.get_blocks``: keep only the Blocks
  whose ``ch_tid`` equals the calling thread's global task id.
* **AspectType III** — intentionally absent (shared memory).  The only
  refresh involvement is making the buffer swap happen exactly once per
  team step (an OpenMP ``single`` with its implicit barriers); the
  warm-up's MMAT reset of the shared Env is a ``single`` likewise.

Pointcuts are declared in the textual pointcut language
(``"tagged('platform.processing')"``), the Python analogue of
AspectC++'s string match expressions.
"""

from __future__ import annotations

from typing import Optional

from ..aop.advice import around
from ..runtime.simomp import ThreadTeam
from ..runtime.task import current_task
from ..runtime.tracing import global_trace
from .base import LayerAspect

__all__ = ["SharedMemoryAspect"]


class SharedMemoryAspect(LayerAspect):
    """Aspect module managing the shared-memory (OpenMP-like) layer."""

    layer = "omp"
    #: Precedence: *outside* the distributed-memory aspect so that team
    #: members funnel through the ``single`` construct before the rank-level
    #: collective protocol runs (exactly one participant per rank).
    order = 10

    def __init__(self, threads: int = 1) -> None:
        super().__init__(parallelism=threads)
        #: One team per rank; keyed by mpi rank because in hybrid runs the
        #: same aspect instance serves every rank's threads.
        self._teams: dict[int, ThreadTeam] = {}

    # ------------------------------------------------------------------
    def team(self) -> Optional[ThreadTeam]:
        """The calling rank's thread team (None outside a parallel region)."""
        return self._teams.get(current_task().mpi_rank)

    # ------------------------------------------------------------------
    # AspectType I — control of the runtime and tasks
    # ------------------------------------------------------------------
    @around("tagged('platform.processing')", order=0)
    def start_tasks(self, jp):
        """Spawn the shared-memory task team and run Processing on every member."""
        rank = current_task().mpi_rank
        team = ThreadTeam(self.parallelism, timeout=self.comm_timeout())
        self._teams[rank] = team
        processing = jp.continuation()
        try:
            team.parallel(lambda _ctx: processing())
        finally:
            self._teams.pop(rank, None)
        return None

    # ------------------------------------------------------------------
    # AspectType II — assigning Blocks to tasks
    # ------------------------------------------------------------------
    @around("tagged('memory.get_blocks')", order=0)
    def assign_blocks(self, jp):
        """Divide the Blocks allocated by the upper layer among the team."""
        blocks = jp.proceed()
        task = current_task()
        if task.omp_threads <= 1 or self.team() is None:
            return blocks
        my_tid = task.global_task_id
        return [b for b in blocks if b.ch_tid == my_tid]

    # ------------------------------------------------------------------
    # Refresh coordination (no data communication: shared memory)
    # ------------------------------------------------------------------
    @around("tagged('memory.refresh')", order=0)
    def synchronise_refresh(self, jp):
        """Perform the per-step refresh exactly once per team (OpenMP ``single``)."""
        team = self.team()
        if team is None or team.size <= 1:
            return jp.proceed()
        trace = global_trace().for_task()
        trace.collectives += 1
        proceed = jp.continuation()
        args, kwargs = jp.args, jp.kwargs
        return team.single(lambda: proceed(*args, **kwargs))

    @around("tagged('platform.forget_accesses')", order=0)
    def forget_accesses_once(self, jp):
        """Reset the shared Env's MMAT once per team (``single``): a late
        member would otherwise drop the plans an early one compiled."""
        team = self.team()
        if team is None or team.size <= 1:
            return jp.proceed()
        return team.single(jp.continuation())

    # ------------------------------------------------------------------
    def on_detach(self, platform) -> None:
        """Dissolve every rank's thread team when unwoven from a platform."""
        super().on_detach(platform)
        self._teams.clear()
