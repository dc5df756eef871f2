"""Analytic cost model converting measured work/traffic into modelled time.

The scaling evaluation of the paper (Figs. 7–11) measures wall-clock on
a real cluster.  Our substitute executes the platform on the simulated
runtime — which produces *exact* per-task counts of element updates,
pages fetched, bytes moved and synchronisation rounds — and then this
module converts those counts into a modelled execution time on a
:class:`~repro.runtime.machine.MachineSpec`.

The model is intentionally simple and is documented term by term:

``T_task = compute + contention + communication + synchronisation``

* ``compute``        = updates × seconds_per_update (× random-access penalty)
* ``contention``     = shared-memory slowdown when several threads of one
                       node stream memory at once: the task's streamed bytes
                       divided by its *share* of the node memory bandwidth,
                       plus a per-thread cache-thrash term (Fig. 10's effect)
* ``communication``  = messages × latency + bytes ÷ network bandwidth
                       (only the distributed layer moves bytes); where the
                       run counted the pages the paper's per-page protocol
                       would move (``paper_pages``), 2 × those pages ×
                       latency + their bytes ÷ bandwidth
* ``synchronisation``= collective entries × barrier cost × participants

and the run's modelled time is ``max`` over tasks plus the one-off layer
initialisation costs.  The same instance (same constants) is used for
every figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .machine import MachineSpec, OAKBRIDGE_CX_LIKE
from .tracing import TaskCounters
from .errors import MachineModelError

__all__ = ["CostBreakdown", "CostModel"]


@dataclass
class CostBreakdown:
    """Per-run modelled time split into its components (seconds)."""

    compute: float = 0.0
    contention: float = 0.0
    communication: float = 0.0
    synchronisation: float = 0.0
    runtime_init: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.compute
            + self.contention
            + self.communication
            + self.synchronisation
            + self.runtime_init
        )

    def as_dict(self) -> dict:
        data = dict(self.__dict__)
        data["total"] = self.total
        return data


class CostModel:
    """Converts per-task :class:`TaskCounters` into modelled wall-clock."""

    def __init__(self, machine: MachineSpec = OAKBRIDGE_CX_LIKE) -> None:
        self.machine = machine

    # ------------------------------------------------------------------
    def task_time(
        self,
        counters: TaskCounters,
        *,
        mpi_size: int,
        omp_threads: int,
    ) -> CostBreakdown:
        """Modelled time of one task within a (mpi_size × omp_threads) run."""
        if mpi_size < 1 or omp_threads < 1:
            raise MachineModelError("layer sizes must be >= 1")
        machine = self.machine
        breakdown = CostBreakdown()

        # Prefer the steady-state ("productive") counters when present: the
        # paper's measurements are dominated by the long step loop, not by the
        # warm-up pass or by re-executed failed steps.
        updates = counters.productive_updates or counters.updates
        bytes_fetched = counters.productive_bytes or counters.bytes_fetched
        messages = counters.productive_messages or counters.messages
        if counters.paper_pages:
            # The halo the paper's prototype moves: a request/reply pair
            # per page, whatever protocol this run moved it by.
            messages = 2 * counters.paper_pages
            bytes_fetched = counters.paper_bytes

        # -- compute -----------------------------------------------------
        per_update = machine.update_cost(counters.access_pattern)
        breakdown.compute = updates * per_update

        # -- shared-memory contention -------------------------------------
        threads_on_node = min(omp_threads, machine.cores_per_node)
        if threads_on_node > 1 and updates:
            streamed_bytes = updates * counters.bytes_per_update
            fair_share = machine.memory_bandwidth / threads_on_node
            full_share = machine.memory_bandwidth
            # Extra time caused by having only 1/threads of the bandwidth
            # compared with owning the whole node.
            breakdown.contention += streamed_bytes * (1.0 / fair_share - 1.0 / full_share)
            # Cache-thrash term: each additional concurrently-streaming
            # thread evicts a fraction of this task's working set.
            thrash = machine.thrash_factor(counters.access_pattern)
            breakdown.contention += (
                updates * per_update * thrash * (threads_on_node - 1)
            )

        # -- communication -------------------------------------------------
        if messages or bytes_fetched:
            breakdown.communication = (
                messages * machine.network_latency
                + bytes_fetched / machine.network_bandwidth
            )

        # -- synchronisation ------------------------------------------------
        participants = mpi_size * omp_threads
        if participants > 1:
            breakdown.synchronisation = (
                counters.collectives * machine.barrier_cost * participants ** 0.5
            )
        return breakdown

    # ------------------------------------------------------------------
    def run_time(
        self,
        counters_by_task: Mapping[Tuple[int, int], TaskCounters],
        *,
        mpi_size: int,
        omp_threads: int,
        include_init: bool = True,
    ) -> CostBreakdown:
        """Modelled makespan of a whole run: slowest task + one-off init costs."""
        if not counters_by_task:
            raise MachineModelError("cost model needs at least one task's counters")
        slowest: Optional[CostBreakdown] = None
        for counters in counters_by_task.values():
            breakdown = self.task_time(
                counters, mpi_size=mpi_size, omp_threads=omp_threads
            )
            if slowest is None or breakdown.total > slowest.total:
                slowest = breakdown
        assert slowest is not None
        if include_init:
            machine = self.machine
            if mpi_size > 1:
                slowest.runtime_init += machine.mpi_init_cost
            if omp_threads > 1:
                slowest.runtime_init += machine.thread_spawn_cost
        return slowest

    # ------------------------------------------------------------------
    def relative_to_baseline(
        self,
        runs: Dict[str, CostBreakdown],
        baseline: str,
    ) -> Dict[str, float]:
        """Express each run's total as a fraction of ``runs[baseline]``.

        Matches how the paper normalises its scaling graphs ("execution
        times are normalised so that the time by one task becomes
        unity" / "100 %").
        """
        if baseline not in runs:
            raise MachineModelError(f"baseline run {baseline!r} missing")
        base = runs[baseline].total
        if base <= 0:
            raise MachineModelError("baseline run has non-positive modelled time")
        return {name: breakdown.total / base for name, breakdown in runs.items()}
