"""Simulated distributed-memory runtime ("MPI layer").

The distributed-memory aspect module (:mod:`repro.aspects.mpi_aspect`)
needs a runtime that can

* run the *whole end-user program* once per rank (SPMD), each rank with
  its own Env replica (paper Fig. 2b/2c),
* let ranks agree whether a step's ``refresh`` globally succeeded,
* move pages between ranks, and
* map "the Block at logical position X" to the concrete Block object of
  whichever rank owns it.

:class:`MPIWorld` provides all four in one address space.  Each rank
executes on its own OS thread; collectives are a ``threading.Barrier``
and a reduction under one condition, a page fetch reads the owner's
Env directly (one-sided, like MPI RMA ``Get``), and every message and
byte is counted in the world's
:class:`~repro.runtime.network.NetworkStats`.  The GIL prevents real
speed-up, which is irrelevant because scaling numbers come from the
cost model, not wall-clock (:mod:`repro.runtime.costmodel`; README.md,
*Execution backends*).

MPIWorld is the ``threads`` backend of the execution-backend registry
(:mod:`repro.runtime.backends`), a world of two ranks or more (a world
of one is the ``serial`` one); the ``process`` backend provides the
same world contract on real forked processes.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .backends.base import (
    _ACCOUNT_LOCK,
    BulkFetchResult,
    CommHandle,
    CompletedCommHandle,
    ExecutionWorld,
    HaloLink,
    RankResult,
    and_bits,
    group_requests_by_owner,
    raise_spmd_failures,
)
from .errors import CollectiveError, DeadRankError, InjectedFault, NetworkError, TaskError
from .shm import ControlWords, spin_until
from .task import TaskContext, current_task, task_scope

__all__ = ["MPIWorld", "RankResult"]


class MPIWorld(ExecutionWorld):
    """One simulated MPI world: rank threads sharing one address space."""

    backend_name = "threads"

    def __init__(self, size: int, *, timeout: float = 60.0) -> None:
        if size < 2:
            raise TaskError(
                f"a 'threads' world needs at least two ranks (requested {size}); "
                "create_world() gives a world of one the serial world"
            )
        super().__init__(size, timeout=timeout)
        #: Guards the dead set and the reduction in progress; notified when
        #: a reduction completes or a rank dies.  The counters, which all
        #: ranks share, are guarded by the accounting lock of the base.
        self._cond = threading.Condition()
        self._barrier = threading.Barrier(size)
        #: Ranks declared dead (rank -> reason).  A wait that still misses
        #: one of them fails fast with :class:`DeadRankError` instead of
        #: blocking until the timeout.
        self._dead: Dict[int, str] = {}
        #: The reduction in progress: each rank's contribution by rank.
        self._contributions: Dict[int, Any] = {}
        self._reduced: Any = None
        self._generation = 0
        # Rank threads share one address space: the control words and
        # the halo slots of the publish protocol are plain arrays.
        self._offer_slots(ControlWords(size))

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def mark_dead(self, rank: int, reason: str = "") -> None:
        """Declare ``rank`` dead and wake every blocked waiter.

        The barrier is aborted (everyone inside or arriving later gets a
        ``BrokenBarrierError`` converted in :meth:`_sync`) and the
        reduction's waiters are notified so they re-check and fail fast —
        peers detect the death immediately instead of burning the full
        communication timeout.
        """
        self._check_rank(rank)
        with self._cond:
            self._dead[rank] = reason or "marked dead"
            self._cond.notify_all()
        self._barrier.abort()

    def _execute_kill(self, fault: Any, rank: int) -> None:
        # Mark the rank dead *before* raising so peers blocked in (or
        # arriving at) collectives fail fast instead of waiting out the
        # full communication timeout.
        self.mark_dead(rank, str(fault))
        raise InjectedFault(rank, str(fault))

    def _raise_if_dead(self, ranks: Optional[Iterable[int]] = None, what: str = "") -> None:
        """Raise :class:`DeadRankError` naming the lowest dead rank among
        ``ranks`` — the ranks a wait still misses; every rank by default."""
        if not self._dead:
            return
        with self._cond:
            dead = sorted(self._dead if ranks is None else set(ranks) & self._dead.keys())
            if dead:
                raise DeadRankError(dead[0], what + self._dead[dead[0]])

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        self._sync()

    def _sync(self) -> None:
        """The barrier of :meth:`barrier` and :meth:`commit_registration`."""
        with _ACCOUNT_LOCK:
            self.stats.barriers += 1
        self._raise_if_dead()
        try:
            self._barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError as exc:
            self._raise_if_dead(what="barrier aborted: ")
            raise CollectiveError("barrier broken (a rank died or timed out)") from exc

    def commit_registration(self) -> None:
        """Close the registration phase.

        The directory is shared between the rank threads, so committing
        is just the barrier that keeps any rank from computing before
        every rank finished registering.
        """
        if self.fault_plan is not None:
            self.fault_point(current_task().mpi_rank, "register")
        self._sync()

    def allreduce(self, value: Any, op: Callable[[List[Any]], Any]) -> Any:
        rank = current_task().mpi_rank
        if op is and_bits and self.control is not None:
            # The per-step agreement: shared words, no messages.
            with _ACCOUNT_LOCK:
                self.stats.allreduces += 1
            return self._agree(rank, value)
        with _ACCOUNT_LOCK:
            self.stats.allreduces += 1
            self.stats.messages += (self.size - 1) * 2
        with self._cond:
            generation = self._generation
            self._contributions[rank] = value
            if len(self._contributions) == self.size:
                contributions, self._contributions = self._contributions, {}
                self._reduced = op([contributions[r] for r in range(self.size)])
                self._generation += 1
                self._cond.notify_all()
                return self._reduced
            deadline = time.monotonic() + self.timeout
            while self._generation == generation:
                self._raise_if_dead(
                    (r for r in range(self.size) if r not in self._contributions),
                    "allreduce will never complete: ",
                )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CollectiveError("allreduce timed out")
                self._cond.wait(remaining)
            return self._reduced

    # ------------------------------------------------------------------
    # halo slots (publish protocol)
    # ------------------------------------------------------------------
    def _halo_wait(self, ready, late, behind):
        def poll() -> None:
            # Only the ranks the wait still misses can fail it: a rank
            # that stored its word and died later fails nobody else.
            if self._dead:
                self._raise_if_dead(behind())

        # No busy spinning: the awaited rank needs the GIL to get there.
        return spin_until(ready, timeout=self.timeout, late=late, poll=poll)

    def open_halo_link(
        self, owner: int, consumer: int, *, nbytes: int = 0, descriptor: Any = None
    ) -> HaloLink:
        # The descriptor of a slot between threads is the slot itself.
        slot = np.empty(nbytes, dtype=np.uint8) if descriptor is None else descriptor
        return HaloLink(owner, consumer, slot, slot)

    # ------------------------------------------------------------------
    # one-sided page access
    # ------------------------------------------------------------------
    def fetch_pages_bulk_async(
        self, requester: int, requests: Sequence[Tuple[Any, int]]
    ) -> CommHandle:
        """Batched fetch, served at issue: one exchange per owning rank.

        Each owner's pages are read straight out of its Env — safe,
        because owners never mutate their *read* buffers between the
        synchronisation points of the refresh protocol — and the batch
        is accounted as one request/reply pair (a manifest out, every
        page back).  Rank threads share the GIL, so a background transfer
        would hide nothing: the handle returned is already complete.
        """
        from ..memory.page import PageKey  # local import to avoid a cycle

        result = BulkFetchResult()
        for owner, items in sorted(
            group_requests_by_owner(self.directory, requests, requester).items()
        ):
            self._raise_if_dead((owner,), f"bulk page fetch by rank {requester}: ")
            self._apply_reply_fault(owner, requester)
            env = self.env_of(owner)
            datas = [env.page_snapshot(PageKey(block_id, page)) for _, page, block_id in items]
            payload_bytes = sum(int(d.nbytes) for d in datas)
            with _ACCOUNT_LOCK:
                self.stats.record_bulk(requester, owner, len(datas), payload_bytes)
            result.pages.extend(
                (logical_key, page, data) for (logical_key, page, _), data in zip(items, datas)
            )
            result.exchanges += 1
            result.nbytes += payload_bytes
        return CompletedCommHandle(result)

    def _apply_reply_fault(self, owner: int, requester: int) -> None:
        """Consume one scheduled reply fault on the owner→requester reply.

        The fetch is one-sided (no real wire), so a dropped reply
        surfaces as the timeout the requester would eventually hit and a
        corrupted reply as the integrity-check rejection the process
        transport performs — both as :class:`NetworkError`, immediately.
        """
        plan = self.fault_plan
        if plan is None:
            return
        fault = plan.take_reply(owner, requester)
        if fault is None:
            return
        if fault.kind == "delay_reply":
            time.sleep(fault.seconds)
        elif fault.kind == "drop_reply":
            raise NetworkError(
                f"injected fault dropped the page reply {owner}->{requester}; "
                "requester timed out"
            )
        elif fault.kind == "corrupt_reply":
            raise NetworkError(
                f"page reply {owner}->{requester} failed its integrity check "
                "(injected corruption)"
            )

    # ------------------------------------------------------------------
    def run_spmd(
        self, body: Callable[[TaskContext], Any], *, omp_threads: int = 1
    ) -> List[RankResult]:
        """Execute ``body`` once per rank (SPMD).

        ``body`` receives the rank's :class:`TaskContext`; every rank
        runs on its own OS thread so that blocking collectives work.
        """
        results = [RankResult(rank=r) for r in range(self.size)]

        def rank_main(rank: int) -> None:
            context = TaskContext(
                mpi_rank=rank, mpi_size=self.size, omp_thread=0, omp_threads=omp_threads
            )
            try:
                with task_scope(context):
                    results[rank].value = body(context)
            except BaseException as exc:  # noqa: BLE001 - propagated below
                results[rank].error = exc

        threads = [
            threading.Thread(
                target=rank_main, args=(rank,), name=f"sim-mpi-rank-{rank}", daemon=True
            )
            for rank in range(self.size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        raise_spmd_failures(results)
        return results
