"""Simulated distributed-memory runtime ("MPI layer").

The distributed-memory aspect module (:mod:`repro.aspects.mpi_aspect`)
needs a runtime that can

* run the *whole end-user program* once per rank (SPMD), each rank with
  its own Env replica (paper Fig. 2b/2c),
* let ranks agree whether a step's ``refresh`` globally succeeded,
* move pages between ranks, and
* map "the Block at logical position X" to the concrete Block object of
  whichever rank owns it.

:class:`MPIWorld` provides all four on top of the in-memory
:class:`~repro.runtime.network.SimNetwork`.  Each rank executes on its
own OS thread; the GIL prevents real speed-up, which is irrelevant
because scaling numbers come from the cost model, not wall-clock
(:mod:`repro.runtime.costmodel`; README.md, *Execution backends*).

MPIWorld is the ``threads`` backend of the execution-backend registry
(:mod:`repro.runtime.backends`), a world of two ranks or more (a world
of one is the ``serial`` one); the ``process`` backend provides the
same world contract on real forked processes.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from .backends.base import (
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
from .errors import InjectedFault, NetworkError, TaskError
from .network import NetworkStats, SimNetwork
from .shm import ControlWords, spin_until
from .task import TaskContext, current_task, task_scope

__all__ = ["BlockDirectory", "MPIWorld", "RankResult"]


class BlockDirectory:
    """Cross-rank registry: logical block key -> (owner rank, per-rank block ids).

    DSL layers give every Data Block a *logical key* (for the grids this
    is the block's origin in units of blocks) that is identical on every
    rank.  The directory lets the communication advice translate a local
    Buffer-only Block's page into the owning rank's Data Block page.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._owner: Dict[Any, int] = {}
        self._block_ids: Dict[Tuple[Any, int], int] = {}

    def register(self, logical_key: Any, rank: int, block_id: int, *, owner: bool) -> None:
        """Record that ``rank`` materialised ``logical_key`` as ``block_id``."""
        with self._lock:
            self._block_ids[(logical_key, rank)] = block_id
            if owner:
                existing = self._owner.get(logical_key)
                if existing is not None and existing != rank:
                    raise NetworkError(
                        f"block {logical_key!r} claimed by ranks {existing} and {rank}"
                    )
                self._owner[logical_key] = rank

    def owner_of(self, logical_key: Any) -> int:
        with self._lock:
            try:
                return self._owner[logical_key]
            except KeyError:
                raise NetworkError(f"no owner registered for block {logical_key!r}") from None

    def block_id_on(self, logical_key: Any, rank: int) -> int:
        with self._lock:
            try:
                return self._block_ids[(logical_key, rank)]
            except KeyError:
                raise NetworkError(
                    f"block {logical_key!r} not materialised on rank {rank}"
                ) from None

    def known_blocks(self) -> List[Any]:
        with self._lock:
            return list(self._owner)

    def owners(self) -> Dict[Any, int]:
        """Snapshot of the full ``logical_key -> owner rank`` map.

        The recovery layer reads this post-mortem to learn which blocks
        the dead rank owned and in what order the survivors should deal
        them out again.
        """
        with self._lock:
            return dict(self._owner)


class MPIWorld(ExecutionWorld):
    """One simulated MPI world: ranks, network, block directory."""

    backend_name = "threads"

    def __init__(self, size: int, *, timeout: float = 60.0) -> None:
        if size < 2:
            raise TaskError(
                f"a 'threads' world needs at least two ranks (requested {size}); "
                "create_world() gives a world of one the serial world"
            )
        self.size = size
        self.network = SimNetwork(size, timeout=timeout)
        self.directory = BlockDirectory()
        #: Env registered by each rank (also the network endpoint).
        self.rank_envs: Dict[int, Any] = {}
        # Rank threads share one address space: the control words and
        # the halo slots of the publish protocol are plain arrays.
        self._offer_slots(ControlWords(size))

    # ------------------------------------------------------------------
    def register_env(self, rank: int, env: Any) -> None:
        """Attach a rank's Env replica as its communication endpoint."""
        self.rank_envs[rank] = env
        self.network.register_endpoint(rank, env)

    def register_block(self, logical_key: Any, rank: int, block_id: int, *, owner: bool) -> None:
        """Record a rank's materialisation of ``logical_key`` (shared directory)."""
        self.directory.register(logical_key, rank, block_id, owner=owner)

    def commit_registration(self) -> None:
        """Close the registration phase.

        The directory is shared between the rank threads, so committing
        is just the barrier that keeps any rank from computing before
        every rank finished registering.
        """
        if self.fault_plan is not None:
            self.fault_point(current_task().mpi_rank, "register")
        self.network.barrier()

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def install_fault_plan(self, plan: Any) -> None:
        super().install_fault_plan(plan)
        # Reply faults (delay/drop/corrupt) act in the page-serving path.
        self.network.fault_plan = plan

    def _execute_kill(self, fault: Any, rank: int) -> None:
        # Mark the rank dead *before* raising so peers blocked in (or
        # arriving at) collectives fail fast instead of waiting out the
        # full communication timeout.
        self.network.mark_dead(rank, str(fault))
        raise InjectedFault(rank, str(fault))

    # ------------------------------------------------------------------
    # collectives (delegated to the simulated interconnect)
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        self.network.barrier()

    def allreduce(self, value: Any, op: Callable[[List[Any]], Any]) -> Any:
        if op is and_bits and self.control is not None:
            # The per-step agreement: shared words, no messages.
            network = self.network
            network._raise_if_dead()
            with network._lock:
                network.stats.allreduces += 1
            return self._agree(current_task().mpi_rank, value)
        return self.network.allreduce(value, op)

    # ------------------------------------------------------------------
    # halo slots (publish protocol)
    # ------------------------------------------------------------------
    def _halo_wait(self, ready, late, behind):
        network = self.network
        timeout = threading.TIMEOUT_MAX if network.timeout is None else network.timeout
        # No busy spinning: the awaited rank needs the GIL to get there.
        return spin_until(ready, timeout=timeout, late=late, poll=network._raise_if_dead)

    def open_halo_link(
        self, owner: int, consumer: int, *, nbytes: int = 0, descriptor: Any = None
    ) -> HaloLink:
        # The descriptor of a slot between threads is the slot itself.
        slot = np.empty(nbytes, dtype=np.uint8) if descriptor is None else descriptor
        return HaloLink(owner, consumer, slot, slot)

    def stats_of(self, rank: int) -> NetworkStats:
        return self.network.stats

    # ------------------------------------------------------------------
    def fetch_pages_bulk_async(
        self, requester: int, requests: Sequence[Tuple[Any, int]]
    ) -> CommHandle:
        """Batched fetch, served at issue: one network exchange per owning rank.

        Rank threads share the GIL, so a background transfer would hide
        nothing; the one-sided reads happen here, after the step barrier
        that orders them, and the handle returned is already complete.
        """
        result = BulkFetchResult()
        for owner, items in sorted(group_requests_by_owner(self.directory, requests).items()):
            datas = self.network.fetch_pages(
                requester, owner, [(block_id, page) for _, page, block_id in items]
            )
            result.pages.extend(
                (logical_key, page, data)
                for (logical_key, page, _), data in zip(items, datas)
            )
            result.exchanges += 1
            result.nbytes += sum(int(d.nbytes) for d in datas)
        return CompletedCommHandle(result)

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

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Tear the world down (idempotent).

        Releases every rank's Env replica and the network's endpoint
        registry: a long-lived process running many platform
        configurations back to back must not accumulate one full set of
        Env replicas (pools, pages, MMAT memos) per finished run.
        Traffic statistics survive so post-run reporting keeps working.
        """
        self.rank_envs.clear()
        self.network.release_endpoints()
        self.finalized = True

    def traffic_summary(self) -> dict:
        """Network counters, consumed by the scaling benchmarks."""
        return self.network.stats.as_dict()
