"""Rank recovery: diagnose dead ranks, re-partition, resume from checkpoints.

The :class:`RecoveryManager` owns the elastic run loop that replaces the
distributed-memory aspect's one-shot world lifecycle when a
:class:`ResiliencePolicy` is configured on the Platform:

1. create a world, install the fault plan, run the program SPMD;
2. on :class:`~repro.runtime.backends.base.SpmdFailure`, diagnose which
   ranks actually *died* (injected faults, dead pipes / nonzero exit
   codes) as opposed to merely seeing their peers' collectives fail;
3. shrink the world, re-partition the dead ranks' blocks onto the
   survivors (cost-model-driven, :mod:`repro.resilience.rebalance`),
   load the latest checkpoint epoch every rank completed, and run the
   program again — the woven :class:`~repro.resilience.checkpoint.
   CheckpointAspect` restores the pages after registration and
   fast-forwards the step loop to the resume epoch.

A failure with no diagnosable dead rank (e.g. a detected-but-unrecovered
corrupt reply) is re-raised unchanged: recovery only elides failures it
can actually repair.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..memory.zorder import morton_encode
from ..runtime.backends.base import SpmdFailure
from ..runtime.errors import DeadRankError, InjectedFault
from ..runtime.tracing import global_trace
from .checkpoint import DiskCheckpointStore, MemoryCheckpointStore, RankPages
from .rebalance import plan_recovery_ownership

__all__ = [
    "RecoveryEvent",
    "RecoveryManager",
    "ResiliencePolicy",
    "diagnose_dead_ranks",
]


@dataclass
class ResiliencePolicy:
    """Configuration of the elastic fault-tolerant run loop.

    ``store`` selects the checkpoint store: ``"auto"`` picks
    :class:`DiskCheckpointStore` for the process backend (forked children
    die with their memory; spool files survive) and
    :class:`MemoryCheckpointStore` otherwise; ``"memory"`` / ``"disk"``
    force one; a store instance is used as-is (and not closed by the
    manager).  ``max_restarts`` bounds how many times the world may be
    rebuilt; ``checkpoint_interval`` saves every Nth epoch.
    """

    checkpoint_interval: int = 1
    max_restarts: int = 2
    store: Any = "auto"
    fault_plan: Any = None
    rebalance: bool = True


@dataclass
class RecoveryEvent:
    """One diagnosed failure and the recovery decision taken for it."""

    attempt: int
    dead_ranks: Tuple[int, ...]
    old_size: int
    new_size: int
    resume_epoch: int
    rebalanced: bool
    #: Wall-clock of the failed attempt, launch to SpmdFailure — an upper
    #: bound on the detection latency (must stay far below comm_timeout).
    elapsed: float
    description: str = ""

    def summary(self) -> str:
        dead = ",".join(str(r) for r in self.dead_ranks)
        return (
            f"attempt {self.attempt}: rank(s) {dead} died after {self.elapsed:.3f}s; "
            f"world {self.old_size}->{self.new_size}, resume from epoch "
            f"{self.resume_epoch}"
            + (" (rebalanced)" if self.rebalanced else "")
        )


def _dead_rank_of(error: Optional[BaseException]) -> Optional[int]:
    """The rank an error chain proves dead, or None (walks __cause__/__context__)."""
    seen: Set[int] = set()
    while error is not None and id(error) not in seen:
        seen.add(id(error))
        if isinstance(error, (InjectedFault, DeadRankError)):
            return error.rank
        error = error.__cause__ or error.__context__
    return None


def diagnose_dead_ranks(failure: SpmdFailure) -> Set[int]:
    """Ranks the per-rank results prove dead (not merely collaterally failed).

    A killed rank reports :class:`InjectedFault` (in-stack kills) or is
    reported dead by the collector / its peers via :class:`DeadRankError`
    (real child death: dead pipes, nonzero exit codes).  Peers' secondary
    ``CollectiveError`` timeouts name nobody and are ignored.
    """
    dead: Set[int] = set()
    for result in failure.results:
        rank = _dead_rank_of(result.error)
        if rank is not None:
            dead.add(rank)
    return dead


def _zorder_sorted(keys: List[Any]) -> List[Any]:
    """Sort logical keys along the DSL's Z-order curve (repr fallback)."""

    def z(key: Any):
        coords = key if isinstance(key, (tuple, list)) else (key,)
        try:
            return (0, morton_encode(tuple(max(int(c), 0) for c in coords)))
        except (TypeError, ValueError):
            return (1, repr(key))

    return sorted(keys, key=z)


class RecoveryManager:
    """Owns checkpoints, epochs and the create-run-diagnose-shrink loop.

    One manager is attached to a Platform (``Platform(resilience=...)``)
    and shared between the woven :class:`CheckpointAspect` (which calls
    the epoch/replay bookkeeping from rank context) and the
    distributed-memory aspect's entry advice (which delegates the world
    lifecycle to :meth:`execute`).
    """

    def __init__(self, policy: Optional[ResiliencePolicy] = None) -> None:
        self.policy = policy or ResiliencePolicy()
        #: The live world of the current attempt (None outside a run).
        self.world: Any = None
        self.store: Any = None
        self.size: int = 0
        self.attempt: int = 0
        #: Epoch every restarted rank fast-forwards to (0 = fresh start).
        self.resume_epoch: int = 0
        #: Merged checkpoint pages of ``resume_epoch`` (logical key → pages).
        self.restore_pages: RankPages = {}
        #: Post-rebalance ownership override (logical key → surviving rank).
        self.ownership: Optional[Dict[Any, int]] = None
        #: One :class:`RecoveryEvent` per diagnosed failure, in order.
        self.events: List[RecoveryEvent] = []
        self._epochs: Dict[int, int] = {}
        self._replay: Dict[int, int] = {}
        self._lock = threading.Lock()
        self._owns_store = False

    # ------------------------------------------------------------------
    # aspect interface (called from rank context by CheckpointAspect)
    # ------------------------------------------------------------------
    def epoch_of(self, rank: int) -> int:
        with self._lock:
            return self._epochs.get(rank, 0)

    def note_epoch(self, rank: int) -> int:
        with self._lock:
            epoch = self._epochs.get(rank, 0) + 1
            self._epochs[rank] = epoch
            return epoch

    def replay_remaining(self, rank: int) -> int:
        with self._lock:
            return self._replay.get(rank, 0)

    def consume_replay(self, rank: int) -> None:
        with self._lock:
            if self._replay.get(rank, 0) > 0:
                self._replay[rank] -= 1

    def should_checkpoint(self, epoch: int) -> bool:
        interval = max(int(self.policy.checkpoint_interval), 1)
        return epoch % interval == 0

    # ------------------------------------------------------------------
    # run loop (called from the distributed-memory aspect's entry advice)
    # ------------------------------------------------------------------
    def execute(
        self,
        backend: Any,
        aspect: Any,
        entry: Callable[[], Any],
        *,
        omp_threads: int = 1,
        timeout: float = 60.0,
    ) -> Any:
        """Run ``entry`` SPMD with failure diagnosis, rebalance and resume."""
        policy = self.policy
        self.size = int(getattr(aspect, "parallelism", 1))
        self.attempt = 0
        self.resume_epoch = 0
        self.restore_pages = {}
        self.ownership = None
        self.events = []
        self._create_store(backend)
        platform = getattr(aspect, "platform", None)
        try:
            while True:
                self.attempt += 1
                world = backend.create_world(self.size, timeout=timeout)
                self.world = world
                self._begin_attempt()
                if policy.fault_plan is not None:
                    world.install_fault_plan(policy.fault_plan)
                # Reset the mpi aspect's per-world state for this attempt.
                aspect.bind_world(world)
                if platform is not None:
                    platform.context["mpi_world"] = world
                    platform.context["resilience"] = self
                    if self.ownership is not None:
                        platform.context["resilience_ownership"] = self.ownership
                started = time.perf_counter()
                try:
                    results = world.run_spmd(
                        lambda _ctx: entry(), omp_threads=omp_threads
                    )
                    return results[0].value
                except SpmdFailure as failure:
                    self._plan_recovery(
                        failure,
                        world,
                        elapsed=time.perf_counter() - started,
                        machine=getattr(platform, "machine", None),
                        omp_threads=omp_threads,
                    )
                finally:
                    world.finalize()
        finally:
            self.world = None
            if self._owns_store and self.store is not None:
                self.store.close()

    # ------------------------------------------------------------------
    def _create_store(self, backend: Any) -> None:
        choice = self.policy.store
        self._owns_store = True
        if choice == "auto":
            choice = "disk" if getattr(backend, "name", "") == "process" else "memory"
        if choice == "memory":
            self.store = MemoryCheckpointStore()
        elif choice == "disk":
            self.store = DiskCheckpointStore()
        else:  # caller-provided store instance: used as-is, never closed
            self.store = choice
            self._owns_store = False

    def _begin_attempt(self) -> None:
        with self._lock:
            self._epochs = {}
            self._replay = {rank: self.resume_epoch for rank in range(self.size)}

    def _plan_recovery(
        self,
        failure: SpmdFailure,
        world: Any,
        *,
        elapsed: float,
        machine: Any,
        omp_threads: int,
    ) -> None:
        """Diagnose ``failure``; set up the next attempt or re-raise."""
        policy = self.policy
        dead = diagnose_dead_ranks(failure)
        if not dead:
            raise failure  # nothing died — not a failure recovery can repair
        new_size = self.size - len(dead)
        if new_size < 1:
            raise SpmdFailure(
                f"every rank died ({sorted(dead)}); nothing left to recover onto",
                failure.results,
            ) from failure
        if self.attempt > policy.max_restarts:
            raise SpmdFailure(
                f"rank(s) {sorted(dead)} died and the restart budget "
                f"({policy.max_restarts}) is exhausted",
                failure.results,
            ) from failure

        # The same fault must not fire again on the restarted world: on
        # in-stack backends the shared plan already retired it, but a
        # forked child mutated only its own copy.
        if policy.fault_plan is not None:
            for rank in sorted(dead):
                policy.fault_plan.retire_rank(rank)

        old_owner = world.directory.owners()

        # Resume from the newest epoch whose restored pages cover every
        # known block.  Rank-count completeness alone is not enough: a
        # mixed-attempt epoch (some ranks saved under the old layout,
        # some under the new) can look complete yet miss keys, and a
        # missing key would silently restart that block from epoch 0.
        all_keys = set(old_owner)
        resume = self.store.latest_complete_epoch(self.size) or 0
        restore_pages: Dict[Any, Any] = {}
        while resume > 0:
            candidate = self.store.load_epoch(resume, self.size)
            if not all_keys or all_keys <= set(candidate):
                restore_pages = candidate
                break
            resume -= 1
        self.resume_epoch = int(resume)
        self.restore_pages = restore_pages if self.resume_epoch else {}
        keys = _zorder_sorted(list(old_owner))
        rebalanced = False
        if keys:
            self.ownership = plan_recovery_ownership(
                keys,
                new_size,
                old_owner=old_owner if policy.rebalance else None,
                counters=global_trace().all_counters() if policy.rebalance else None,
                machine=machine,
                omp_threads=omp_threads,
            )
            rebalanced = policy.rebalance
        event = RecoveryEvent(
            attempt=self.attempt,
            dead_ranks=tuple(sorted(dead)),
            old_size=self.size,
            new_size=new_size,
            resume_epoch=self.resume_epoch,
            rebalanced=rebalanced,
            elapsed=elapsed,
            description=str(failure),
        )
        self.events.append(event)
        self.size = new_size

    # ------------------------------------------------------------------
    def report(self) -> str:
        """Human-readable recovery report (one line per diagnosed failure)."""
        if not self.events:
            return "no failures recovered"
        return "\n".join(event.summary() for event in self.events)
