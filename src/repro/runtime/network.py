"""The simulated interconnect used by the distributed-memory runtime.

The paper evaluates on an Omni-Path cluster; this repository has a
single Python process, so the distributed-memory layer runs every rank
as a thread and moves data through this in-memory network object.  The
network

* provides the collectives the aspect modules need (``barrier``,
  ``allreduce``), and
* **counts every message and byte**, because those counts (not Python
  wall-clock) are what the cost model converts into the modelled
  communication time of the scaling figures.

Page transfers use a one-sided ``fetch_pages`` operation: the requester
reads a batch of page snapshots directly out of one owner rank's Env
(safe, because owners never mutate their *read* buffers between the
synchronisation points established by the refresh protocol) while the
network records the traffic as one request/reply message pair.  This
mirrors MPI RMA ``Get`` and keeps the threaded simulation deadlock-free.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import CollectiveError, DeadRankError, NetworkError

__all__ = ["SimNetwork", "NetworkStats"]


@dataclass
class NetworkStats:
    """Aggregate traffic counters of a simulated network.

    ``bulk_fetches``/``bulk_pages`` count the per-owner page exchanges
    (one request/reply pair moving many pages), ``per_neighbor``
    resolves page traffic by
    directed ``"src->dst"`` rank pair so reports can show how many
    neighbor links a run actually exercised.
    """

    messages: int = 0
    bytes_moved: int = 0
    barriers: int = 0
    allreduces: int = 0
    page_fetches: int = 0
    #: Bulk page exchanges: request/reply pairs that moved a whole batch
    #: of pages, and how many pages those batches carried.
    bulk_fetches: int = 0
    bulk_pages: int = 0
    #: Replies that could not be delivered because the peer was already
    #: dead (process backend: broken pipe in the sender thread).
    peer_dead: int = 0
    #: Shared-memory data-plane activity (multi-rank process worlds):
    #: pages whose bytes travelled as mapped-segment descriptors, and the
    #: page bytes those descriptors covered (a subset of ``bytes_moved``,
    #: which stays *logical*, the same shape on every backend).
    shm_fetches: int = 0
    shm_bytes: int = 0
    #: Always 0 (no page leaves shared memory); ``benchmarks/e2e/workloads.py`` reads it.
    shm_fallbacks: int = 0
    #: Publish protocol: halo slots an owner stamped (one message of the
    #: slot's bytes each, also in ``messages``/``bytes_moved``) and the
    #: element rows those slots carried.
    halo_pushes: int = 0
    halo_sites: int = 0
    #: Steps a rank took through the page protocol although its world
    #: offers slots or once ran closed, by reason — "why is this run not
    #: publishing" (``PlatformRun.summary()`` prints them).
    open_steps: Dict[str, int] = field(default_factory=dict)
    #: Page traffic per directed neighbor pair: "src->dst" ->
    #: {"messages": n, "bytes": n}.  Collectives are not attributed.
    per_neighbor: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def record_neighbor(self, src: int, dst: int, messages: int, nbytes: int) -> None:
        """Attribute page traffic to the directed ``src -> dst`` link."""
        entry = self.per_neighbor.setdefault(f"{src}->{dst}", {"messages": 0, "bytes": 0})
        entry["messages"] += int(messages)
        entry["bytes"] += int(nbytes)

    def record_push(self, owner: int, consumer: int, sites: int, nbytes: int) -> None:
        """Account one published halo slot (a message of ``nbytes``)."""
        self.halo_pushes += 1
        self.halo_sites += int(sites)
        self.messages += 1
        self.bytes_moved += int(nbytes)
        self.record_neighbor(owner, consumer, 1, nbytes)

    def record_open(self, reason: str) -> None:
        """Count one step kept on the page protocol for ``reason``."""
        self.open_steps[reason] = self.open_steps.get(reason, 0) + 1

    def merge(self, other: "NetworkStats") -> None:
        """Fold another rank's counters into this one (process backend)."""
        for name, value in other.__dict__.items():
            if name == "per_neighbor":
                for link, entry in value.items():
                    self.record_neighbor(*link.split("->"), entry["messages"], entry["bytes"])
            elif name == "open_steps":
                for reason, count in value.items():
                    self.open_steps[reason] = self.open_steps.get(reason, 0) + count
            else:
                setattr(self, name, getattr(self, name) + value)

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["per_neighbor"] = {link: dict(entry) for link, entry in self.per_neighbor.items()}
        out["open_steps"] = dict(self.open_steps)
        return out


def _payload_nbytes(payload: Any) -> int:
    """Best-effort size estimate of a message payload."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (int, float, bool)) or payload is None:
        return 8
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 16 + sum(_payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return 16 + sum(
            _payload_nbytes(k) + _payload_nbytes(v) for k, v in payload.items()
        )
    return 64


class SimNetwork:
    """In-memory interconnect between the ranks of one simulated MPI world."""

    def __init__(self, size: int, *, timeout: float = 30.0) -> None:
        if size < 1:
            raise NetworkError("network size must be >= 1")
        self.size = size
        self.timeout = timeout
        self.stats = NetworkStats()
        self._lock = threading.Lock()
        # Reusable barrier / allreduce state.
        self._barrier = threading.Barrier(size)
        self._allreduce_values: List[Any] = []
        self._allreduce_result: Any = None
        self._allreduce_generation = 0
        self._allreduce_cond = threading.Condition()
        #: Per-rank endpoints registered by the distributed-memory aspect
        #: (rank -> object exposing ``page_snapshot(key)``, typically an Env).
        self._endpoints: Dict[int, Any] = {}
        #: Ranks declared dead (rank -> reason).  Collectives and fetches
        #: involving a dead rank fail fast with :class:`DeadRankError`
        #: instead of blocking until the timeout.
        self._dead: Dict[int, str] = {}
        #: Installed fault plan (duck-typed, see ``repro.resilience``);
        #: consulted by the page-serving path for reply faults.
        self.fault_plan: Any = None

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def mark_dead(self, rank: int, reason: str = "") -> None:
        """Declare ``rank`` dead and wake every blocked waiter.

        The barrier is aborted (everyone inside or arriving later gets a
        ``BrokenBarrierError`` converted below) and the allreduce
        condition is notified so its waiters re-check and fail fast —
        peers detect the death immediately instead of burning the full
        communication timeout.
        """
        self._check_rank(rank)
        with self._lock:
            self._dead[rank] = reason or "marked dead"
        self._barrier.abort()
        with self._allreduce_cond:
            self._allreduce_cond.notify_all()

    def dead_ranks(self) -> Dict[int, str]:
        with self._lock:
            return dict(self._dead)

    def _first_dead(self) -> Optional[Tuple[int, str]]:
        with self._lock:
            if not self._dead:
                return None
            rank = min(self._dead)
            return rank, self._dead[rank]

    def _raise_if_dead(self) -> None:
        dead = self._first_dead()
        if dead is not None:
            raise DeadRankError(dead[0], dead[1])

    # ------------------------------------------------------------------
    # endpoint registry (used for one-sided page fetches)
    # ------------------------------------------------------------------
    def register_endpoint(self, rank: int, endpoint: Any) -> None:
        self._check_rank(rank)
        with self._lock:
            self._endpoints[rank] = endpoint

    def endpoint(self, rank: int) -> Any:
        with self._lock:
            try:
                return self._endpoints[rank]
            except KeyError:
                raise NetworkError(f"rank {rank} has no registered endpoint") from None

    def release_endpoints(self) -> None:
        """Drop every registered endpoint (world finalisation).

        Endpoints are whole Env replicas; keeping them referenced after
        the run leaks one Env per rank per finished platform run.
        """
        with self._lock:
            self._endpoints.clear()

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Synchronise all ranks."""
        self.stats.barriers += 1
        if self.size == 1:
            return
        self._raise_if_dead()
        try:
            self._barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError as exc:
            dead = self._first_dead()
            if dead is not None:
                raise DeadRankError(dead[0], f"barrier aborted: {dead[1]}") from exc
            raise CollectiveError("barrier broken (a rank died or timed out)") from exc

    def allreduce(self, value: Any, op: Callable[[List[Any]], Any]) -> Any:
        """All-to-all reduction: every rank contributes ``value``, all get ``op(values)``."""
        self.stats.allreduces += 1
        self.stats.messages += max(self.size - 1, 0) * 2
        if self.size == 1:
            return op([value])
        self._raise_if_dead()
        with self._allreduce_cond:
            generation = self._allreduce_generation
            self._allreduce_values.append(value)
            if len(self._allreduce_values) == self.size:
                self._allreduce_result = op(list(self._allreduce_values))
                self._allreduce_values = []
                self._allreduce_generation += 1
                self._allreduce_cond.notify_all()
            else:
                while self._allreduce_generation == generation:
                    woke = self._allreduce_cond.wait(timeout=self.timeout)
                    dead = self._first_dead()
                    if dead is not None and self._allreduce_generation == generation:
                        raise DeadRankError(
                            dead[0], f"allreduce will never complete: {dead[1]}"
                        )
                    if not woke and self._allreduce_generation == generation:
                        raise CollectiveError("allreduce timed out")
            return self._allreduce_result

    def allreduce_and(self, flag: bool) -> bool:
        """Logical-AND allreduce (used to agree on refresh success)."""
        return bool(self.allreduce(bool(flag), lambda values: all(values)))

    def allreduce_sum(self, value: float) -> float:
        """Sum allreduce (used by examples for residual norms)."""
        return float(self.allreduce(float(value), lambda values: sum(values)))

    # ------------------------------------------------------------------
    # one-sided page access
    # ------------------------------------------------------------------
    def fetch_pages(
        self, requester: int, owner: int, pages: List[Tuple[int, int]]
    ) -> List[np.ndarray]:
        """Fetch a batch of page snapshots from one owner in one exchange.

        ``pages`` is a list of ``(owner-local block id, page index)``
        pairs.  The whole batch is accounted as a *single* request/reply
        message pair — a manifest-sized request and one reply carrying
        every page — which is what an aggregated halo exchange
        costs on a real network.
        """
        self._check_rank(requester)
        self._check_rank(owner)
        with self._lock:
            if owner in self._dead:
                raise DeadRankError(owner, f"bulk page fetch by rank {requester}")
        self._apply_reply_fault(owner, requester)
        endpoint = self.endpoint(owner)
        from ..memory.page import PageKey  # local import to avoid a cycle

        datas = [
            endpoint.page_snapshot(PageKey(block_id, page_index))
            for block_id, page_index in pages
        ]
        payload_bytes = sum(int(d.nbytes) for d in datas)
        manifest_bytes = 32 + 16 * len(pages)
        with self._lock:
            self.stats.page_fetches += len(datas)
            self.stats.bulk_fetches += 1
            self.stats.bulk_pages += len(datas)
            self.stats.messages += 2
            self.stats.bytes_moved += payload_bytes + manifest_bytes
            self.stats.record_neighbor(requester, owner, 1, manifest_bytes)
            self.stats.record_neighbor(owner, requester, 1, payload_bytes)
        return datas

    # ------------------------------------------------------------------
    def _apply_reply_fault(self, owner: int, requester: int) -> None:
        """Consume one scheduled reply fault on the owner→requester reply.

        The simulated network is one-sided (no real wire), so a dropped
        reply surfaces as the timeout the requester would eventually hit
        and a corrupted reply as the integrity-check rejection the
        process transport performs — both as :class:`NetworkError`, immediately.
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

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise NetworkError(f"rank {rank} outside world of size {self.size}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimNetwork(size={self.size}, stats={self.stats.as_dict()})"
