"""Abstract interface of the execution-backend subsystem.

The distributed-memory aspect module does not construct a runtime
directly; it asks the backend registry (:mod:`repro.runtime.backends`)
to create an :class:`ExecutionWorld` of the backend the run names — a
backend *is* its world class, and a world of one rank is always the
serial world.  A world bundles the four capabilities the aspect module
needs:

* **SPMD launch** — run the whole end-user program once per rank
  (:meth:`ExecutionWorld.run_spmd`), each rank with its own Env replica;
* **collectives** — :meth:`ExecutionWorld.barrier` /
  :meth:`ExecutionWorld.allreduce` between the ranks of the world;
* **block registration** — a cross-rank directory mapping logical block
  keys to owning ranks (:meth:`ExecutionWorld.register_block` +
  :meth:`ExecutionWorld.commit_registration`);
* **page transport** — :meth:`ExecutionWorld.fetch_pages_bulk_async`
  moves page snapshots from their owning ranks to the requester, one
  request/reply pair per owner;
* **halo slots** (optional) — a world whose ranks can share memory
  offers :attr:`ExecutionWorld.control` words and
  :meth:`ExecutionWorld.open_halo_link` slots, over which the
  distributed-memory aspect *publishes* the steady-state halo instead
  of serving requests for it.

Implementations shipped with the platform: ``serial`` (inline, world of
one), ``threads`` (one OS thread per rank — the original simulated
runtime), ``process`` (one real ``multiprocessing`` process per rank);
the last two take two ranks or more.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from functools import reduce
from operator import and_
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CollectiveError, InjectedFault, NetworkError
from ..shm import ControlWords
from ..task import TaskContext

__all__ = [
    "BackendError",
    "BulkFetchResult",
    "CommHandle",
    "CompletedCommHandle",
    "ExecutionWorld",
    "HaloLink",
    "RankResult",
    "SpmdFailure",
    "and_bits",
    "group_requests_by_owner",
    "raise_spmd_failures",
]


class BackendError(RuntimeError):
    """An execution backend is unknown, unavailable or misconfigured."""


class SpmdFailure(RuntimeError):
    """One or more ranks of an SPMD run failed.

    Subclasses :class:`RuntimeError` so existing callers that catch the
    generic failure keep working; carries the per-rank
    :class:`RankResult` list so the resilience layer can diagnose
    *which* ranks died (injected faults, dead pipes) versus which merely
    saw their peers' collectives fail.
    """

    def __init__(self, message: str, results: Optional[List["RankResult"]] = None) -> None:
        super().__init__(message)
        self.results: List["RankResult"] = list(results or [])


@dataclass
class RankResult:
    """Outcome of one rank's SPMD execution."""

    rank: int
    value: Any = None
    error: Optional[BaseException] = None


def raise_spmd_failures(results: List[RankResult], *, note: Optional[str] = None) -> None:
    """Raise a RuntimeError summarising failed ranks (no-op when all passed).

    When both root-cause errors and secondary collective timeouts are
    present (a dead rank makes its peers' collectives fail too), the
    chained cause prefers the root cause so tracebacks point at the
    actual bug.  ``note`` appends backend-level context (e.g. the first
    transport send failure) that no single rank's error captures.
    """
    errors = [r for r in results if r.error is not None]
    if not errors:
        return
    primary = next(
        (r for r in errors if not isinstance(r.error, (CollectiveError, NetworkError))),
        errors[0],
    )
    message = f"{len(errors)} rank(s) failed; first failure on rank {primary.rank}"
    if note:
        message = f"{message} ({note})"
    raise SpmdFailure(message, results) from primary.error


@dataclass
class BulkFetchResult:
    """Outcome of one batched page exchange (:meth:`ExecutionWorld.fetch_pages_bulk_async`).

    ``pages`` holds ``(logical_key, page_index, data)`` triples in
    request order per owner; ``exchanges`` is the number of aggregated
    request/reply pairs the batch cost (one per distinct owning rank)
    and ``nbytes`` the page payload volume moved.
    """

    pages: List[Tuple[Any, int, Any]] = field(default_factory=list)
    exchanges: int = 0
    nbytes: int = 0


def group_requests_by_owner(
    directory: Any, requests: Sequence[Tuple[Any, int]]
) -> Dict[int, List[Tuple[Any, int, int]]]:
    """Resolve page requests against a block directory, grouped by owner.

    ``requests`` is a sequence of ``(logical_key, page_index)`` pairs;
    the result maps each owning rank to ``(logical_key, page_index,
    owner-local block id)`` triples, preserving request order within
    each owner.  Raises :class:`~repro.runtime.errors.NetworkError` when
    a key has no registered owner.
    """
    grouped: Dict[int, List[Tuple[Any, int, int]]] = {}
    block_ids: Dict[Any, Tuple[int, int]] = {}
    for logical_key, page_index in requests:
        resolved = block_ids.get(logical_key)
        if resolved is None:
            owner = directory.owner_of(logical_key)
            resolved = (owner, directory.block_id_on(logical_key, owner))
            block_ids[logical_key] = resolved
        owner, block_id = resolved
        grouped.setdefault(owner, []).append((logical_key, page_index, block_id))
    return grouped


def and_bits(values: Sequence[int]) -> int:
    """Bitwise AND of every rank's flags: the reduction of the step agreement.

    Worlds with :attr:`ExecutionWorld.control` words recognise this very
    function in :meth:`ExecutionWorld.allreduce` and agree over shared
    words instead of exchanging messages.
    """
    return reduce(and_, values)


class HaloLink:
    """One directed owner → consumer halo slot, as one of its two ranks sees it.

    ``slot`` is a byte view of memory both ranks address (a shared
    segment, or one array between threads); the world that handed the
    link out clears it when it closes, so holders keep the link, never
    the view.  ``descriptor`` is what the consumer — who sizes and
    allocates the slot — sends the owner to open the same memory with
    :meth:`ExecutionWorld.open_halo_link`.
    """

    __slots__ = ("owner", "consumer", "slot", "descriptor")

    def __init__(self, owner: int, consumer: int, slot: Any, descriptor: Any) -> None:
        self.owner = int(owner)
        self.consumer = int(consumer)
        self.slot = slot
        self.descriptor = descriptor


#: Guards the halo accounting of worlds whose ranks share one stats object.
_ACCOUNT_LOCK = threading.Lock()


class CommHandle(abc.ABC):
    """A halo refresh issued but not yet awaited: a bulk page fetch sent
    to every owner, or the wait for the owners' pushes of this step.

    Returned by :meth:`ExecutionWorld.fetch_pages_bulk_async` and
    :meth:`ExecutionWorld.await_halo`.  The requester issues the handle
    — every owner's request on the wire before it blocks on any reply —
    then calls :meth:`wait` to obtain the :class:`BulkFetchResult`; the
    refresh advice does so before it returns.

    ``wait()`` is **idempotent**: the first call blocks until every
    in-flight exchange completed and memoizes the result (or the
    failure); every later call returns the same result object (or
    re-raises the same error) without blocking and — critically for
    :class:`~repro.runtime.network.NetworkStats` — without accounting
    the traffic a second time.  Backends implement :meth:`_wait` only.
    """

    __slots__ = ("_result", "_error", "_done")

    def __init__(self) -> None:
        self._result: Optional[BulkFetchResult] = None
        self._error: Optional[BaseException] = None
        self._done = False

    @abc.abstractmethod
    def _wait(self) -> BulkFetchResult:
        """Block until completion; called at most once."""

    def wait(self) -> BulkFetchResult:
        """Block until the fetch completed; safe to call repeatedly."""
        if not self._done:
            try:
                self._result = self._wait()
            except BaseException as exc:
                self._error = exc
                raise
            finally:
                self._done = True
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    @property
    def done(self) -> bool:
        """Whether :meth:`wait` already ran (successfully or not)."""
        return self._done


class CompletedCommHandle(CommHandle):
    """An already-completed handle (serial backend / synchronous fallback)."""

    __slots__ = ()

    def __init__(self, result: BulkFetchResult) -> None:
        super().__init__()
        self._result = result
        self._done = True

    def _wait(self) -> BulkFetchResult:  # pragma: no cover - never reached
        raise AssertionError("CompletedCommHandle is constructed completed")


class _StampHandle(CommHandle):
    """The wait for the halo stamps of one round (publish protocol)."""

    __slots__ = ("_world", "_consumer", "_links", "_round")

    def __init__(self, world: "ExecutionWorld", consumer: int, links, round: int) -> None:
        super().__init__()
        self._world = world
        self._consumer = consumer
        self._links = links
        self._round = round

    def _wait(self) -> BulkFetchResult:
        world = self._world
        world.control.await_stamps(
            self._consumer,
            [link.owner for link in self._links],
            self._round,
            world._halo_wait,
        )
        return BulkFetchResult(
            exchanges=len(self._links), nbytes=sum(link.slot.nbytes for link in self._links)
        )


class ExecutionWorld(abc.ABC):
    """One SPMD world: ranks, collectives, block directory, page transport.

    A subclass is a backend: registered by its :attr:`backend_name`
    (:func:`~repro.runtime.backends.register_backend`), it is built as
    ``cls(size, timeout=...)`` for every world of two or more ranks.
    """

    #: Registry name (``Platform(backend=name)`` selects this class).
    backend_name: str = "?"
    #: Number of ranks.
    size: int
    #: Installed fault plan (``None`` when no faults are injected).  The
    #: plan is duck-typed (see :class:`repro.resilience.FaultPlan`) so
    #: the runtime substrate never imports the resilience package.
    fault_plan: Any = None
    #: The Env each rank registered (:meth:`register_env`).
    rank_envs: Dict[int, Any]
    #: Whether :meth:`finalize` ran (it releases the Env replicas).
    finalized: bool = False

    # -- failure injection ---------------------------------------------
    def install_fault_plan(self, plan: Any) -> None:
        """Install a seeded fault plan honored by this world's fault points.

        Call it before :meth:`run_spmd` (the process backend ships the
        plan to child ranks over ``fork``), or from every rank's context
        before registration commits: then each rank's own copy of the
        world, and the transport serving its page replies, takes it.
        """
        self.fault_plan = plan

    def fault_point(self, rank: int, phase: str, epoch: Optional[int] = None) -> None:
        """Fire any fault the installed plan schedules at this point.

        Called by backends (``commit_registration``) and by the
        resilience aspect (refresh entry / post-refresh).  ``phase`` is
        one of ``"register"`` / ``"refresh"`` / ``"epoch"``; ``epoch``
        is the rank's count of completed (non-warm-up) refresh rounds.
        A ``kill`` fault terminates the rank via :meth:`_execute_kill`;
        reply faults are consumed by the transport layers instead.
        """
        plan = self.fault_plan
        if plan is None:
            return
        fault = plan.take_kill(rank, phase, epoch)
        if fault is not None:
            self._execute_kill(fault, rank)

    def _execute_kill(self, fault: Any, rank: int) -> None:
        """Kill ``rank``.  Default: raise :class:`InjectedFault` in-stack.

        The process backend overrides this to ``os._exit`` forked child
        ranks, exercising real child-death detection (dead pipes,
        nonzero exit codes) in peers and in the parent collector.
        """
        raise InjectedFault(rank, str(fault))

    # -- SPMD launch ----------------------------------------------------
    @abc.abstractmethod
    def run_spmd(
        self, body: Callable[[TaskContext], Any], *, omp_threads: int = 1
    ) -> List[RankResult]:
        """Execute ``body`` once per rank; raise if any rank failed."""

    @abc.abstractmethod
    def finalize(self) -> None:
        """Release per-run resources (Env replicas, endpoints); idempotent."""

    # -- Env / block registration --------------------------------------
    @abc.abstractmethod
    def register_env(self, rank: int, env: Any) -> None:
        """Attach a rank's Env replica as its page-serving endpoint."""

    def env_of(self, rank: int) -> Any:
        """Return the Env registered by ``rank`` (NetworkError if absent)."""
        try:
            return self.rank_envs[rank]
        except KeyError:
            raise NetworkError(f"rank {rank} has not registered an Env") from None

    @abc.abstractmethod
    def register_block(self, logical_key: Any, rank: int, block_id: int, *, owner: bool) -> None:
        """Record that ``rank`` materialised ``logical_key`` as ``block_id``."""

    @abc.abstractmethod
    def commit_registration(self) -> None:
        """Collective close of the registration phase.

        After every rank returns from this call, each rank's directory
        can resolve the owner (and the owner-local block id) of every
        logical key registered by any rank.  Doubles as a barrier.
        """

    # -- collectives ----------------------------------------------------
    @abc.abstractmethod
    def barrier(self) -> None:
        """Synchronise all ranks of the world."""

    @abc.abstractmethod
    def allreduce(self, value: Any, op: Callable[[List[Any]], Any]) -> Any:
        """Every rank contributes ``value``; all receive ``op(values)``.

        The ``serial`` and ``process`` backends deliver ``values``
        ordered by contributing rank; the ``threads`` backend delivers
        them in arrival order — ``op`` must therefore be commutative
        (and/or/sum/min/max and friends), as real MPI reductions are.
        """

    def allreduce_and(self, flag: bool) -> bool:
        """Logical-AND allreduce."""
        return bool(self.allreduce(bool(flag), lambda values: all(values)))

    def allreduce_bits(self, flags: int) -> int:
        """Bitwise-AND allreduce: the refresh protocol's per-step agreement.

        One collective carries several yes/no statements of a rank (the
        step succeeded, its halo is covered by the pushed plans, …); every
        rank receives the AND of each.  Worlds that offer
        :attr:`control` words serve it from them (see :func:`and_bits`).
        """
        return int(self.allreduce(int(flags), and_bits))

    def allreduce_sum(self, value: float) -> float:
        """Sum allreduce (used by examples for residual norms)."""
        return float(self.allreduce(float(value), lambda values: sum(values)))

    # -- page transport -------------------------------------------------
    @abc.abstractmethod
    def fetch_pages_bulk_async(
        self, requester: int, requests: Sequence[Tuple[Any, int]]
    ) -> CommHandle:
        """Start fetching many pages at once; returns a :class:`CommHandle`.

        ``requests`` is a sequence of ``(logical_key, page_index)``
        pairs.  The world moves **one request/reply message pair per
        distinct owning rank** (a page-key manifest out, the pages
        back).  The refresh protocol issues its prefetch right after the
        step barrier, and its repair before it, and waits the handle before
        the refresh returns.  Owner resolution failures surface at *issue*
        time.  This is the platform's only page op.
        """

    # -- halo slots (publish protocol) -----------------------------------
    #: The world's :class:`~repro.runtime.shm.ControlWords` when its ranks
    #: can address common memory — the world then *offers slots* and the
    #: refresh protocol publishes the steady-state halo through them;
    #: ``None`` (a world of one rank, a custom backend) keeps the page
    #: protocol for every step.
    control: Optional[ControlWords] = None
    #: Per rank, the round of its latest shared-word agreement.
    _rounds: List[int]

    def _offer_slots(self, control: ControlWords) -> None:
        self.control = control
        self._rounds = [0] * self.size

    def halo_round(self, rank: int) -> int:
        """Round of ``rank``'s latest shared-word agreement (its step stamp)."""
        return self._rounds[rank]

    def _agree(self, rank: int, flags: int) -> int:
        """The shared-word form of :meth:`allreduce_bits` (``control`` set)."""
        self._rounds[rank] += 1
        return self.control.agree(rank, self._rounds[rank], flags, self._halo_wait)

    def _halo_wait(self, ready: Callable[[], Any], late: Callable[[], BaseException], behind):
        """:func:`~repro.runtime.shm.spin_until` with this world's timeout,
        back-off and dead-peer poll (of the ranks ``behind()`` still
        misses): how its ranks wait on the control words."""
        raise BackendError(f"the {self.backend_name!r} world offers no halo slots")

    def open_halo_link(
        self, owner: int, consumer: int, *, nbytes: int = 0, descriptor: Any = None
    ) -> HaloLink:
        """The ``owner`` → ``consumer`` slot: allocated with ``nbytes`` by the
        consumer, opened from the consumer's ``descriptor`` by the owner."""
        raise BackendError(f"the {self.backend_name!r} world offers no halo slots")

    def publish_halo(self, link: HaloLink, sites: int, crc: Optional[int] = None) -> None:
        """Stamp ``link``'s slot — its data stored — with the owner's round.

        A push is traffic: one message of the slot's bytes on the
        owner → consumer link.
        """
        self.control.publish(link.owner, link.consumer, self.halo_round(link.owner), crc)
        with _ACCOUNT_LOCK:
            self.stats_of(link.owner).record_push(
                link.owner, link.consumer, sites, link.slot.nbytes
            )

    def await_halo(self, consumer: int, links: Sequence[HaloLink]) -> CommHandle:
        """Handle whose ``wait()`` returns once every owner of ``links``
        stamped its slot with the consumer's current round."""
        return _StampHandle(self, consumer, list(links), self.halo_round(consumer))

    # -- accounting -----------------------------------------------------
    @abc.abstractmethod
    def stats_of(self, rank: int) -> Any:
        """The :class:`~repro.runtime.network.NetworkStats` ``rank`` counts into."""

    def record_open_step(self, rank: int, reason: str) -> None:
        """Count one step ``rank`` could not take through the publish protocol."""
        with _ACCOUNT_LOCK:
            self.stats_of(rank).record_open(reason)

    @abc.abstractmethod
    def traffic_summary(self) -> dict:
        """Aggregate traffic counters with :class:`~repro.runtime.network.NetworkStats` keys."""
