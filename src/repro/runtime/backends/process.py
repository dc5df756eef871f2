"""The ``process`` backend: one real OS process per rank.

Unlike the ``threads`` backend (GIL-bound, scaling numbers modelled),
this backend forks one process per rank with :func:`os.fork`, so rank
compute genuinely overlaps and ``benchmarks/bench_backend_scaling.py``
can report *measured* wall-clock speed-up.  It imports nothing of
:mod:`multiprocessing`: ranks are forked directly (after a flush of the
standard streams, so :func:`os.register_at_fork` hooks fire as usual),
joined with :func:`os.waitpid` under a deadline and, if still alive
then, ended with :func:`os.kill`; a forked rank always leaves by
:func:`os._exit`.

Topology and transport
----------------------

Rank 0 runs inline in the parent process (so the master application
instance, its Env and its trace counters stay native objects); ranks
1..N-1 are forked children.  Every pair of ranks is connected by two
:func:`os.pipe` pipes, one each way (:func:`channel_pair`); a message is
one pickle behind an 8-byte length, and a peer that closed its end reads
as end-of-file.  There is no coordinator — collectives are allgathers
over the pipe mesh.  The ranks additionally
share one segment of *control words*
(:class:`~repro.runtime.shm.ControlWords`, mapped before the fork): the
refresh protocol's per-step agreement runs over those words instead of
the pipes, and owners publish the steady-state halo into stamped slots
of shared memory (``docs/protocols.md`` §1) — the message protocol
below is what runs at warm-up and repair.

Messages are small tuples:

``("coll", kind, gen, payload)``
    Collective contribution, broadcast to every peer.  ``kind`` is
    ``"red"`` (allreduce), ``"bar"`` (barrier), ``"reg"`` (directory
    allgather) or ``"exit"`` (end-of-program drain barrier); ``gen`` is
    a per-kind generation counter that detects protocol corruption.
``("breq", req_id, [(block_id, page_index), …])`` / ``("brep", req_id, manifest)``
    Batched page request/reply, the one way a page moves ("perr"
    carries a failure message instead of the reply): every page a rank
    needs from one owner moves in a single message pair.  The reply's
    manifest holds one shared-memory descriptor per requested page,
    ``(block_id, page_index, segment, offset, nbytes, shape, dtype_str,
    version)`` (``docs/protocols.md`` §2 has the wire spec): the
    requester maps the named segment and copies the page out directly,
    so only the few-dozen-byte manifest crosses the pipe.

The shared-memory data plane
----------------------------

A process world (two ranks or more: a world of one is the ``serial``
one) needs POSIX named shared memory, the ``_posixshmem`` module
(constructing a :class:`ProcessWorld` raises without it).  Every rank
lazily creates a :class:`~repro.runtime.shm.SharedPageArena` — named
segments holding one seqlock-stamped slot per served page — on its
first serve.  An object-dtype page has no bytes to share: its owner
answers the request with a ``perr`` naming the page and the dtype.
Every page of a multi-rank process world arrives as a descriptor, so
``bulk_pages`` counts the descriptor pages.  Segment hygiene: each rank
unlinks its own arena when its transport closes;
:meth:`ProcessWorld.finalize` probe-unlinks
the deterministically named segments of ranks that died before closing
(see :func:`~repro.runtime.shm.cleanup_rank_segments`) and the control
segment; a new :class:`ProcessWorld` first unlinks what a
*killed parent* left behind (names carry the creating pid).  Those are
the whole cleanup: no resource tracker process is started.

The page-serving protocol
-------------------------

Each rank runs a dedicated **receiver thread** that continuously pumps
every pipe: incoming page requests (``breq``) are served
immediately out of the rank's registered Env snapshot — even while the
rank's main thread is deep in kernel computation — and everything else
is buffered into per-peer inboxes that the main thread's blocking waits
consume.  Eager serving is what keeps the protocol deadlock-free: every
rank issues its ``breq`` to each owner and then waits for the replies,
and no rank ever depends on another rank reaching a blocking call — or
finishing a sweep — before its requests are served.

Serving from the receiver thread is safe for the same reason the
one-sided fetches of the ``threads`` backend are: owners never mutate
their *read* buffers between the synchronisation points of the refresh
protocol, and every fetch completes before the collective that precedes
the owner's next buffer swap (the refresh advice that issues an exchange
waits for it before it returns).  After the program body finishes (or raises), every rank
enters a final ``exit`` drain barrier so late prefetch requests of
slower peers are still served before the process tears down.

The receiver blocks in :func:`select.poll`, without a timeout, on the
peers' pipes and on a *wake pipe* of its own.
:meth:`ProcessTransport.close` flushes the sender thread, then writes
to the wake pipe: the receiver returns at once, and a run's teardown
waits for no poll interval.  ``close`` is idempotent.

Every rank counts its own traffic in a local
:class:`~repro.runtime.network.NetworkStats`; children ship their
counters (and their per-task trace counters) back to the parent over a
dedicated result pipe, where they are merged so that
``PlatformRun.network`` and ``PlatformRun.counters`` look exactly like
a ``threads`` run's.
"""

from __future__ import annotations

import os
import pickle
import queue
import select
import struct
import sys
import threading
import time
import warnings
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...obs.spans import global_tracer
from ..errors import CollectiveError, DeadRankError, InjectedFault, NetworkError, TaskError
from ..network import NetworkStats, _payload_nbytes
from ..shm import (
    ControlWords,
    SegmentCache,
    SharedPageArena,
    ShmVersionError,
    cleanup_rank_segments,
    new_shm_uid,
    shm_available,
    shm_eligible,
    spin_until,
    sweep_stale_segments,
)
from ..task import TaskContext, task_scope
from ..tracing import global_trace
from .base import (
    BackendError,
    BulkFetchResult,
    CommHandle,
    ExecutionWorld,
    HaloLink,
    RankResult,
    and_bits,
    group_requests_by_owner,
    raise_spmd_failures,
)

__all__ = ["ProcessTransport", "ProcessWorld", "channel_pair"]

#: ``sched_yield`` polls of a shared word before a forked rank starts
#: sleeping between polls (see :func:`~repro.runtime.shm.spin_until`):
#: about a millisecond, the skew of two sweeps.
_BUSY_SPINS = 400

#: Collective kinds whose contributions are terminal per rank: once a
#: peer sent "exit" it will never contribute to red/bar/reg again, so a
#: buffered exit while awaiting one of those is a definitive failure.
_COLLECTIVE_KINDS = ("red", "bar", "reg", "exit")


def _concat(lists: List[list]) -> list:
    return [entry for sub in lists for entry in sub]


def _force_picklable(obj: Any, fallback: Callable[[Any], Any]):
    """Return ``obj`` if it pickles, else ``fallback(obj)`` (e.g. repr)."""
    try:
        pickle.dumps(obj)
        return obj
    except Exception:  # noqa: BLE001 - any pickling failure
        return fallback(obj)


def _flush_stdio() -> None:
    """Flush stdout and stderr, so buffered text is neither written twice
    (by a parent and its fork) nor lost (by ``os._exit``)."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # no stream, or a closed one
            pass


#: A message's length, ahead of its pickle.
_LENGTH = struct.Struct("!Q")
#: How long ``ProcessTransport.close`` waits for each of its threads.
_CLOSE_TIMEOUT = 5.0


def _read_exact(fd: int, size: int) -> bytes:
    """``size`` bytes of ``fd``; ``EOFError`` if the writer closed first."""
    parts, left = [], size
    while left:
        part = os.read(fd, left)
        if not part:
            raise EOFError(f"pipe closed with {left} of {size} bytes unread")
        parts.append(part)
        left -= len(part)
    return b"".join(parts)


class _Channel:
    """One rank's end of a pipe pair: it reads one pipe and writes the
    other (either may be absent), a message being one pickle behind its
    8-byte length."""

    __slots__ = ("rfd", "wfd")

    def __init__(self, rfd: Optional[int], wfd: Optional[int]) -> None:
        self.rfd = rfd
        self.wfd = wfd

    def fileno(self) -> int:
        return self.rfd

    def send(self, obj: Any) -> None:
        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        view = memoryview(_LENGTH.pack(len(data)) + data)
        while view:
            view = view[os.write(self.wfd, view):]

    def recv(self) -> Any:
        (size,) = _LENGTH.unpack(_read_exact(self.rfd, _LENGTH.size))
        return pickle.loads(_read_exact(self.rfd, size))

    def poll(self, timeout: float) -> bool:
        """Whether a message (or the writer's close) arrives within
        ``timeout`` seconds."""
        poller = select.poll()
        poller.register(self.rfd, select.POLLIN)
        return bool(poller.poll(max(int(timeout * 1000), 0)))

    def close(self) -> None:
        """Close both ends; a closed channel's reads and writes raise ``OSError``."""
        for fd in (self.rfd, self.wfd):
            if fd is not None and fd >= 0:
                os.close(fd)
        self.rfd = self.wfd = -1


def channel_pair() -> Tuple[_Channel, _Channel]:
    """Two connected channels over two fresh pipes, one each way."""
    a_to_b, b_to_a = os.pipe(), os.pipe()
    return _Channel(b_to_a[0], a_to_b[1]), _Channel(a_to_b[0], b_to_a[1])


class _Child:
    """A forked rank, as the parent sees it: its pid and, once reaped, its
    exit code (minus the signal number if a signal ended it)."""

    __slots__ = ("pid", "exitcode")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.exitcode: Optional[int] = None

    def join(self, timeout: float) -> Optional[int]:
        """Reap the rank if it exits within ``timeout`` seconds; its exit code
        (None: still running)."""
        deadline = time.monotonic() + timeout
        while self.exitcode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.exitcode = os.waitstatus_to_exitcode(status)
            elif time.monotonic() >= deadline:
                break
            else:
                time.sleep(0.001)
        return self.exitcode

    def terminate(self) -> None:
        if self.exitcode is None:
            import signal  # only a rank that outlived its join needs it

            os.kill(self.pid, signal.SIGTERM)


class ProcessTransport:
    """Per-process endpoint of the pipe mesh (one instance per rank)."""

    #: Test hook (interleaving stress): when set *before the world forks*,
    #: every outgoing page reply is routed through
    #: ``reply_shim(serving_rank, peer_rank, reply_msg) -> delay_seconds``
    #: and enqueued only after that delay, so reply ordering across
    #: owners/requests can be scrambled deterministically (the shim
    #: derives the delay from a seed and the reply's request id).  Forked
    #: children inherit the class attribute.  Never set in production.
    reply_shim = None

    def __init__(self, world: "ProcessWorld", rank: int, conns: Dict[int, _Channel]) -> None:
        #: The world this rank runs in (its copy, in a forked rank): the
        #: transport reads the timeout, the fault plan, the segment
        #: namespace and the rank's registered Env there.
        self.world = world
        self.rank = rank
        self.conns = conns  # peer rank -> its channel
        self.stats = NetworkStats()
        #: Bulk replies publish pages into this rank's shared-memory
        #: arena and ship descriptors.  The arena is created lazily on
        #: the first serve, so worlds that never bulk-fetch create no
        #: page segments at all.
        self._arena: Optional[SharedPageArena] = None
        #: The receiver thread (page serves) and the main thread (halo
        #: slots) both create the arena on first use.
        self._arena_lock = threading.Lock()
        self._segcache = SegmentCache()
        #: Halo links handed out; their slot views die with the transport.
        self._links: List[HaloLink] = []
        #: First outbound send that failed because the peer's pipe was
        #: already dead — surfaced in the error raised at collect time so
        #: the failure is diagnosable instead of silently swallowed.
        self.first_send_error: Optional[str] = None
        #: Outstanding page requests of the *main* thread: ``(peer,
        #: req_id) -> description``, included in ``_await`` timeout
        #: messages so a hang names exactly what never arrived.
        self._outstanding: Dict[Tuple[int, int], str] = {}
        self._inbox: Dict[int, deque] = {peer: deque() for peer in conns}
        #: Guards the inboxes and the dead-peer set; the receiver thread
        #: notifies it whenever a buffered message (or an EOF) arrives.
        self._inbox_cond = threading.Condition()
        self._gens: Dict[str, int] = {}
        self._next_req = 0
        #: Peers whose connection hit EOF (or failed a send).  A clean
        #: peer closes only after completing the exit barrier, i.e.
        #: after sending us everything we will ever need — so a gone
        #: peer is fatal only when a wait for it comes up empty.
        self._dead: set = set()
        # All outbound traffic goes through a dedicated sender thread:
        # a pipe write blocks without timeout when the pipe buffer is
        # full, and two ranks fanning out a large collective payload to
        # each other (e.g. the registration allgather of a many-block
        # Env) would deadlock if anything else ever blocked in send.
        self._outbox: queue.Queue = queue.Queue()
        self._sender = threading.Thread(
            target=self._sender_main, name=f"proc-mpi-sender-{rank}", daemon=True
        )
        self._sender.start()
        # All inbound traffic goes through a dedicated receiver thread:
        # page requests are served the moment they arrive (even while the
        # main thread computes or waits — what keeps the exchange
        # deadlock-free), everything else lands in the per-peer inboxes above.  It waits
        # on the peers' pipes and on a wake pipe that close() writes to.
        self._wake_recv, self._wake_send = os.pipe()
        self._closed = False
        self._receiver = threading.Thread(
            target=self._receiver_main, name=f"proc-mpi-recv-{rank}", daemon=True
        )
        self._receiver.start()

    # -- sending --------------------------------------------------------
    def _sender_main(self) -> None:
        while True:
            item = self._outbox.get()
            if item is None:
                return
            peer, msg = item
            try:
                self.conns[peer].send(msg)
            except Exception as exc:  # noqa: BLE001 - a failed send means the peer died;
                # waits on that peer notice via _dead and fail fast.  The
                # first failure's description is kept so it surfaces in
                # the error raised at collect time instead of being
                # silently swallowed here.
                if self.first_send_error is None:
                    self.first_send_error = (
                        f"rank {self.rank} could not send {msg[0]!r} to rank "
                        f"{peer}: {exc!r}"
                    )
                with self._inbox_cond:
                    self._dead.add(peer)
                    self._inbox_cond.notify_all()

    def _send(self, peer: int, msg: tuple) -> None:
        self._outbox.put((peer, msg))
        self.stats.messages += 1
        self.stats.bytes_moved += _payload_nbytes(msg)

    # -- receiving ------------------------------------------------------
    def _receiver_main(self) -> None:
        """Pump every pipe until close() wakes it, serving page requests
        eagerly."""
        poller = select.poll()
        peer_of = {}
        for peer, conn in self.conns.items():
            poller.register(conn.fileno(), select.POLLIN)
            peer_of[conn.fileno()] = peer
        poller.register(self._wake_recv, select.POLLIN)
        while True:
            woken = False
            for fd, _events in poller.poll():
                if fd == self._wake_recv:
                    woken = True
                    continue
                peer = peer_of[fd]
                try:
                    msg = self.conns[peer].recv()
                except (EOFError, OSError):
                    poller.unregister(fd)
                    with self._inbox_cond:
                        self._dead.add(peer)
                        self._inbox_cond.notify_all()
                    continue
                if msg[0] == "breq":
                    self._serve_page_batch(peer, msg)
                else:
                    with self._inbox_cond:
                        self._inbox[peer].append(msg)
                        self._inbox_cond.notify_all()
            if woken:
                return

    def _serve_page_batch(self, peer: int, msg: tuple) -> None:
        """Answer a batched page request with one descriptor per page."""
        _, req_id, items = msg
        # The receiver thread has no task context: serve spans go on the
        # rank's explicit "recv" track (Perfetto shows them as their own
        # thread lane under the rank's process).
        with global_tracer().span_at(
            "recv.serve_batch", self.rank, "recv", peer=peer, pages=len(items)
        ):
            self._serve_page_batch_inner(peer, req_id, items)

    def _serve_page_batch_inner(self, peer: int, req_id, items) -> None:
        try:
            env = self.world.env_of(self.rank)
            from ...memory.page import PageKey  # local import to avoid a cycle

            manifest = [
                self._publish_page(env, PageKey(block_id, page_index))
                for block_id, page_index in items
            ]
            reply = ("brep", req_id, manifest)
        except Exception as exc:  # noqa: BLE001 - shipped to the requester
            reply = ("perr", req_id, f"rank {self.rank} could not serve page batch "
                                     f"of {len(items)} pages: {exc!r}")
        # Uncounted send: the requester accounts the exchange (one request
        # plus one reply), as a threads world's fetch does.
        self._post_reply(peer, reply)

    def _publish_page(self, env, key) -> tuple:
        """Publish one page of ``env`` into the shm arena; return its
        descriptor 8-tuple.

        The Env's :meth:`~repro.memory.env.Env.page_export` supplies a
        no-copy view plus the content generation used to reuse the
        published slot across repeat serves of an unchanged buffer;
        endpoints exposing only ``page_snapshot`` publish the snapshot
        with no generation, forcing a fresh slot per serve.
        """
        exporter = getattr(env, "page_export", None)
        if exporter is not None:
            data, generation = exporter(key)
        else:
            data, generation = env.page_snapshot(key), None
        data = np.asarray(data)
        if not shm_eligible(data):
            raise NetworkError(
                f"page {key} has dtype {data.dtype}: an object array has no bytes "
                "to share with another process"
            )
        segment, offset, nbytes, version = self._own_arena().publish(key, data, generation)
        return (
            key.block_id,
            key.page_index,
            segment,
            offset,
            nbytes,
            data.shape,
            data.dtype.str,
            version,
        )

    def _own_arena(self) -> SharedPageArena:
        with self._arena_lock:
            if self._arena is None:
                self._arena = SharedPageArena(self.world.shm_uid, self.rank)
            return self._arena

    def open_halo_link(self, owner: int, consumer: int, nbytes: int, descriptor) -> HaloLink:
        """Map the ``owner`` → ``consumer`` halo slot (publish protocol).

        The consumer reserves ``nbytes`` in its own arena — the slot then
        shares the arena's naming and unlink discipline — and both ends
        map the resulting ``(segment, offset, nbytes)`` descriptor.
        """
        if descriptor is None:
            descriptor = self._own_arena().reserve(nbytes)
        link = HaloLink(owner, consumer, self._segcache.view(*descriptor), descriptor)
        self._links.append(link)
        return link

    def check_peers(self, awaited) -> None:
        """Raise if one of the ``awaited`` peers — the ranks a shared-word
        wait still misses — died or left the program.  A peer that stored
        its word and then finished cleanly fails nobody."""
        with self._inbox_cond:
            for peer in sorted(awaited):
                if peer in self._dead:
                    raise DeadRankError(
                        peer,
                        f"closed its connection while rank {self.rank} was waiting on "
                        "the shared control words",
                    )
                if any(m[0] == "coll" and m[1] == "exit" for m in self._inbox.get(peer, ())):
                    raise CollectiveError(
                        f"rank {peer} exited while rank {self.rank} was waiting on "
                        "the shared control words"
                    )

    def _post_reply(self, peer: int, reply: tuple) -> None:
        """Enqueue a page reply, via the fault plan / interleaving shim."""
        plan = self.world.fault_plan
        if plan is not None and reply[0] == "brep":
            fault = plan.take_reply(self.rank, peer)
            if fault is not None:
                if fault.kind == "drop_reply":
                    # The reply never leaves; the requester's _await hits
                    # its deadline and reports the outstanding request.
                    return
                if fault.kind == "corrupt_reply":
                    # Perturb the version the first descriptor names, so
                    # the requester's seqlock check rejects the reply.
                    reply = self._corrupt_reply(reply)
                elif fault.kind == "delay_reply":
                    timer = threading.Timer(
                        fault.seconds, self._outbox.put, args=((peer, reply),)
                    )
                    timer.daemon = True
                    timer.start()
                    return
        shim = type(self).reply_shim
        if shim is not None:
            delay = float(shim(self.rank, peer, reply))
            if delay > 0:
                timer = threading.Timer(delay, self._outbox.put, args=((peer, reply),))
                timer.daemon = True
                timer.start()
                return
        self._outbox.put((peer, reply))

    @staticmethod
    def _corrupt_reply(reply: tuple) -> tuple:
        """Return ``reply`` with its first descriptor's version perturbed."""
        manifest = list(reply[2])
        if manifest:
            manifest[0] = manifest[0][:7] + (manifest[0][7] ^ 1,)
        return (reply[0], reply[1], manifest)

    def _await(self, peer: int, match: Callable[[tuple], bool], what: str,
               *, fail_on_exit: bool = False) -> tuple:
        """Block until a buffered message from ``peer`` matches.

        The receiver thread does all the pumping (and page serving);
        this just consumes from the peer's inbox under the condition.
        """
        timeout = self.world.timeout
        deadline = time.monotonic() + timeout
        with self._inbox_cond:
            while True:
                queue = self._inbox[peer]
                for index, msg in enumerate(queue):
                    if match(msg):
                        del queue[index]
                        return msg
                if fail_on_exit and any(
                    m[0] == "coll" and m[1] == "exit" for m in queue
                ):
                    raise CollectiveError(
                        f"rank {peer} exited while rank {self.rank} was waiting for {what}"
                    )
                if peer in self._dead:
                    raise DeadRankError(
                        peer,
                        f"closed its connection while rank {self.rank} was "
                        f"waiting for {what}{self._pending_manifest(peer)}",
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CollectiveError(
                        f"rank {self.rank} timed out after {timeout}s waiting "
                        f"for {what} from rank {peer}{self._pending_manifest(peer)}"
                    )
                self._inbox_cond.wait(min(remaining, 0.25))

    def _pending_manifest(self, peer: Optional[int] = None) -> str:
        """Render the outstanding page requests (of ``peer``, or all) for errors."""
        pending = [
            desc
            for (req_peer, _req_id), desc in sorted(self._outstanding.items())
            if peer is None or req_peer == peer
        ]
        if not pending:
            return ""
        shown = pending[:8]
        more = f" (+{len(pending) - len(shown)} more)" if len(pending) > len(shown) else ""
        return "; outstanding requests: " + ", ".join(shown) + more

    # -- collectives ----------------------------------------------------
    def collective(self, kind: str, value: Any, op: Callable[[List[Any]], Any]) -> Any:
        """Allgather ``value`` from every rank and reduce with ``op``.

        Contributions are ordered by rank, so ``op`` sees the same list
        on every rank.
        """
        if kind not in _COLLECTIVE_KINDS:
            raise CollectiveError(f"unknown collective kind {kind!r}")
        gen = self._gens.get(kind, 0)
        self._gens[kind] = gen + 1
        for peer in self.conns:
            self._send(peer, ("coll", kind, gen, value))
        contributions = {self.rank: value}
        for peer in sorted(self.conns):
            msg = self._await(
                peer,
                # "exit" ignores the generation: during error unwinding a
                # failed rank reaches the drain barrier at a different
                # collective count than its healthy peers.
                lambda m: m[0] == "coll" and m[1] == kind
                and (kind == "exit" or m[2] == gen),
                f"{kind!r} collective (generation {gen})",
                fail_on_exit=kind != "exit",
            )
            contributions[peer] = msg[3]
        return op([contributions[rank] for rank in sorted(contributions)])

    def exit_barrier(self) -> None:
        """End-of-program drain: keep serving pages until every rank is done."""
        self.collective("exit", None, lambda values: None)

    # -- page transport -------------------------------------------------
    def issue_batch(self, owner: int, items: List[Tuple[int, int]]) -> int:
        """Send the batched page request *now*; returns the request id.

        ``items`` holds ``(owner-local block id, page index)`` pairs; the
        reply is one manifest of shared-memory descriptors, so the whole
        batch costs one request and one reply regardless of page count.
        The ``breq`` leaves immediately (the owner's receiver thread
        serves it while this rank computes) and :meth:`await_batch`
        drains the reply later.  ``owner`` is a peer
        (:func:`~repro.runtime.backends.base.group_requests_by_owner`
        refuses a self-request).
        """
        self._next_req += 1
        req_id = self._next_req
        self._outstanding[(owner, req_id)] = (
            f"bulk reply of {len(items)} pages from rank {owner} (req {req_id})"
        )
        self._send(owner, ("breq", req_id, list(items)))
        return req_id

    def await_batch(self, owner: int, req_id: int, items: List[Tuple[int, int]]) -> List[Any]:
        """Block until the ``brep`` for ``req_id`` arrived; copy its pages out
        of the owner's segments and account them."""
        try:
            msg = self._await(
                owner,
                lambda m: m[0] in ("brep", "perr") and m[1] == req_id,
                f"bulk page reply {req_id} ({len(items)} pages)",
            )
        finally:
            self._outstanding.pop((owner, req_id), None)
        if msg[0] == "perr":
            raise NetworkError(msg[2])
        try:
            datas = [
                self._segcache.read(segment, offset, nbytes, version, shape, dtype_str)
                for _, _, segment, offset, nbytes, shape, dtype_str, version in msg[2]
            ]
        except ShmVersionError as exc:
            raise ShmVersionError(
                f"bulk page reply {req_id} from rank {owner} failed its integrity check: {exc}"
            ) from None
        payload_bytes = sum(int(d.nbytes) for d in datas)
        # Logical accounting, the same as a threads world's fetch (the
        # request message was counted by _send).
        self.stats.record_bulk(self.rank, owner, len(datas), payload_bytes, messages=1)
        return datas

    def close(self) -> None:
        """Flush the sender, wake and stop the receiver, close the pipes
        and unlink this rank's arena.  A second call does nothing."""
        if self._closed:
            return
        self._closed = True
        # The sentinel queues behind any pending messages, so joining the
        # sender flushes everything (e.g. the exit-barrier contribution
        # a slower peer is still waiting for) before the pipes close.
        self._outbox.put(None)
        self._sender.join(timeout=_CLOSE_TIMEOUT)
        # Stop the receiver before closing the pipes out from under it.
        os.write(self._wake_send, b"\0")
        self._receiver.join(timeout=_CLOSE_TIMEOUT)
        # A transport thread still alive after its join timeout is stuck
        # in a blocking pipe operation; warn so CI hangs are diagnosable
        # instead of silently leaking the thread.
        leaked = [t.name for t in (self._sender, self._receiver) if t.is_alive()]
        if leaked:
            warnings.warn(
                f"rank {self.rank} transport leaked thread(s) {', '.join(leaked)} "
                f"(still alive after the {_CLOSE_TIMEOUT:g}s close timeout; likely blocked on a "
                "full or dead pipe)",
                RuntimeWarning,
                stacklevel=2,
            )
        for conn in self.conns.values():
            conn.close()
        os.close(self._wake_recv)
        os.close(self._wake_send)
        # Shared-memory hygiene: drop the halo slot views (a mapped
        # segment with a live view cannot be closed), detach peer segments
        # (their owners unlink them), then unlink our own arena.
        for link in self._links:
            link.slot = None
        self._links = []
        self._segcache.close_all()
        if self._arena is not None:
            self._arena.close(unlink=True)
            self._arena = None


class ProcessWorld(ExecutionWorld):
    """SPMD world whose ranks are real forked processes (two or more)."""

    backend_name = "process"

    @classmethod
    def available(cls) -> bool:
        """Whether the interpreter can fork ranks."""
        return hasattr(os, "fork")

    def __init__(self, size: int, *, timeout: float = 60.0) -> None:
        if size < 2:
            raise TaskError(
                f"a 'process' world needs at least two ranks (requested {size}); "
                "create_world() gives a world of one the serial world"
            )
        if not self.available():
            raise BackendError(
                "the 'process' backend needs os.fork (woven applications are "
                "inherited by forked ranks, not pickled); use the 'threads' "
                "backend on this platform"
            )
        if not shm_available():
            raise BackendError(
                f"a 'process' world of {size} ranks moves its pages through named "
                "shared memory, and multiprocessing.shared_memory cannot be "
                "imported on this interpreter; use the 'threads' backend or one rank"
            )
        # A parent killed mid-run never unlinked its segments: do it for it.
        sweep_stale_segments()
        super().__init__(size, timeout=timeout)
        #: Namespace of this world's shared-memory segment names —
        #: created pre-fork so the parent can probe-unlink any segment a
        #: dead child leaked (deterministic names, contiguous sequence).
        self.shm_uid = new_shm_uid()
        # ``stats`` is the parent-side aggregate of every rank's transport
        # counters; a rank counts into its transport's (:meth:`stats_of`).
        self._transport: Optional[ProcessTransport] = None
        self._pending_blocks: List[Tuple[Any, int, int, bool]] = []
        #: True inside a forked rank process (set in _child_main).  An
        #: injected kill there is a *real* process death (``os._exit``),
        #: so peers and the parent exercise genuine dead-pipe detection.
        self._forked_child = False
        #: First undeliverable send observed by any rank's transport,
        #: surfaced in the failure raised after collection.
        self._send_notes: List[str] = []

    # -- failure injection ----------------------------------------------
    def _execute_kill(self, fault: Any, rank: int) -> None:
        if self._forked_child:
            # Hard exit: no exit barrier, no result payload, every pipe
            # closes mid-protocol.  Peers see EOF, the parent collector
            # sees a dead result pipe and a nonzero exit code.
            os._exit(1)
        raise InjectedFault(rank, str(fault))

    # -- SPMD launch ----------------------------------------------------
    def run_spmd(
        self, body: Callable[[TaskContext], Any], *, omp_threads: int = 1
    ) -> List[RankResult]:
        results = [RankResult(rank=r) for r in range(self.size)]
        # The control words are mapped before the fork so every child
        # inherits them.
        self._offer_slots(ControlWords.shared(self.shm_uid, self.size))
        # One channel pair per unordered rank pair and a result pipe per
        # child, created before forking so every process inherits its ends.
        conns_of: Dict[int, Dict[int, _Channel]] = {r: {} for r in range(self.size)}
        for i in range(self.size):
            for j in range(i + 1, self.size):
                conns_of[i][j], conns_of[j][i] = channel_pair()
        result_pipes = {r: os.pipe() for r in range(1, self.size)}

        children: Dict[int, _Child] = {}
        for rank in range(1, self.size):
            _flush_stdio()
            pid = os.fork()
            if pid == 0:
                self._child_exit(rank, conns_of, result_pipes, body, omp_threads)
            children[rank] = _Child(pid)

        # The parent is rank 0: drop the ends belonging to other ranks.
        for rank in range(1, self.size):
            for conn in conns_of[rank].values():
                conn.close()
            os.close(result_pipes[rank][1])
        results_in = {rank: _Channel(rfd, None) for rank, (rfd, _) in result_pipes.items()}
        self._transport = transport = ProcessTransport(self, 0, conns_of[0])
        try:
            self._run_rank(results[0], body, omp_threads)
            self._collect_children(results, results_in, children)
        finally:
            for chan in results_in.values():
                chan.close()
            self.stats.merge(transport.stats)
            if transport.first_send_error is not None:
                self._send_notes.insert(0, transport.first_send_error)
            transport.close()
            self._transport = None
            for child in children.values():
                if child.join(5.0) is None:  # pragma: no cover - defensive teardown
                    child.terminate()
                    child.join(5.0)
            self._close_control()
        raise_spmd_failures(results, note=self._send_notes[0] if self._send_notes else None)
        return results

    def _run_rank(
        self, result: RankResult, body: Callable[[TaskContext], Any], omp_threads: int
    ) -> None:
        """Run this process's rank, then the exit drain barrier."""
        context = TaskContext(
            mpi_rank=result.rank, mpi_size=self.size, omp_thread=0, omp_threads=omp_threads
        )
        try:
            with task_scope(context):
                result.value = body(context)
        except BaseException as exc:  # noqa: BLE001 - propagated by caller
            result.error = exc
        finally:
            try:
                self._transport.exit_barrier()
            except Exception as exc:  # noqa: BLE001 - secondary failure
                if result.error is None:
                    result.error = exc

    def _child_exit(self, rank: int, conns_of, result_pipes, body, omp_threads) -> None:
        """A forked rank's whole life: run it, then leave by ``os._exit`` —
        status 0, or 1 after printing what escaped it — never returning
        into the parent's stack."""
        status = 1
        try:
            # Drop inherited pipe ends belonging to other ranks, so a dead
            # peer is observable as EOF rather than a silent hang.
            for other, conns in conns_of.items():
                if other != rank:
                    for conn in conns.values():
                        conn.close()
            for other, (rfd, wfd) in result_pipes.items():
                os.close(rfd)
                if other != rank:
                    os.close(wfd)
            self._child_main(rank, conns_of[rank], _Channel(None, result_pipes[rank][1]),
                             body, omp_threads)
            status = 0
        except Exception:  # noqa: BLE001 - the rank's last boundary: report, exit 1
            import traceback

            traceback.print_exc()
        finally:
            _flush_stdio()
            os._exit(status)

    def _child_main(
        self,
        rank: int,
        conns: Dict[int, _Channel],
        result_conn: _Channel,
        body: Callable[[TaskContext], Any],
        omp_threads: int,
    ) -> None:
        self._forked_child = True
        self._transport = transport = ProcessTransport(self, rank, conns)
        # The child's fork-copied trace may contain pre-fork counters;
        # reset so only this rank's tasks are shipped back to the parent.
        # Likewise for the span buffers: the fork copied rank 0's
        # pre-fork spans (weave, warm-up) and shipping them back would
        # duplicate them in the merged timeline.
        global_trace().reset()
        tracer = global_tracer()
        tracer.reset()
        result = RankResult(rank=rank)
        self._run_rank(result, body, omp_threads)
        payload = {
            # Rank results cross a process boundary here (the
            # distributed aspect's: a rank's owned part of the answer).
            "value": result.value,
            "error": _force_picklable(
                result.error, lambda e: RuntimeError(f"rank {rank} failed: {e!r}")
            ),
            "counters": global_trace().all_counters(),
            "stats": transport.stats,
            # Rank-local observability buffers ride the same result
            # channel; snapshot timestamps are wall-clock anchored, so
            # the parent's merge lines ranks up on one timeline.
            "spans": tracer.snapshot() if tracer.enabled else [],
            "send_error": transport.first_send_error,
        }
        try:
            try:
                result_conn.send(payload)  # pickles before it writes a byte
            except OSError:
                raise
            except Exception as exc:  # noqa: BLE001 - the value does not pickle
                payload.update(value=None, error=RuntimeError(
                    f"rank {rank}'s result does not pickle: {exc!r}"))
                result_conn.send(payload)
        finally:
            result_conn.close()
            transport.close()

    def _collect_children(self, results, results_in, children) -> None:
        trace = global_trace()
        deadline = time.monotonic() + self.timeout + 10.0
        for rank in range(1, self.size):
            recv_conn = results_in[rank]
            remaining = max(deadline - time.monotonic(), 0.1)
            child = children[rank]
            try:
                if recv_conn.poll(remaining):
                    payload = recv_conn.recv()
                else:
                    exitcode = child.join(0.5)
                    if exitcode is not None and exitcode != 0:
                        raise DeadRankError(
                            rank, f"process exited with code {exitcode} before reporting"
                        )
                    raise NetworkError(
                        f"rank {rank} did not report a result within {self.timeout}s"
                    )
            except (EOFError, OSError):
                # Dead result pipe: the child died (crash or injected
                # os._exit) without shipping its payload.
                exitcode = child.join(5.0)
                results[rank].error = DeadRankError(
                    rank,
                    "died without reporting a result"
                    + (f" (exit code {exitcode})" if exitcode is not None else ""),
                )
                continue
            except NetworkError as exc:
                results[rank].error = exc
                continue
            results[rank].value = payload["value"]
            results[rank].error = payload["error"]
            if payload.get("send_error"):
                self._send_notes.append(payload["send_error"])
            trace.merge_counters(payload["counters"])
            self.stats.merge(payload["stats"])
            global_tracer().merge_events(payload.get("spans", ()))

    # -- Env / block registration --------------------------------------
    def register_block(self, logical_key: Any, rank: int, block_id: int, *, owner: bool) -> None:
        super().register_block(logical_key, rank, block_id, owner=owner)
        self._pending_blocks.append((logical_key, rank, block_id, owner))

    def commit_registration(self) -> None:
        """Allgather every rank's directory entries (doubles as a barrier)."""
        transport = self._require_transport()
        pending, self._pending_blocks = self._pending_blocks, []
        if self.fault_plan is not None:
            self.fault_point(transport.rank, "register")
        own_rank = transport.rank
        for logical_key, rank, block_id, owner in transport.collective("reg", pending, _concat):
            if rank == own_rank:
                continue  # registered locally by register_block already
            self.directory.register(logical_key, rank, block_id, owner=owner)

    # -- collectives ----------------------------------------------------
    def barrier(self) -> None:
        transport = self._require_transport()
        transport.stats.barriers += 1
        transport.collective("bar", None, lambda values: None)

    def allreduce(self, value: Any, op: Callable[[List[Any]], Any]) -> Any:
        transport = self._require_transport()
        transport.stats.allreduces += 1
        if op is and_bits and self.control is not None:
            # The per-step agreement: shared words, no messages.
            return self._agree(transport.rank, value)
        return transport.collective("red", value, op)

    def _require_transport(self) -> ProcessTransport:
        """This rank's transport; it exists only inside :meth:`run_spmd`."""
        transport = self._transport
        if transport is None:
            raise NetworkError(
                "process-backend collectives are only available inside run_spmd()"
            )
        return transport

    # -- page transport -------------------------------------------------
    def fetch_pages_bulk_async(
        self, requester: int, requests: Sequence[Tuple[Any, int]]
    ) -> CommHandle:
        """Nonblocking batched fetch: every ``breq`` leaves immediately.

        One aggregated request per owning rank — always another rank: a
        rank reads its own Blocks in place — is sent right away; the
        returned handle drains the replies — the receiver thread serves
        peers meanwhile — only when waited.  Owner resolution failures
        raise here, at issue time.
        """
        transport = self._require_transport()
        grouped = group_requests_by_owner(self.directory, requests, requester)
        pending = [
            (owner, items, transport.issue_batch(owner, [(bid, page) for _, page, bid in items]))
            for owner, items in sorted(grouped.items())
        ]
        return _ProcessBulkHandle(transport, pending)

    # -- halo slots (publish protocol) -----------------------------------
    def _halo_wait(self, ready, late, behind):
        transport = self._require_transport()
        return spin_until(
            ready,
            timeout=self.timeout,
            late=late,
            poll=lambda: transport.check_peers(behind()),
            busy_spins=_BUSY_SPINS,
        )

    def open_halo_link(
        self, owner: int, consumer: int, *, nbytes: int = 0, descriptor: Any = None
    ) -> HaloLink:
        return self._require_transport().open_halo_link(owner, consumer, nbytes, descriptor)

    def _close_control(self) -> None:
        control, self.control = self.control, None
        if control is not None:
            control.close(unlink=not self._forked_child)

    # -- lifecycle / accounting -----------------------------------------
    def stats_of(self, rank: int) -> NetworkStats:
        """The calling rank's transport counters (merged into ``stats`` at the end)."""
        return self._require_transport().stats

    def finalize(self) -> None:
        self.rank_envs.clear()
        self._pending_blocks = []
        self._close_control()
        # Dead-child shared-memory sweep: ranks that closed cleanly
        # already unlinked their own arenas (the probe finds nothing);
        # ranks that died mid-run left deterministically named segments
        # the parent can still unlink — keeping /dev/shm free of leaks
        # no matter how the run ended.
        for rank in range(self.size):
            cleanup_rank_segments(self.shm_uid, rank)
        self.finalized = True


class _ProcessBulkHandle(CommHandle):
    """The ``breq``/``brep`` exchanges of one bulk fetch, issued to every owner."""

    __slots__ = ("_transport", "_pending")

    def __init__(self, transport: ProcessTransport, pending) -> None:
        super().__init__()
        self._transport = transport
        #: ``(owner, manifest items, req_id)`` per owner, in owner order.
        self._pending = pending

    def _wait(self) -> BulkFetchResult:
        result = BulkFetchResult()
        for owner, items, req_id in self._pending:
            datas = self._transport.await_batch(
                owner, req_id, [(block_id, page) for _, page, block_id in items]
            )
            result.pages.extend(
                (logical_key, page, data)
                for (logical_key, page, _), data in zip(items, datas)
            )
            result.exchanges += 1
            result.nbytes += sum(int(d.nbytes) for d in datas)
        return result
