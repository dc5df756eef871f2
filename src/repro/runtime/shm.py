"""Zero-copy shared-memory page transport for the process backend.

The one data plane of a multi-rank process world: each rank *publishes*
its served pages into a named POSIX shared-memory arena
and the ``brep`` reply carries only **descriptors** — ``(segment,
offset, nbytes, version)`` slots — that the requester maps and copies
from directly.  The payload crossing the pipe is a few dozen bytes of
manifest per page, independent of page size.

Concurrency is handled with a seqlock-style version stamp per slot:

* the owner bumps the slot's version to an **odd** number, writes the
  page bytes, then bumps it to the next **even** number;
* the requester checks the version **before and after** its copy — both
  reads must equal the (even) version named in the descriptor,
  otherwise the copy may have raced a concurrent refresh and
  :class:`ShmVersionError` is raised.

Under the refresh protocol's synchronisation guarantees (owners never
mutate read buffers between sync points; every fetch completes before
the owner's next buffer swap) a mismatch can only mean protocol
corruption or a corrupted reply: the requester fails the fetch as a
failed integrity check, it never retries.

Segment hygiene: segment names are deterministic
(``repro_shm_{uid}_{rank}_{seq}`` with a monotonically increasing
``seq``), so the parent process can *probe-unlink* every segment a dead
child leaked without any bookkeeping channel — unlink names in order
until the first ``FileNotFoundError`` (:func:`cleanup_rank_segments`).
The ``uid`` starts with the creating process id
(``{pid}x{random}``), so a later world can also recognise and unlink
what a *killed parent* left behind (:func:`sweep_stale_segments`).
Those three paths — the owner's unlink on close, the parent's probe
and the next world's sweep — are the whole cleanup: segments are
opened with ``shm_open`` and ``mmap`` directly (:class:`SharedMemory`)
by ranks that ``os.fork`` made: nothing of ``multiprocessing`` is
imported, so no resource tracker process stands behind them.

The module also holds the **control words** of the publish protocol
(:class:`ControlWords`): per rank a pair of step-agreement words and per
directed owner → consumer link a stamp, a checksum and an
acknowledgement word — in a named segment for the process backend, in a
plain array for the threads backend.  ``docs/protocols.md`` has the
layout and the ordering argument.
"""

from __future__ import annotations

import mmap
import os
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import CollectiveError, NetworkError, PageFetchError

#: ``os.sched_yield`` where the platform has it (see :func:`spin_until`).
_sched_yield = getattr(os, "sched_yield", None)

try:  # pragma: no cover - import guard exercised via shm_available()
    import _posixshmem
except ImportError:  # pragma: no cover - platforms without POSIX shm
    _posixshmem = None

__all__ = [
    "CHECK_ENV_VAR",
    "ControlWords",
    "SegmentCache",
    "SharedPageArena",
    "ShmVersionError",
    "cleanup_rank_segments",
    "control_segment_name",
    "new_shm_uid",
    "protocol_checks",
    "segment_name",
    "set_protocol_checks",
    "shm_available",
    "shm_eligible",
    "spin_until",
    "sweep_stale_segments",
]

#: Bytes of the per-slot seqlock version header (one little-endian uint64).
_HEADER = 8

#: Every segment name starts with this (see :func:`segment_name`).
_NAME_PREFIX = "repro_shm_"

#: Environment variable turning the publish protocol's runtime invariants
#: on (``REPRO_CHECK=1``); read once at import, like ``REPRO_TRACE``.
CHECK_ENV_VAR = "REPRO_CHECK"

_protocol_checks = os.environ.get(CHECK_ENV_VAR, "").strip().lower() in (
    "1", "true", "yes", "on"
)


def protocol_checks() -> bool:
    """Whether the refresh protocol asserts its invariants at every step."""
    return _protocol_checks


def set_protocol_checks(enabled: bool) -> bool:
    """Switch the protocol invariants on or off; returns the previous setting.

    For tests: set before the world forks so child ranks inherit it.
    """
    global _protocol_checks
    previous, _protocol_checks = _protocol_checks, bool(enabled)
    return previous

#: Default arena segment size.  Slots are allocated by bumping a cursor;
#: a page larger than this gets a dedicated segment of its exact size.
_DEFAULT_SEGMENT_BYTES = 1 << 22  # 4 MiB


class ShmVersionError(NetworkError):
    """A shared-memory page read raced a concurrent slot rewrite.

    Raised when the slot's version stamp read before/after the copy does
    not match the version named in the descriptor.  Under the refresh
    protocol this cannot happen on a healthy run, so callers treat it
    like a failed integrity check rather than retrying.
    """


class _NamedSegment:
    """One named POSIX shared-memory segment, mapped read-write.

    ``shm_open``, ``ftruncate`` and ``mmap``, as
    ``multiprocessing.shared_memory.SharedMemory`` does, but registered
    with no resource tracker: the module's own unlink paths are the
    cleanup.  ``create=True`` fails if the name exists.
    """

    __slots__ = ("name", "size", "buf", "_mmap")

    def __init__(self, name: str, create: bool = False, size: int = 0) -> None:
        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
        fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            else:
                size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, size)
        except BaseException:
            if create:
                _posixshmem.shm_unlink("/" + name)
            raise
        finally:
            os.close(fd)  # the mapping keeps the segment
        self.name, self.size = name, size
        self.buf: Optional[memoryview] = memoryview(self._mmap)

    def close(self) -> None:
        """Unmap (``BufferError`` while a view of :attr:`buf` is alive)."""
        if self.buf is not None:
            self.buf.release()
            self.buf = None
            self._mmap.close()

    def unlink(self) -> None:
        _posixshmem.shm_unlink("/" + self.name)


#: What the arenas, the segment caches and the control words open.
SharedMemory = _NamedSegment if _posixshmem is not None else None


def shm_available() -> bool:
    """Whether named shared memory is usable on this interpreter/OS."""
    return SharedMemory is not None


def new_shm_uid() -> str:
    """A short unique id namespacing one world's segment names.

    ``{pid}x{random}``: the creating process id is what lets
    :func:`sweep_stale_segments` tell a live world's segments from the
    leftovers of a killed one.
    """
    return f"{os.getpid()}x{uuid.uuid4().hex[:8]}"


def segment_name(uid: str, rank: int, seq: int) -> str:
    """Deterministic segment name: ``repro_shm_{uid}_{rank}_{seq}``.

    The fixed shape is what makes parent-side cleanup possible without a
    bookkeeping channel: segments of one rank are numbered contiguously
    from 0, so probing names in order finds everything the rank created.
    """
    return f"{_NAME_PREFIX}{uid}_{int(rank)}_{int(seq)}"


def control_segment_name(uid: str) -> str:
    """Name of a world's control segment (:class:`ControlWords`)."""
    return f"{_NAME_PREFIX}{uid}_ctl"


def sweep_stale_segments(directory: str = "/dev/shm") -> int:
    """Unlink every ``repro_shm_*`` segment whose creating process is gone.

    A parent killed mid-run (SIGKILL, OOM) never reaches ``finalize()``;
    its segments would otherwise outlive it until reboot.  Called before
    a process world creates its own segments; returns how many names
    were removed.  A no-op where ``directory`` cannot be listed (no
    POSIX shm file system) and for names without a parsable pid.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    removed = 0
    for name in names:
        if not name.startswith(_NAME_PREFIX):
            continue
        pid_text = name[len(_NAME_PREFIX):].split("x", 1)[0]
        if not pid_text.isdigit():
            continue
        try:
            os.kill(int(pid_text), 0)
        except ProcessLookupError:
            pass  # creator is gone: the segment is nobody's
        except OSError:
            continue  # exists but not ours to signal: leave it alone
        else:
            continue
        try:
            os.unlink(os.path.join(directory, name))
            removed += 1
        except OSError:  # pragma: no cover - raced another sweeper
            pass
    return removed


def shm_eligible(data: np.ndarray) -> bool:
    """Whether a page array can travel as a shared-memory descriptor:
    anything but an object array, whose elements are pointers into the
    owner's heap.  A zero-byte page publishes a header-only slot."""
    return not data.dtype.hasobject


class _Segment:
    """One owned shared segment plus its bump-allocation cursor."""

    __slots__ = ("shm", "name", "cursor", "capacity")

    def __init__(self, shm: Any, name: str, capacity: int) -> None:
        self.shm = shm
        self.name = name
        self.cursor = 0
        self.capacity = capacity


class SharedPageArena:
    """The publishing half: one rank's pages, exported as shm slots.

    Each served page gets a **slot**: an 8-byte little-endian uint64
    seqlock version header followed by the page bytes.  ``publish``
    returns the slot's descriptor ``(segment_name, offset, nbytes,
    version)``; slots are reused across refreshes (keyed by page key)
    and rewritten in place under the seqlock when the page's content
    generation advances.  Slot allocation is a simple bump cursor over
    one or more named segments created on demand — pages of a steady
    halo allocate once and then only rewrite.

    ``generation`` is the owner's cheap change stamp (the swap count of
    the block's image class): publishing the same key at an unchanged generation
    returns the existing descriptor without touching the slot, so
    duplicate serves within one step cost nothing and version stamps
    stay deterministic.  Without a generation (endpoints exposing only
    ``page_snapshot``) every publish takes a **fresh** slot instead —
    rewriting in place would race a peer still reading the previous
    descriptor of the same page.
    """

    def __init__(
        self, uid: str, rank: int, *, segment_bytes: int = _DEFAULT_SEGMENT_BYTES
    ) -> None:
        if SharedMemory is None:  # pragma: no cover - guarded by shm_available
            raise NetworkError("shared memory is unavailable on this platform")
        self.uid = uid
        self.rank = int(rank)
        self.segment_bytes = int(segment_bytes)
        self._segments: List[_Segment] = []
        #: page key -> (segment index, offset, nbytes, version, generation)
        self._slots: Dict[Any, Tuple[int, int, int, int, Optional[int]]] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def segment_count(self) -> int:
        """How many named segments the arena has created so far."""
        return len(self._segments)

    def _allocate(self, need: int) -> Tuple[int, int]:
        """Reserve ``need`` bytes (rounded up to 8); return (segment idx, offset)."""
        need += (-need) % 8  # keep every header 8-byte aligned
        seg = self._segments[-1] if self._segments else None
        if seg is None or seg.cursor + need > seg.capacity:
            capacity = max(self.segment_bytes, need)
            name = segment_name(self.uid, self.rank, len(self._segments))
            try:
                shm = SharedMemory(name=name, create=True, size=capacity)
            except OSError as exc:
                raise NetworkError(
                    f"rank {self.rank} could not create shared segment {name!r} of "
                    f"{capacity} bytes in /dev/shm: {exc}"
                ) from exc
            seg = _Segment(shm, name, capacity)
            self._segments.append(seg)
        offset = seg.cursor
        seg.cursor += need
        return len(self._segments) - 1, offset

    # ------------------------------------------------------------------
    def publish(
        self, key: Any, data: np.ndarray, generation: Optional[int] = None
    ) -> Tuple[str, int, int, int]:
        """Export a page; return its descriptor ``(segment, offset, nbytes, version)``.

        ``data`` must be :func:`shm_eligible`; non-contiguous views are
        compacted here (the one copy the owner pays, into shared memory).
        ``generation=None`` (an endpoint with no change stamp) publishes
        into a fresh slot every call; otherwise the slot is rewritten in
        place only when ``generation`` differs from the published one —
        safe because the refresh protocol completes every fetch before
        the owner's next buffer swap can advance the generation.
        """
        if self._closed:
            raise NetworkError(f"rank {self.rank} published a page after arena close")
        with self._lock:
            slot = self._slots.get(key)
            nbytes = int(data.nbytes)
            if slot is not None:
                seg_index, offset, slot_nbytes, version, slot_gen = slot
                if generation is None:
                    # No change stamp means no memoization — and a peer
                    # may still hold a descriptor for the current bytes
                    # (two requesters of one page within one step), so
                    # never rewrite in place: publish into a fresh slot
                    # and leave the old one valid.
                    slot = None
                elif slot_nbytes != nbytes:
                    slot = None  # size changed: leak the old slot, allocate fresh
                elif slot_gen == generation:
                    seg = self._segments[seg_index]
                    return (seg.name, offset, nbytes, version)
                elif _protocol_checks and slot_gen is not None and generation < slot_gen:
                    # REPRO_CHECK: a slot never takes a page older than
                    # the generation it holds.
                    raise ShmVersionError(
                        f"page {key!r} of generation {generation} would overwrite "
                        f"generation {slot_gen} in its slot"
                    )
            if slot is None:
                seg_index, offset = self._allocate(_HEADER + nbytes)
                version = 0
            seg = self._segments[seg_index]
            buf = seg.shm.buf
            header = np.frombuffer(buf, dtype=np.uint64, count=1, offset=offset)
            try:
                # Seqlock write: odd while the bytes are torn, even when done.
                header[0] = version + 1
                raw = np.frombuffer(
                    buf, dtype=np.uint8, count=nbytes, offset=offset + _HEADER
                )
                try:
                    raw[:] = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
                finally:
                    del raw
                version += 2
                header[0] = version
            finally:
                # Drop the buffer views even when the write raises: a
                # traceback frame holding them would make the segment's
                # mmap unclosable (BufferError) and mask the real error.
                del header
            self._slots[key] = (seg_index, offset, nbytes, version, generation)
            return (seg.name, offset, nbytes, version)

    def reserve(self, nbytes: int) -> Tuple[str, int, int]:
        """Reserve a raw ``nbytes`` region: ``(segment, offset, nbytes)``.

        Halo slots of the publish protocol live here, beside the page
        slots, so they share the arena's naming and unlink discipline.
        The region has no seqlock header — its validity word is a stamp
        in the world's :class:`ControlWords`; map it with
        :meth:`SegmentCache.view`.
        """
        if self._closed:
            raise NetworkError(f"rank {self.rank} reserved a slot after arena close")
        with self._lock:
            seg_index, offset = self._allocate(max(int(nbytes), 8))
            return (self._segments[seg_index].name, offset, int(nbytes))

    # ------------------------------------------------------------------
    def close(self, *, unlink: bool = True) -> None:
        """Release (and by default unlink) every owned segment; idempotent."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            for seg in self._segments:
                try:
                    seg.shm.close()
                    if unlink:
                        seg.shm.unlink()
                except (FileNotFoundError, OSError):  # pragma: no cover - teardown
                    pass
            self._segments = []
            self._slots = {}


class SegmentCache:
    """The reading half: attached peer segments, cached by name.

    ``read`` maps the descriptor's segment (attaching once per name),
    verifies the seqlock version before and after copying the page
    bytes out, and returns the copy as a correctly shaped ndarray.
    Attached segments are **closed but never unlinked** here — the
    owner (or the parent's dead-child sweep) owns the unlink.
    """

    def __init__(self) -> None:
        self._attached: Dict[str, Any] = {}
        #: REPRO_CHECK: ``(segment, offset)`` -> the highest version read there.
        self._versions: Dict[Tuple[str, int], int] = {}

    def _segment(self, name: str) -> Any:
        shm = self._attached.get(name)
        if shm is None:
            if SharedMemory is None:  # pragma: no cover - guarded by callers
                raise NetworkError("shared memory is unavailable on this platform")
            try:
                shm = SharedMemory(name=name)
            except FileNotFoundError as exc:
                raise NetworkError(
                    f"shared page segment {name!r} does not exist (owner died or "
                    "already cleaned up)"
                ) from exc
            self._attached[name] = shm
        return shm

    def read(
        self,
        name: str,
        offset: int,
        nbytes: int,
        version: int,
        shape: Tuple[int, ...],
        dtype_str: str,
    ) -> np.ndarray:
        """Copy one slot out of a peer's arena, seqlock-checked."""
        if _protocol_checks:
            # REPRO_CHECK: a slot's versions only grow.
            seen = self._versions.get((name, offset), 0)
            if version < seen:
                raise ShmVersionError(
                    f"slot {name!r}+{offset} went back from version {seen} to {version}"
                )
            self._versions[(name, offset)] = version
        shm = self._segment(name)
        buf = shm.buf
        header = np.frombuffer(buf, dtype=np.uint64, count=1, offset=offset)
        try:
            before = int(header[0])
            if before != version:
                raise ShmVersionError(
                    f"slot {name!r}+{offset} is at version {before}, descriptor "
                    f"promised {version} (stale descriptor or torn write)"
                )
            dt = np.dtype(dtype_str)
            window = np.frombuffer(
                buf, dtype=dt, count=nbytes // dt.itemsize, offset=offset + _HEADER
            )
            try:
                data = window.reshape(shape).copy()
            finally:
                del window
            after = int(header[0])
            if after != version:
                raise ShmVersionError(
                    f"slot {name!r}+{offset} was rewritten (version {version} -> "
                    f"{after}) while being read"
                )
        finally:
            # Drop the buffer views even when a version check raises: a
            # traceback frame holding them would make the segment's mmap
            # unclosable (BufferError) and mask the real error.
            del header
        return data

    def view(self, name: str, offset: int, nbytes: int) -> np.ndarray:
        """Writable byte view of a raw region (:meth:`SharedPageArena.reserve`).

        The view aliases the mapped segment: whoever holds it must drop
        it before :meth:`close_all`, or the mapping cannot be closed.
        """
        return np.frombuffer(self._segment(name).buf, dtype=np.uint8, count=nbytes, offset=offset)

    def close_all(self) -> None:
        """Detach every cached segment (no unlink); idempotent."""
        for shm in self._attached.values():
            try:
                shm.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
        self._attached = {}


def spin_until(
    ready: Callable[[], Any],
    *,
    timeout: float,
    late: Callable[[], BaseException],
    poll: Optional[Callable[[], None]] = None,
    busy_spins: int = 0,
) -> Any:
    """Poll ``ready()`` until it returns something other than ``None``.

    The wait of the publish protocol: another rank is about to store one
    shared word, usually within the skew of two sweeps.  ``busy_spins``
    polls are separated by ``sched_yield`` (a waiter with a core of its
    own: forked ranks; a sleeping waiter measured ~250 µs a step slower);
    then every poll is followed by ``time.sleep(0)`` — on Linux a real
    ~50 µs sleep that also hands the GIL to ranks sharing it — stretched
    to 1 ms once 20 ms have passed.  ``poll()`` runs after every sleep
    and raises when the awaited rank is known dead, so a death surfaces
    within one back-off interval; ``late()`` builds the error raised
    once ``timeout`` seconds have passed.
    """
    value = ready()
    if value is not None:
        return value
    for _ in range(busy_spins if _sched_yield is not None else 0):
        _sched_yield()
        value = ready()
        if value is not None:
            return value
    started = time.monotonic()
    pause = 0.0
    while True:
        time.sleep(pause)
        value = ready()
        if value is not None:
            return value
        if poll is not None:
            poll()
        waited = time.monotonic() - started
        if waited >= timeout:
            raise late()
        if waited > 0.02:
            pause = 0.001


#: Low bits of an agreement word hold the flags, the rest the round.
_FLAG_BITS = 8
_FLAG_MASK = (1 << _FLAG_BITS) - 1


def _rounds_behind(behind: Dict[int, int]) -> str:
    return ", ".join(f"rank {rank} is {late} round(s) behind" for rank, late in behind.items())


class ControlWords:
    """Agreement words and halo-slot stamps of one world's publish protocol.

    One ``int64`` array — over a named shared segment for forked ranks
    (:meth:`shared`), a plain array for ranks that are threads — laid
    out as::

        agree[rank, parity]      round << 8 | flags of the rank's latest
                                 step agreement, two-deep by round parity
        stamp[owner, consumer]   round whose data the owner -> consumer
                                 halo slot holds
        crc[owner, consumer]     crc32 of that data   (REPRO_CHECK only)
        ack[owner, consumer]     last round the consumer copied out
                                 (REPRO_CHECK only)

    Every word has one writer.  Three orderings make the slots safe
    without a barrier (``docs/protocols.md`` spells them out): the owner
    stores a slot's data before its stamp; it rewrites the slot only
    after the agreement of the *next* round, which the consumer enters
    only after copying the slot out; and a rank overwrites an agreement
    word only two rounds later, when nobody can still be reading it.
    Aligned 8-byte stores are atomic and stay in program order on the
    machines this runs on (x86-64 TSO; the same assumption as the page
    arena's seqlock).

    No method keeps a view of the words in a local: an exception raised
    from a wait carries its frames, and a surviving view would make the
    shared segment's mapping unclosable (``BufferError``).
    """

    def __init__(self, size: int, buffer: Any = None) -> None:
        self.size = int(size)
        count = self.word_count(size)
        if buffer is None:
            words = np.zeros(count, dtype=np.int64)
        else:
            words = np.frombuffer(buffer, dtype=np.int64, count=count)
            words[:] = 0
        self._segment: Any = None
        self._agree = words[: 2 * size].reshape(size, 2)
        links = words[2 * size:].reshape(3, size, size)
        self.stamp, self.crc, self.ack = links[0], links[1], links[2]

    @staticmethod
    def word_count(size: int) -> int:
        return 2 * size + 3 * size * size

    @classmethod
    def shared(cls, uid: str, size: int) -> "ControlWords":
        """Control words in a fresh named segment (create before forking)."""
        if SharedMemory is None:  # pragma: no cover - guarded by shm_available
            raise NetworkError("shared memory is unavailable on this platform")
        segment = SharedMemory(
            name=control_segment_name(uid), create=True, size=8 * cls.word_count(size)
        )
        control = cls(size, segment.buf)
        control._segment = segment
        return control

    def close(self, *, unlink: bool) -> None:
        """Drop the word views and detach (the creator also unlinks)."""
        self._agree = self.stamp = self.crc = self.ack = None
        segment, self._segment = self._segment, None
        if segment is not None:
            try:
                segment.close()
                if unlink:
                    segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - teardown
                pass

    # -- step agreement ---------------------------------------------------
    def agree(self, rank: int, round: int, flags: int, wait: Callable[..., Any]) -> int:
        """Post ``flags`` for ``round`` and return the AND over every rank's.

        ``wait(ready, late, behind)`` is the caller's :func:`spin_until`
        with its timeout bound and a liveness poll of the ranks
        ``behind()`` — those whose word is still missing; a peer the wait
        is not missing may have left the program long ago.
        """
        parity = round & 1
        if _protocol_checks and int(self._agree[rank, parity]) >> _FLAG_BITS >= round:
            raise CollectiveError(
                f"rank {rank}: agreement word of round {round} is not monotone "
                f"(holds round {int(self._agree[rank, parity]) >> _FLAG_BITS})"
            )
        self._agree[rank, parity] = (round << _FLAG_BITS) | (flags & _FLAG_MASK)

        def ready() -> Optional[int]:
            agreed = _FLAG_MASK
            for peer, word in enumerate(self._agree[:, parity].tolist()):
                at = word >> _FLAG_BITS
                if at < round:
                    return None
                if at > round:
                    raise CollectiveError(
                        f"rank {rank} agreeing on round {round} found rank {peer} "
                        f"at round {at}: the ranks disagree on the step sequence"
                    )
                agreed &= word
            return agreed

        def behind() -> Dict[int, int]:
            return {
                peer: round - (word >> _FLAG_BITS)
                for peer, word in enumerate(self._agree[:, parity].tolist())
                if word >> _FLAG_BITS < round
            }

        def late() -> CollectiveError:
            return CollectiveError(
                f"rank {rank} timed out in the step agreement of round {round}: "
                + _rounds_behind(behind())
            )

        return wait(ready, late, behind)

    # -- halo slots ---------------------------------------------------------
    def claim(self, owner: int, consumer: int) -> None:
        """REPRO_CHECK: the consumer must have copied the previous data out."""
        stamp, ack = int(self.stamp[owner, consumer]), int(self.ack[owner, consumer])
        if stamp != ack:
            raise CollectiveError(
                f"rank {owner} is about to rewrite its halo slot for rank {consumer} "
                f"(stamped round {stamp}) but the consumer only acknowledged round {ack}"
            )

    def publish(self, owner: int, consumer: int, round: int, crc: Optional[int]) -> None:
        """Stamp the owner -> consumer slot, whose data is already stored."""
        if crc is not None:
            if int(self.stamp[owner, consumer]) >= round:
                raise CollectiveError(
                    f"halo stamp {owner}->{consumer} is not monotone: round "
                    f"{int(self.stamp[owner, consumer])} then {round}"
                )
            self.crc[owner, consumer] = crc
        self.stamp[owner, consumer] = round

    def await_stamps(
        self, consumer: int, owners: List[int], round: int, wait: Callable[..., Any]
    ) -> None:
        """Return once every slot ``owners`` push to ``consumer`` shows ``round``."""
        def ready() -> Optional[bool]:
            for owner in owners:
                at = int(self.stamp[owner, consumer])
                if at < round:
                    return None
                if at > round:
                    # Always on: newer data than the step asks for would be
                    # consumed silently otherwise.
                    raise PageFetchError(
                        f"rank {consumer} waiting for round {round} found the halo "
                        f"slot of rank {owner} already stamped round {at}"
                    )
            return True

        def behind() -> Dict[int, int]:
            return {
                owner: round - int(self.stamp[owner, consumer])
                for owner in owners
                if int(self.stamp[owner, consumer]) < round
            }

        def late() -> PageFetchError:
            return PageFetchError(
                f"rank {consumer} timed out waiting for the halo stamps of round "
                f"{round}: " + _rounds_behind(behind())
            )

        wait(ready, late, behind)

    def acknowledge(self, owner: int, consumer: int, round: int, crc: int) -> None:
        """REPRO_CHECK: the copy taken for ``round`` is what the owner stored."""
        if int(self.stamp[owner, consumer]) != round:
            raise PageFetchError(
                f"halo slot {owner}->{consumer} was restamped (round "
                f"{int(self.stamp[owner, consumer])}) while rank {consumer} copied round {round}"
            )
        if int(self.crc[owner, consumer]) != crc:
            raise PageFetchError(
                f"halo slot {owner}->{consumer} of round {round} differs from what "
                f"rank {owner} read out of its image (crc {crc:#010x} != "
                f"{int(self.crc[owner, consumer]):#010x})"
            )
        self.ack[owner, consumer] = round


def _unlink_if_present(name: str) -> bool:
    """Unlink the named segment; False when it does not exist (any more)."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        return False
    return True


def cleanup_rank_segments(uid: str, rank: int, *, limit: int = 4096) -> int:
    """Unlink every segment ``rank`` left behind; return how many were removed.

    Because segment names are numbered contiguously from 0, probing in
    order until the first missing name finds everything the rank
    created — whether it died before unlinking or never created any.
    Used by the parent's ``finalize()`` for dead-child recovery (a clean
    rank already unlinked its own, so the probe stops immediately).  The
    world's control segment counts as rank 0's: the parent creates it.
    """
    if SharedMemory is None:  # pragma: no cover - guarded by callers
        return 0
    removed = int(rank == 0 and _unlink_if_present(control_segment_name(uid)))
    for seq in range(limit):
        if not _unlink_if_present(segment_name(uid, rank, seq)):
            break
        removed += 1
    return removed
