"""Page checkpoints: epoch snapshots of each rank's owned Env pages.

After every successful (non-warm-up) refresh the woven
:class:`CheckpointAspect` snapshots the read-buffer pages of the rank's
*owned* Data Blocks — the post-swap state the owners would serve to any
halo fetch — keyed ``(epoch, rank) -> {logical_key: {page_index:
ndarray}}``.  Buffer-only (halo) blocks are deliberately **not**
checkpointed: after a restore their pages are invalid, the first real
sweep records them missing and the refresh protocol's repair fetch
recovers them from the restored owners, exactly like any other failed
refresh.

Stores are pluggable:

* :class:`MemoryCheckpointStore` — a locked dict; right for the serial
  and threads backends where every rank shares the parent interpreter.
* :class:`DiskCheckpointStore` — one pickle file per ``(epoch, rank)``
  spooled to a temp directory; right for the process backend, where
  forked children die with their memory but their spool files survive
  for the parent to read post-mortem.

The restore (:meth:`CheckpointAspect.restore_state`) runs after
``platform.initialize``, before the distributed-memory aspect's
registration commits (after-advice runs in ascending order), and fills
**every buffer generation** of each owned block: the fast-forward
replay skips refreshes, never swaps, and so may read any generation.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
from typing import Any, Dict, Optional, Set

import numpy as np

from ..aop.advice import after_returning, around
from ..aop.aspect import Aspect
from ..obs.spans import global_tracer
from ..runtime.task import current_task
from ..runtime.tracing import global_trace

__all__ = [
    "CheckpointAspect",
    "CheckpointStore",
    "DiskCheckpointStore",
    "MemoryCheckpointStore",
]

#: ``{logical_key: {page_index: ndarray}}`` — one rank's owned pages at one epoch.
RankPages = Dict[Any, Dict[int, np.ndarray]]


class CheckpointStore:
    """Interface of a checkpoint store (duck-typed; subclass or match it)."""

    def save(self, epoch: int, rank: int, pages: RankPages) -> None:
        raise NotImplementedError

    def saved_epochs(self) -> Dict[int, Set[int]]:
        """Map of epoch -> set of ranks that saved it."""
        raise NotImplementedError

    def load_rank(self, epoch: int, rank: int) -> RankPages:
        raise NotImplementedError

    def latest_complete_epoch(self, ranks: int) -> Optional[int]:
        """Newest epoch saved by *every* rank ``0..ranks-1`` (None if none)."""
        expected = set(range(ranks))
        complete = [e for e, saved in self.saved_epochs().items() if expected <= saved]
        return max(complete) if complete else None

    def load_epoch(self, epoch: int, ranks: int) -> RankPages:
        """Merge every saved rank's pages of ``epoch`` into one logical-key map.

        Merges over the ranks that actually saved the epoch rather than
        ``range(ranks)``: after an elastic shrink the epoch may have been
        written by a *larger* world, and truncating to the current size
        would silently drop the highest old ranks' blocks.  Values of a
        given (epoch, key) are identical regardless of which layout
        saved them, so the union is always consistent.
        """
        saved = self.saved_epochs().get(int(epoch), set()) | set(range(ranks))
        merged: RankPages = {}
        for rank in sorted(saved):
            for logical_key, pages in self.load_rank(epoch, rank).items():
                merged.setdefault(logical_key, {}).update(pages)
        return merged

    def close(self) -> None:
        """Release store resources (idempotent)."""


class MemoryCheckpointStore(CheckpointStore):
    """In-memory store for worlds whose ranks share the interpreter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._saves: Dict[int, Dict[int, RankPages]] = {}

    def save(self, epoch: int, rank: int, pages: RankPages) -> None:
        # Copy the arrays: the caller's buffers keep mutating after the
        # save (the disk store gets this isolation for free from pickle).
        snap = {
            lk: {pi: np.array(data, copy=True) for pi, data in by_page.items()}
            for lk, by_page in pages.items()
        }
        with self._lock:
            self._saves.setdefault(int(epoch), {})[int(rank)] = snap

    def saved_epochs(self) -> Dict[int, Set[int]]:
        with self._lock:
            return {epoch: set(by_rank) for epoch, by_rank in self._saves.items()}

    def load_rank(self, epoch: int, rank: int) -> RankPages:
        with self._lock:
            return dict(self._saves.get(int(epoch), {}).get(int(rank), {}))


class DiskCheckpointStore(CheckpointStore):
    """Spool-to-disk store surviving the death of forked rank processes.

    One pickle file per ``(epoch, rank)``, written to a private temp file
    then :func:`os.replace`-d into place so a rank killed mid-save never
    leaves a torn checkpoint — the parent only ever sees complete files.
    The spool directory path is plain state, inherited by forked children
    and readable by the parent after they die.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-ckpt-")
            self._owned = True
        else:
            os.makedirs(directory, exist_ok=True)
            self._owned = False
        self.directory = directory

    def _path(self, epoch: int, rank: int) -> str:
        return os.path.join(self.directory, f"epoch{int(epoch):08d}-rank{int(rank):04d}.pkl")

    def save(self, epoch: int, rank: int, pages: RankPages) -> None:
        path = self._path(epoch, rank)
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(pages, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def saved_epochs(self) -> Dict[int, Set[int]]:
        epochs: Dict[int, Set[int]] = {}
        try:
            names = os.listdir(self.directory)
        except OSError:
            return epochs
        for name in names:
            if not (name.startswith("epoch") and name.endswith(".pkl")):
                continue
            try:
                epoch_part, rank_part = name[:-4].split("-rank")
                epochs.setdefault(int(epoch_part[5:]), set()).add(int(rank_part))
            except ValueError:
                continue
        return epochs

    def load_rank(self, epoch: int, rank: int) -> RankPages:
        path = self._path(epoch, rank)
        if not os.path.exists(path):
            return {}
        with open(path, "rb") as fh:
            return pickle.load(fh)

    def close(self) -> None:
        if self._owned and os.path.isdir(self.directory):
            shutil.rmtree(self.directory, ignore_errors=True)


def _warmup(jp) -> bool:
    """The ``warmup`` argument of a refresh or ``get_blocks`` join point."""
    return bool(jp.args[0]) if jp.args else bool(jp.kwargs.get("warmup", False))


class CheckpointAspect(Aspect):
    """Aspect weaving checkpoint, fault-point and replay logic into refresh.

    Ordered *outside* the distributed-memory aspect (15 < 20) so its
    around-advice wraps the collective refresh protocol: during a
    fast-forward replay it returns success **without proceeding**,
    skipping the mpi aspect's allreduce/barrier/prefetch entirely — every
    restarted rank skips the same ``resume_epoch`` refreshes
    deterministically, with no collective traffic.  Its advice acts only
    inside a distributed world (``platform.context["mpi_world"]``).
    """

    order = 15
    name = "checkpoint"

    def __init__(self, manager) -> None:
        super().__init__()
        #: The owning :class:`~repro.resilience.recovery.RecoveryManager`.
        self.manager = manager

    def world(self):
        """The run's distributed world; None outside one."""
        return None if self.platform is None else self.platform.context.get("mpi_world")

    # ------------------------------------------------------------------
    @around("tagged('memory.refresh')", order=0)
    def guard_refresh(self, jp):
        """Fault points, fast-forward replay and the post-refresh snapshot."""
        manager = self.manager
        world = self.world()
        if world is None or _warmup(jp):
            # Warm-up refreshes never swap, never count as epochs and must
            # run even when replaying (they compile the access plans the
            # steady state depends on).
            return jp.proceed()
        env = jp.target
        rank = current_task().mpi_rank
        trace = global_trace().for_task()

        # The refresh about to run would complete epoch ``current + 1``.
        world.fault_point(rank, "refresh", manager.epoch_of(rank) + 1)

        if manager.replay_remaining(rank) > 0:
            # Fast-forward: the restored pages already hold this epoch's
            # outcome.  Advance the step counter exactly as a successful
            # refresh would, without proceeding into the collective
            # protocol (no allreduce, no barrier, no prefetch) — every
            # rank skips in lockstep because resume_epoch is global.
            manager.consume_replay(rank)
            env.step += 1
            manager.note_epoch(rank)
            return True

        result = jp.proceed()
        if not result:
            return result

        epoch = manager.note_epoch(rank)
        if manager.should_checkpoint(epoch):
            with global_tracer().span("ckpt.save", epoch=epoch):
                pages = self._snapshot_owned(env)
                manager.store.save(epoch, rank, pages)
            trace.checkpoints += 1
        # "epoch" fault point: fires after the snapshot, once the mpi
        # advice completed the step's halo exchange.
        world.fault_point(rank, "epoch", epoch)
        return result

    # ------------------------------------------------------------------
    @around("tagged('memory.get_blocks')", order=0)
    def skip_replayed_sweeps(self, jp):
        """Give kernels no work during fast-forward replay sweeps."""
        if self.world() is None or _warmup(jp):
            return jp.proceed()
        return [] if self.manager.replay_remaining(current_task().mpi_rank) else jp.proceed()

    # ------------------------------------------------------------------
    @after_returning("tagged('platform.initialize')", order=0)
    def restore_state(self, jp):
        """Fill owned blocks with the resume checkpoint's pages (pre-registration)."""
        manager = self.manager
        env = getattr(jp.target, "env", None)
        if env is None or self.world() is None or not manager.restore_pages:
            return
        with global_tracer().span("ckpt.restore", epoch=manager.resume_epoch):
            for block in env.data_blocks():
                pages = manager.restore_pages.get(getattr(block, "logical_key", None))
                if not pages:
                    continue
                for page_index, data in pages.items():
                    # Fill every buffer generation: replayed refreshes are
                    # skipped (no swap), so any generation may be read.
                    for buf in block.buffer.buffers:
                        buf.pages[page_index].fill_from(data)

    # ------------------------------------------------------------------
    @staticmethod
    def _snapshot_owned(env) -> RankPages:
        """Collect the read-buffer pages of every owned Data Block.

        Hands out **views** of the pool pages, not copies: both stores
        isolate on ``save`` anyway (the memory store copies, the disk
        store pickles), and the views are consumed synchronously inside
        the refresh advice — before any buffer swap can mutate them —
        so the extra snapshot copy here would be pure overhead.
        """
        pages: RankPages = {}
        for block in env.data_blocks():
            logical_key = getattr(block, "logical_key", None)
            if logical_key is None:
                continue
            pages[logical_key] = {
                index: block.page_view(index) for index in range(block.page_count())
            }
        return pages
