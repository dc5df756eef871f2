"""Seeded failure injection: fault plans honored by the execution backends.

A :class:`FaultPlan` is a small declarative schedule of failures —
"kill rank 2 at refresh epoch 3", "drop the first page reply rank 1
sends to rank 0".  The :class:`~repro.resilience.recovery.RecoveryAspect`
installs the policy's plan on each rank's world via
:meth:`~repro.runtime.backends.base.ExecutionWorld.install_fault_plan`
before ``platform.initialize``, ahead of the ``register`` fault point and
of any page reply.  The runtime substrate consumes the plan through two
duck-typed entry points (no import of this package):

* ``take_kill(rank, phase, epoch)`` — called from the world's fault
  points (``"register"`` at commit time, ``"refresh"`` at refresh
  entry, ``"epoch"`` right after a successful refresh, its halo
  exchange complete);
* ``take_reply(owner, requester)`` — called by the page-serving
  transports just before posting a reply (delay / drop / corrupt).  A
  corrupted reply names a slot version its page does not carry, so the
  requester's seqlock check *detects* it rather than computing on it.

Plans are deterministic: every fault fires at an explicitly scheduled
(rank, phase, epoch) point, and :func:`FaultPlan.seeded` derives such a
schedule reproducibly from an integer seed for the chaos battery.

Each fault fires at most ``count`` times (kills: once).  Firing is
tracked *per plan object*: on the process backend each forked rank
mutates its own copy, so after a real child kill the parent must call
:meth:`FaultPlan.retire_rank` for the diagnosed-dead rank before the
plan is installed on a restarted world — the recovery plan
(:class:`~repro.resilience.recovery.RecoveryManager`) does exactly that.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["Fault", "FaultPlan", "KILL", "DELAY_REPLY", "DROP_REPLY", "CORRUPT_REPLY"]

KILL = "kill"
DELAY_REPLY = "delay_reply"
DROP_REPLY = "drop_reply"
CORRUPT_REPLY = "corrupt_reply"

_KINDS = (KILL, DELAY_REPLY, DROP_REPLY, CORRUPT_REPLY)
_PHASES = ("register", "refresh", "epoch")


@dataclass
class Fault:
    """One scheduled failure.

    ``kind=kill``: terminate ``rank`` when it reaches ``phase`` (at
    ``epoch`` for refresh-relative phases; ``epoch=None`` fires at the
    first opportunity).  Reply kinds: act on replies ``rank`` sends to
    ``peer`` (``peer=None`` matches any requester), ``count`` times;
    ``seconds`` is the injected delay for ``delay_reply``.
    """

    kind: str
    rank: int
    phase: str = "refresh"
    epoch: Optional[int] = None
    peer: Optional[int] = None
    seconds: float = 0.05
    count: int = 1
    fired: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (one of {_KINDS})")
        if self.kind == KILL and self.phase not in _PHASES:
            raise ValueError(f"unknown kill phase {self.phase!r} (one of {_PHASES})")

    def __str__(self) -> str:
        where = f"{self.phase}" + (f"@epoch {self.epoch}" if self.epoch is not None else "")
        return f"{self.kind}(rank {self.rank}, {where})"


class FaultPlan:
    """A thread-safe, at-most-``count``-times schedule of :class:`Fault` s."""

    def __init__(self, faults: Optional[List[Fault]] = None) -> None:
        self.faults: List[Fault] = list(faults or [])
        self._lock = threading.Lock()

    # -- construction ---------------------------------------------------
    def kill(self, rank: int, *, phase: str = "refresh", epoch: Optional[int] = None) -> "FaultPlan":
        """Kill ``rank`` at ``phase`` (optionally only at ``epoch``); chainable."""
        self.faults.append(Fault(KILL, rank, phase=phase, epoch=epoch))
        return self

    def delay_reply(
        self, rank: int, *, peer: Optional[int] = None, seconds: float = 0.05, count: int = 1
    ) -> "FaultPlan":
        """Delay ``count`` page replies of ``rank`` by ``seconds``; chainable."""
        self.faults.append(Fault(DELAY_REPLY, rank, peer=peer, seconds=seconds, count=count))
        return self

    def drop_reply(self, rank: int, *, peer: Optional[int] = None, count: int = 1) -> "FaultPlan":
        """Drop ``count`` page replies of ``rank`` (requester times out); chainable."""
        self.faults.append(Fault(DROP_REPLY, rank, peer=peer, count=count))
        return self

    def corrupt_reply(self, rank: int, *, peer: Optional[int] = None, count: int = 1) -> "FaultPlan":
        """Corrupt ``count`` page replies of ``rank``; chainable.

        The reply's first descriptor names the wrong slot version, so
        the requester's seqlock check fails the fetch.
        """
        self.faults.append(Fault(CORRUPT_REPLY, rank, peer=peer, count=count))
        return self

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        ranks: int,
        epochs: int,
        kills: int = 1,
        spare_rank0: bool = False,
    ) -> "FaultPlan":
        """Derive a reproducible kill schedule from ``seed``.

        Picks ``kills`` distinct victim ranks and, for each, a refresh
        epoch in ``[1, epochs)`` and a phase (``refresh`` or ``epoch``).
        ``spare_rank0=True`` keeps rank 0 alive (the process backend
        runs rank 0 inline in the parent, where a kill is a soft
        exception rather than a real child death).
        """
        rng = random.Random(seed)
        candidates = list(range(1 if spare_rank0 else 0, ranks))
        if kills > len(candidates):
            raise ValueError(f"cannot kill {kills} of {len(candidates)} candidate ranks")
        plan = cls()
        for rank in rng.sample(candidates, kills):
            epoch = rng.randrange(1, max(epochs, 2))
            phase = rng.choice(("refresh", "epoch"))
            plan.kill(rank, phase=phase, epoch=epoch)
        return plan

    # -- consumption (duck-typed by the runtime substrate) --------------
    def take_kill(self, rank: int, phase: str, epoch: Optional[int]) -> Optional[Fault]:
        """Return-and-retire the kill scheduled at this point, if any."""
        with self._lock:
            for fault in self.faults:
                if fault.kind != KILL or fault.fired >= fault.count:
                    continue
                if fault.rank != rank or fault.phase != phase:
                    continue
                if fault.epoch is not None and fault.epoch != epoch:
                    continue
                fault.fired = fault.count
                return fault
        return None

    def take_reply(self, owner: int, requester: int) -> Optional[Fault]:
        """Return-and-consume one reply fault for a reply owner→requester."""
        with self._lock:
            for fault in self.faults:
                if fault.kind == KILL or fault.fired >= fault.count:
                    continue
                if fault.rank != owner:
                    continue
                if fault.peer is not None and fault.peer != requester:
                    continue
                fault.fired += 1
                return fault
        return None

    def retire_rank(self, rank: int) -> None:
        """Mark every kill targeting ``rank`` as fired.

        After a real (forked-child) kill the parent's plan copy was not
        mutated; the recovery loop retires the diagnosed-dead rank's
        kills before re-installing the plan on the restarted world so
        the same fault cannot fire twice.
        """
        with self._lock:
            for fault in self.faults:
                if fault.kind == KILL and fault.rank == rank:
                    fault.fired = fault.count

    def pending_kills(self) -> List[Fault]:
        """Kill faults that have not fired yet."""
        with self._lock:
            return [f for f in self.faults if f.kind == KILL and f.fired < f.count]

    def __repr__(self) -> str:
        return f"FaultPlan({', '.join(str(f) for f in self.faults)})"
