"""Traffic accounting of the distributed-memory runtime.

Every execution world counts its messages and bytes in one
:class:`NetworkStats` (a process world in one per rank, merged in the
parent): the one place a run's traffic is counted, reported by
``PlatformRun.network`` with the same keys on every backend.  The
scaling figures' cost model charges the halo the paper's prototype
would move (``TaskCounters.paper_pages``), not these counts, so a
protocol that moves the halo differently leaves the figures alone.
The worlds themselves — collectives, page transport, dead-rank
bookkeeping — live in :mod:`repro.runtime.simmpi` (``threads``) and
:mod:`repro.runtime.backends` (``serial``, ``process``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

__all__ = ["NetworkStats"]


@dataclass
class NetworkStats:
    """Aggregate traffic counters of one world (or one process rank).

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
    #: Bulk page exchanges: request/reply pairs that moved a whole batch
    #: of pages, and how many pages those batches carried.
    bulk_fetches: int = 0
    bulk_pages: int = 0
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

    def record_bulk(
        self, requester: int, owner: int, pages: int, payload_bytes: int, messages: int = 2
    ) -> None:
        """Account one bulk page exchange: a manifest out (header plus one
        entry per page), every page back.  ``messages`` of the pair are
        counted here; a transport that counted its request when sending
        it passes 1."""
        manifest_bytes = 32 + 16 * pages
        self.bulk_fetches += 1
        self.bulk_pages += pages
        self.messages += messages
        self.bytes_moved += payload_bytes + manifest_bytes
        self.record_neighbor(requester, owner, 1, manifest_bytes)
        self.record_neighbor(owner, requester, 1, payload_bytes)

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
