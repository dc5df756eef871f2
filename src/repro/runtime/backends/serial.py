"""The ``serial`` world: a world of exactly one rank, run inline.

No threads, no processes, no blocking machinery — collectives are
trivial with a single participant and page "transport" is a local
snapshot copy.  Every world of one rank is this one, whatever backend
the run names (:func:`~repro.runtime.backends.create_world`): it is
both the cheapest way to execute a
``DistributedMemoryAspect(processes=1)`` configuration and the
reference implementation every other backend must agree with
numerically (see tests/integration/test_backend_conformance.py).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..errors import NetworkError, TaskError
from ..network import NetworkStats
from ..simmpi import BlockDirectory
from ..task import TaskContext, task_scope
from .base import (
    BulkFetchResult,
    CommHandle,
    CompletedCommHandle,
    ExecutionWorld,
    RankResult,
    group_requests_by_owner,
    raise_spmd_failures,
)

__all__ = ["SerialWorld"]


class SerialWorld(ExecutionWorld):
    """Inline single-rank world (collectives short-circuit, fetches are local)."""

    backend_name = "serial"

    def __init__(self, size: int = 1, *, timeout: float = 60.0) -> None:
        if size != 1:
            raise TaskError(
                f"the 'serial' backend runs exactly one rank (requested {size}); "
                "use the 'threads' or 'process' backend for multi-rank worlds"
            )
        self.size = 1
        self.timeout = timeout
        self.directory = BlockDirectory()
        self.stats = NetworkStats()
        self.rank_envs: Dict[int, Any] = {}

    # -- SPMD launch ----------------------------------------------------
    def run_spmd(
        self, body: Callable[[TaskContext], Any], *, omp_threads: int = 1
    ) -> List[RankResult]:
        result = RankResult(rank=0)
        context = TaskContext(mpi_rank=0, mpi_size=1, omp_thread=0, omp_threads=omp_threads)
        try:
            with task_scope(context):
                result.value = body(context)
        except BaseException as exc:  # noqa: BLE001 - propagated below
            result.error = exc
        raise_spmd_failures([result])
        return [result]

    def finalize(self) -> None:
        self.rank_envs.clear()
        self.finalized = True

    # -- Env / block registration --------------------------------------
    def register_env(self, rank: int, env: Any) -> None:
        self._check_rank(rank)
        self.rank_envs[rank] = env

    def register_block(self, logical_key: Any, rank: int, block_id: int, *, owner: bool) -> None:
        self.directory.register(logical_key, rank, block_id, owner=owner)

    def commit_registration(self) -> None:
        # A single rank's directory is complete by construction; only the
        # kill-before-commit fault point remains meaningful here.
        if self.fault_plan is not None:
            self.fault_point(0, "register")

    # -- collectives ----------------------------------------------------
    def barrier(self) -> None:
        self.stats.barriers += 1

    def allreduce(self, value: Any, op: Callable[[List[Any]], Any]) -> Any:
        self.stats.allreduces += 1
        return op([value])

    # -- page transport -------------------------------------------------
    def fetch_pages_bulk_async(
        self, requester: int, requests: Sequence[Tuple[Any, int]]
    ) -> CommHandle:
        """Batched fetch, served at once out of the one Env: one accounted
        exchange per owner (always rank 0 here)."""
        from ...memory.page import PageKey  # local import to avoid a cycle

        self._check_rank(requester)
        result = BulkFetchResult()
        for owner, items in sorted(group_requests_by_owner(self.directory, requests).items()):
            env = self.env_of(owner)
            datas = [env.page_snapshot(PageKey(block_id, page)) for _, page, block_id in items]
            result.pages.extend(
                (logical_key, page, data) for (logical_key, page, _), data in zip(items, datas)
            )
            payload_bytes = sum(int(d.nbytes) for d in datas)
            self.stats.record_bulk(requester, owner, len(datas), payload_bytes)
            result.exchanges += 1
            result.nbytes += payload_bytes
        return CompletedCommHandle(result)

    # -- accounting -----------------------------------------------------
    def stats_of(self, rank: int) -> NetworkStats:
        return self.stats

    def traffic_summary(self) -> dict:
        return self.stats.as_dict()

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if rank != 0:
            raise NetworkError(f"rank {rank} outside serial world of size 1")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SerialWorld(stats={self.stats.as_dict()})"
