"""The ``serial`` world: a world of exactly one rank, run inline.

No threads, no processes, no blocking machinery — collectives are
trivial with a single participant, and no page ever moves: the one rank
owns every Block and reads them in place.  Every world of one rank is
this one, whatever backend the run names
(:func:`~repro.runtime.backends.create_world`): it is both the cheapest
way to execute a ``DistributedMemoryAspect(processes=1)`` configuration
and the reference implementation every other backend must agree with
numerically (see tests/integration/test_backend_conformance.py).
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from ..errors import TaskError
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
    """Inline single-rank world (collectives short-circuit, no page moves)."""

    backend_name = "serial"

    def __init__(self, size: int = 1, *, timeout: float = 60.0) -> None:
        if size != 1:
            raise TaskError(
                f"the 'serial' backend runs exactly one rank (requested {size}); "
                "use the 'threads' or 'process' backend for multi-rank worlds"
            )
        super().__init__(1, timeout=timeout)

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
        """Resolve the requests, and return an empty completed handle: the
        one rank owns every Block, so any page it asks for is a
        self-request, which :func:`group_requests_by_owner` refuses."""
        self._check_rank(requester)
        group_requests_by_owner(self.directory, requests, requester)
        return CompletedCommHandle(BulkFetchResult())
