"""Runtime substrate: simulated MPI/OpenMP layers, machine model, tracing.

The paper's prototype runs on a real cluster; this package provides the
simulated equivalents the aspect modules manage (README.md, *Execution
backends*, says which world to run when):

* :mod:`repro.runtime.backends` — pluggable execution backends for the
  distributed layer (``serial`` inline, ``threads`` simulated,
  ``process`` real forked ranks): a backend is its world class, built
  by name via :func:`create_world` (a world of one rank is always the
  serial world);
* :class:`MPIWorld` — threaded SPMD ranks sharing one address space
  (the ``threads`` backend); every world counts its messages and bytes
  in a :class:`NetworkStats`;
* :class:`ThreadTeam` — shared-memory task team with barrier/single;
* :class:`TaskContext` — hierarchical task ids;
* :class:`TraceRecorder` — per-task work counters (traffic: :class:`NetworkStats`);
* :class:`MachineSpec` / :class:`CostModel` — analytic conversion of the
  counters into modelled wall-clock for the scaling figures.
"""

from .backends import (
    DEFAULT_BACKEND,
    BackendError,
    BlockDirectory,
    BulkFetchResult,
    CommHandle,
    CompletedCommHandle,
    ExecutionWorld,
    SpmdFailure,
    available_backends,
    create_world,
    get_backend,
    register_backend,
)
from .costmodel import CostBreakdown, CostModel
from .errors import (
    CollectiveError,
    DeadRankError,
    InjectedFault,
    MachineModelError,
    NetworkError,
    PageFetchError,
    RuntimeErrorBase,
    TaskError,
)
from .machine import OAKBRIDGE_CX_LIKE, MachineSpec
from .network import NetworkStats
from .simmpi import MPIWorld, RankResult
from .simomp import ThreadTeam
from .task import SERIAL_TASK, TaskContext, current_task, task_scope
from .tracing import TaskCounters, TraceRecorder, global_trace

__all__ = [
    "BackendError",
    "BulkFetchResult",
    "CommHandle",
    "CompletedCommHandle",
    "DEFAULT_BACKEND",
    "ExecutionWorld",
    "available_backends",
    "create_world",
    "get_backend",
    "register_backend",
    "CostBreakdown",
    "CostModel",
    "MachineSpec",
    "OAKBRIDGE_CX_LIKE",
    "NetworkStats",
    "BlockDirectory",
    "MPIWorld",
    "RankResult",
    "ThreadTeam",
    "TaskContext",
    "SERIAL_TASK",
    "current_task",
    "task_scope",
    "TaskCounters",
    "TraceRecorder",
    "global_trace",
    "RuntimeErrorBase",
    "TaskError",
    "NetworkError",
    "PageFetchError",
    "CollectiveError",
    "DeadRankError",
    "InjectedFault",
    "MachineModelError",
    "SpmdFailure",
]
