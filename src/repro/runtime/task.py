"""Task contexts and the hierarchical task-id scheme.

The platform's execution model is task-based (§III-B2): the data domain
is blocked, and *tasks* — one per leaf of the layer hierarchy — update
their Blocks every step.  "The module corresponding to each layer
splits the Blocks allocated by the upper layer into multiple and
reallocates them to the layers of the lower layer."

In this reproduction a task is identified by its coordinates in the
layer hierarchy: the distributed-memory rank (``mpi_rank``) chosen by
the distributed-memory aspect module and the shared-memory thread index
(``omp_thread``) chosen by the shared-memory aspect module.  The
*global task id* flattens the two:

``global_task_id = mpi_rank * omp_threads + omp_thread``

which is the id the DSL layers store in each Data Block's ``ch_tid``.

The current task is tracked per OS thread (the simulated runtimes run
one task per thread); :func:`current_task` never returns ``None`` — in
serial execution it returns the trivial single-task context.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import TaskError

__all__ = ["TaskContext", "current_task", "task_scope", "SERIAL_TASK"]


@dataclass(frozen=True)
class TaskContext:
    """Immutable description of the task executing the current code."""

    mpi_rank: int = 0
    mpi_size: int = 1
    omp_thread: int = 0
    omp_threads: int = 1
    #: Free-form labels layers may add (e.g. accelerator id in future work).
    labels: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.mpi_size < 1 or self.omp_threads < 1:
            raise TaskError("task layer sizes must be >= 1")
        if not (0 <= self.mpi_rank < self.mpi_size):
            raise TaskError(f"mpi_rank {self.mpi_rank} outside [0, {self.mpi_size})")
        if not (0 <= self.omp_thread < self.omp_threads):
            raise TaskError(f"omp_thread {self.omp_thread} outside [0, {self.omp_threads})")

    # ------------------------------------------------------------------
    @property
    def global_task_id(self) -> int:
        """Flattened id across both layers (what ``ch_tid`` stores)."""
        return self.mpi_rank * self.omp_threads + self.omp_thread

    @property
    def total_tasks(self) -> int:
        return self.mpi_size * self.omp_threads

    def with_omp(self, thread: int, threads: int) -> "TaskContext":
        """Derive the context of a shared-memory subtask of this task."""
        return TaskContext(
            mpi_rank=self.mpi_rank,
            mpi_size=self.mpi_size,
            omp_thread=thread,
            omp_threads=threads,
            labels=self.labels,
        )

    def __str__(self) -> str:
        return (
            f"task(rank {self.mpi_rank}/{self.mpi_size}, "
            f"thread {self.omp_thread}/{self.omp_threads})"
        )


#: Context used when no parallel layer is active (plain serial run).
SERIAL_TASK = TaskContext()

_state = threading.local()


def current_task() -> TaskContext:
    """Return the task context of the calling thread (serial if none set)."""
    stack = getattr(_state, "stack", None)
    if not stack:
        return SERIAL_TASK
    return stack[-1]


@contextlib.contextmanager
def task_scope(context: TaskContext) -> Iterator[TaskContext]:
    """Run the ``with`` body as ``context`` (used by the aspect modules)."""
    if not isinstance(context, TaskContext):
        raise TaskError(f"task_scope expects a TaskContext, got {context!r}")
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = []
        _state.stack = stack
    stack.append(context)
    try:
        yield context
    finally:
        popped = stack.pop()
        if popped is not context:  # pragma: no cover - defensive
            raise TaskError("task scope stack corrupted")
