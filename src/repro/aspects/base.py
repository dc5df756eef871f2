"""Base class of the platform's layer aspect modules.

"The aspect module is a module that corresponds to each layer of an HPC
system, and it manages the runtime of the corresponding layer. […]
Each aspect module is composed of three main functions:

* AspectType I   — Control of the runtime and tasks
* AspectType II  — Assigning Blocks to tasks
* AspectType III — Communication of data between tasks"  (§III-B7)

:class:`LayerAspect` adds to the generic :class:`~repro.aop.aspect.Aspect`
the two attributes the Platform driver and the DSL layers need from a
layer module — which layer it manages (``layer``) and how many tasks it
creates (``parallelism``) — plus shared helpers for accessing the
current task's trace counters and the run options of the Platform the
module is attached to.
"""

from __future__ import annotations

from ..aop.aspect import Aspect
from ..runtime.backends import DEFAULT_TIMEOUT
from ..runtime.task import TaskContext, current_task
from ..runtime.tracing import TaskCounters, global_trace

__all__ = ["LayerAspect"]


class LayerAspect(Aspect):
    """An aspect module managing one layer of the HPC system hierarchy."""

    #: Name of the layer ("mpi", "omp", ...); the Platform exposes the
    #: attached layers to the DSL so it can assign Blocks to tasks.
    layer: str = ""

    def __init__(self, parallelism: int = 1) -> None:
        super().__init__()
        if parallelism < 1:
            raise ValueError(f"{type(self).__name__} parallelism must be >= 1")
        #: Number of tasks this layer splits its parent task into.
        self.parallelism = int(parallelism)

    # ------------------------------------------------------------------
    @staticmethod
    def task() -> TaskContext:
        return current_task()

    @staticmethod
    def trace() -> TaskCounters:
        return global_trace().for_task()

    def comm_timeout(self) -> float:
        """Bound (seconds) on this layer's waits: the Platform's ``comm_timeout``."""
        return DEFAULT_TIMEOUT if self.platform is None else self.platform.comm_timeout

    def describe(self) -> str:
        return f"{self.name}(layer={self.layer!r}, parallelism={self.parallelism})"
