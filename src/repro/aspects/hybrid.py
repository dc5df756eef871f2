"""Helpers for composing layer aspect modules (MPI + OpenMP, tracing, …).

The whole point of the paper's platform is that aspect modules are
*combinable*: "developers can build DSL processing systems for specific
HPC systems by combining AOP modules corresponding to the target HPC
system hierarchy."  This module provides the standard combinations used
by the benchmarks plus a diagnostic tracing aspect.
"""

from __future__ import annotations

from typing import List, Optional

from ..aop.advice import after_returning, before
from ..aop.aspect import Aspect
from .base import LayerAspect
from .mpi_aspect import DistributedMemoryAspect
from .openmp_aspect import SharedMemoryAspect

__all__ = ["hybrid_aspects", "mpi_aspects", "openmp_aspects", "PhaseTraceAspect"]


def mpi_aspects(
    processes: int,
    *,
    backend: Optional[str] = None,
) -> List[LayerAspect]:
    """Aspect stack for a distributed-memory-only run ("Platform MPI").

    ``backend`` picks the execution backend of the layer ("serial" |
    "threads" | "process"); None defers to the Platform's choice.
    """
    return [DistributedMemoryAspect(processes=processes, backend=backend)]


def openmp_aspects(threads: int) -> List[LayerAspect]:
    """Aspect stack for a shared-memory-only run ("Platform OMP")."""
    return [SharedMemoryAspect(threads=threads)]


def hybrid_aspects(
    processes: int,
    threads: int,
    *,
    backend: Optional[str] = None,
) -> List[LayerAspect]:
    """Aspect stack for a hybrid run ("Platform MPI+OMP").

    Order matters only through each aspect's ``order`` attribute (the
    shared-memory module is woven *outside* the distributed-memory one);
    the list order is purely cosmetic.  ``backend`` selects the
    execution backend of the distributed-memory layer.
    """
    return [
        SharedMemoryAspect(threads=threads),
        DistributedMemoryAspect(processes=processes, backend=backend),
    ]


class PhaseTraceAspect(Aspect):
    """Diagnostic aspect recording the sequence of platform phases.

    Not part of the paper's evaluation; used by the test suite to verify
    that weaving preserves the Initialize → Processing → Finalize order
    and that refresh join points fire, and available to users as a
    template for writing their own aspects (e.g. timers, logging).
    """

    order = 5

    def __init__(self, sink: Optional[list] = None) -> None:
        super().__init__()
        self.events: list = sink if sink is not None else []

    @before("tagged('platform.initialize')")
    def on_initialize(self, jp):
        self.events.append(("initialize", type(jp.target).__name__))

    @before("tagged('platform.processing')")
    def on_processing(self, jp):
        self.events.append(("processing", type(jp.target).__name__))

    @before("tagged('platform.finalize')")
    def on_finalize(self, jp):
        self.events.append(("finalize", type(jp.target).__name__))

    @after_returning("tagged('memory.refresh')")
    def on_refresh(self, jp):
        self.events.append(("refresh", bool(jp.result)))
