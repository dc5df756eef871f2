"""Aspect Module Library (Platform Part A.3 of the paper).

One reusable aspect module per HPC-system layer, woven into annotated
application classes by the :mod:`repro.aop` weaver:

* :class:`DistributedMemoryAspect` — the "MPI" layer (AspectType
  I/II/III).  Runs on any registered execution backend
  (``serial``/``threads``/``process`` — see
  :mod:`repro.runtime.backends`), publishes the steady-state halo where
  ranks share memory and otherwise moves pages in one bulk exchange per
  owner, overlapped behind interior computation (:class:`PendingHalo`);
  each world picks its own page data plane (zero-copy shared memory
  where its ranks can map it, the packed-pipe path otherwise).
* :class:`SharedMemoryAspect` — the "OpenMP" layer (AspectType I/II):
  thread teams, worksharing and ``single`` regions per rank.
* :func:`hybrid_aspects` / :func:`mpi_aspects` / :func:`openmp_aspects`
  — the standard layer combinations used by the evaluation, all
  accepting a ``backend=`` override.
* :class:`PhaseTraceAspect` — diagnostic example aspect.

Cross-cutting platform services are aspect modules too:
:class:`repro.obs.MonitoringAspect` (phase spans) and
:class:`repro.resilience.CheckpointAspect` (epoch snapshots) are woven
the same way and compose freely with the layer aspects.
"""

from .base import LayerAspect
from .hybrid import PhaseTraceAspect, hybrid_aspects, mpi_aspects, openmp_aspects
from .mpi_aspect import DistributedMemoryAspect, PendingHalo
from .openmp_aspect import SharedMemoryAspect

__all__ = [
    "LayerAspect",
    "DistributedMemoryAspect",
    "PendingHalo",
    "SharedMemoryAspect",
    "PhaseTraceAspect",
    "hybrid_aspects",
    "mpi_aspects",
    "openmp_aspects",
]
