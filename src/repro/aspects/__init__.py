"""Aspect Module Library (Platform Part A.3 of the paper).

One reusable aspect module per HPC-system layer, woven into annotated
application classes by the :mod:`repro.aop` weaver:

* :class:`DistributedMemoryAspect` — the "MPI" layer (AspectType
  I/II/III).  Runs on any registered execution backend
  (``serial``/``threads``/``process`` — see
  :mod:`repro.runtime.backends`), publishes the steady-state halo where
  ranks share memory and otherwise moves pages in one bulk exchange per
  owner, overlapped behind interior computation (:class:`PendingHalo`);
  a multi-rank process world moves those pages through zero-copy
  shared memory.
* :class:`SharedMemoryAspect` — the "OpenMP" layer (AspectType I/II):
  thread teams, worksharing and ``single`` regions per rank.

Both layer modules read their run options (backend, ``comm_timeout``)
from the Platform they are attached to; the evaluation's layer
combinations are the Platform presets (:data:`repro.annotation.PRESETS`,
``Platform.preset("hybrid", ranks=4, threads=2)``).

Cross-cutting platform services are aspect modules too:
:class:`repro.obs.MonitoringAspect` (phase spans) and
:class:`repro.resilience.CheckpointAspect` (epoch snapshots) are woven
the same way and compose freely with the layer aspects.
"""

from .base import LayerAspect
from .mpi_aspect import DistributedMemoryAspect, PendingHalo
from .openmp_aspect import SharedMemoryAspect

__all__ = [
    "LayerAspect",
    "DistributedMemoryAspect",
    "PendingHalo",
    "SharedMemoryAspect",
]
