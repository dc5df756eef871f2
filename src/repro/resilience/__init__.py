"""Resilience subsystem: failure injection, page checkpoints, rank recovery.

Three cooperating pieces make platform runs elastic under rank failure:

* :mod:`~repro.resilience.faults` — seeded, deterministic
  :class:`FaultPlan` schedules (kill a rank at a refresh epoch,
  delay/drop/corrupt a page reply) honored by every execution backend's
  fault points;
* :mod:`~repro.resilience.checkpoint` — the checkpoint advice
  (:class:`CheckpointAspect`) snapshots each rank's owned pages after
  every successful refresh into a pluggable store (in-memory or
  spooled to disk) and restores/fast-forwards on restart;
* :mod:`~repro.resilience.recovery` — the :class:`RecoveryAspect`
  extends the checkpoint advice with the elastic run loop: it diagnoses
  which ranks actually died, re-partitions their blocks onto the
  survivors (cost-model-driven, :mod:`~repro.resilience.rebalance`) and
  runs the program again from the last complete checkpoint epoch.

``Platform(resilience=policy)`` weaves one :class:`RecoveryAspect`; no
other module of the platform knows that a run can recover.

Enable it per Platform::

    policy = ResiliencePolicy(fault_plan=FaultPlan().kill(2, epoch=3))
    platform = (Platform.builder()
                .mpi(4, backend="process").mmat()
                .resilience(policy)
                .build())
"""

from .checkpoint import (
    CheckpointAspect,
    CheckpointStore,
    DiskCheckpointStore,
    MemoryCheckpointStore,
)
from .faults import CORRUPT_REPLY, DELAY_REPLY, DROP_REPLY, KILL, Fault, FaultPlan
from .rebalance import merge_rank_counters, plan_recovery_ownership
from .recovery import (
    RecoveryAspect,
    RecoveryEvent,
    RecoveryManager,
    ResiliencePolicy,
    diagnose_dead_ranks,
)

__all__ = [
    "CORRUPT_REPLY",
    "CheckpointAspect",
    "CheckpointStore",
    "DELAY_REPLY",
    "DROP_REPLY",
    "DiskCheckpointStore",
    "Fault",
    "FaultPlan",
    "KILL",
    "MemoryCheckpointStore",
    "RecoveryAspect",
    "RecoveryEvent",
    "RecoveryManager",
    "ResiliencePolicy",
    "diagnose_dead_ranks",
    "merge_rank_counters",
    "plan_recovery_ownership",
]
