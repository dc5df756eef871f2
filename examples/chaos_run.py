#!/usr/bin/env python
"""Chaos run: kill a rank mid-flight and watch the world recover.

A 4-rank Jacobi heat solver runs on the **process** backend with the
resilience layer enabled: every epoch each rank checkpoints its owned
Env pages to a disk spool, and a seeded :class:`FaultPlan` hard-kills
one forked rank (``os._exit``) part-way through the run.  The platform

1. detects the death (the child's pipes close — far faster than the
   communication timeout),
2. re-partitions the dead rank's Blocks onto the three survivors using
   the cost model and the traced per-rank timings,
3. reloads the last checkpoint epoch every rank completed, and
4. fast-forwards the restarted world to that epoch and finishes.

The recovered result is bit-identical to an unfailed run — the example
verifies that at the end, after printing the recovery report.

Run with::

    python examples/chaos_run.py
"""

from __future__ import annotations

import numpy as np

from repro import Platform
from repro.apps import JacobiSGrid
from repro.resilience import FaultPlan, ResiliencePolicy


def hot_corner(x: int, y: int) -> float:
    return 100.0 if (x < 8 and y < 8) else 0.0


CONFIG = dict(
    region=32,
    block_size=8,
    page_elements=32,
    loops=6,
    alpha=0.2,
    beta=0.2,
    init=hot_corner,
)

SEED = 2022  # the paper's year; any seed recovers to the same bytes


def main() -> None:
    print("Chaos run: 4 ranks, process backend, one seeded mid-run kill\n")

    # Reference: the same world, no faults, no resilience layer at all.
    reference = (
        Platform.builder().mpi(4, backend="process").mmat().build()
        .run(JacobiSGrid, config=dict(CONFIG))
    )

    plan = FaultPlan.seeded(SEED, ranks=4, epochs=CONFIG["loops"], spare_rank0=True)
    print(f"fault plan (seed {SEED}):")
    for fault in plan.pending_kills():
        print(f"  kill rank {fault.rank} at the {fault.phase!r} fault point, "
              f"epoch {fault.epoch}")

    chaos = (
        Platform.builder()
        .mpi(4, backend="process")
        .mmat()
        .resilience(ResiliencePolicy(fault_plan=plan))
        .comm_timeout(20.0)
        .build()
        .run(JacobiSGrid, config=dict(CONFIG))
    )

    print("\nrecovery report:")
    print("  " + chaos.recovery_report().replace("\n", "\n  "))

    identical = bool(np.array_equal(reference.result, chaos.result))
    print(f"\nrecovered result bit-identical to the unfailed run: {identical}")
    if not identical:
        raise SystemExit("recovered field diverged from the unfailed run")


if __name__ == "__main__":
    main()
