#!/usr/bin/env python
"""Quickstart: write an application once, run it serial / OpenMP / MPI / hybrid.

This is the end-to-end "hello world" of the platform: a Jacobi heat
solver written as *serial* end-user code on the structured-grid DSL,
then parallelised purely by choosing which aspect modules to weave —
no change to the application code at all, which is the paper's central
claim.

Configurations are selected with the Platform API v2: named *presets*
(``Platform.preset("hybrid", ranks=2, threads=2)``) reproduce the
paper's Fig. 3 build configurations, and the fluent *builder*
(``Platform.builder().omp(4).mmat().build()``) composes custom stacks.
The serial run keeps the original ``Platform()`` constructor to show
the legacy path still works unchanged.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import Platform
from repro.apps import JacobiSGrid


def hot_corner(x: int, y: int) -> float:
    """Initial temperature field: a hot square in one corner."""
    return 100.0 if (x < 8 and y < 8) else 0.0


CONFIG = dict(
    region=32,          # 32x32 grid points
    block_size=8,       # split into 8x8 Blocks (16 Blocks total)
    page_elements=32,   # communication granularity
    loops=5,            # Jacobi sweeps
    alpha=0.2,
    beta=0.2,
    init=hot_corner,
)


def describe(label: str, run) -> None:
    field = run.result
    interior = field[~np.isnan(field)]
    print(f"{label:<22} mean={interior.mean():8.4f}  max={interior.max():8.4f}  "
          f"[{run.summary()}]")


def main() -> None:
    print("Jacobi heat diffusion on the structured-grid DSL (32x32, 5 sweeps)\n")

    # 1. Serial: the application exactly as written, no weaving at all.
    #    (Legacy constructor — equivalent to Platform.preset("serial").)
    serial = Platform().run(JacobiSGrid, config=CONFIG)
    describe("serial", serial)

    # 2. Shared-memory parallel: the "Platform OMP" preset.
    omp = Platform.preset("omp", threads=4, mmat=True).run(JacobiSGrid, config=CONFIG)
    describe("OpenMP x4", omp)

    # 3. Distributed-memory parallel: the "Platform MPI" preset.
    mpi = Platform.preset("mpi", ranks=4, mmat=True).run(JacobiSGrid, config=CONFIG)
    describe("MPI x4", mpi)

    # 4. Hybrid: both layer modules, built with the fluent builder this
    #    time (equivalent to preset("hybrid", ranks=2, threads=2)).
    hybrid = (Platform.builder()
              .mpi(2).omp(2)
              .mmat()
              .run(JacobiSGrid, config=CONFIG))
    describe("MPI x2 + OpenMP x2", hybrid)

    # 5. Same MPI configuration on the "process" execution backend: each
    #    rank is a real forked OS process (true parallelism, measured
    #    wall-clock), selected without touching the application at all.
    procs = Platform.preset("mpi", mpi=2, backend="process", mmat=True).run(
        JacobiSGrid, config=CONFIG)
    describe("MPI x2 (processes)", procs)

    # All runs compute the same answer (rank-local data compared where owned).
    reference = serial.result
    for label, run in (("OpenMP", omp), ("MPI", mpi), ("hybrid", hybrid),
                       ("processes", procs)):
        mask = ~np.isnan(run.result)
        assert np.allclose(run.result[mask], reference[mask], atol=1e-10), label
    print("\nAll parallel configurations match the serial result.")

    # A peek at what the platform did under the hood for the MPI run.
    print("\nMPI run traffic:", mpi.network)
    print("MPI run per-task updates:",
          {task: c.updates for task, c in sorted(mpi.counters.items())})

    # With MMAT enabled the kernels run through compiled access plans:
    # the `plans=…sites vec=…%` part of summary() shows how much of the
    # sweep was vectorized, and mmat_stats carries the full breakdown
    # (memo hit-rate, compiled plans, fallback sites).  The serial run
    # above used the legacy constructor without MMAT, so its batched
    # accesses fell back to the scalar path (vec=0%).
    print("OpenMP x4 plan stats:", {
        k: omp.mmat_stats[k]
        for k in ("plans", "plan_sites", "vectorized_fraction", "hit_rate")
    })

    # Each compiled plan was additionally *fused* with the sweep's fn
    # into one generated NumPy kernel (no intermediate gather tensor);
    # the `fused=…calls/…kern` section of summary() shows the activity.
    print(f"OpenMP x4 fused kernels: {omp.mmat_stats['fused_kernels']} compiled, "
          f"{sum(c.kernel_fused_calls for c in omp.counters.values())} fused sweeps")

    # The MPI run moved its warm-up halo pages in bulk: one message pair
    # per owner rank instead of one per page (the `comm=… agg=…` section
    # of summary() above), and published the halo after that.
    print(f"MPI x4 halo aggregation: {mpi.comm_aggregation_ratio():.1f} pages "
          f"per exchange across {mpi.comm_neighbor_links()} neighbor links")

    # Those exchanges ran *overlapped*: issued nonblocking right after
    # each step barrier and completed mid-sweep, once the interior sites
    # were updated.  Overlap efficiency is the fraction of the halo
    # round-trip that hid behind that interior computation (the
    # `overlap=… eff=…` section of summary() above).
    print(f"MPI x4 overlap efficiency: {mpi.overlap_efficiency():.0%} of the "
          f"halo latency hidden behind interior compute")
    print(f"MPI x2 (processes) overlap efficiency: "
          f"{procs.overlap_efficiency():.0%}")

    # 6. Observability: the same run with tracing on records a span
    #    timeline (Perfetto-exportable via run.save_trace(path)); the
    #    phase report shows where the wall-clock went.
    traced = Platform.preset("mpi", ranks=4, mmat=True, tracing=True).run(
        JacobiSGrid, config=CONFIG)
    print("\nWhere the traced MPI x4 run spent its time (top 3 phases):")
    print(traced.phase_report(limit=3))


if __name__ == "__main__":
    main()
