"""Fig. 7 — strong scaling on the distributed-memory (MPI) layer.

Paper: "the benchmark scaled almost linearly" for 1–16 processes.
The platform is executed on the simulated runtime for each process
count; the measured per-task work/traffic is converted to modelled
cluster time with the shared cost model (``repro.runtime.costmodel``;
README.md, *The page exchange*, says which traffic it charges).
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.bench import default_scaling_workloads, fig7_strong_scaling_mpi


def test_fig7_strong_scaling_mpi(benchmark, small_mode):
    counts = (1, 2, 4, 8) if small_mode else (1, 2, 4, 8, 16)
    rows = run_once(benchmark, fig7_strong_scaling_mpi, counts=counts,
                    series=default_scaling_workloads())
    emit(rows, "Fig. 7 — strong scaling, MPI (relative time, 1 process = 1.0)")

    by_series = {}
    for row in rows:
        by_series.setdefault(row["series"], {})[row["tasks"]] = row["relative"]
    for series, curve in by_series.items():
        # Monotone decrease and near-linear speed-up at the largest count.
        counts_sorted = sorted(curve)
        for small, large in zip(counts_sorted, counts_sorted[1:]):
            assert curve[large] < curve[small], series
        largest = counts_sorted[-1]
        assert curve[largest] < 2.5 / largest, (series, curve)
