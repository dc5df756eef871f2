#!/usr/bin/env python
"""Measured wall-clock scaling of the execution backends (sgrid Jacobi).

Unlike the figure benchmarks (which convert traced work/traffic into
*modelled* cluster time), this benchmark runs the same Jacobi
structured-grid workload through every execution backend and reports
the **measured** wall-clock of each run:

* ``serial``  — 1 rank inline (the baseline),
* ``threads`` — N ranks on OS threads (GIL-bound: no real speed-up),
* ``process`` — N ranks in real forked processes (true parallelism).

The ``process`` backend can only beat ``threads`` when the machine has
more than one usable core; the report therefore prints the detected CPU
count next to the speed-ups.  On a single-core box the numbers still
matter — they measure the transport overhead of each backend.

Usage::

    PYTHONPATH=src python benchmarks/bench_backend_scaling.py
    PYTHONPATH=src python benchmarks/bench_backend_scaling.py --smoke   # CI: quick 2-rank check
    PYTHONPATH=src python benchmarks/bench_backend_scaling.py --ranks 2 4 --region 96 --loops 8
"""

from __future__ import annotations

import argparse
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.harness import format_table, run_platform, sgrid_workload  # noqa: E402


def measure_backends(
    *,
    region: int = 64,
    loops: int = 8,
    ranks: tuple = (2, 4),
    repeats: int = 3,
) -> list:
    """Run the sgrid Jacobi workload on every backend; return report rows.

    Each configuration is run ``repeats`` times and the best wall-clock
    is kept (standard practice for wall-clock microbenchmarks: the
    minimum is the least noisy estimator).
    """
    work = sgrid_workload(region, loops=loops)
    configurations = [("serial", 1)]
    configurations += [("threads", n) for n in ranks]
    configurations += [("process", n) for n in ranks]

    rows = []
    baseline = None
    for backend, n in configurations:
        best = None
        last_run = None
        for _ in range(max(repeats, 1)):
            run = run_platform(work, "mpi", ranks=n, backend=backend, mmat=True)
            if best is None or run.elapsed < best:
                best = run.elapsed
            last_run = run
        if backend == "serial":
            baseline = best
        rows.append(
            {
                "backend": backend,
                "ranks": n,
                "elapsed_s": best,
                "speedup_vs_serial": (baseline / best) if baseline else float("nan"),
                "steps": sum(c.steps for c in last_run.counters.values()) // max(n, 1),
                "pages_fetched": last_run.network.get("page_fetches", 0),
                "bytes_moved": last_run.network.get("bytes_moved", 0),
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--region", type=int, default=64, help="grid edge length")
    parser.add_argument("--loops", type=int, default=8, help="Jacobi steps")
    parser.add_argument("--ranks", type=int, nargs="+", default=[2, 4],
                        help="rank counts for the threads/process backends")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per configuration (best wall-clock kept)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem, 2 ranks, 1 repeat (CI regression check)")
    args = parser.parse_args(argv)

    if args.smoke:
        rows = measure_backends(region=16, loops=2, ranks=(2,), repeats=1)
    else:
        rows = measure_backends(
            region=args.region, loops=args.loops,
            ranks=tuple(args.ranks), repeats=args.repeats,
        )

    cpus = os.cpu_count() or 1
    print(format_table(
        rows,
        title=f"Backend scaling — measured wall-clock, sgrid Jacobi "
              f"({cpus} CPU(s) available)",
    ))
    if cpus < 2:
        print("note: single-core machine — the process backend cannot "
              "show real speed-up here, only transport overhead.")

    # Regression gate (used by --smoke in CI): every backend must have
    # produced a measured, non-zero wall-clock and moved the same pages.
    ok = all(row["elapsed_s"] > 0 for row in rows)
    multi = [row for row in rows if row["ranks"] > 1]
    ok = ok and all(row["pages_fetched"] > 0 for row in multi)
    if not ok:
        print("FAILED: a backend produced no measured wall-clock or no traffic")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
