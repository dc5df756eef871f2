#!/usr/bin/env python
"""Unstructured-grid Laplace solve: the cost of losing spatial locality.

The USGrid DSL stores, with every cell, the Global Addresses of its
neighbours; the kernel follows those indirections.  The DSL supports two
layouts with identical arithmetic:

* CaseC — consecutive cell numbering (spatial locality preserved);
* CaseR — a random permutation (Assumption III violated).

This example runs both on one task, with and without MMAT, and prints
how many Env searches the platform performed — showing exactly why the
paper's Fig. 6 USGrid columns benefit so much from MMAT — and then runs
CaseR distributed over 4 ranks to show the communication volume blowing
up relative to CaseC (the Fig. 8 effect).

Run with::

    python examples/unstructured_laplace.py
"""

from __future__ import annotations

import numpy as np

from repro import Platform
from repro.apps import HandwrittenUSGrid, JacobiUSGrid


def initial(x: int, y: int) -> float:
    return np.sin(0.3 * x) + 0.1 * y


BASE = dict(region=24, block_cells=48, page_elements=16, loops=3, init=initial)


def serial_study() -> None:
    print("=== single task: Env searches with and without MMAT ===")
    reference = {
        case: HandwrittenUSGrid(24, case=case, loops=3, init=initial).run()
        for case in ("C", "R")
    }
    for case in ("C", "R"):
        for mmat in (False, True):
            run = Platform(mmat=mmat).run(JacobiUSGrid, config=dict(BASE, case=case))
            assert np.allclose(run.result, reference[case], atol=1e-10)
            stats = run.env_stats
            print(
                f"Case{case} mmat={str(mmat):<5} elapsed={run.elapsed:6.3f}s "
                f"searches={stats.searches:6d} search_steps={stats.search_steps:7d} "
                f"mmat_hits={stats.mmat_hits:6d}"
            )
    print()


def distributed_study() -> None:
    print("=== 4 ranks: communication volume, CaseC vs CaseR ===")
    for case in ("C", "R"):
        run = Platform.preset("mpi", ranks=4, mmat=True).run(
            JacobiUSGrid, config=dict(BASE, case=case)
        )
        pages = sum(c.pages_fetched for c in run.counters.values())
        print(
            f"Case{case}: pages fetched={pages:5d}  bytes moved={run.network['bytes_moved']:8d}  "
            f"messages={run.network['messages']:5d}"
        )
    print("\nCaseR crosses Blocks for almost every neighbour access, so its halo "
          "traffic is far larger — the root cause of the paper's Fig. 8 CaseR curve.")


if __name__ == "__main__":
    serial_study()
    distributed_study()
