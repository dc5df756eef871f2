"""Ablation benches beyond the paper's figures.

Three design choices of the platform have an effect worth isolating:

* **MMAT** (the paper only reports it bundled into Fig. 6): how many Env
  searches does it actually remove per configuration?
* **Dry-run prefetch**: how many re-executed steps does the distributed
  layer avoid?  (Measured indirectly: with the prefetch in place, at most
  the first step per rank is recomputed.)
* **Z-order block assignment**: how much less halo traffic than an
  arbitrary (shuffled) assignment of Blocks to ranks?
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.bench import run_platform, sgrid_workload, usgrid_workload


def _mmat_ablation():
    rows = []
    for case in ("C", "R"):
        work = usgrid_workload(24, case=case, block_cells=48)
        for mmat in (False, True):
            run = run_platform(work, mmat=mmat)
            stats = run.env_stats
            rows.append(
                {
                    "workload": work.name,
                    "mmat": "on" if mmat else "off",
                    "env_searches": stats.searches,
                    "search_steps": stats.search_steps,
                    "mmat_hits": stats.mmat_hits,
                    "elapsed_s": run.elapsed,
                }
            )
    return rows


def test_ablation_mmat_search_elimination(benchmark):
    rows = run_once(benchmark, _mmat_ablation)
    emit(rows, "Ablation — MMAT: Env searches with the memo on/off")
    by_key = {(r["workload"], r["mmat"]): r for r in rows}
    for case_label in {r["workload"] for r in rows}:
        on = by_key[(case_label, "on")]
        off = by_key[(case_label, "off")]
        assert on["env_searches"] < off["env_searches"]
        assert on["mmat_hits"] > 0


def _dry_run_ablation():
    work = sgrid_workload(32, loops=4)
    rows = []
    for processes in (2, 4):
        run = run_platform(work, "mpi", ranks=processes, mmat=True)
        recomputed = sum(c.recomputed_steps for c in run.counters.values())
        steps = sum(c.steps for c in run.counters.values())
        rows.append(
            {
                "processes": processes,
                "total_steps": steps,
                "recomputed_steps": recomputed,
                "pages_fetched": sum(c.pages_fetched for c in run.counters.values()),
            }
        )
    return rows


def test_ablation_dry_run_prefetch(benchmark):
    rows = run_once(benchmark, _dry_run_ablation)
    emit(rows, "Ablation — Dry-run prefetch: recomputed steps per run")
    for row in rows:
        # The dry-run record is collected during warm-up, so at most the very
        # first productive step of each rank can fail once; with 4 steps per
        # rank this bounds recomputation to 25% of steps.
        assert row["recomputed_steps"] <= row["processes"]
        assert row["pages_fetched"] > 0


def _zorder_ablation():
    """Compare halo traffic with Z-order vs shuffled block assignment."""
    from repro.apps import JacobiSGrid
    from repro.dsl.base import DslTarget

    work = sgrid_workload(32, loops=2)

    class ShuffledAssignment(JacobiSGrid):
        """Same application, but Blocks are dealt to tasks in a shuffled order."""

        def assign_tasks(self, specs):
            import math

            total = max(self.total_tasks, 1)
            # Deterministic shuffle that destroys spatial contiguity.
            ordered = sorted(specs, key=lambda s: (s.grid_coords[0] * 7919 + s.grid_coords[1] * 104729) % 65536)
            per_task = math.ceil(len(ordered) / total)
            return [
                (spec, min(index // per_task, total - 1))
                for index, spec in enumerate(ordered)
            ]

    rows = []
    for label, app_cls in (("z-order", JacobiSGrid), ("shuffled", ShuffledAssignment)):
        from repro.annotation import Platform

        platform = Platform.preset("mpi", ranks=4, mmat=True)
        run = platform.run(app_cls, config=dict(work.config))
        rows.append(
            {
                "assignment": label,
                "pages_fetched": sum(c.pages_fetched for c in run.counters.values()),
                "bytes_moved": run.network["bytes_moved"],
            }
        )
    return rows


def test_ablation_zorder_assignment(benchmark):
    rows = run_once(benchmark, _zorder_ablation)
    emit(rows, "Ablation — Z-order vs shuffled Block-to-task assignment (4 ranks)")
    by_label = {row["assignment"]: row for row in rows}
    # Z-order keeps neighbouring blocks on the same rank, so it never moves
    # more halo data than a locality-destroying assignment.
    assert by_label["z-order"]["pages_fetched"] <= by_label["shuffled"]["pages_fetched"]
