"""End-to-end observability: traced runs across all backends.

These tests run a traced Jacobi on the serial, threads and process
backends, save the trace, and check the exported document against
``chrome_trace.validate_chrome_trace`` plus the structural properties
the exporter promises (one track per (rank, thread), non-negative
durations, a ``halo.wait`` span on every rank that exchanged a halo).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid

from chrome_trace import validate_chrome_trace

CONFIG = dict(
    region=24, block_size=4, page_elements=8, loops=3,
    init=lambda x, y: 0.05 * x - 0.02 * y + 1.0,
)


def _traced_run(backend: str, ranks: int):
    return Platform.preset(
        "mpi", ranks=ranks, backend=backend, mmat=True, tracing=True,
    ).run(JacobiSGrid, config=dict(CONFIG))


class TestTraceExport:
    @pytest.mark.parametrize("backend,ranks", [
        ("serial", 1),
        ("threads", 4),
        ("process", 4),
    ])
    def test_trace_document_is_schema_valid(self, backend, ranks, tmp_path):
        run = _traced_run(backend, ranks)
        assert run.tracing
        events = run.timeline()
        assert events, "traced run produced no spans"

        path = tmp_path / f"trace_{backend}.json"
        run.save_trace(path)
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["metadata"]["backend"] == backend

        trace_events = doc["traceEvents"]
        # pid == rank; every rank's track is present and named.
        pids = {e["pid"] for e in trace_events if e.get("name") == "process_name"}
        assert pids == set(range(ranks))
        # All complete events have non-negative, µs-scaled durations.
        assert all(e["dur"] >= 0 for e in trace_events if e["ph"] == "X")
        # Every rank of a multi-rank run waited for its halo.
        waits = {e["pid"] for e in trace_events if e.get("name") == "halo.wait"}
        assert waits == (set(range(ranks)) if ranks > 1 else set())

    @pytest.mark.parametrize("backend,ranks", [
        ("threads", 4),
        ("process", 4),
    ])
    def test_every_rank_contributes_sweep_spans(self, backend, ranks):
        run = _traced_run(backend, ranks)
        sweeps = [e for e in run.timeline() if e["name"] == "sweep"]
        assert {e["rank"] for e in sweeps} == set(range(ranks))
        # One span per fused sweep: no Block is swept in two parts.
        assert len(sweeps) == sum(c.kernel_fused_calls for c in run.counters.values())
        # Phase spans from the MonitoringAspect appear once per rank
        # (the woven phases execute SPMD on every rank).
        names = [e["name"] for e in run.timeline() if e["ph"] == "X"]
        for phase in ("phase.initialize", "phase.processing", "phase.finalize"):
            assert names.count(phase) == ranks

    def test_metrics_surface_halo_wait_histograms(self):
        run = _traced_run("process", 4)
        metrics = run.metrics()
        hists = metrics["histograms"]
        assert "halo.wait.pages" in hists
        assert "halo.wait.ns" in hists
        assert hists["halo.wait.pages"]["all"]["sum"] == run.network["bulk_pages"] > 0
        imbalance = run.imbalance()
        assert imbalance["ranks"] == 4
        assert imbalance["updates_imbalance"] >= 1.0
        assert "imb=upd:" in run.summary()

    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_every_halo_wait_is_timed_once(self, backend):
        """One ``halo.wait`` span per wait on every rank, summarised exactly
        by ``halo.wait.ns``; each span lies inside the interval the
        ``halo_wait_ns`` counter times, so their durations sum to no more."""
        run = _traced_run(backend, 4)
        spans = {}
        for e in run.timeline():
            if e["name"] == "halo.wait":
                spans.setdefault(e["rank"], []).append(e["dur_ns"])
        hist = run.metrics()["histograms"]["halo.wait.ns"]["per_rank"]
        waited = {}
        for (rank, _thread), counters in run.counters.items():
            waited[rank] = waited.get(rank, 0) + counters.halo_wait_ns
        assert set(spans) == set(hist) == set(range(4))
        for rank in range(4):
            assert hist[rank]["count"] == len(spans[rank])
            for q in (50, 95, 99):
                assert hist[rank][f"p{q}"] == np.percentile(spans[rank], q)
            assert 0 < hist[rank]["sum"] <= waited[rank]

    def test_untraced_run_still_reports_the_halo_wait(self):
        run = Platform.preset("mpi", ranks=2, mmat=True).run(JacobiSGrid, config=dict(CONFIG))
        assert not run.tracing
        imbalance = run.imbalance()
        assert imbalance["ranks"] == 2 and imbalance["wait_mean_ns"] > 0
        assert ",wait:" in run.summary()

    def test_untraced_run_records_nothing(self, tmp_path):
        run = Platform.preset("mpi", ranks=2, mmat=True).run(
            JacobiSGrid, config=dict(CONFIG)
        )
        assert not run.tracing
        assert run.timeline() == []
        assert run.metrics() == {}
        with pytest.raises(ValueError):
            run.save_trace(tmp_path / "never.json")

    def test_address_plan_compiles_are_attributed(self):
        from repro.apps import JacobiUSGrid

        run = Platform.preset(
            "mpi", ranks=1, backend="serial", mmat=True, tracing=True,
        ).run(JacobiUSGrid, config=dict(region=8, case="R", block_cells=16, loops=2))
        compiles = [e for e in run.timeline() if e["ph"] == "X" and e["name"] == "plan.compile"]
        # gather() and gather_global() each compile one plan per tile.
        assert run.mmat_stats["tile_blocks"] == 4
        assert len(compiles) == run.mmat_stats["plan_compiles"] == 2 * run.mmat_stats["tiles"] == 2
        assert "plan.compile" in run.phase_report()

    def test_phase_report_renders_from_run(self):
        run = _traced_run("threads", 2)
        report = run.phase_report(limit=3)
        lines = report.splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert "%wall" in lines[0]
