"""End-to-end observability: traced runs across all backends.

The ISSUE's acceptance criterion: a 4-rank process-backend Jacobi run,
traced, must produce a Perfetto-loadable Chrome trace in which each
rank's interior-sweep span overlaps a halo-flight async window — visual
proof that the overlap machinery hides communication behind computation.

These tests run a traced Jacobi on the serial, threads and process
backends, save the trace, and check the exported document against
``chrome_trace.validate_chrome_trace`` plus the structural properties
the exporter promises (one track per (rank, thread), paired async
begin/end events, non-negative durations).
"""

from __future__ import annotations

import json

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
        # Async halo flights come in matched begin/end pairs.
        begins = [e for e in trace_events if e["ph"] == "b"]
        ends = [e for e in trace_events if e["ph"] == "e"]
        assert len(begins) == len(ends)
        if ranks > 1:
            assert begins, "multi-rank overlapped run issued no halo flights"

    @pytest.mark.parametrize("backend,ranks", [
        ("threads", 4),
        ("process", 4),
    ])
    def test_every_rank_contributes_sweep_spans(self, backend, ranks):
        run = _traced_run(backend, ranks)
        interior = [e for e in run.timeline()
                    if e["ph"] == "X" and e["name"] == "sweep.interior"]
        assert {e["rank"] for e in interior} == set(range(ranks))
        # Phase spans from the MonitoringAspect appear once per rank
        # (the woven phases execute SPMD on every rank).
        names = [e["name"] for e in run.timeline() if e["ph"] == "X"]
        for phase in ("phase.initialize", "phase.processing", "phase.finalize"):
            assert names.count(phase) == ranks

    def test_interior_sweeps_overlap_halo_flights_process_backend(self):
        """Acceptance criterion: interior compute inside flight windows."""
        run = _traced_run("process", 4)
        events = run.timeline()
        flights = {}  # (rank, id) -> [begin_ts, end_ts]
        for e in events:
            if e["ph"] == "b" and e["name"] == "halo.flight":
                flights.setdefault((e["rank"], e["id"]), [None, None])[0] = e["ts_ns"]
            elif e["ph"] == "e" and e["name"] == "halo.flight":
                flights.setdefault((e["rank"], e["id"]), [None, None])[1] = e["ts_ns"]
        windows = {}
        for (rank, _), (t0, t1) in flights.items():
            assert t0 is not None and t1 is not None and t1 >= t0
            windows.setdefault(rank, []).append((t0, t1))
        assert set(windows) == {0, 1, 2, 3}

        interior = [e for e in events
                    if e["ph"] == "X" and e["name"] == "sweep.interior"]
        assert interior
        for span in interior:
            rank = span["rank"]
            mid = span["ts_ns"] + span["dur_ns"] // 2
            assert any(t0 <= mid <= t1 for t0, t1 in windows.get(rank, [])), (
                f"rank {rank} interior sweep at {mid} outside every halo flight"
            )

    def test_metrics_surface_halo_and_exchange_histograms(self):
        run = _traced_run("process", 4)
        metrics = run.metrics()
        hists = metrics["histograms"]
        assert "exchange.pages" in hists
        assert "halo.wait_ns" in hists
        assert hists["exchange.pages"]["all"]["count"] > 0
        imbalance = run.imbalance()
        assert imbalance["ranks"] == 4
        assert imbalance["updates_imbalance"] >= 1.0
        assert "imb=upd:" in run.summary()

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
