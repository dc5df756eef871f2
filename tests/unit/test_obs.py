"""Unit tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import (
    Tracer,
    chrome_trace_document,
    phase_report,
    span_metrics,
    widest_spans,
)
from repro.runtime import TaskContext, TaskCounters, TraceRecorder, task_scope

from chrome_trace import validate_chrome_trace


class TestTracer:
    def test_disabled_by_default_and_records_nothing(self):
        tracer = Tracer()
        assert not tracer.enabled
        with tracer.span("phase"):
            pass
        assert tracer.snapshot() == []

    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("a") is tracer.span("b")

    def test_records_complete_spans_with_nesting_path(self):
        tracer = Tracer()
        tracer.set_enabled(True)
        with tracer.span("outer"):
            with tracer.span("inner", detail=3):
                pass
        events = tracer.snapshot()
        assert [e["name"] for e in events] == ["outer", "inner"]
        inner = events[1]
        assert inner["path"] == "outer;inner"
        assert inner["args"] == {"detail": 3}
        assert inner["dur_ns"] >= 0
        outer = events[0]
        # The outer span starts first but closes last: it must contain
        # the inner one on the aligned timeline.
        assert outer["ts_ns"] <= inner["ts_ns"]
        assert outer["ts_ns"] + outer["dur_ns"] >= inner["ts_ns"] + inner["dur_ns"]

    def test_spans_tagged_with_task_context(self):
        tracer = Tracer()
        tracer.set_enabled(True)
        ctx = TaskContext(mpi_rank=2, mpi_size=4, omp_thread=1, omp_threads=2)
        with task_scope(ctx):
            with tracer.span("work"):
                pass
        (event,) = tracer.snapshot()
        assert event["rank"] == 2
        assert event["thread"] == 1

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=8)
        tracer.set_enabled(True)
        for i in range(20):
            with tracer.span(f"s{i}"):
                pass
        events = tracer.snapshot()
        assert len(events) == 8
        # Oldest dropped: the survivors are the most recent spans.
        assert events[-1]["name"] == "s19"
        assert tracer.dropped_events() == 12

    def test_merge_events_joins_other_process_snapshot(self):
        a, b = Tracer(), Tracer()
        a.set_enabled(True)
        b.set_enabled(True)
        with a.span("parent"):
            pass
        ctx = TaskContext(mpi_rank=1, mpi_size=2)
        with task_scope(ctx):
            with b.span("child"):
                pass
        a.merge_events(b.snapshot())
        events = a.snapshot()
        assert {e["name"] for e in events} == {"parent", "child"}
        assert {e["rank"] for e in events} == {0, 1}

    def test_reset_clears_buffers_and_merged(self):
        tracer = Tracer()
        tracer.set_enabled(True)
        with tracer.span("x"):
            pass
        tracer.merge_events([{"ph": "X", "name": "y", "path": "y", "ts_ns": 1,
                              "dur_ns": 1, "rank": 1, "thread": 0, "args": None}])
        tracer.reset()
        assert tracer.snapshot() == []

    def test_span_at_explicit_track(self):
        tracer = Tracer()
        tracer.set_enabled(True)
        with tracer.span_at("serve", 3, "recv"):
            pass
        (event,) = tracer.snapshot()
        assert event["rank"] == 3
        assert event["thread"] == "recv"


class TestSpanMetrics:
    @staticmethod
    def _event(name, rank, dur_ns, **args):
        return {"ph": "X", "name": name, "path": name, "ts_ns": 0, "dur_ns": dur_ns,
                "rank": rank, "thread": 0, "args": args or None}

    def test_percentiles_are_exact(self):
        durations = [7, 1, 100, 42, 3, 18, 55, 2, 9]
        events = [self._event("halo.wait", 0, d) for d in durations]
        stats = span_metrics(events)["histograms"]["halo.wait.ns"]["all"]
        assert stats["count"] == len(durations)
        assert stats["sum"] == sum(durations)
        assert stats["min"] == 1 and stats["max"] == 100
        for q in (50, 95, 99):
            assert stats[f"p{q}"] == np.percentile(durations, q)

    def test_one_entry_per_rank_merged_child_events_included(self):
        tracer = Tracer()
        tracer.set_enabled(True)
        with tracer.span("halo.wait"):
            pass
        child = Tracer()
        child.set_enabled(True)
        with task_scope(TaskContext(mpi_rank=1, mpi_size=2)):
            for _ in range(3):
                with child.span("halo.wait"):
                    pass
        tracer.merge_events(child.snapshot())
        hist = span_metrics(tracer.snapshot())["histograms"]["halo.wait.ns"]
        assert {rank: s["count"] for rank, s in hist["per_rank"].items()} == {0: 1, 1: 3}
        assert hist["all"]["count"] == 4

    def test_numeric_attributes_summarised_others_skipped(self):
        events = [
            self._event("halo.wait", 0, 10, pages=4, label="owner"),
            self._event("halo.wait", 0, 20, pages=6, ok=True),
            self._event("ckpt.save", 1, 5, epoch=np.int64(2)),
        ]
        hists = span_metrics(events)["histograms"]
        assert set(hists) == {"halo.wait.ns", "halo.wait.pages", "ckpt.save.ns", "ckpt.save.epoch"}
        assert hists["halo.wait.pages"]["per_rank"][0]["sum"] == 10
        assert hists["halo.wait.pages"]["all"]["mean"] == 5

    def test_overall_combines_every_rank(self):
        events = [self._event("refresh", 0, d) for d in (1, 2)]
        events += [self._event("refresh", 1, d) for d in (10, 20)]
        hist = span_metrics(events)["histograms"]["refresh.ns"]
        assert hist["all"]["count"] == 4
        assert hist["all"]["sum"] == 33 and hist["all"]["mean"] == 8.25
        assert hist["all"]["min"] == 1 and hist["all"]["max"] == 20
        assert hist["per_rank"][0]["max"] == 2 and hist["per_rank"][1]["min"] == 10

    def test_span_without_attributes_gives_only_its_duration(self):
        events = [self._event("plan.compile", 3, 40)]
        del events[0]["args"]
        events.append(self._event("plan.compile", 3, 60))
        hists = span_metrics(events)["histograms"]
        assert set(hists) == {"plan.compile.ns"}
        stats = hists["plan.compile.ns"]["per_rank"][3]
        assert stats["count"] == 2 and stats["p50"] == 50

    def test_one_sample_is_every_percentile(self):
        stats = span_metrics([self._event("ckpt.save", 0, 17)])["histograms"]["ckpt.save.ns"]["all"]
        assert stats["min"] == stats["max"] == stats["mean"] == 17
        assert stats["p50"] == stats["p95"] == stats["p99"] == 17

    def test_empty_timeline_gives_nothing(self):
        assert span_metrics([]) == {}


def _traced_events():
    tracer = Tracer()
    tracer.set_enabled(True)
    with tracer.span("processing"):
        with tracer.span("sweep", sites=16):
            pass
    with tracer.span("halo.wait", pages=2):
        pass
    with task_scope(TaskContext(mpi_rank=1, mpi_size=2)):
        with tracer.span("sweep"):
            pass
    return tracer.snapshot()


class TestChromeExport:
    def test_document_validates_and_maps_tracks(self):
        doc = chrome_trace_document(_traced_events())
        assert validate_chrome_trace(doc) == []
        events = doc["traceEvents"]
        process_names = [e for e in events if e.get("name") == "process_name"]
        assert {e["pid"] for e in process_names} == {0, 1}
        complete = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in complete)
        assert all(e["ts"] >= 0 for e in events if e["ph"] != "M")

    def test_named_thread_gets_aux_tid(self):
        tracer = Tracer()
        tracer.set_enabled(True)
        with tracer.span_at("serve", 0, "recv"):
            pass
        with tracer.span("main"):
            pass
        doc = chrome_trace_document(tracer.snapshot())
        thread_names = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert thread_names["recv"] >= 100
        assert thread_names["omp 0"] == 0

    def test_document_is_json_serialisable(self):
        doc = chrome_trace_document(_traced_events())
        assert json.loads(json.dumps(doc))["traceEvents"]

    def test_validator_rejects_bad_documents(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        bad_ph = {"traceEvents": [{"ph": "Q", "pid": 0, "tid": 0}]}
        assert any("unsupported ph" in p for p in validate_chrome_trace(bad_ph))
        negative = {"traceEvents": [
            {"ph": "X", "name": "s", "cat": "s", "ts": 0, "dur": -5, "pid": 0, "tid": 0}
        ]}
        assert any("negative dur" in p for p in validate_chrome_trace(negative))
        async_begin = {"traceEvents": [
            {"ph": "b", "name": "f", "cat": "f", "id": 1, "ts": 0, "pid": 0, "tid": 0}
        ]}
        assert any("unsupported ph" in p for p in validate_chrome_trace(async_begin))


class TestReports:
    def test_phase_report_aggregates_and_indents(self):
        report = phase_report(_traced_events())
        lines = report.splitlines()
        assert "phase" in lines[0] and "%wall" in lines[0]
        assert any(line.lstrip().startswith("sweep") for line in lines[1:])
        # The nested sweep is indented under processing.
        sweep_lines = [line for line in lines if "sweep" in line]
        assert any(line.startswith("  ") for line in sweep_lines)

    def test_phase_report_limit(self):
        report = phase_report(_traced_events(), limit=1)
        assert len(report.splitlines()) == 2  # header + one row

    def test_phase_report_empty(self):
        assert "no spans" in phase_report([])

    def test_widest_spans_per_rank(self):
        top = widest_spans(_traced_events(), n=1)
        assert set(top) == {0, 1}
        assert all(len(spans) == 1 for spans in top.values())


class TestMergeCountersDescriptiveFields:
    def test_first_non_default_value_wins(self):
        recorder = TraceRecorder()
        with task_scope(TaskContext(mpi_rank=0, mpi_size=2)):
            mine = recorder.for_task()
        mine.access_pattern = "random"
        mine.bytes_per_update = 64
        mine.updates = 10
        # An incoming rank that never set its profile (defaults) must not
        # clobber the recorded one, regardless of merge order.
        incoming = {(0, 0): TaskCounters(updates=5)}
        recorder.merge_counters(incoming)
        merged = recorder.all_counters()[(0, 0)]
        assert merged.updates == 15
        assert merged.access_pattern == "random"
        assert merged.bytes_per_update == 64

    def test_default_mine_adopts_incoming_profile(self):
        recorder = TraceRecorder()
        with task_scope(TaskContext(mpi_rank=0, mpi_size=2)):
            recorder.for_task().updates = 1
        incoming = {(0, 0): TaskCounters(access_pattern="bucketed", bytes_per_update=96)}
        recorder.merge_counters(incoming)
        merged = recorder.all_counters()[(0, 0)]
        assert merged.access_pattern == "bucketed"
        assert merged.bytes_per_update == 96
