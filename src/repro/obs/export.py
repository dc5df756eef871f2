"""Exporters for recorded spans: Chrome trace JSON and text reports.

Two consumers, two formats:

* :func:`chrome_trace_document` — the Chrome trace-event JSON format
  (the ``{"traceEvents": [...]}`` object form), loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  One process track
  per rank, one thread track per (rank, thread); synchronous spans are
  complete (``ph: "X"``) events, asynchronous halo flights are
  ``"b"``/``"e"`` pairs that Perfetto draws as arrows from issue to
  completion.
* :func:`phase_report` — a plain-text flamegraph-style table that
  aggregates spans by their call path, for terminals without a trace
  viewer at hand.

The test suite checks every backend's document against the subset of
the trace-event schema these exporters rely on (``tests/chrome_trace.py``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "chrome_trace_document",
    "save_chrome_trace",
    "phase_report",
    "widest_spans",
    "format_ns",
]


def _thread_sort_key(thread: Union[int, str]) -> tuple:
    # Integer OMP thread ids first in numeric order, then named
    # auxiliary threads ("recv", ...) alphabetically.
    if isinstance(thread, int):
        return (0, thread, "")
    return (1, 0, str(thread))


def _tid_map(events: List[dict]) -> Dict[Tuple[int, Union[int, str]], int]:
    """Stable (rank, thread) → integer tid mapping.

    OMP worker threads keep their index; named threads (the process
    backend's receiver) get tids from 100 up so they sort below the
    workers in trace viewers.
    """
    threads: Dict[int, set] = defaultdict(set)
    for event in events:
        threads[event["rank"]].add(event["thread"])
    mapping: Dict[Tuple[int, Union[int, str]], int] = {}
    for rank, names in threads.items():
        aux = 100
        for thread in sorted(names, key=_thread_sort_key):
            if isinstance(thread, int):
                mapping[(rank, thread)] = thread
            else:
                mapping[(rank, thread)] = aux
                aux += 1
    return mapping


def _category(name: str) -> str:
    return name.split(".", 1)[0]


def chrome_trace_document(events: List[dict], *, metadata: Optional[dict] = None) -> dict:
    """Convert a :meth:`Tracer.snapshot` event list to a Chrome trace document.

    Timestamps are normalised so the earliest event sits at ts=0 and
    converted to the microseconds the format mandates; durations are
    clamped non-negative (a clock hiccup must not render as a
    billion-year span).
    """
    tids = _tid_map(events)
    t0 = min((e["ts_ns"] for e in events), default=0)
    trace_events: List[dict] = []

    # Metadata events name the per-rank process tracks and per-thread
    # thread tracks so Perfetto shows "rank 0 / omp 1" instead of bare ids.
    ranks = sorted({e["rank"] for e in events})
    for rank in ranks:
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": rank, "tid": 0,
            "args": {"name": "rank %d" % rank},
        })
    for (rank, thread), tid in sorted(tids.items(), key=lambda kv: (kv[0][0], kv[1])):
        label = ("omp %d" % thread) if isinstance(thread, int) else str(thread)
        trace_events.append({
            "ph": "M", "name": "thread_name", "pid": rank, "tid": tid,
            "args": {"name": label},
        })

    for event in events:
        pid = event["rank"]
        tid = tids[(pid, event["thread"])]
        ts_us = (event["ts_ns"] - t0) / 1000.0
        name = event["name"]
        common = {
            "name": name,
            "cat": _category(name),
            "ts": ts_us,
            "pid": pid,
            "tid": tid,
        }
        if event["args"]:
            common["args"] = dict(event["args"])
        if event["ph"] == "X":
            common["ph"] = "X"
            common["dur"] = max(event["dur_ns"], 0) / 1000.0
        else:
            common["ph"] = event["ph"]
            common["id"] = event["id"]
        trace_events.append(common)

    doc = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {"tool": "repro.obs", **(metadata or {})},
    }
    return doc


def save_chrome_trace(path: str, events: List[dict], *, metadata: Optional[dict] = None) -> str:
    """Write the Chrome trace document for ``events`` to ``path``; returns ``path``."""
    doc = chrome_trace_document(events, metadata=metadata)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def format_ns(ns: float) -> str:
    """Human duration: 1234567 → '1.23ms'."""
    ns = float(ns)
    if ns >= 1e9:
        return "%.2fs" % (ns / 1e9)
    if ns >= 1e6:
        return "%.2fms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.1fus" % (ns / 1e3)
    return "%dns" % int(ns)


def phase_report(events: List[dict], *, limit: Optional[int] = None) -> str:
    """Flamegraph-style text table aggregating spans by call path.

    Sibling phases are ordered by total time, children indented under
    their parents; the ``%wall`` column is relative to the overall
    traced window, so overlapping ranks legitimately sum past 100%.
    ``limit`` keeps only the first N rows (the quickstart prints 3).
    """
    spans = [e for e in events if e["ph"] == "X"]
    if not spans:
        return "phase report: no spans recorded"
    totals: Dict[str, List[float]] = {}
    for s in spans:
        path = s.get("path") or s["name"]
        entry = totals.setdefault(path, [0, 0.0])
        entry[0] += 1
        entry[1] += max(s["dur_ns"], 0)
    wall_ns = max(e["ts_ns"] + e.get("dur_ns", 0) for e in spans) - min(
        e["ts_ns"] for e in spans
    )
    wall_ns = max(wall_ns, 1)

    # Depth-first emission: under each parent path, children sorted by
    # total time descending — the classic collapsed-stack ordering.
    children: Dict[str, List[str]] = defaultdict(list)
    roots: List[str] = []
    for path in totals:
        parent = path.rsplit(";", 1)[0] if ";" in path else None
        if parent is not None and parent in totals:
            children[parent].append(path)
        else:
            roots.append(path)

    rows: List[Tuple[int, str, int, float]] = []

    def emit(path: str, depth: int) -> None:
        count, total = totals[path]
        rows.append((depth, path.rsplit(";", 1)[-1], count, total))
        for child in sorted(children[path], key=lambda p: -totals[p][1]):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda p: -totals[p][1]):
        emit(root, 0 if ";" not in root else root.count(";"))
    if limit is not None:
        rows = rows[:limit]

    name_width = max(len("phase"), max(2 * d + len(n) for d, n, _, _ in rows))
    lines = [
        "%-*s %8s %10s %10s %7s"
        % (name_width, "phase", "count", "total", "mean", "%wall")
    ]
    for depth, name, count, total in rows:
        label = "  " * depth + name
        lines.append(
            "%-*s %8d %10s %10s %6.1f%%"
            % (
                name_width,
                label,
                count,
                format_ns(total),
                format_ns(total / count if count else 0),
                100.0 * total / wall_ns,
            )
        )
    return "\n".join(lines)


def widest_spans(events: List[dict], n: int = 5) -> Dict[int, List[dict]]:
    """Top-``n`` longest complete spans per rank (duration descending)."""
    per_rank: Dict[int, List[dict]] = defaultdict(list)
    for event in events:
        if event["ph"] == "X":
            per_rank[event["rank"]].append(event)
    return {
        rank: sorted(spans, key=lambda s: -s["dur_ns"])[:n]
        for rank, spans in sorted(per_rank.items())
    }
