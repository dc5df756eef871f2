#!/usr/bin/env python
"""Trace a 4-rank run and inspect where each rank spent its time.

Runs the Jacobi heat solver on the process backend (4 real forked rank
processes) with tracing enabled, saves the merged timeline as a Chrome
trace-event file — open it at https://ui.perfetto.dev or in
``chrome://tracing`` to see one track per (rank, thread), each rank's
sweeps and, inside its refreshes, the ``halo.wait`` spans — and prints the five widest spans of every rank: the quickest answer to
"what was this rank doing while the others were done?".

It then prints the halo-wait distributions ``run.metrics()`` reads off
the spans, and exits non-zero if a rank's ``halo.wait.ns`` count differs
from its number of ``halo.wait`` spans in the merged timeline.

Run with::

    python examples/trace_inspection.py
"""

from __future__ import annotations

import sys
from collections import Counter

from repro import Platform
from repro.apps import JacobiSGrid
from repro.obs import format_ns

RANKS = 4
TRACE_PATH = "trace_jacobi_4rank.json"


def hot_edge(x: int, y: int) -> float:
    """Initial temperature: a hot band along one edge."""
    return 80.0 if y < 4 else 0.0


CONFIG = dict(
    region=48,
    block_size=24,      # one 24x24 Block per rank (2x2 decomposition)
    page_elements=576,
    loops=6,
    init=hot_edge,
)


def main() -> int:
    run = Platform.preset(
        "mpi", ranks=RANKS, backend="process", mmat=True, tracing=True
    ).run(JacobiSGrid, config=CONFIG)

    run.save_trace(TRACE_PATH)
    print(f"{len(run.timeline())} span events from {RANKS} rank processes "
          f"-> {TRACE_PATH}")
    print("open it at https://ui.perfetto.dev (or chrome://tracing)\n")

    print("Top 5 widest spans per rank:")
    for rank, spans in sorted(run.widest_spans(5).items()):
        print(f"  rank {rank}:")
        for span in spans:
            args = f"  {span['args']}" if span.get("args") else ""
            print(f"    {format_ns(span['dur_ns']):>10}  {span['name']}{args}")

    # The halo metrics behind the picture, read off the same spans: how
    # long ranks blocked waiting for the halo, and how big the exchanges were.
    hists = run.metrics()["histograms"]
    for name in ("halo.wait.ns", "halo.wait.pages"):
        stats = hists.get(name, {}).get("all")
        if stats:
            print(f"\n{name}: count={stats['count']} p50={stats['p50']:.0f} "
                  f"p95={stats['p95']:.0f} max={stats['max']:.0f}")

    imbalance = run.imbalance()
    print(f"\nload imbalance: updates {imbalance['updates_imbalance']:.2f}x, "
          f"halo wait {imbalance['wait_imbalance']:.2f}x (max/mean over "
          f"{imbalance['ranks']} ranks)")

    spans = Counter(e["rank"] for e in run.timeline() if e["name"] == "halo.wait")
    counted = {rank: stats["count"]
               for rank, stats in hists["halo.wait.ns"]["per_rank"].items()}
    if counted != dict(spans) or len(spans) != RANKS:
        print(f"halo.wait.ns counts {counted} != halo.wait spans {dict(spans)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
