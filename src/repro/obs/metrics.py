"""Metrics registry: per-rank counters and streaming histograms.

Where :mod:`repro.runtime.tracing` counts platform-defined quantities
in a fixed dataclass, this registry accepts *named* measurements from
anywhere in the stack — ``halo.wait_ns`` observations, ``exchange.pages``
per aggregated exchange — and summarises their distribution (count,
sum, min/max, p50/p95/p99) per rank and overall.

Histograms are streaming: an exact count/sum/min/max plus a bounded
reservoir of samples for the percentiles, so recording stays O(1) in
memory on arbitrarily long runs.  State is picklable and mergeable,
which is how rank processes ship their measurements back over the
process backend's result channel.

Like the span tracer, call sites guard on :func:`repro.obs.spans.Tracer.enabled`
(or use the convenience helpers here, which check it for them), so a
run without tracing pays one flag check per site.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Optional, Tuple

from ..runtime.task import current_task
from .spans import global_tracer

__all__ = ["Histogram", "MetricsRegistry", "global_metrics", "record"]

#: Samples kept per histogram for percentile estimation.  Smoke runs
#: stay far below this (percentiles are then exact); long runs degrade
#: gracefully to a uniform reservoir.
RESERVOIR_SIZE = 4096


class Histogram:
    """Streaming distribution summary: exact moments + sample reservoir."""

    __slots__ = ("count", "total", "min", "max", "_samples", "_rng")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        # Deterministic reservoir so repeated runs of the test-suite
        # summarise identical inputs identically.
        self._rng = random.Random(0x5EED)

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < RESERVOIR_SIZE:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_SIZE:
                self._samples[slot] = value

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile (``p`` in [0, 100]) of the reservoir."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        pos = (p / 100.0) * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for value in other._samples:
            if len(self._samples) < RESERVOIR_SIZE:
                self._samples.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < RESERVOIR_SIZE:
                    self._samples[slot] = value

    def stats(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Thread-safe store of named per-rank histograms and counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hists: Dict[Tuple[str, int], Histogram] = {}
        self._counters: Dict[Tuple[str, int], float] = {}

    # -- recording ------------------------------------------------------
    def record(self, name: str, value: float, rank: Optional[int] = None) -> None:
        """Add one observation to histogram ``name`` on ``rank`` (default: current)."""
        if rank is None:
            rank = current_task().mpi_rank
        key = (name, rank)
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = Histogram()
                self._hists[key] = hist
            hist.record(value)

    def count(self, name: str, delta: float = 1, rank: Optional[int] = None) -> None:
        """Increment counter ``name`` on ``rank`` (default: current)."""
        if rank is None:
            rank = current_task().mpi_rank
        key = (name, rank)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + delta

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self._hists.clear()
            self._counters.clear()

    # -- snapshot / merge -----------------------------------------------
    def export_state(self) -> dict:
        """Picklable state for the process-backend result channel."""
        with self._lock:
            return {
                "histograms": {
                    key: {
                        "count": h.count,
                        "sum": h.total,
                        "min": h.min,
                        "max": h.max,
                        "samples": list(h._samples),
                    }
                    for key, h in self._hists.items()
                },
                "counters": dict(self._counters),
            }

    def merge_state(self, state: dict) -> None:
        """Fold another registry's :meth:`export_state` in (rank results)."""
        with self._lock:
            for key, data in state.get("histograms", {}).items():
                key = (key[0], key[1])
                hist = self._hists.get(key)
                if hist is None:
                    hist = Histogram()
                    self._hists[key] = hist
                other = Histogram()
                other.count = data["count"]
                other.total = data["sum"]
                other.min = data["min"]
                other.max = data["max"]
                other._samples = list(data["samples"])
                hist.merge(other)
            for key, value in state.get("counters", {}).items():
                key = (key[0], key[1])
                self._counters[key] = self._counters.get(key, 0) + value

    def snapshot(self) -> dict:
        """Summary of every metric: overall stats plus a per-rank breakdown.

        Shape::

            {"histograms": {name: {"all": {...stats...},
                                   "per_rank": {rank: {...stats...}}}},
             "counters":   {name: {"all": total,
                                   "per_rank": {rank: value}}}}
        """
        with self._lock:
            hist_items = list(self._hists.items())
            counter_items = list(self._counters.items())
        histograms: Dict[str, dict] = {}
        for (name, rank), hist in hist_items:
            entry = histograms.setdefault(name, {"all": Histogram(), "per_rank": {}})
            entry["all"].merge(hist)
            entry["per_rank"][rank] = hist.stats()
        counters: Dict[str, dict] = {}
        for (name, rank), value in counter_items:
            entry = counters.setdefault(name, {"all": 0, "per_rank": {}})
            entry["all"] += value
            entry["per_rank"][rank] = value
        return {
            "histograms": {
                name: {"all": e["all"].stats(), "per_rank": e["per_rank"]}
                for name, e in histograms.items()
            },
            "counters": counters,
        }


#: Process-wide registry, reset alongside the span tracer per traced run.
_GLOBAL = MetricsRegistry()


def global_metrics() -> MetricsRegistry:
    """Return the process-wide metrics registry."""
    return _GLOBAL


def record(name: str, value: float, rank: Optional[int] = None) -> None:
    """Record an observation iff tracing is enabled (single flag check)."""
    if global_tracer().enabled:
        _GLOBAL.record(name, value, rank)
