#!/usr/bin/env python
"""Diff two benchmark JSON files and print a pass/fail table.

Used by the ``perf-gate`` CI job (and locally) to compare a freshly
generated ``bench_vectorized_kernels.py --json`` /
``bench_resilience.py --json`` document against the checked-in
``BENCH_*.json`` baseline.  Rules:

* **wall-clock keys** (``*_s``, ``elapsed_s``, ``ns_per_read``) fail on
  a regression beyond ``--max-time-regress`` (default 30%); an absolute
  slack of ``--time-slack`` seconds absorbs timer noise on tiny smoke
  runs;
* **message-count keys** (``messages``, ``*_messages``) fail on *any*
  increase — message counts are deterministic, so more messages always
  means the communication protocol regressed;
* every other numeric key is informational (speedups and ratios are
  re-gated by the benchmarks themselves).

Baselines may store one document per mode (``{"full": {...}, "smoke":
{...}}``); the section matching the fresh document's ``"mode"`` field is
selected automatically.  Rows inside lists are matched by their
``"workload"`` name so reordering or adding workloads never misreports.

Usage::

    python benchmarks/compare_bench.py BENCH_kernels.json fresh_kernels.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Iterator, List, Tuple

TIME_SUFFIXES = ("_s",)
TIME_KEYS = {"ns_per_read"}
MESSAGE_SUFFIX = "_messages"
MESSAGE_KEYS = {"messages"}


def classify(key: str) -> str:
    """'time' | 'messages' | 'info' for one leaf key."""
    if key in TIME_KEYS or any(key.endswith(sfx) for sfx in TIME_SUFFIXES):
        return "time"
    if key in MESSAGE_KEYS or key.endswith(MESSAGE_SUFFIX):
        return "messages"
    return "info"


def walk(node: Any, path: str = "") -> Iterator[Tuple[str, str, Any]]:
    """Yield (path, leaf key, numeric value) for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else str(key)
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                yield sub, str(key), value
            else:
                yield from walk(value, sub)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            label = str(index)
            if isinstance(item, dict) and "workload" in item:
                label = str(item["workload"])
            yield from walk(item, f"{path}[{label}]")


def select_section(baseline: dict, fresh: dict) -> dict:
    """Pick the baseline section matching the fresh document's mode."""
    mode = fresh.get("mode")
    if mode and mode in baseline and isinstance(baseline[mode], dict):
        return baseline[mode]
    return baseline


def compare(
    baseline: dict,
    fresh: dict,
    *,
    max_time_regress: float,
    time_slack: float,
) -> Tuple[List[dict], bool]:
    base_leaves = {path: value for path, _key, value in walk(baseline)}
    rows: List[dict] = []
    ok = True
    for path, key, value in walk(fresh):
        base = base_leaves.get(path)
        if base is None:
            rows.append({"metric": path, "baseline": "-", "current": value,
                         "delta": "-", "status": "NEW"})
            continue
        kind = classify(key)
        delta = value - base
        status = "info"
        if kind == "time":
            limit = base * (1.0 + max_time_regress) + time_slack
            status = "ok" if value <= limit else "FAIL"
        elif kind == "messages":
            status = "ok" if value <= base else "FAIL"
        if status == "FAIL":
            ok = False
        rel = f"{delta / base:+.1%}" if base else f"{delta:+g}"
        rows.append({"metric": path, "baseline": base, "current": value,
                     "delta": rel, "status": status})
    return rows, ok


def format_rows(rows: List[dict]) -> str:
    headers = ["metric", "baseline", "current", "delta", "status"]

    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    widths = {h: max(len(h), *(len(fmt(r[h])) for r in rows)) for h in headers}
    lines = [" | ".join(h.ljust(widths[h]) for h in headers),
             "-+-".join("-" * widths[h] for h in headers)]
    for row in rows:
        lines.append(" | ".join(fmt(row[h]).ljust(widths[h]) for h in headers))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in BENCH_*.json baseline")
    parser.add_argument("fresh", help="freshly generated bench JSON")
    parser.add_argument("--max-time-regress", type=float, default=0.30,
                        help="allowed relative wall-clock regression (default 0.30)")
    parser.add_argument("--time-slack", type=float, default=0.02,
                        help="absolute wall-clock slack in seconds (default 0.02)")
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)

    section = select_section(baseline, fresh)
    rows, ok = compare(
        section, fresh,
        max_time_regress=args.max_time_regress, time_slack=args.time_slack,
    )
    if not rows:
        print("no numeric metrics found to compare")
        return 1
    print(format_rows(rows))
    failures = sum(1 for row in rows if row["status"] == "FAIL")
    if not ok:
        print(f"\nFAILED: {failures} metric(s) regressed beyond the gate")
        return 1
    print(f"\nOK: no regression across {len(rows)} metrics")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
