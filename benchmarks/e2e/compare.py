#!/usr/bin/env python3
"""Compare two sets of end-to-end numbers, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py --pairs 10 CHECKOUT_A CHECKOUT_B [-- run.py args]

The first form reads two records written by ``run.py --json``; A is the
parent, B the change.  Every metric is lower-is-better.  Verdicts:

``same``        B's median is within the metric's bound of A's
``better``      B's median is lower by more than the bound
``worse``       B's median is higher by more than the bound
``unresolved``  the inter-quartile spread of either side exceeds the bound
                and the two sides' runs overlap (or the set was taken under
                load): the data cannot tell, which is not the same as "same"

Exit status is non-zero on any ``worse`` and on any rise in ``failed_ratio``.

The second form is for claiming a gain: it runs both checkouts' own
``run.py`` N times, alternating which side goes first, and takes each
pair's medians as one sample per side.  A ``gain`` needs B to win at
least 9 in 10 of the pairs (ties count for neither) *and* the medians to
differ by more than the distance between A's own quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from run import END_TO_END, summary  # noqa: E402


def verdict(a: dict, b: dict, bound: float) -> str:
    """``same | better | worse | unresolved`` for one metric's two summaries."""
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    overlap = min(a["values"]) <= max(b["values"]) and min(b["values"]) <= max(a["values"])
    if spread > bound and overlap:
        return "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def compare(a: dict, b: dict) -> Tuple[List[tuple], bool]:
    """Rows ``(workload, metric, a, b, bound, verdict)`` and whether B regressed."""
    rows, regressed = [], False
    loaded = a.get("unresolved_load") or b.get("unresolved_load")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        ea, eb = wa["end_to_end"], wb["end_to_end"]
        if eb["failed_ratio"] > ea["failed_ratio"]:
            print(f"{name}: failed_ratio rose {ea['failed_ratio']} -> {eb['failed_ratio']}")
            regressed = True
        for metric, (_unit, bound) in END_TO_END.items():
            if metric not in ea or metric not in eb:
                continue
            result = "unresolved" if loaded else verdict(ea[metric], eb[metric], bound)
            regressed = regressed or result == "worse"
            rows.append((name, metric, ea[metric], eb[metric], bound, result))
    return rows, regressed


def print_rows(rows: List[tuple]) -> None:
    def cell(s: dict) -> str:
        return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"

    print(f"{'workload':<18} {'metric':<19} {'A median [q1, q3]':<38} "
          f"{'B median [q1, q3]':<38} {'bound':>5} {'change':>8}  verdict")
    for name, metric, a, b, bound, result in rows:
        change = (b["median"] - a["median"]) / a["median"]
        print(f"{name:<18} {metric:<19} {cell(a):<38} {cell(b):<38} "
              f"{bound:>5.2f} {change:>+8.1%}  {result}")


# ----------------------------------------------------------------------
# --pairs: alternate two checkouts
# ----------------------------------------------------------------------
def run_checkout(checkout: str, run_args: List[str]) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "set.json")
        script = os.path.join(checkout, "benchmarks", "e2e", "run.py")
        subprocess.run([sys.executable, script, "--json", out, *run_args],
                       check=True, stdout=subprocess.DEVNULL)
        with open(out) as handle:
            return json.load(handle)


def pairs(checkout_a: str, checkout_b: str, count: int, run_args: List[str]) -> bool:
    """Run ``count`` alternated pairs; print the claim table; True if B regressed."""
    samples: Dict[tuple, Tuple[List[float], List[float]]] = {}
    checkouts = {"A": checkout_a, "B": checkout_b}
    for index in range(count):
        order = "AB" if index % 2 == 0 else "BA"
        sets = {side: run_checkout(checkouts[side], run_args) for side in order}
        for name, wa in sets["A"]["workloads"].items():
            wb = sets["B"]["workloads"][name]
            for metric in END_TO_END:
                if metric in wa["end_to_end"] and metric in wb["end_to_end"]:
                    va, vb = samples.setdefault((name, metric), ([], []))
                    va.append(wa["end_to_end"][metric]["median"])
                    vb.append(wb["end_to_end"][metric]["median"])
        print(f"pair {index + 1}/{count} done ({order[0]} first)", flush=True)

    regressed = False
    print(f"{'workload':<18} {'metric':<19} {'A median':>11} {'B median':>11} "
          f"{'A iqr':>10} {'B wins':>7}  verdict")
    for (name, metric), (va, vb) in samples.items():
        a, b = summary(va), summary(vb)
        wins = sum(y < x for x, y in zip(va, vb))
        gap, iqr = a["median"] - b["median"], a["q3"] - a["q1"]
        result = verdict(a, b, END_TO_END[metric][1])
        if wins >= 0.9 * len(va) and gap > iqr:
            result = "gain"
        regressed = regressed or result == "worse"
        print(f"{name:<18} {metric:<19} {a['median']:>11.5g} {b['median']:>11.5g} "
              f"{iqr:>10.3g} {wins:>4}/{len(va):<2}  {result}")
    return regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="parent: a run.py --json record (or a checkout with --pairs)")
    parser.add_argument("b", help="change: the same")
    parser.add_argument("--pairs", type=int, metavar="N",
                        help="run both checkouts N times, alternating which goes first")
    parser.add_argument("run_args", nargs="*", help="after --: arguments passed to each run.py")
    args = parser.parse_args(argv)
    if args.pairs:
        return 1 if pairs(args.a, args.b, args.pairs, args.run_args) else 0
    with open(args.a) as fa, open(args.b) as fb:
        rows, regressed = compare(json.load(fa), json.load(fb))
    print_rows(rows)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
