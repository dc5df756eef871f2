#!/usr/bin/env python3
"""End-to-end benchmark with layer attribution (see README.md beside this file).

Two ways to call it.  The benchmark driver's contract::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds T --trace 0|1

runs one workload and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--trace`` it is the report a person reads::

    python3 benchmarks/e2e/run.py [--workload W] [--runs N] [--seed S] [--smoke] [--json OUT]

which measures every selected workload untraced, adds one traced run for
the per-layer table, prints every metric by name with its unit and
writes the record ``compare.py`` takes.

Closed loop, one client: runs are launched one at a time, each in a fresh
interpreter, never more busy processes/threads than the workload's ranks.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform as host_platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import numpy as np

import reference
import spans
import workloads
from workloads import BY_NAME, HERE, SRC, WORKLOADS, Workload

DEFAULT_SEED = 20220329
#: ``run_seconds`` of BENCHMARK.json: the --seconds at which a workload makes its own ``runs``.
RUN_SECONDS = 10.0
#: A run that has not reported after this long is killed and counted failed.
RUN_TIMEOUT_S = 120.0
#: 1-min load average above which a report-mode set is marked unresolved.
MAX_LOAD = 0.5

#: name -> (unit, bound): how much the median may worsen before it is a regression.
END_TO_END = {
    "time_to_solution_s": ("s", 0.25),
    "step_s_p50": ("s", 0.25),
    "step_s_p90": ("s", 0.25),
    "setup_s": ("s", 0.25),
    "peak_rss_mb": ("MiB", 0.10),
}

#: Per-layer metrics beyond the span table, with units.
LAYER_EXTRAS = {
    "aspects.step_residual_s": "s",
    "aspects.warmup_residual_s": "s",
    "runtime.messages_per_step": "count",
    "runtime.bytes_per_step": "B",
    "runtime.barriers_per_step": "count",
    "runtime.allreduces_per_step": "count",
    "runtime.shm_fallbacks": "count",
    "memory.plans": "count",
    "memory.plan_compiles": "count",
    "memory.fallback_sites": "count",
    "kernels.fused_kernels": "count",
    "aspects.recomputed_steps": "ratio",
    "ref.numpy_step_s": "s",
    "derived.overhead_vs_numpy_x": "x",
    "derived.speedup_vs_serial_x": "x",
    "derived.setup_share": "ratio",
    "derived.updates_per_s": "1/s",
    "derived.computed_gb_per_s": "GB/s",
    "derived.attributed_share": "ratio",
    "obs.trace_overhead_x": "x",
}
#: Bytes a five-point float64 update touches (5 reads + 1 write), *computed*.
BYTES_PER_UPDATE = 48


def layer_units() -> Dict[str, str]:
    units = {
        f"{name}.{field}": unit
        for name in spans.SPAN_NAMES
        for field, unit in spans.SPAN_FIELDS.items()
    }
    units.update(LAYER_EXTRAS)
    return units


# ----------------------------------------------------------------------
# one run in a fresh interpreter
# ----------------------------------------------------------------------
def launch(problem: dict, ranks: int, backend: str, traced: bool) -> dict:
    """Run the problem once in a fresh interpreter; return its record.

    A crash or a timeout comes back as ``{"error": text}``.  The run leads
    its own session, so its forked ranks and the platform's shared-memory
    resource tracker can be waited for (or killed) as one group.
    """
    spec = json.dumps({"problem": problem, "ranks": ranks, "backend": backend, "traced": traced})
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".run-") as scratch:
        out = os.path.join(scratch, "record.pkl")
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workloads.py"), spec, out],
            start_new_session=True,
        )
        timed_out = False
        try:
            proc.wait(RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            _end_session(proc.pid, kill_now=proc.poll() is None)
            proc.wait()
        if timed_out:
            return {"error": f"no result within {RUN_TIMEOUT_S:.0f} s"}
        if not os.path.exists(out):
            return {"error": f"run process exited with {proc.returncode} without a record"}
        with open(out, "rb") as handle:
            return pickle.load(handle)  # written by workloads.one_run just now


def _session_running(pgid: int) -> bool:
    """Whether a process of group ``pgid`` still runs (zombies do not count:
    an orphan waits for PID 1 to reap it long after it has ended)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                state, _ppid, pgrp = stat.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue  # ended while we were looking
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def _end_session(pgid: int, kill_now: bool, grace: float = 5.0) -> None:
    """Return once no process of the run's session runs; kill stragglers."""
    deadline = time.monotonic() + (0.0 if kill_now else grace)
    while _session_running(pgid):
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            deadline = time.monotonic() + grace
        time.sleep(0.005)


def checked(record: dict, oracle: np.ndarray, ranks: int) -> dict:
    """Attach the oracle verdict: ``record["error"]`` is set on any failure."""
    if "error" not in record:
        why = reference.mismatch(record.pop("result"), oracle, ranks)
        if why is not None:
            record["error"] = f"result differs from the oracle: {why}"
    return record


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def summary(values: List[float]) -> dict:
    """Median, quartiles and count of one metric's per-run values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


def end_to_end(records: List[dict]) -> dict:
    """Per-metric summaries over the runs that passed, plus ``failed_ratio``."""
    good = [r for r in records if "error" not in r]
    out = {"failed_ratio": (len(records) - len(good)) / len(records)}
    if good:
        per_run = {
            "time_to_solution_s": [r["time_to_solution_s"] for r in good],
            "step_s_p50": [statistics.median(r["step_s"]) for r in good],
            "step_s_p90": [float(np.percentile(r["step_s"], 90)) for r in good],
            "setup_s": [r["setup_s"] for r in good],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        }
        out.update({name: summary(values) for name, values in per_run.items()})
    return out


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def per_layer(
    workload: Workload, problem: dict, oracle: np.ndarray, ref_step_s: float,
    untraced: Optional[dict],
) -> dict:
    """One traced run -> the per-layer table (``{"error": ...}`` on failure).

    ``untraced`` is a passed run of the same problem; without one an
    untraced twin is run here.  The traced run must pass the oracle and
    report the twin's exact counts: wrappers that change what the
    platform does would otherwise hand out numbers for another program.
    """
    ranks = workload.ranks
    if untraced is None:
        untraced = checked(launch(problem, ranks, workload.backend, False), oracle, ranks)
    traced = checked(launch(problem, ranks, workload.backend, True), oracle, ranks)
    for record in (untraced, traced):
        if "error" in record:
            return record
    if traced["counts"] != untraced["counts"]:
        changed = {
            k: (untraced["counts"][k], v) for k, v in traced["counts"].items()
            if untraced["counts"][k] != v
        }
        return {"error": f"traced run's counts differ from the untraced run's: {changed}"}

    step_p50 = statistics.median(untraced["step_s"])
    serial_p50 = step_p50
    if ranks > 1:
        serial = checked(launch(problem, 1, "serial", False), oracle, 1)
        if "error" in serial:
            return serial
        serial_p50 = statistics.median(serial["step_s"])

    updates = problem["sizes"]["region"] ** 2
    table = dict(traced["layers"])
    table.update(traced["counts"])
    table.update({
        "ref.numpy_step_s": ref_step_s,
        "derived.overhead_vs_numpy_x": step_p50 / ref_step_s,
        "derived.speedup_vs_serial_x": serial_p50 / step_p50,
        "derived.setup_share": untraced["setup_s"] / untraced["time_to_solution_s"],
        "derived.updates_per_s": updates / step_p50,
        "derived.computed_gb_per_s": updates * BYTES_PER_UPDATE / step_p50 / 1e9,
        "derived.attributed_share": traced["attributed_share"],
        "obs.trace_overhead_x": traced["time_to_solution_s"] / untraced["time_to_solution_s"],
    })
    return table


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def environment(seed: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            cpu_model = next(
                line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            with open(os.path.join(cache_dir, index, "level")) as level, \
                    open(os.path.join(cache_dir, index, "type")) as kind, \
                    open(os.path.join(cache_dir, index, "size")) as size:
                caches[f"L{level.read().strip()}-{kind.read().strip()}"] = size.read().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": host_platform.python_version(),
        "numpy": np.__version__,
        "loadavg_1min": os.getloadavg()[0],
        "seed": seed,
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_end_to_end(name: str, e2e: dict) -> None:
    print(f"\n{name}: end to end (median [q1, q3] over n runs)")
    for metric, (unit, bound) in END_TO_END.items():
        if metric in e2e:
            s = e2e[metric]
            print(f"  {metric:<22}{s['median']:>14.6g} {unit:<4} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']} bound={bound}")
    print(f"  {'failed_ratio':<22}{e2e['failed_ratio']:>14.6g} ratio")


def print_per_layer(name: str, table: dict) -> None:
    print(f"\n{name}: per layer (one traced run, rank 0)")
    overhead = table["obs.trace_overhead_x"]
    if not 0.9 <= overhead <= 1.1:
        print(f"  WARNING: tracing changed time-to-solution by {overhead:.3f}x; "
              "read the self times below as shares, not as seconds")
    units = layer_units()
    for metric, value in table.items():
        if value or metric in LAYER_EXTRAS:  # spans that never fired are left out
            print(f"  {metric:<44}{value:>14.6g} {units[metric]}")


def contract_line(attempted: int, failed: int, metrics: Dict[str, dict]) -> str:
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="default: all five")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="scales each workload's untraced run count (1x at %(default)s)")
    parser.add_argument("--runs", type=int, help="exact number of untraced runs instead")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver contract: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one run, bounds not applied (CI and the self-test)")
    parser.add_argument("--json", metavar="OUT", help="write the report record here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the platform sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if args.smoke and args.runs is None:
        args.runs = 1

    env = environment(args.seed)
    print("environment: " + json.dumps(env))
    selected = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    report = {"env": env, "seed": args.seed, "smoke": args.smoke,
              "unresolved_load": env["loadavg_1min"] > MAX_LOAD, "workloads": {}}
    all_passed = True

    for workload in selected:
        name = workload.name
        if workload.ranks > (env["nproc"] or 1):
            print(f"{name}: {workload.ranks} ranks exceed nproc={env['nproc']}; wall-clock "
                  "would measure oversubscription, so it is not timed", file=sys.stderr)
            all_passed = False
            continue
        problem = workloads.problem_for(workload, args.seed, args.smoke)
        # A fixed amount of work per invocation: the workload's own run count,
        # scaled when the caller asks for more or less than RUN_SECONDS.
        runs = args.runs or max(1, round(workload.runs * args.seconds / RUN_SECONDS))
        records = []
        if args.trace != 1:
            records = [launch(problem, workload.ranks, workload.backend, traced=False)
                       for _ in range(runs)]
        # The oracle runs after the timed runs so the two never share the machine.
        oracle, ref_step_s = reference.solve(problem)
        for record in records:
            if "error" in checked(record, oracle, workload.ranks):
                print(f"{name}: FAILED run: {record['error']}", file=sys.stderr)
        e2e = end_to_end(records) if records else None
        table = None
        if args.trace != 0:
            passed = next((r for r in records if "error" not in r), None)
            table = per_layer(workload, problem, oracle, ref_step_s, passed)
            if "error" in table:
                print(f"{name}: FAILED traced run: {table['error']}", file=sys.stderr)
                all_passed = False
                continue

        if e2e is not None:
            print_end_to_end(name, e2e)
            all_passed = all_passed and e2e["failed_ratio"] == 0
        if table is not None:
            print_per_layer(name, table)
        if args.trace == 0 and e2e["failed_ratio"] < 1:
            failed = sum("error" in r for r in records)
            metrics = {m: {"value": e2e[m]["median"], "unit": END_TO_END[m][0]}
                       for m in END_TO_END}
            print(contract_line(len(records), failed, metrics))
            return 0
        if args.trace == 1:
            units = layer_units()
            print(contract_line(1, 0, {m: {"value": table[m], "unit": units[m]} for m in units}))
            return 0
        report["workloads"][name] = {"end_to_end": e2e, "per_layer": table}

    if args.trace is not None:
        return 1  # the contract run above did not get as far as its result line
    if report["unresolved_load"]:
        print(f"WARNING: load average {env['loadavg_1min']:.2f} > {MAX_LOAD} at start: "
              "this set is marked unresolved", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as out:
            json.dump(report, out, indent=1, sort_keys=True)
            out.write("\n")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
