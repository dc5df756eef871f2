"""The benchmark's workloads and the one-platform-run child process.

A *workload* fixes a problem (app, size, blocking, step count) and a
world (ranks, backend); ``--seed`` picks the initial field's coefficients
and the USGrid layout permutation.  The program under test sees only the
generated ``config`` dict.

Every platform run happens in a fresh interpreter (``run.launch`` starts
this file as a script): two 2048^2 runs in one interpreter push
peak RSS from ~730 MB to ~1390 MB, so in-process repeats would measure
the previous run's garbage.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
#: The platform under test; put on ``sys.path`` here so that neither the
#: harness nor the child process needs ``PYTHONPATH``.
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import reference  # noqa: E402

#: Steps excluded from the steady-state samples: they build the fused
#: kernels and the comm plans.
COLD_STEPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "sgrid" | "usgrid"
    ranks: int
    backend: str
    sizes: Dict[str, int]     # DSL config keys that set the problem size
    steps: int
    runs: int                 # untraced runs per invocation at the benchmark's run_seconds
    smoke_sizes: Dict[str, int]
    smoke_steps: int
    why: str


_SGRID_512 = dict(region=512, block_size=256, page_elements=2048)
_SGRID_SMOKE = dict(region=128, block_size=64, page_elements=256)
_USGRID_R = dict(region=192, block_cells=1024, page_elements=64)
_USGRID_SMOKE = dict(region=32, block_cells=128, page_elements=16)

WORKLOADS = (
    Workload(
        "sgrid-serial", "sgrid", 1, "serial",
        dict(region=2048, block_size=256, page_elements=2048), 200, 1,
        dict(region=256, block_size=64, page_elements=256), 12,
        "Paper's smallest SGrid (2048^2, 64 blocks) on one rank: fused sweep is the "
        "steady work, per-block plan compile + fuse + per-point init the set-up; runtime idle.",
    ),
    Workload(
        "sgrid-process2", "sgrid", 2, "process", _SGRID_512, 400, 5, _SGRID_SMOKE, 20,
        "SGrid 512^2 on 2 forked ranks: per-step collectives and halo latency are ~80% of "
        "a step, the sweep ~20%; where 'N ranks beat one' must show.",
    ),
    Workload(
        "sgrid-threads2", "sgrid", 2, "threads", _SGRID_512, 400, 3, _SGRID_SMOKE, 20,
        "Same problem on 2 GIL-shared threads: same aspects code over the other transport, "
        "so a refresh-protocol change moves both and a pipe/shm change only process2.",
    ),
    Workload(
        "usgrid-r-serial", "usgrid", 1, "serial", _USGRID_R, 1000, 1, _USGRID_SMOKE, 12,
        "USGrid CaseR 192^2 on one rank: address plans, gather_global + scatter, the "
        "unfusable path; a plan/fusion change tuned to offset plans that costs these shows.",
    ),
    Workload(
        "usgrid-r-process2", "usgrid", 2, "process", _USGRID_R, 300, 1, _USGRID_SMOKE, 12,
        "Same CaseR problem on 2 forked ranks: random layout makes nearly every remote page "
        "a halo page, the byte-heavy use of the shm transport beside sgrid-process2's latency-bound one.",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def problem_for(workload: Workload, seed: int, smoke: bool) -> dict:
    """What a run and the oracle both need to know; plain data, picklable."""
    sizes = workload.smoke_sizes if smoke else workload.sizes
    return dict(
        kind=workload.kind,
        case="R",
        seed=int(seed),
        steps=workload.smoke_steps if smoke else workload.steps,
        sizes=dict(sizes),
    )


def _timed(app_cls):
    """The stock app with clock marks around warm-up and every step."""

    class TimedApp(app_cls):
        def processing(self) -> None:
            span = self.config["bench_span"]
            marks = self.marks = [time.perf_counter()]
            with span("app.warmup"):
                self.warm_up(self.kernel)
            marks.append(time.perf_counter())
            for _ in range(self.loops):
                with span("app.step"):
                    self.run(self.kernel)
                marks.append(time.perf_counter())

    TimedApp.__name__ = f"Timed{app_cls.__name__}"
    return TimedApp


def _no_span(_name: str):
    return contextlib.nullcontext()


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB.

    ``VmHWM`` rather than ``RUSAGE_SELF``: ``ru_maxrss`` survives exec, so
    a spawned child would start at its parent's high-water mark.
    """
    with open("/proc/self/status") as status:
        own_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM"))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + children_kb) / 1024.0


def one_run(spec: dict, out_path: str) -> None:
    """Child-process entry: one platform run, its record pickled to ``out_path``."""
    try:
        record = _run(spec["problem"], spec["ranks"], spec["backend"], spec["traced"])
    except Exception:  # noqa: BLE001 - process boundary: the parent counts the run failed
        record = {"error": traceback.format_exc()}
    with open(out_path, "wb") as out:
        pickle.dump(record, out, protocol=pickle.HIGHEST_PROTOCOL)


def _run(problem: dict, ranks: int, backend: str, traced: bool) -> dict:
    from repro import Platform
    from repro.apps import JacobiSGrid, JacobiUSGrid

    tracer: Optional[object] = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    init, _ = reference.initial_field(problem["seed"], problem["sizes"]["region"])
    steps = problem["steps"]
    config = dict(problem["sizes"], loops=steps, init=init)
    config["bench_span"] = tracer.span if tracer else _no_span
    if problem["kind"] == "usgrid":
        config.update(case=problem["case"], layout_seed=problem["seed"])
        app_cls = _timed(JacobiUSGrid)
    else:
        app_cls = _timed(JacobiSGrid)

    start = time.perf_counter()
    run = Platform.builder().mpi(ranks, backend=backend).mmat().run(app_cls, config=config)
    end = time.perf_counter()

    marks = run.app.marks
    step_ends = marks[1:]
    net, mmat = run.network, run.mmat_stats
    done = sum(c.steps for c in run.counters.values())
    record = {
        "result": run.result,
        "time_to_solution_s": end - start,
        "setup_s": step_ends[COLD_STEPS] - start,
        "step_s": [b - a for a, b in zip(step_ends[COLD_STEPS:], step_ends[COLD_STEPS + 1:])],
        "peak_rss_mb": _peak_rss_mb(),
        "counts": {
            "runtime.messages_per_step": net["messages"] / steps,
            "runtime.bytes_per_step": net["bytes_moved"] / steps,
            "runtime.barriers_per_step": net["barriers"] / steps,
            "runtime.allreduces_per_step": net["allreduces"] / steps,
            "runtime.shm_fallbacks": net["shm_fallbacks"],
            "memory.plans": mmat["plans"],
            "memory.plan_compiles": mmat["plan_compiles"],
            "memory.fallback_sites": mmat["fallback_sites"],
            "kernels.fused_kernels": mmat["fused_kernels"],
            "aspects.recomputed_steps": (
                sum(c.recomputed_steps for c in run.counters.values()) / done
            ),
        },
    }
    if tracer is not None:
        table = tracer.layer_table((step_ends[COLD_STEPS], step_ends[-1]), steps - COLD_STEPS)
        record["attributed_share"] = table.pop("timeline_self_s") / (end - start)
        record["layers"] = table
    return record


if __name__ == "__main__":
    one_run(json.loads(sys.argv[1]), sys.argv[2])
