"""Shared benchmark harness.

Defines the benchmark *workloads* (the paper's SGrid / USGrid CaseC /
USGrid CaseR / Particle) and helpers to execute them under the
*configurations* (Handwritten, and the Platform presets — Platform,
Platform NOP, Platform OMP, Platform MPI, Platform MPI+OMP, each with or
without MMAT) and to convert executions into modelled times for the
scaling figures.

Scaled problem sizes
--------------------

The paper's evaluation uses 2048²–4096² grids and 2^16–2^18 particles on
a cluster.  A pure-Python per-point interpreter cannot execute those
sizes in benchmark time, so every workload here carries both its *run*
size (what is actually executed) and its *paper* size; the
:func:`scale_counters` helper rescales the measured per-task work and
traffic to the paper size using the natural scaling laws (area for
element updates, perimeter for halo traffic) before the cost model
converts them to time.  This preserves the compute/communication ratios
that give the paper's scaling figures their shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..annotation.driver import Platform, PlatformRun
from ..apps.handwritten_particle import HandwrittenParticle
from ..apps.handwritten_sgrid import HandwrittenSGrid
from ..apps.handwritten_usgrid import HandwrittenUSGrid
from ..apps.jacobi_sgrid import JacobiSGrid
from ..apps.jacobi_usgrid import JacobiUSGrid
from ..apps.particle_sim import ParticleSimulation
from ..runtime.costmodel import CostBreakdown, CostModel
from ..runtime.machine import OAKBRIDGE_CX_LIKE, MachineSpec
from ..runtime.tracing import TaskCounters

__all__ = [
    "Workload",
    "WORKLOADS",
    "workload",
    "run_handwritten",
    "run_platform",
    "modelled_time",
    "scale_counters",
    "format_table",
]


def _default_init(x: int, y: int) -> float:
    """Initial field used by every grid benchmark (non-trivial but smooth)."""
    return 0.01 * (x + 2 * y)


@dataclass
class Workload:
    """One benchmark application at one problem size."""

    name: str
    kind: str  # 'sgrid' | 'usgrid' | 'particle'
    app_cls: type
    config: dict
    #: Callable building and running the handwritten baseline; returns its result.
    handwritten: Callable[[], Tuple[float, object, int]]
    #: Linear scale factor between the paper's problem size and the run size
    #: (used to rescale work/traffic before cost modelling).
    paper_linear_scale: float = 1.0

    def with_config(self, **overrides) -> "Workload":
        config = dict(self.config)
        config.update(overrides)
        return replace(self, config=config)


# ----------------------------------------------------------------------
# workload factories
# ----------------------------------------------------------------------

def sgrid_workload(
    region: int = 32,
    *,
    loops: int = 2,
    block_size: int = 8,
    paper_region: int = 4096,
    name: Optional[str] = None,
) -> Workload:
    config = dict(
        region=region,
        block_size=block_size,
        page_elements=64,
        loops=loops,
        init=_default_init,
    )

    def handwritten() -> Tuple[float, object, int]:
        app = HandwrittenSGrid(region, loops=loops, init=_default_init)
        start = time.perf_counter()
        result = app.run()
        return time.perf_counter() - start, result, app.memory_bytes()

    return Workload(
        name=name or f"SGrid {region}",
        kind="sgrid",
        app_cls=JacobiSGrid,
        config=config,
        handwritten=handwritten,
        paper_linear_scale=paper_region / region,
    )


def usgrid_workload(
    region: int = 32,
    *,
    case: str = "C",
    loops: int = 2,
    block_cells: int = 64,
    paper_region: int = 4096,
    name: Optional[str] = None,
) -> Workload:
    config = dict(
        region=region,
        case=case,
        block_cells=block_cells,
        page_elements=32,
        loops=loops,
        init=_default_init,
    )

    def handwritten() -> Tuple[float, object, int]:
        app = HandwrittenUSGrid(region, case=case, loops=loops, init=_default_init)
        start = time.perf_counter()
        result = app.run()
        return time.perf_counter() - start, result, app.memory_bytes()

    return Workload(
        name=name or f"USGrid Case{case} {region}",
        kind="usgrid",
        app_cls=JacobiUSGrid,
        config=config,
        handwritten=handwritten,
        paper_linear_scale=paper_region / region,
    )


def particle_workload(
    particles: int = 256,
    *,
    loops: int = 2,
    paper_particles: int = 2 ** 18,
    name: Optional[str] = None,
) -> Workload:
    config = dict(particles=particles, loops=loops, dt=1e-3)

    def handwritten() -> Tuple[float, object, int]:
        app = HandwrittenParticle(particles, loops=loops)
        start = time.perf_counter()
        result = app.run()
        return time.perf_counter() - start, result, app.memory_bytes()

    return Workload(
        name=name or f"Particle 2^{int(np.log2(particles))}",
        kind="particle",
        app_cls=ParticleSimulation,
        config=config,
        handwritten=handwritten,
        # Particle counts scale with area; the linear scale is the square root.
        paper_linear_scale=float(np.sqrt(paper_particles / particles)),
    )


def workload(kind: str, **kwargs) -> Workload:
    """Factory by kind name ('sgrid' | 'usgrid' | 'particle')."""
    if kind == "sgrid":
        return sgrid_workload(**kwargs)
    if kind == "usgrid":
        return usgrid_workload(**kwargs)
    if kind == "particle":
        return particle_workload(**kwargs)
    raise ValueError(f"unknown workload kind {kind!r}")


#: The four benchmark applications of the paper's evaluation, at default sizes.
WORKLOADS: Dict[str, Workload] = {
    "sgrid": sgrid_workload(),
    "usgrid_c": usgrid_workload(case="C"),
    "usgrid_r": usgrid_workload(case="R"),
    "particle": particle_workload(),
}


# ----------------------------------------------------------------------
# execution helpers
# ----------------------------------------------------------------------

def run_handwritten(work: Workload) -> Tuple[float, object, int]:
    """Run the handwritten baseline; returns (elapsed, result, working_bytes)."""
    return work.handwritten()


def run_platform(
    work: Workload, label: str = "serial", *, ranks: int = 1, threads: int = 1, **options
) -> PlatformRun:
    """Run a workload under one of Fig. 3's configurations.

    ``label`` names a :data:`~repro.annotation.PRESETS` entry
    (``"serial"`` | ``"nop"`` | ``"mpi"`` | ``"omp"`` | ``"hybrid"``);
    ``options`` are ``Platform`` keywords (``mmat``, ``pool_bytes``,
    ``backend``, ``tracing``, …), forwarded unchanged.
    """
    platform = Platform.preset(label, ranks=ranks, threads=threads, **options)
    return platform.run(work.app_cls, config=dict(work.config))


# ----------------------------------------------------------------------
# cost-model helpers
# ----------------------------------------------------------------------

def scale_counters(counters: TaskCounters, linear_scale: float) -> TaskCounters:
    """Rescale measured per-task work/traffic to the paper's problem size.

    Element updates grow with the domain *area* (``linear_scale**2``);
    halo pages/bytes/messages grow with the domain *perimeter*
    (``linear_scale``); synchronisation counts are unchanged.
    """
    area = linear_scale ** 2
    scaled = TaskCounters(**counters.as_dict())
    scaled.updates = int(counters.updates * area)
    scaled.pages_fetched = int(counters.pages_fetched * linear_scale)
    scaled.bytes_fetched = int(counters.bytes_fetched * linear_scale)
    scaled.messages = int(counters.messages * linear_scale)
    scaled.productive_updates = int(counters.productive_updates * area)
    scaled.productive_bytes = int(counters.productive_bytes * linear_scale)
    scaled.productive_messages = int(counters.productive_messages * linear_scale)
    scaled.paper_pages = int(counters.paper_pages * linear_scale)
    scaled.paper_bytes = int(counters.paper_bytes * linear_scale)
    return scaled


def amplify_steps(counters: TaskCounters, factor: float) -> TaskCounters:
    """Scale the steady-state (productive) counters as if the step loop ran
    ``factor`` times longer.

    The paper's measurements run long step loops (warm-up and runtime
    start-up are amortised away); the benchmarks here run only a couple of
    steps, so the modelled run is extrapolated to a nominal loop count
    before one-off costs (MPI init, thread spawn) are added.
    """
    scaled = TaskCounters(**counters.as_dict())
    scaled.productive_updates = int(counters.productive_updates * factor)
    scaled.productive_bytes = int(counters.productive_bytes * factor)
    scaled.productive_messages = int(counters.productive_messages * factor)
    scaled.paper_pages = int(counters.paper_pages * factor)
    scaled.paper_bytes = int(counters.paper_bytes * factor)
    scaled.collectives = int(counters.collectives * factor)
    return scaled


def modelled_time(
    run: PlatformRun,
    work: Workload,
    *,
    machine: MachineSpec = OAKBRIDGE_CX_LIKE,
    scale_to_paper: bool = True,
    nominal_steps: int = 100,
) -> CostBreakdown:
    """Convert a platform run's counters into modelled wall-clock time.

    ``nominal_steps`` extrapolates the measured steady-state per-step cost
    to a run of that many steps (the paper's LOOP_NUM is large), so that
    one-off runtime initialisation does not dominate the modelled time.
    """
    model = CostModel(machine)
    mpi = run.layers.get("mpi", 1)
    omp = run.layers.get("omp", 1)
    counters = run.counters
    if scale_to_paper:
        counters = {
            key: scale_counters(value, work.paper_linear_scale)
            for key, value in counters.items()
        }
    measured_steps = max(
        (c.steps for c in counters.values() if c.steps), default=1
    )
    if nominal_steps and measured_steps:
        factor = nominal_steps / measured_steps
        counters = {key: amplify_steps(value, factor) for key, value in counters.items()}
    return model.run_time(counters, mpi_size=mpi, omp_threads=omp)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def format_table(rows: List[dict], *, title: str = "") -> str:
    """Render a list of dict rows as a fixed-width text table."""
    if not rows:
        return f"{title}\n(no data)"
    columns = list(rows[0].keys())
    widths = {
        col: max(len(str(col)), *(len(_fmt(row.get(col))) for row in rows))
        for col in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[col] for col in columns))
    for row in rows:
        lines.append(" | ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)
