"""Per-figure / per-table data generators for the paper's evaluation.

Every public function regenerates the data behind one figure or table of
the paper's evaluation section (§V) and returns it as a list of plain
dict rows; the ``benchmarks/`` suite prints them with
:func:`repro.bench.harness.format_table`, and EXPERIMENTS.md records a
captured run.

Wall-clock figures (Fig. 6) are measured directly; scaling figures
(Figs. 7–11) are produced by executing the platform on the simulated
runtime and converting the measured per-task work/traffic counters to
time with the shared cost model (see DESIGN.md §2 and
``harness.scale_counters``).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.codesize import class_code_bytes, module_code_bytes
from ..analysis.loc_counter import count_loc
from ..analysis.memory_report import measure_env, measure_handwritten
from ..annotation.driver import Platform
from ..runtime.machine import OAKBRIDGE_CX_LIKE, MachineSpec
from .harness import (
    Workload,
    configuration_aspects,
    format_table,
    modelled_time,
    particle_workload,
    run_handwritten,
    run_platform,
    sgrid_workload,
    usgrid_workload,
)

__all__ = [
    "fig6_overhead",
    "fig7_strong_scaling_mpi",
    "fig8_weak_scaling_mpi",
    "fig9_strong_scaling_omp",
    "fig10_weak_scaling_omp",
    "fig11_hybrid",
    "fig12_memory_usage",
    "table1_binary_size",
    "table2_loc",
    "default_overhead_workloads",
    "default_scaling_workloads",
]


# ----------------------------------------------------------------------
# workload sets (scaled-down counterparts of the paper's columns)
# ----------------------------------------------------------------------

def default_overhead_workloads(small: bool = True) -> List[Workload]:
    """The eight benchmark columns of Fig. 6, at scaled-down sizes."""
    if small:
        sizes_grid = (24, 32)
        sizes_particle = (256, 512)
    else:
        sizes_grid = (32, 48)
        sizes_particle = (512, 1024)
    works: List[Workload] = []
    for region in sizes_grid:
        works.append(sgrid_workload(region, paper_region=2048 if region == sizes_grid[0] else 4096))
    for region in sizes_grid:
        works.append(
            usgrid_workload(region, case="C", paper_region=2048 if region == sizes_grid[0] else 4096)
        )
    for region in sizes_grid:
        works.append(
            usgrid_workload(region, case="R", paper_region=2048 if region == sizes_grid[0] else 4096)
        )
    for count in sizes_particle:
        works.append(
            particle_workload(
                count, paper_particles=2 ** 16 if count == sizes_particle[0] else 2 ** 18
            )
        )
    return works


def default_scaling_workloads() -> Dict[str, Workload]:
    """The four series of the scaling figures (Figs. 7–11)."""
    particle = particle_workload(1024, paper_particles=2 ** 18)
    particle = particle.with_config(block_buckets=4, page_elements=4)
    return {
        "SGrid 4096": sgrid_workload(32, paper_region=4096),
        "USGrid CaseC 4096 (w MMAT)": usgrid_workload(32, case="C", paper_region=4096),
        "USGrid CaseR 4096 (w MMAT)": usgrid_workload(32, case="R", paper_region=4096),
        "Particle 2^18": particle,
    }


# ----------------------------------------------------------------------
# Fig. 6 — single-task overhead of the platform
# ----------------------------------------------------------------------

def fig6_overhead(
    workloads: Optional[Iterable[Workload]] = None,
    *,
    configurations: Sequence[str] = ("serial", "nop", "mpi", "omp"),
    include_mmat: bool = True,
) -> List[dict]:
    """Relative execution time of platform configurations vs Handwritten.

    Mirrors Fig. 6: every configuration is run with a single task
    (1 MPI process / 1 OpenMP thread), with and without MMAT, and its
    wall-clock is reported relative to the handwritten baseline (=100%).
    """
    rows: List[dict] = []
    for work in workloads or default_overhead_workloads():
        hw_elapsed, _hw_result, _hw_bytes = run_handwritten(work)
        rows.append(
            {
                "benchmark": work.name,
                "configuration": "Handwritten",
                "mmat": "-",
                "elapsed_s": hw_elapsed,
                "relative_pct": 100.0,
            }
        )
        mmat_options = (False, True) if include_mmat else (False,)
        for label in configurations:
            for mmat in mmat_options:
                aspects = configuration_aspects(label, mpi=1, omp=1)
                run = run_platform(work, aspects=aspects, mmat=mmat)
                rows.append(
                    {
                        "benchmark": work.name,
                        "configuration": _config_name(label),
                        "mmat": "w MMAT" if mmat else "w/o MMAT",
                        "elapsed_s": run.elapsed,
                        "relative_pct": 100.0 * run.elapsed / hw_elapsed,
                    }
                )
    return rows


def _config_name(label: str) -> str:
    return {
        "serial": "Platform",
        "nop": "Platform NOP",
        "mpi": "Platform MPI",
        "omp": "Platform OMP",
        "hybrid": "Platform MPI+OMP",
    }[label]


# ----------------------------------------------------------------------
# Figs. 7–10 — strong / weak scaling on MPI / OpenMP
# ----------------------------------------------------------------------

def _scaling_rows(
    series: Dict[str, Workload],
    counts: Sequence[int],
    *,
    layer: str,
    weak: bool,
    machine: MachineSpec,
) -> List[dict]:
    rows: List[dict] = []
    for series_name, base_work in series.items():
        baseline_total: Optional[float] = None
        for count in counts:
            work = _resize_for_weak(base_work, count) if weak else base_work
            # An MPI run counts the pages the paper's prototype would move
            # (one message pair each) and the cost model charges those.
            aspects = (
                configuration_aspects("mpi", mpi=count)
                if layer == "mpi"
                else configuration_aspects("omp", omp=count)
            )
            run = run_platform(work, aspects=aspects, mmat=True)
            breakdown = modelled_time(run, work, machine=machine)
            if baseline_total is None:
                baseline_total = breakdown.total
            relative = breakdown.total / baseline_total
            rows.append(
                {
                    "series": series_name,
                    "tasks": count,
                    "modelled_time_s": breakdown.total,
                    "relative": relative,
                    "compute_s": breakdown.compute,
                    "contention_s": breakdown.contention,
                    "communication_s": breakdown.communication,
                    "pages_fetched": sum(c.paper_pages for c in run.counters.values()),
                }
            )
    return rows


def _resize_for_weak(work: Workload, tasks: int) -> Workload:
    """Grow a workload so that the per-task size stays constant (weak scaling)."""
    factor = int(round(np.sqrt(tasks)))
    if work.kind in ("sgrid", "usgrid"):
        region = work.config["region"] * factor
        # Weak scaling keeps the *per-task* problem size constant, so the
        # run-to-paper linear scale is unchanged (the paper grows its total
        # domain with the task count in exactly the same way).
        scale = work.paper_linear_scale
        if work.kind == "sgrid":
            resized = sgrid_workload(
                region,
                block_size=work.config["block_size"],
                paper_region=int(region * scale),
                name=work.name,
            )
        else:
            resized = usgrid_workload(
                region,
                case=work.config["case"],
                block_cells=work.config["block_cells"],
                paper_region=int(region * scale),
                name=work.name,
            )
        return resized
    # particle: total particles grow linearly with the task count, and the
    # paper's particle count grows with it (constant per-task share).
    particles = work.config["particles"] * tasks
    resized = particle_workload(
        particles,
        paper_particles=int(particles * work.paper_linear_scale ** 2),
        name=work.name,
    )
    return resized.with_config(
        block_buckets=work.config.get("block_buckets", 8),
        page_elements=work.config.get("page_elements", 8),
    )


def fig7_strong_scaling_mpi(
    counts: Sequence[int] = (1, 2, 4, 8, 16),
    *,
    series: Optional[Dict[str, Workload]] = None,
    machine: MachineSpec = OAKBRIDGE_CX_LIKE,
) -> List[dict]:
    """Strong scaling on the distributed-memory layer (Fig. 7)."""
    return _scaling_rows(
        series or default_scaling_workloads(), counts, layer="mpi", weak=False, machine=machine
    )


def fig8_weak_scaling_mpi(
    counts: Sequence[int] = (1, 4, 16),
    *,
    series: Optional[Dict[str, Workload]] = None,
    machine: MachineSpec = OAKBRIDGE_CX_LIKE,
) -> List[dict]:
    """Weak scaling on the distributed-memory layer (Fig. 8).

    The paper runs 1–64 processes; 64 simulated ranks are supported but
    slow under a pure-Python interpreter, so the default stops at 16 —
    pass ``counts=(1, 4, 16, 64)`` to reproduce the full axis.
    """
    return _scaling_rows(
        series or default_scaling_workloads(), counts, layer="mpi", weak=True, machine=machine
    )


def fig9_strong_scaling_omp(
    counts: Sequence[int] = (1, 2, 4, 8, 16),
    *,
    series: Optional[Dict[str, Workload]] = None,
    machine: MachineSpec = OAKBRIDGE_CX_LIKE,
) -> List[dict]:
    """Strong scaling on the shared-memory layer (Fig. 9)."""
    return _scaling_rows(
        series or default_scaling_workloads(), counts, layer="omp", weak=False, machine=machine
    )


def fig10_weak_scaling_omp(
    counts: Sequence[int] = (1, 4, 16),
    *,
    series: Optional[Dict[str, Workload]] = None,
    machine: MachineSpec = OAKBRIDGE_CX_LIKE,
) -> List[dict]:
    """Weak scaling on the shared-memory layer (Fig. 10)."""
    return _scaling_rows(
        series or default_scaling_workloads(), counts, layer="omp", weak=True, machine=machine
    )


# ----------------------------------------------------------------------
# Fig. 11 — MPI × OpenMP combinations at 16 tasks
# ----------------------------------------------------------------------

def fig11_hybrid(
    combinations: Sequence[Tuple[int, int]] = ((1, 16), (2, 8), (4, 4), (8, 2), (16, 1)),
    *,
    series: Optional[Dict[str, Workload]] = None,
    machine: MachineSpec = OAKBRIDGE_CX_LIKE,
) -> List[dict]:
    """Performance of MPI×OpenMP combinations, normalised to a 1×1 run."""
    rows: List[dict] = []
    for series_name, work in (series or default_scaling_workloads()).items():
        base_run = run_platform(work, aspects=configuration_aspects("serial"), mmat=True)
        base_time = modelled_time(base_run, work, machine=machine).total
        for processes, threads in combinations:
            aspects = configuration_aspects("hybrid", mpi=processes, omp=threads)
            run = run_platform(work, aspects=aspects, mmat=True)
            breakdown = modelled_time(run, work, machine=machine)
            rows.append(
                {
                    "series": series_name,
                    "processes": processes,
                    "threads": threads,
                    "modelled_time_s": breakdown.total,
                    "relative_pct": 100.0 * breakdown.total / base_time,
                    "communication_s": breakdown.communication,
                    "contention_s": breakdown.contention,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig. 12 — memory usage decomposition
# ----------------------------------------------------------------------

def fig12_memory_usage(
    *,
    region: int = 16,
    particles: int = 128,
    pool_bytes: int = 8 * 1024 * 1024,
    configurations: Sequence[str] = ("serial", "nop", "omp", "mpi", "hybrid"),
) -> List[dict]:
    """Memory usage split into unused pool / used pool / working memory /
    image and kernel scratch held outside the pool."""
    works = {
        "SGrid": sgrid_workload(region, block_size=8),
        "USGrid CaseC": usgrid_workload(region, case="C", block_cells=64),
        "USGrid CaseR": usgrid_workload(region, case="R", block_cells=64),
        "Particle": particle_workload(particles),
    }
    rows: List[dict] = []
    for bench_name, work in works.items():
        _elapsed, _result, hw_bytes = run_handwritten(work)
        rows.append(measure_handwritten(hw_bytes, label=f"{bench_name} / H").as_row())
        for label in configurations:
            # The paper measures Fig. 12 with a single MPI process and a
            # single OpenMP thread even for the MPI / OMP / hybrid builds.
            aspects = configuration_aspects(label, mpi=1, omp=1)
            run = run_platform(work, aspects=aspects, mmat=True, pool_bytes=pool_bytes)
            breakdown = measure_env(run.app.env, label=f"{bench_name} / {_config_name(label)}")
            rows.append(breakdown.as_row())
    return rows


# ----------------------------------------------------------------------
# Table I — program ("binary") size
# ----------------------------------------------------------------------

# Modules whose code ends up "linked into" a platform benchmark program.
# The C++ prototype's binaries only contain the (template-instantiated)
# platform code a benchmark actually uses, so we count the annotation layer,
# the DSL layer and the application — not the whole platform library — plus
# the woven wrapper classes and the aspect modules that a configuration adds.
_PLATFORM_MODULES = [
    "repro.annotation.target",
]

_ASPECT_MODULES = {
    "omp": ["repro.aspects.base", "repro.aspects.openmp_aspect", "repro.runtime.simomp"],
    "mpi": [
        "repro.aspects.base",
        "repro.aspects.mpi_aspect",
        "repro.runtime.simmpi",
        "repro.runtime.network",
    ],
}

_DSL_MODULES = {
    "sgrid": ["repro.dsl.base", "repro.dsl.sgrid"],
    "usgrid": ["repro.dsl.base", "repro.dsl.usgrid"],
    "particle": ["repro.dsl.base", "repro.dsl.particle"],
}

_APP_MODULES = {
    "sgrid": ("repro.apps.jacobi_sgrid", "repro.apps.handwritten_sgrid"),
    "usgrid": ("repro.apps.jacobi_usgrid", "repro.apps.handwritten_usgrid"),
    "particle": ("repro.apps.particle_sim", "repro.apps.handwritten_particle"),
}


def table1_binary_size() -> List[dict]:
    """Size (KiB) of the program text making up each configuration (Table I)."""
    from ..apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation

    app_classes = {"sgrid": JacobiSGrid, "usgrid": JacobiUSGrid, "particle": ParticleSimulation}
    rows: List[dict] = []
    for kind in ("sgrid", "usgrid", "particle"):
        app_module, handwritten_module = _APP_MODULES[kind]
        base_modules = _PLATFORM_MODULES + _DSL_MODULES[kind] + [app_module]
        handwritten_kb = module_code_bytes(handwritten_module) / 1024

        def _size(configuration: str) -> float:
            modules = list(base_modules)
            classes: List[type] = []
            app_cls = app_classes[kind]
            if configuration == "P":
                pass
            else:
                if configuration in ("P OMP", "P MPI+OMP"):
                    modules += _ASPECT_MODULES["omp"]
                if configuration in ("P MPI", "P MPI+OMP"):
                    modules += _ASPECT_MODULES["mpi"]
                aspects = {
                    "P NOP": configuration_aspects("nop"),
                    "P OMP": configuration_aspects("omp", omp=2),
                    "P MPI": configuration_aspects("mpi", mpi=2),
                    "P MPI+OMP": configuration_aspects("hybrid", mpi=2, omp=2),
                }[configuration]
                platform = Platform(aspects=aspects)
                classes.append(platform.build(app_cls))
                classes.append(platform.env_class)
            total = sum(module_code_bytes(m) for m in set(modules))
            total += sum(class_code_bytes(c) for c in classes)
            return total / 1024

        row = {"benchmark": kind, "H_KiB": round(handwritten_kb, 1)}
        for configuration in ("P", "P NOP", "P OMP", "P MPI", "P MPI+OMP"):
            row[configuration.replace(" ", "_") + "_KiB"] = round(_size(configuration), 1)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table II — lines of code per part
# ----------------------------------------------------------------------

def table2_loc(repo_root: Optional[str] = None) -> List[dict]:
    """Lines of code of Platform / DSL / App parts vs handwritten (Table II)."""
    import os

    import repro

    src = os.path.dirname(os.path.abspath(repro.__file__))
    platform_dirs = [os.path.join(src, d) for d in ("aop", "memory", "annotation", "aspects", "runtime")]
    platform_loc = count_loc(platform_dirs)
    rows: List[dict] = []
    dsl_files = {
        "SGrid": ["dsl/base.py", "dsl/sgrid.py"],
        "USGrid": ["dsl/base.py", "dsl/usgrid.py"],
        "Particle": ["dsl/base.py", "dsl/particle.py"],
    }
    app_files = {
        "SGrid": ("apps/jacobi_sgrid.py", "apps/handwritten_sgrid.py"),
        "USGrid": ("apps/jacobi_usgrid.py", "apps/handwritten_usgrid.py"),
        "Particle": ("apps/particle_sim.py", "apps/handwritten_particle.py"),
    }
    for bench in ("SGrid", "USGrid", "Particle"):
        dsl_loc = count_loc([os.path.join(src, f) for f in dsl_files[bench]])
        app_py, handwritten_py = app_files[bench]
        rows.append(
            {
                "benchmark": bench,
                "platform_part": platform_loc,
                "dsl_part": dsl_loc,
                "app_part": count_loc([os.path.join(src, app_py)]),
                "handwritten": count_loc([os.path.join(src, handwritten_py)]),
            }
        )
    return rows
