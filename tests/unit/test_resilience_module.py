"""Resilience is one woven aspect module.

The elastic run loop, the fault-plan install and the survivors' Block
deal are advice of :class:`repro.resilience.RecoveryAspect`; the
distributed-memory aspect, the DSL layers and the memory library do not
know that a run can recover, and a run leaves only the world in
``platform.context``.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.annotation import Platform, TargetApplication
from repro.apps import JacobiSGrid
from repro.aspects import DistributedMemoryAspect, mpi_aspect
from repro.resilience import FaultPlan, RecoveryAspect, ResiliencePolicy
from repro.runtime.backends import create_world

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

CONFIG = dict(
    region=16,
    block_size=4,
    page_elements=8,
    loops=4,
    init=lambda x, y: 0.05 * x - 0.04 * y + 1.25,
)


def resilient(ranks, plan, backend="threads"):
    return (
        Platform.builder()
        .mpi(ranks, backend=backend)
        .mmat()
        .resilience(ResiliencePolicy(fault_plan=plan))
        .comm_timeout(20.0)
        .build()
    )


def test_no_resilience_outside_its_package():
    files = [SRC / "aspects" / "mpi_aspect.py"]
    files += sorted((SRC / "dsl").rglob("*.py")) + sorted((SRC / "memory").rglob("*.py"))
    assert [str(f) for f in files if "resilience" in f.read_text().lower()] == []


def test_resilience_weaves_one_aspect():
    platform = Platform.builder().mpi(2).resilience().build()
    assert [type(a) for a in platform.aspects if a.order == RecoveryAspect.order] == [
        RecoveryAspect
    ]


def test_recovered_run_leaves_only_the_world_in_context(monkeypatch):
    worlds = []

    def recording_create(*args, **kwargs):
        worlds.append(create_world(*args, **kwargs))
        return worlds[-1]

    monkeypatch.setattr(mpi_aspect, "create_world", recording_create)
    platform = resilient(4, FaultPlan().kill(1, phase="refresh", epoch=2))
    run = platform.run(JacobiSGrid, config=dict(CONFIG))
    assert run.restarts == 1
    assert set(platform.context) == {"mpi_world"}
    # Every attempt's world went through the distributed-memory aspect's
    # one lifecycle: created at the attempt's size, then finalized.
    assert [w.size for w in worlds] == [4, 3]
    assert all(w.finalized for w in worlds)
    assert platform.context["mpi_world"] is worlds[-1]


@pytest.mark.parametrize("backend", ["threads", "process"])
def test_a_recovered_run_reports_the_traffic_of_every_world(backend):
    """``run.network`` adds the given-up world's traffic to the last one's,
    as ``run.counters`` add every attempt's work: each page a rank counted
    as fetched is one the worlds counted as moved."""
    plan = FaultPlan().kill(1, phase="refresh", epoch=2)
    run = resilient(4, plan, backend=backend).run(JacobiSGrid, config=dict(CONFIG, page_elements=4))
    assert run.restarts == 1
    fetched = sum(c.pages_fetched for c in run.counters.values())
    assert fetched == run.network["bulk_pages"] > 0
    assert f"comm={run.network['bulk_fetches']}ex/{fetched}pg" in run.summary()


def test_shrunk_run_reports_the_configured_layers():
    platform = resilient(4, FaultPlan().kill(2, phase="epoch", epoch=1))
    run = platform.run(JacobiSGrid, config=dict(CONFIG))
    assert run.recovery_events[0].new_size == 3
    assert run.layers == {"mpi": 4}
    mpi = next(a for a in platform.aspects if isinstance(a, DistributedMemoryAspect))
    assert mpi.parallelism == 4
    assert "world 4->3" in run.recovery_report()


class NoBlocks(TargetApplication):
    """An application that builds an Env but deals no Blocks."""

    def initialize(self) -> None:
        self.make_env()

    def processing(self) -> None:
        self.result = np.arange(3.0)


def test_resilient_plain_target_weaves_and_runs():
    # Block dealing is a join point of the virtual class, so the deal
    # advice matches even where no DSL overrides it.
    run = resilient(2, None).run(NoBlocks)
    assert run.restarts == 0
    assert np.array_equal(run.result, np.arange(3.0))


def test_fault_plan_installed_in_rank_context_reaches_the_transport():
    world = create_world("process", 2, timeout=10.0)
    plan = FaultPlan()

    def body(_ctx):
        world.install_fault_plan(plan)
        return world._transport.fault_plan is world.fault_plan is not None

    try:
        results = world.run_spmd(body)
    finally:
        world.finalize()
    assert [r.value for r in results] == [True, True]
    assert world.fault_plan is plan
