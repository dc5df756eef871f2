"""Chaos battery: injected failures across the backend matrix.

The acceptance bar of the resilience subsystem: a seeded fault plan
kills a rank mid-run (before registration commits, at refresh entry,
or right after a successful refresh, its halo exchange complete), the
surviving world detects the death well inside the
communication timeout, re-partitions the dead rank's blocks onto the
survivors, resumes from the last complete checkpoint epoch, and ends
bit-identical to an unfailed serial run — on every backend and every
DSL app.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.runtime import SpmdFailure


def _init(x, y):
    return 0.05 * x - 0.04 * y + 1.25


SGRID_CONFIG = dict(region=16, block_size=4, page_elements=8, loops=4, init=_init)
USGRID_CONFIG = dict(region=16, block_cells=32, page_elements=8, loops=4, init=_init)
PARTICLE_CONFIG = dict(particles=256, block_buckets=4, page_elements=4, loops=4)

APPS = {
    "sgrid": (JacobiSGrid, SGRID_CONFIG),
    "usgrid": (JacobiUSGrid, USGRID_CONFIG),
    "particle": (ParticleSimulation, PARTICLE_CONFIG),
}


@pytest.fixture(scope="module")
def serial_references():
    refs = {}
    for name, (app_cls, config) in APPS.items():
        run = Platform.builder().mpi(1).mmat().build().run(app_cls, config=dict(config))
        refs[name] = np.asarray(run.result)
    return refs


def assert_matches_reference(app_name, result, reference):
    result = np.asarray(result)
    if app_name == "particle":
        # Particle runs report locally-owned particles; match by id.
        ref_by_id = {row[0]: row for row in reference}
        assert len(result) > 0
        for row in result:
            np.testing.assert_array_equal(row, ref_by_id[row[0]])
    else:
        # Grid results are NaN-padded to the rank-local domain.
        mask = ~np.isnan(result)
        assert mask.any()
        np.testing.assert_array_equal(result[mask], reference[mask])


def resilient_platform(backend, ranks, plan, **policy_kwargs):
    policy = ResiliencePolicy(fault_plan=plan, **policy_kwargs)
    return (
        Platform.builder()
        .mpi(ranks, backend=backend)
        .mmat()
        .resilience(policy)
        .comm_timeout(20.0)
        .build()
    )


# ---------------------------------------------------------------------------
# Kill matrix: failure phase x backend
# ---------------------------------------------------------------------------
class TestKillMatrix:
    """``register`` = before registration commits; ``refresh`` = at
    refresh entry (mid-step); ``epoch`` = right after a successful
    refresh, its halo exchange complete."""

    PHASES = ["register", "refresh", "epoch"]

    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_killed_rank_recovers_bit_identical(
        self, serial_references, backend, phase
    ):
        epoch = None if phase == "register" else 2
        plan = FaultPlan().kill(1, phase=phase, epoch=epoch)
        platform = resilient_platform(backend, 4, plan)
        run = platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))
        assert run.restarts == 1
        event = run.recovery_events[0]
        assert event.dead_ranks == (1,)
        assert event.old_size == 4 and event.new_size == 3
        assert_matches_reference("sgrid", run.result, serial_references["sgrid"])

    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_checkpoints_without_a_kill_change_nothing(self, serial_references, backend):
        run = resilient_platform(backend, 4, None).run(JacobiSGrid, config=dict(SGRID_CONFIG))
        assert run.restarts == 0
        assert sum(c.checkpoints for c in run.counters.values()) > 0
        assert_matches_reference("sgrid", run.result, serial_references["sgrid"])

    @pytest.mark.parametrize("phase", PHASES)
    def test_serial_backend_death_is_unrecoverable_but_clean(self, phase):
        # The serial world has one rank; killing it leaves no survivors,
        # which must surface as a diagnosable failure — never a hang.
        epoch = None if phase == "register" else 2
        plan = FaultPlan().kill(0, phase=phase, epoch=epoch)
        platform = resilient_platform("serial", 1, plan)
        with pytest.raises(SpmdFailure, match="every rank died"):
            platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))

    def test_detection_is_faster_than_comm_timeout(self, serial_references):
        plan = FaultPlan().kill(1, phase="refresh", epoch=2)
        platform = resilient_platform("process", 4, plan)
        run = platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))
        # A real forked child died; survivors noticed via the closed
        # pipes, not by burning the 20s communication timeout.
        assert run.recovery_events[0].elapsed < 20.0
        assert_matches_reference("sgrid", run.result, serial_references["sgrid"])

    def test_restart_budget_exhaustion_reraises(self):
        plan = FaultPlan().kill(1, phase="refresh", epoch=2)
        platform = resilient_platform("threads", 4, plan, max_restarts=0)
        with pytest.raises(SpmdFailure, match="restart budget"):
            platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))

    def test_two_successive_kills_two_recoveries(self, serial_references):
        plan = FaultPlan().kill(1, phase="refresh", epoch=2).kill(2, phase="epoch", epoch=2)
        platform = resilient_platform("threads", 4, plan)
        run = platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))
        assert run.restarts == 2
        assert run.recovery_events[-1].new_size == 2
        assert_matches_reference("sgrid", run.result, serial_references["sgrid"])


class ReadBeforeRestore(JacobiUSGrid):
    """USGrid whose ``initialize`` reads every Block through the dense
    image before the checkpoint restore (woven after ``initialize``)
    overwrites the pages: they are the image rows, so the first gather
    must already see the restored epoch."""

    def initialize(self) -> None:
        super().initialize()
        for block in self.env.data_blocks():
            self.env.dense_read(block)

    def processing(self) -> None:
        # The first gather after the restore, before any refresh.
        for block in self.env.data_blocks():
            seen = self.kernel_for(block).gather([(0,)])[0]
            assert np.array_equal(seen, block.dense()[:, 0]), "gather served pre-restore rows"
        self.env.check_dense_image()
        assert self.env.stats.dense_assemblies == 0
        super().processing()


class TestRestoreWritesTheDenseImage:
    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_gather_after_restore_reads_the_restored_epoch(self, serial_references, backend):
        plan = FaultPlan().kill(1, phase="refresh", epoch=3)
        platform = resilient_platform(backend, 4, plan)
        run = platform.run(ReadBeforeRestore, config=dict(USGRID_CONFIG))
        assert run.restarts == 1 and run.recovery_events[0].resume_epoch == 2
        assert_matches_reference("usgrid", run.result, serial_references["usgrid"])


# ---------------------------------------------------------------------------
# Chaos battery: every DSL app, real forked ranks
# ---------------------------------------------------------------------------
class TestChaosAllApps:
    @pytest.mark.parametrize("app_name", list(APPS))
    def test_process_backend_kill_recovers_every_app(
        self, serial_references, app_name
    ):
        app_cls, config = APPS[app_name]
        plan = FaultPlan().kill(1, phase="refresh", epoch=2)
        platform = resilient_platform("process", 4, plan)
        run = platform.run(app_cls, config=dict(config))
        assert run.restarts == 1
        assert "resume from epoch" in run.recovery_report()
        assert_matches_reference(app_name, run.result, serial_references[app_name])

    def test_seeded_plan_is_reproducible(self, serial_references):
        runs = []
        for _ in range(2):
            plan = FaultPlan.seeded(1234, ranks=4, epochs=3, spare_rank0=True)
            platform = resilient_platform("threads", 4, plan)
            run = platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))
            assert_matches_reference("sgrid", run.result, serial_references["sgrid"])
            runs.append(run)
        assert runs[0].recovery_events[0].dead_ranks == runs[1].recovery_events[0].dead_ranks
        assert runs[0].recovery_events[0].resume_epoch == runs[1].recovery_events[0].resume_epoch


# ---------------------------------------------------------------------------
# Reply faults: degraded links rather than dead ranks
# ---------------------------------------------------------------------------
class TestReplyFaults:
    def test_delayed_reply_only_slows_the_run(self, serial_references):
        plan = FaultPlan().delay_reply(1, seconds=0.2, count=2)
        platform = resilient_platform("process", 2, plan)
        run = platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))
        assert run.restarts == 0
        assert_matches_reference("sgrid", run.result, serial_references["sgrid"])

    def test_corrupted_reply_is_detected_not_silently_computed(self):
        # Corruption is *detected* (checksum mismatch), not recovered:
        # it is a link fault, not a rank death, so it must surface.
        plan = FaultPlan().corrupt_reply(1, count=1)
        policy = ResiliencePolicy(fault_plan=plan)
        platform = (
            Platform.builder().mpi(2, backend="process").mmat()
            .resilience(policy).comm_timeout(5.0).build()
        )
        with pytest.raises(SpmdFailure) as excinfo:
            platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))
        assert any(
            "integrity check" in str(r.error)
            for r in excinfo.value.results
            if r.error is not None
        )

    def test_dropped_reply_times_out_with_pending_manifest(self):
        plan = FaultPlan().drop_reply(1, count=1)
        policy = ResiliencePolicy(fault_plan=plan)
        platform = (
            Platform.builder().mpi(2, backend="process").mmat()
            .resilience(policy).comm_timeout(3.0).build()
        )
        with pytest.raises(SpmdFailure) as excinfo:
            platform.run(JacobiSGrid, config=dict(SGRID_CONFIG))
        messages = [str(r.error) for r in excinfo.value.results if r.error is not None]
        assert any("timed out" in m or "outstanding" in m for m in messages)
