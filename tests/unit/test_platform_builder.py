"""Unit tests for PlatformBuilder, Platform.preset and PlatformRun.summary.

Includes the end-to-end acceptance scenarios of the API v2 redesign:
``Platform.preset("hybrid", ranks=..., threads=...).run(JacobiSGrid)``
and a string-pointcut aspect (``before("execution() && tagged('kernel')")``)
running alongside the platform's layer modules.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import Platform, PlatformBuilder
from repro.annotation import PRESETS, TargetApplication
from repro.aop import Aspect, annotate, before
from repro.aop.registry import TAG_KERNEL
from repro.apps import JacobiSGrid
from repro.aspects import DistributedMemoryAspect, SharedMemoryAspect
from repro.resilience import RecoveryAspect, ResiliencePolicy
from repro.runtime import create_world, get_backend


CONFIG = dict(
    region=16,
    block_size=8,
    page_elements=16,
    loops=2,
    init=lambda x, y: float(x + y),
)


class TestBuilder:
    def test_builder_returns_builder(self):
        assert isinstance(Platform.builder(), PlatformBuilder)

    def test_default_build_is_serial_platform(self):
        platform = Platform.builder().build()
        assert platform.weaver is None
        assert not platform.transcompile
        assert platform.aspects == []

    def test_nop_build_transcompiles_without_aspects(self):
        platform = Platform.builder().nop().build()
        assert platform.transcompile
        assert platform.weaver is not None
        assert platform.aspects == []

    def test_mpi_omp_chain_attaches_layer_aspects(self):
        platform = Platform.builder().mpi(4).omp(2).build()
        kinds = {type(a) for a in platform.aspects}
        assert kinds == {DistributedMemoryAspect, SharedMemoryAspect}
        assert platform.layer_parallelism() == {"mpi": 4, "omp": 2}
        assert platform.total_tasks == 8

    def test_knobs_propagate(self):
        platform = Platform.builder().mmat().pool_bytes(1 << 20).nop().build()
        assert platform.mmat
        assert platform.pool_bytes == 1 << 20

    def test_aspect_accepts_instances_only(self):
        with pytest.raises(TypeError):
            Platform.builder().aspect(DistributedMemoryAspect)

    def test_aspects_bulk_attach(self):
        platform = Platform.builder().aspects([DistributedMemoryAspect(processes=2)]).build()
        assert platform.layer_parallelism() == {"mpi": 2}

    def test_builder_run_shorthand(self):
        run = Platform.builder().omp(2).mmat().run(JacobiSGrid, config=dict(CONFIG))
        assert run.layers == {"omp": 2}
        assert run.result is not None

    def test_rebuild_gets_fresh_layer_aspect_instances(self):
        # Layer modules are stateful: two platforms from one builder must
        # not share the DistributedMemoryAspect instance.
        builder = Platform.builder().mpi(2)
        first, second = builder.build(), builder.build()
        assert first.aspects[0] is not second.aspects[0]

    def test_unset_knobs_track_platform_defaults(self):
        built = Platform.builder().nop().build()
        legacy = Platform(aspects=[])
        assert built.pool_bytes == legacy.pool_bytes
        assert built.comm_timeout == legacy.comm_timeout

    def test_mpi_backend_sets_the_platform_backend(self):
        platform = Platform.builder().mpi(2, backend="serial").build()
        assert platform.backend == "serial"


class TestPresets:
    def test_preset_names(self):
        assert set(PRESETS) == {"serial", "nop", "mpi", "omp", "hybrid"}

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown platform preset"):
            Platform.preset("gpu")

    def test_serial_preset_is_legacy_default(self):
        preset = Platform.preset("serial")
        legacy = Platform()
        assert preset.transcompile == legacy.transcompile is False
        assert preset.aspects == legacy.aspects == []

    def test_nop_preset_matches_legacy_empty_list(self):
        preset = Platform.preset("nop")
        legacy = Platform(aspects=[])
        assert preset.transcompile and legacy.transcompile
        assert preset.aspects == legacy.aspects == []

    def test_mpi_preset(self):
        platform = Platform.preset("mpi", ranks=4)
        assert platform.layer_parallelism() == {"mpi": 4}

    def test_omp_preset(self):
        platform = Platform.preset("omp", threads=3, mmat=True)
        assert platform.layer_parallelism() == {"omp": 3}
        assert platform.mmat

    def test_hybrid_preset(self):
        platform = Platform.preset("hybrid", ranks=4, threads=2)
        assert platform.layer_parallelism() == {"mpi": 4, "omp": 2}

    def test_presets_reject_mismatched_parallelism(self):
        with pytest.raises(ValueError):
            Platform.preset("serial", ranks=2)
        with pytest.raises(ValueError):
            Platform.preset("mpi", threads=2)
        with pytest.raises(ValueError):
            Platform.preset("omp", ranks=2)

    def test_preset_takes_no_layer_aliases(self):
        # ``mpi=`` once silently overrode ``ranks=``.
        with pytest.raises(TypeError, match="mpi"):
            Platform.preset("mpi", ranks=2, mpi=4)
        with pytest.raises(TypeError, match="omp"):
            Platform.preset("omp", threads=2, omp=4)

    def test_hybrid_preset_runs_end_to_end(self):
        serial = Platform.preset("serial").run(JacobiSGrid, config=dict(CONFIG))
        hybrid = Platform.preset("hybrid", ranks=2, threads=2, mmat=True).run(
            JacobiSGrid, config=dict(CONFIG)
        )
        mask = ~np.isnan(hybrid.result)
        assert np.allclose(hybrid.result[mask], serial.result[mask], atol=1e-10)
        assert hybrid.layers == {"mpi": 2, "omp": 2}
        assert len(hybrid.counters) == 4


#: Every place a data-plane, overlap or page-protocol setting used to be
#: passed: each world picks its plane from what it observes, overlap is
#: the only behaviour and pages move only in bulk, so none of them takes
#: any of these any more.
KNOB_HOMES = {
    "Platform": Platform,
    "Platform.preset": Platform.preset,
    "DistributedMemoryAspect": DistributedMemoryAspect,
    "SharedMemoryAspect": SharedMemoryAspect,
    "RecoveryAspect.elastic_run": RecoveryAspect.elastic_run,
    "create_world": create_world,
    **{f"{name} world": get_backend(name) for name in ("serial", "threads", "process")},
}


@pytest.mark.parametrize("home", list(KNOB_HOMES))
def test_no_data_plane_or_overlap_parameter(home):
    parameters = inspect.signature(KNOB_HOMES[home]).parameters
    # ``plans`` catches the knob that kept the per-page request/reply.
    assert not [
        name for name in parameters if any(k in name for k in ("transport", "overlap", "plans"))
    ]


def test_builder_has_no_data_plane_method():
    assert not [name for name in dir(PlatformBuilder) if "transport" in name]


#: Every run option has one home, a keyword of ``Platform.__init__``.
#: These names were a second home of one (the preset's ``mpi`` / ``omp``,
#: the aspects' ``backend`` / ``timeout``), or an option no run needed
#: (``transcompile`` is ``aspects is not None``; ``machine`` was never
#: read while running).  The pool size has one name, ``pool_bytes``.
@pytest.mark.parametrize(
    "home", ["Platform", "Platform.preset", "DistributedMemoryAspect", "SharedMemoryAspect"]
)
def test_deleted_option_homes_stay_deleted(home):
    parameters = set(inspect.signature(KNOB_HOMES[home]).parameters)
    deleted = {"transcompile", "machine", "mpi", "omp", "timeout"}
    if home.endswith("Aspect"):
        deleted.add("backend")
    assert not deleted & parameters
    assert {name for name in parameters if "pool" in name} <= {"pool_bytes"}


def test_builder_has_no_second_option_home():
    assert not {"backend", "machine", "transcompile"} & set(dir(PlatformBuilder))


def test_no_aspect_stack_helpers_are_exported():
    # PRESETS is the one table from a Fig. 3 label to its aspect stack.
    import repro
    import repro.aspects
    import repro.bench

    for module in (repro, repro.aspects, repro.bench):
        assert not [name for name in dir(module) if name.endswith("_aspects")]


#: Every ``Platform`` keyword but the aspect stack.
OPTIONS = [name for name in inspect.signature(Platform).parameters if name != "aspects"]


@pytest.mark.parametrize("option", OPTIONS)
def test_every_option_has_one_default(option):
    values = [
        getattr(platform, option)
        for platform in (Platform(), Platform.builder().build(), Platform.preset("serial"))
    ]
    assert values[0] == values[1] == values[2]


def test_builder_and_preset_forward_only_what_was_set(monkeypatch):
    forwarded = []
    init = Platform.__init__

    def spy(self, aspects=None, **options):
        forwarded.append(options)
        init(self, aspects, **options)

    monkeypatch.setattr(Platform, "__init__", spy)
    Platform.builder().build()
    Platform.builder().mpi(2).omp(2).build()
    Platform.preset("serial")
    Platform.preset("hybrid", ranks=2, threads=2)
    assert forwarded == [{}, {}, {}, {}]
    forwarded.clear()
    Platform.builder().mpi(2, backend="serial").comm_timeout(5).build()
    Platform.preset("mpi", ranks=2, backend="serial", comm_timeout=5)
    assert forwarded == [{"backend": "serial", "comm_timeout": 5}] * 2
    assert not set(OPTIONS) & set(inspect.signature(Platform.preset).parameters)


class TeamTimeoutApp(TargetApplication):
    """Reports the barrier timeout of the thread team running Processing."""

    def initialize(self):
        self.make_env(pool_bytes=1 << 16)

    def processing(self):
        (omp,) = [a for a in self.platform.aspects if getattr(a, "layer", "") == "omp"]
        self.result = omp.team().timeout

    def finalize(self):
        pass


class TestOptionChecks:
    @pytest.mark.parametrize("mpi", [0, 2])
    def test_comm_timeout_bounds_the_thread_team(self, mpi):
        builder = Platform.builder().omp(2).comm_timeout(0.5)
        if mpi:
            builder.mpi(mpi)
        assert builder.run(TeamTimeoutApp).result == 0.5

    @pytest.mark.parametrize("seconds", [0, -1.0, float("inf"), float("nan"), "5"])
    def test_bad_comm_timeout_is_rejected_where_it_is_set(self, seconds):
        with pytest.raises(ValueError, match="comm_timeout"):
            Platform.builder().mpi(2).comm_timeout(seconds).build()
        with pytest.raises(ValueError, match="comm_timeout"):
            Platform.preset("mpi", ranks=2, comm_timeout=seconds)

    @pytest.mark.parametrize("nbytes", [0, -4096])
    def test_bad_pool_bytes_is_rejected_where_it_is_set(self, nbytes):
        with pytest.raises(ValueError, match="pool_bytes"):
            Platform.builder().pool_bytes(nbytes).build()
        with pytest.raises(ValueError, match="pool_bytes"):
            Platform(pool_bytes=nbytes)

    @pytest.mark.parametrize("label", ["serial", "nop", "omp"])
    def test_backend_needs_a_distributed_memory_layer(self, label):
        # It once ran serially and reported ``run.backend is None``.
        with pytest.raises(ValueError, match="backend='process'"):
            Platform.preset(label, backend="process")


class CountingKernelApp(TargetApplication):
    """Minimal app whose kernel method carries the platform kernel tag."""

    def initialize(self):
        self.make_env(pool_bytes=1 << 16)

    def processing(self):
        self.warm_up(self.kernel)
        for _ in range(self.config.get("loops", 1)):
            self.run(self.kernel)

    def finalize(self):
        self.result = "done"

    @annotate(TAG_KERNEL)
    def kernel(self, warmup):
        return self.env.refresh(warmup)


class TestStringPointcutAspectEndToEnd:
    def test_kernel_string_pointcut_fires_during_run(self):
        calls = []

        class KernelCounter(Aspect):
            @before("execution() && tagged('kernel')")
            def count(self, jp):
                calls.append(jp.shadow.name)

        run = (
            Platform.builder()
            .aspect(KernelCounter())
            .run(CountingKernelApp, config={"loops": 2})
        )
        assert run.result == "done"
        # warm-up + 2 steps = at least 3 kernel activations.
        assert len(calls) >= 3
        assert set(calls) == {"kernel"}

    def test_legacy_constructor_still_accepts_same_aspect(self):
        calls = []

        class KernelCounter(Aspect):
            @before("execution() && tagged('kernel')")
            def count(self, jp):
                calls.append(jp.shadow.name)

        run = Platform(aspects=[KernelCounter()]).run(
            CountingKernelApp, config={"loops": 1}
        )
        assert run.result == "done"
        assert calls


class TestRunSummary:
    def test_summary_is_one_line(self):
        run = Platform.preset("serial").run(JacobiSGrid, config=dict(CONFIG))
        text = run.summary()
        assert "\n" not in text
        assert "serial" in text
        assert "elapsed=" in text
        assert "steps=" in text

    def test_summary_distinguishes_nop_from_serial(self):
        nop = Platform.preset("nop").run(JacobiSGrid, config=dict(CONFIG))
        assert nop.summary().startswith("nop ")
        serial = Platform.preset("serial").run(JacobiSGrid, config=dict(CONFIG))
        assert serial.summary().startswith("serial ")

    def test_summary_reports_layers_and_traffic(self):
        run = Platform.preset("mpi", ranks=2, mmat=True).run(
            JacobiSGrid, config=dict(CONFIG)
        )
        text = run.summary()
        assert "mpi=2" in text
        assert "tasks=2" in text
        assert "fetched=" in text
