"""Unit tests for the MPI / OpenMP aspect modules (structure and advice wiring)."""

from __future__ import annotations

import pytest

from repro.annotation import Platform
from repro.aop import AdviceKind, Weaver
from repro.aop.joinpoint import JoinPointShadow
from repro.aspects import DistributedMemoryAspect, LayerAspect, SharedMemoryAspect

from phase_trace import PhaseTraceAspect


def shadow_with_tag(tag: str) -> JoinPointShadow:
    return JoinPointShadow(
        module="x",
        cls="Env",
        name="method",
        tags=frozenset({tag}),
    )


class TestLayerAspect:
    def test_parallelism_validation(self):
        with pytest.raises(ValueError):
            DistributedMemoryAspect(processes=0)
        with pytest.raises(ValueError):
            SharedMemoryAspect(threads=-1)

    def test_layer_names_and_describe(self):
        mpi = DistributedMemoryAspect(processes=4)
        omp = SharedMemoryAspect(threads=8)
        assert mpi.layer == "mpi" and mpi.parallelism == 4
        assert omp.layer == "omp" and omp.parallelism == 8
        assert "mpi" in mpi.describe()
        assert "8" in omp.describe()

    def test_precedence_omp_outside_mpi(self):
        # The shared-memory module must wrap the distributed-memory module so
        # that only one thread per rank joins the collective refresh protocol.
        assert SharedMemoryAspect.order < DistributedMemoryAspect.order

    def test_attach_detach(self):
        aspect = SharedMemoryAspect(threads=2)
        sentinel = object()
        aspect.on_attach(sentinel)
        assert aspect.platform is sentinel
        aspect.on_detach(sentinel)
        assert aspect.platform is None


class TestAdviceCoverage:
    """Every AspectType of the paper maps to at least one advice."""

    def test_mpi_aspect_advises_the_three_aspect_types(self):
        advices = DistributedMemoryAspect(processes=2).advices()
        tag_hits = {
            "platform.entry": False,    # AspectType I
            "memory.get_blocks": False,  # AspectType II
            "memory.refresh": False,     # AspectType III
        }
        for advice in advices:
            for tag in tag_hits:
                if advice.pointcut.matches(shadow_with_tag(tag)):
                    tag_hits[tag] = True
        assert all(tag_hits.values()), tag_hits

    def test_omp_aspect_advises_processing_and_get_blocks(self):
        advices = SharedMemoryAspect(threads=2).advices()
        assert any(a.pointcut.matches(shadow_with_tag("platform.processing")) for a in advices)
        assert any(a.pointcut.matches(shadow_with_tag("memory.get_blocks")) for a in advices)

    def test_omp_aspect_has_no_entrypoint_advice(self):
        # AspectType I for OpenMP starts tasks before Processing, not at main.
        advices = SharedMemoryAspect(threads=2).advices()
        assert not any(a.pointcut.matches(shadow_with_tag("platform.entry")) for a in advices)

    def test_mpi_runtime_control_is_around_advice(self):
        advices = DistributedMemoryAspect(processes=2).advices()
        entry_advice = [
            a for a in advices if a.pointcut.matches(shadow_with_tag("platform.entry"))
        ]
        assert all(a.kind is AdviceKind.AROUND for a in entry_advice)


class TestAspectStacks:
    """The Fig. 3 stacks, as the Platform presets weave them."""

    def test_mpi_stack(self):
        stack = Platform.preset("mpi", ranks=4).aspects
        assert len(stack) == 1 and stack[0].parallelism == 4

    def test_omp_stack(self):
        stack = Platform.preset("omp", threads=8).aspects
        assert stack[0].layer == "omp"

    def test_hybrid_stack_contains_both_layers(self):
        stack = Platform.preset("hybrid", ranks=2, threads=4).aspects
        layers = {aspect.layer: aspect.parallelism for aspect in stack}
        assert layers == {"mpi": 2, "omp": 4}

    def test_stacks_weave_cleanly(self):
        for label, ranks, threads in (("mpi", 2, 1), ("omp", 1, 2), ("hybrid", 2, 2)):
            platform = Platform.preset(label, ranks=ranks, threads=threads)
            assert platform.weaver.advices

    def test_phase_trace_aspect_records_to_sink(self):
        sink = []
        aspect = PhaseTraceAspect(sink)
        assert aspect.events is sink


class TestAspectPassthroughWithoutRuntime:
    """Advice must behave as a no-op pass-through when no runtime is active."""

    def test_mpi_get_blocks_passthrough(self, env):
        aspect = DistributedMemoryAspect(processes=2)
        woven_env_cls = Weaver([aspect]).weave_class(type(env))
        woven = woven_env_cls(pool_bytes=1 << 16)
        assert woven.get_blocks() == []

    def test_mpi_refresh_passthrough(self, env):
        aspect = DistributedMemoryAspect(processes=2)
        woven_env_cls = Weaver([aspect]).weave_class(type(env))
        woven = woven_env_cls(pool_bytes=1 << 16)
        assert woven.refresh() is True

    def test_omp_refresh_passthrough_without_team(self, env):
        aspect = SharedMemoryAspect(threads=4)
        woven_env_cls = Weaver([aspect]).weave_class(type(env))
        woven = woven_env_cls(pool_bytes=1 << 16)
        assert woven.refresh() is True
        assert woven.get_blocks() == []
