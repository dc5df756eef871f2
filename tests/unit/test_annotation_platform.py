"""Unit tests for the annotation library (TargetApplication) and Platform driver."""

from __future__ import annotations

import inspect

import pytest

from repro.annotation import Platform, TargetApplication
from repro.aop import Aspect, WeaveError, after_returning, around, before, tagged
from repro.memory import Env

from phase_trace import PhaseTraceAspect


class CountingApp(TargetApplication):
    """Minimal app: counts phase executions and runs a trivial kernel."""

    def __init__(self, config=None):
        super().__init__(config)
        self.calls = []

    def initialize(self):
        self.calls.append("initialize")
        self.make_env(pool_bytes=1 << 16)

    def processing(self):
        self.calls.append("processing")
        self.warm_up(self.kernel)
        for _ in range(self.config.get("loops", 1)):
            self.run(self.kernel)

    def finalize(self):
        self.calls.append("finalize")
        self.result = len(self.calls)

    def kernel(self, warmup):
        return self.env.refresh(warmup)


class TestTargetApplication:
    def test_phases_abstract_by_default(self):
        app = TargetApplication()
        with pytest.raises(NotImplementedError):
            app.initialize()
        with pytest.raises(NotImplementedError):
            app.processing()
        app.finalize()  # default no-op

    def test_make_env_without_platform_uses_defaults(self):
        app = CountingApp()
        env = app.make_env(pool_bytes=1 << 16)
        assert isinstance(env, Env)
        assert app.env is env
        assert app.total_tasks == 1

    def test_warm_up_resets_mmat(self):
        app = CountingApp()
        app.make_env(pool_bytes=1 << 16, mmat_enabled=True)
        app.env.mmat.remember(1, (0,), "x")
        app.warm_up(app.kernel)
        assert len(app.env.mmat) == 0

    def test_warm_up_gives_up_after_max_passes(self):
        app = CountingApp()
        app.make_env(pool_bytes=1 << 16)
        with pytest.raises(RuntimeError):
            app.warm_up(lambda warmup: False)

    def test_run_retries_until_success(self):
        app = CountingApp()
        app.make_env(pool_bytes=1 << 16)
        outcomes = iter([False, False, True])
        app.run(lambda warmup: next(outcomes))

    def test_run_gives_up_eventually(self):
        app = CountingApp()
        app.make_env(pool_bytes=1 << 16)
        with pytest.raises(RuntimeError):
            app.run(lambda warmup: False)


class TestPlatformDriver:
    def test_plain_platform_does_not_weave(self):
        platform = Platform()
        assert platform.weaver is None
        assert platform.build(CountingApp) is CountingApp

    def test_nop_platform_weaves(self):
        platform = Platform(aspects=[])
        woven = platform.build(CountingApp)
        assert woven is not CountingApp
        assert issubclass(woven, CountingApp)

    def test_aspects_require_transcompile(self):
        class Dummy(Aspect):
            @before(tagged("platform.processing"))
            def x(self, jp):
                pass

        # Transcompilation is the fact "aspects were given", not a knob.
        platform = Platform(aspects=[Dummy()])
        assert platform.transcompile and platform.weaver is not None
        assert "transcompile" not in inspect.signature(Platform).parameters

    def test_run_rejects_advice_on_a_misspelt_tag(self):
        calls = []

        class Misspelt(Aspect):
            @before("tagged('platform.procesing')")
            def count(self, jp):
                calls.append(jp)

        with pytest.raises(WeaveError, match=r"Misspelt\.count") as excinfo:
            Platform(aspects=[PhaseTraceAspect([]), Misspelt()]).run(CountingApp)
        assert "PhaseTraceAspect" not in str(excinfo.value)  # its advice all matched
        assert calls == []

    @pytest.mark.parametrize("decorator", [before, after_returning, around])
    def test_run_rejects_idle_advice_of_every_kind(self, decorator):
        class Idle(Aspect):
            @decorator("tagged('kernal')")
            def advice(self, jp):
                return jp.proceed() if decorator is around else None

        with pytest.raises(WeaveError, match=r"Idle\.advice"):
            Platform(aspects=[Idle()]).run(CountingApp)

    def test_run_accepts_advice_on_a_platform_tag(self):
        calls = []

        class Counter(Aspect):
            @before("tagged('processing')")
            def count(self, jp):
                calls.append(jp)

            @before("tagged('memory.refresh')")
            def refreshes(self, jp):
                calls.append("refresh")

        Platform(aspects=[Counter()]).run(CountingApp, config={"loops": 2})
        assert len(calls) == 1 + calls.count("refresh")
        assert calls.count("refresh") >= 2

    def test_build_rejects_non_target(self):
        class NotAnApp:
            pass

        with pytest.raises(TypeError):
            Platform().build(NotAnApp)

    def test_run_executes_phases_in_order(self):
        run = Platform().run(CountingApp, config={"loops": 2})
        assert run.app.calls == ["initialize", "processing", "finalize"]
        assert run.result == 3
        assert run.elapsed > 0
        assert run.env_stats is not None
        assert run.layers == {}

    def test_run_with_phase_trace_aspect(self):
        events = []
        platform = Platform(aspects=[PhaseTraceAspect(events)])
        platform.run(CountingApp, config={"loops": 1})
        phases = [e[0] for e in events]
        assert phases[:2] == ["initialize", "processing"]
        assert "refresh" in phases
        assert phases[-1] == "finalize"

    def test_total_tasks_reflects_aspect_parallelism(self):
        platform = Platform.preset("omp", threads=3)
        assert platform.total_tasks == 3
        assert platform.layer_parallelism() == {"omp": 3}
        assert platform.parallelism_of("omp") == 3
        assert platform.parallelism_of("mpi") == 1

    def test_mmat_flag_propagates_to_env(self):
        run = Platform(mmat=True).run(CountingApp, config={"loops": 1})
        assert run.app.env.mmat.enabled

    def test_counters_captured_per_run(self):
        run = Platform().run(CountingApp, config={"loops": 3})
        counters = list(run.counters.values())
        assert len(counters) == 1
        assert counters[0].steps == 3

    def test_memory_report_captured(self):
        run = Platform().run(CountingApp, config={"loops": 1})
        assert run.memory["pool_capacity"] > 0
