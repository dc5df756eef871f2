"""Unit tests for the weaver: advice dispatch order, around chains, NOP weaves,
weave plans and the around-advice argument-rebinding semantics."""

from __future__ import annotations

import warnings

import pytest

from repro.aop import (
    Aspect,
    AspectDefinitionError,
    WeavePlan,
    WeaveError,
    WeaveWarning,
    Weaver,
    after_returning,
    annotate,
    around,
    before,
    is_woven,
    tagged,
)


@annotate("test.cls")
class Target:
    """A tiny class with one tagged and one untagged method."""

    def __init__(self):
        self.log = []

    @annotate("test.step")
    def step(self, value):
        self.log.append(("body", value))
        return value * 2

    def untagged(self):
        return "plain"


class Recorder(Aspect):
    order = 10

    def __init__(self, events):
        super().__init__()
        self.events = events

    @before(tagged("test.step"))
    def record_before(self, jp):
        self.events.append(("before", jp.args))

    @after_returning(tagged("test.step"))
    def record_after(self, jp):
        self.events.append(("after", jp.result))


class Doubler(Aspect):
    order = 20

    @around(tagged("test.step"))
    def double(self, jp):
        result = jp.proceed()
        return result + 1


class TestBasicWeaving:
    def test_woven_class_is_subclass(self):
        woven = Weaver([]).weave_class(Target)
        assert issubclass(woven, Target)
        assert is_woven(woven)
        assert not is_woven(Target)

    def test_nop_weave_preserves_behaviour(self):
        woven = Weaver([]).weave_class(Target)
        instance = woven()
        assert instance.step(3) == 6
        assert instance.untagged() == "plain"

    def test_nop_weave_wraps_tagged_methods_only(self):
        woven = Weaver([]).weave_class(Target)
        plan = woven.__aop_woven__
        names = {entry.attr_name for entry in plan.entries}
        assert "step" in names
        assert "untagged" not in names

    def test_before_and_after_advice_fire(self):
        events = []
        woven = Weaver([Recorder(events)]).weave_class(Target)
        instance = woven()
        assert instance.step(4) == 8
        assert events == [("before", (4,)), ("after", 8)]

    def test_around_advice_can_modify_result(self):
        woven = Weaver([Doubler()]).weave_class(Target)
        assert woven().step(5) == 11

    def test_advice_applies_to_subclass_overrides(self):
        class Custom(Target):
            def step(self, value):  # override without re-annotating
                self.log.append(("custom", value))
                return value + 100

        events = []
        woven = Weaver([Recorder(events)]).weave_class(Custom)
        instance = woven()
        assert instance.step(1) == 101
        assert events[0] == ("before", (1,))

    def test_weave_non_class_raises(self):
        with pytest.raises(WeaveError):
            Weaver([]).weave_class(42)

    def test_weaver_rejects_aspect_classes(self):
        with pytest.raises(WeaveError):
            Weaver([Doubler])  # class instead of instance


class TestAdviceOrdering:
    def test_aspect_order_controls_nesting(self):
        events = []

        class Outer(Aspect):
            order = 1

            @around(tagged("test.step"))
            def wrap(self, jp):
                events.append("outer-in")
                result = jp.proceed()
                events.append("outer-out")
                return result

        class Inner(Aspect):
            order = 2

            @around(tagged("test.step"))
            def wrap(self, jp):
                events.append("inner-in")
                result = jp.proceed()
                events.append("inner-out")
                return result

        woven = Weaver([Inner(), Outer()]).weave_class(Target)
        woven().step(1)
        assert events == ["outer-in", "inner-in", "inner-out", "outer-out"]

    def test_after_returning_runs_in_ascending_order(self):
        # Unlike AspectJ, the outer (lower-order) aspect's after_returning
        # advice runs first; the measured figures were taken this way.
        events = []

        class Outer(Aspect):
            order = 1

            @after_returning(tagged("test.step"))
            def done(self, jp):
                events.append("outer(order=1)")

        class Inner(Aspect):
            order = 50

            @after_returning(tagged("test.step"))
            def done(self, jp):
                events.append("inner(order=50)")

        Weaver([Inner(), Outer()]).weave_class(Target)().step(1)
        assert events == ["outer(order=1)", "inner(order=50)"]

    def test_before_runs_in_ascending_order(self):
        events = []

        class Outer(Aspect):
            order = 1

            @before(tagged("test.step"))
            def enter(self, jp):
                events.append("outer(order=1)")

        class Inner(Aspect):
            order = 50

            @before(tagged("test.step"))
            def enter(self, jp):
                events.append("inner(order=50)")

        Weaver([Inner(), Outer()]).weave_class(Target)().step(1)
        assert events == ["outer(order=1)", "inner(order=50)"]

    def test_before_runs_before_around(self):
        events = []

        class B(Aspect):
            @before(tagged("test.step"))
            def b(self, jp):
                events.append("before")

        class A(Aspect):
            @around(tagged("test.step"))
            def a(self, jp):
                events.append("around")
                return jp.proceed()

        Weaver([A(), B()]).weave_class(Target)().step(1)
        assert events == ["before", "around"]

    def test_around_can_skip_body(self):
        class Skip(Aspect):
            @around(tagged("test.step"))
            def skip(self, jp):
                return "skipped"

        instance = Weaver([Skip()]).weave_class(Target)()
        assert instance.step(9) == "skipped"
        assert instance.log == []

    def test_around_can_change_arguments(self):
        class Rewrite(Aspect):
            @around(tagged("test.step"))
            def rewrite(self, jp):
                return jp.proceed(10)

        assert Weaver([Rewrite()]).weave_class(Target)().step(1) == 20

    def test_around_can_proceed_twice(self):
        class Twice(Aspect):
            @around(tagged("test.step"))
            def twice(self, jp):
                jp.proceed()
                return jp.proceed()

        instance = Weaver([Twice()]).weave_class(Target)()
        assert instance.step(2) == 4
        assert len(instance.log) == 2


class TestExceptionAdvice:
    class Boom(Target):
        @annotate("test.step")
        def step(self, value):
            raise ValueError("boom")

    def test_after_returning_not_fired_on_exception(self):
        events = []

        class OnlyReturn(Aspect):
            @after_returning(tagged("test.step"))
            def ret(self, jp):
                events.append("returned")

        woven = Weaver([OnlyReturn()]).weave_class(self.Boom)
        with pytest.raises(ValueError):
            woven().step(1)
        assert events == []

    def test_body_exception_propagates_unchanged_after_before_advice(self):
        events = []

        class Enter(Aspect):
            @before(tagged("test.step"))
            def enter(self, jp):
                events.append("before")

        woven = Weaver([Enter(), Doubler()]).weave_class(self.Boom)
        with pytest.raises(ValueError, match="boom"):
            woven().step(1)
        assert events == ["before"]

    def test_around_advice_can_handle_the_body_exception(self):
        events = []

        class Rescue(Aspect):
            order = 1

            @around(tagged("test.step"))
            def rescue(self, jp):
                try:
                    return jp.proceed()
                except ValueError:
                    return -1

            @after_returning(tagged("test.step"))
            def ret(self, jp):
                events.append(jp.result)

        assert Weaver([Rescue()]).weave_class(self.Boom)().step(1) == -1
        assert events == [-1]

    def test_exception_from_before_advice_skips_the_body(self):
        class Veto(Aspect):
            @before(tagged("test.step"))
            def veto(self, jp):
                raise RuntimeError("vetoed")

        instance = Weaver([Veto()]).weave_class(Target)()
        with pytest.raises(RuntimeError, match="vetoed"):
            instance.step(1)
        assert instance.log == []


class TestWeavePlans:
    def test_plan_is_inspectable(self):
        weaver = Weaver([Doubler()])
        plan = weaver.plan_class(Target)
        assert isinstance(plan, WeavePlan)
        assert plan.target is Target
        assert plan.wrapped_sites == 1
        assert plan.advised_sites == 1
        (entry,) = plan.entries
        assert entry.attr_name == "step"
        assert entry.advice[0].name == "Doubler.double"
        assert "step" in plan.describe()

    def test_woven_class_carries_its_plan(self):
        weaver = Weaver([Doubler()])
        plan = weaver.weave_class(Target).__aop_woven__
        assert isinstance(plan, WeavePlan)
        assert plan.target is Target
        assert plan.entries == weaver.plan_class(Target).entries

    def test_repeated_weaves_reuse_the_woven_class(self):
        weaver = Weaver([Doubler()])
        assert weaver.weave_class(Target) is weaver.weave_class(Target)

    def test_woven_class_cached_per_class_and_weaver(self):
        class Other(Target):
            pass

        weaver = Weaver([Doubler()])
        woven = weaver.weave_class(Target)
        assert weaver.weave_class(Other) is not woven
        assert weaver.weave_class(Other).__aop_woven__.target is Other
        # A different weaver builds its own class.
        assert Weaver([Doubler()]).weave_class(Target) is not woven

    @pytest.mark.parametrize("method", ["plan_class", "weave_class"])
    @pytest.mark.parametrize("keyword", ["methods", "name"])
    def test_removed_keywords_are_rejected(self, method, keyword):
        with pytest.raises(TypeError):
            getattr(Weaver([]), method)(Target, **{keyword: ["untagged"]})

    def test_unadvised_shadow_uses_fast_path(self):
        woven = Weaver([]).weave_class(Target)
        wrapper = woven.__dict__["step"]
        assert getattr(wrapper, "__aop_fastpath__", False)
        assert woven.__aop_woven__.advised_sites == 0
        assert woven().step(3) == 6  # behaviour unchanged

    def test_advised_shadow_does_not_use_fast_path(self):
        woven = Weaver([Doubler()]).weave_class(Target)
        wrapper = woven.__dict__["step"]
        assert not getattr(wrapper, "__aop_fastpath__", False)

    def test_unadvised_function_uses_fast_path(self):
        woven = Weaver([]).weave_function(lambda x: x + 1, tags=("t",))
        assert getattr(woven, "__aop_fastpath__", False)
        assert woven(1) == 2

    def test_no_shadow_with_aspects_warns(self):
        class NoShadows:
            def plain(self):
                return "ok"

        with pytest.warns(WeaveWarning, match="no join point shadow"):
            woven = Weaver([Doubler()]).weave_class(NoShadows)
        assert woven().plain() == "ok"  # weave still succeeds

    def test_nop_weave_of_shadowless_class_does_not_warn(self):
        class NoShadows:
            def plain(self):
                return "ok"

        with warnings.catch_warnings():
            warnings.simplefilter("error", WeaveWarning)
            Weaver([]).weave_class(NoShadows)


class TestAroundArgumentRebinding:
    """Pins the rebinding semantics of ``proceed(new_args)``: the rebound
    arguments stick to the join point for the rest of the activation, so
    inner around advice and ``after_returning`` advice observe them (AspectC++'s
    ``tjp->arg<i>()`` behaves the same way).  ``continuation()`` is the
    escape hatch that leaves the join point untouched."""

    def test_after_advice_observes_rebound_args(self):
        seen = []

        class Rebind(Aspect):
            order = 1

            @around(tagged("test.step"))
            def rebind(self, jp):
                return jp.proceed(jp.args[0] + 10)

        class Observe(Aspect):
            order = 2

            @after_returning(tagged("test.step"))
            def observe(self, jp):
                seen.append(jp.args)

        instance = Weaver([Rebind(), Observe()]).weave_class(Target)()
        assert instance.step(1) == 22
        assert seen == [(11,)]

    def test_inner_around_observes_rebound_args(self):
        seen = []

        class Outer(Aspect):
            order = 1

            @around(tagged("test.step"))
            def outer(self, jp):
                return jp.proceed(99)

        class Inner(Aspect):
            order = 2

            @around(tagged("test.step"))
            def inner(self, jp):
                seen.append(jp.args)
                return jp.proceed()

        assert Weaver([Outer(), Inner()]).weave_class(Target)().step(1) == 198
        assert seen == [(99,)]

    def test_before_advice_observes_original_args(self):
        seen = []

        class Observe(Aspect):
            order = 1

            @before(tagged("test.step"))
            def observe(self, jp):
                seen.append(jp.args)

        class Rebind(Aspect):
            order = 2

            @around(tagged("test.step"))
            def rebind(self, jp):
                return jp.proceed(42)

        Weaver([Observe(), Rebind()]).weave_class(Target)().step(1)
        assert seen == [(1,)]  # before advice runs before any around rebinding

    def test_proceed_without_args_keeps_rebinding(self):
        """A later bare proceed() re-forwards the rebound arguments."""

        class RebindTwice(Aspect):
            @around(tagged("test.step"))
            def rebind(self, jp):
                jp.proceed(7)
                return jp.proceed()  # forwards the rebound 7, not the original 1

        instance = Weaver([RebindTwice()]).weave_class(Target)()
        assert instance.step(1) == 14
        assert instance.log == [("body", 7), ("body", 7)]

    def test_continuation_does_not_rebind(self):
        seen = []

        class Continue(Aspect):
            order = 1

            @around(tagged("test.step"))
            def run_elsewhere(self, jp):
                body = jp.continuation()
                return body(5)  # bypasses jp.args entirely

        class Observe(Aspect):
            order = 2

            @after_returning(tagged("test.step"))
            def observe(self, jp):
                seen.append(jp.args)

        instance = Weaver([Continue(), Observe()]).weave_class(Target)()
        assert instance.step(1) == 10
        assert seen == [(1,)]  # the join point still reports the original args


class TestFunctionWeaving:
    def test_weave_function_with_tag(self):
        events = []

        class EntryAspect(Aspect):
            @before(tagged("platform.entry"))
            def enter(self, jp):
                events.append("enter")

        def main(x):
            return x + 1

        woven = Weaver([EntryAspect()]).weave_function(main, tags=("platform.entry",))
        assert woven(1) == 2
        assert events == ["enter"]
        assert is_woven(woven)
        plan = woven.__aop_woven__
        assert plan.target is main
        assert (plan.wrapped_sites, plan.advised_sites) == (1, 1)

    def test_weave_function_plan_has_one_entry(self):
        def main():
            return "ran"

        woven = Weaver([Doubler()]).weave_function(main, tags=("platform.entry",))
        (entry,) = woven.__aop_woven__.entries
        assert entry.attr_name == "main"
        assert entry.shadow.cls is None
        assert "platform.entry" in entry.shadow.tags
        assert entry.advice == ()  # Doubler advises test.step only
        assert woven() == "ran"

    def test_require_matched_names_idle_advice(self):
        class Idle(Aspect):
            @before(tagged("test.stpe"))
            def typo(self, jp):
                pass

        weaver = Weaver([Doubler(), Idle()])
        woven = weaver.weave_class(Target)
        with pytest.raises(WeaveError, match=r"Idle\.typo") as excinfo:
            weaver.require_matched(woven)
        assert "Doubler" not in str(excinfo.value)
        assert "Target" in str(excinfo.value)

    def test_require_matched_counts_a_match_in_any_target(self):
        class Entry(Aspect):
            @before(tagged("platform.entry"))
            def enter(self, jp):
                pass

        weaver = Weaver([Doubler(), Entry()])
        woven = weaver.weave_class(Target)
        entry = weaver.weave_function(lambda: None, tags=("platform.entry",))
        weaver.require_matched(woven, entry)  # each advice matched one target
        with pytest.raises(WeaveError, match=r"Entry\.enter"):
            weaver.require_matched(woven)

    def test_require_matched_without_advice_is_silent(self):
        weaver = Weaver([])
        weaver.require_matched(weaver.weave_class(Target))

    def test_aspect_without_advice_is_rejected(self):
        class Empty(Aspect):
            pass

        with pytest.raises(AspectDefinitionError):
            Empty().advices()
