"""Unit tests for advice declarations, aspects and annotations."""

from __future__ import annotations

import pytest

from repro.aop import (
    Advice,
    AdviceKind,
    AdviceSignatureError,
    AopError,
    Aspect,
    annotate,
    before,
    after_returning,
    around,
    execution,
    tagged,
)
from repro.aop.joinpoint import shadow_of


class TestAdvice:
    def test_requires_callable_body(self):
        with pytest.raises(AdviceSignatureError):
            Advice(kind=AdviceKind.BEFORE, pointcut=execution(), body="not callable")

    def test_requires_parameter(self):
        with pytest.raises(AdviceSignatureError):
            Advice(kind=AdviceKind.BEFORE, pointcut=execution(), body=lambda: None)

    def test_name_defaults_to_function_name(self):
        def my_advice(jp):
            return None

        advice = Advice(kind=AdviceKind.BEFORE, pointcut=execution(), body=my_advice)
        assert advice.name == "my_advice"

    def test_decorator_requires_pointcut(self):
        with pytest.raises(AdviceSignatureError):
            before(42)(lambda self, jp: None)

    def test_decorator_rejects_malformed_pointcut_string(self):
        from repro.aop import PointcutSyntaxError

        with pytest.raises(PointcutSyntaxError):
            before("not a pointcut")(lambda self, jp: None)

    def test_decorator_accepts_pointcut_string(self):
        func = before("tagged('platform.kernel')")(lambda self, jp: None)
        (kind, pointcut, order) = func.__aop_advice__[0]
        assert kind is AdviceKind.BEFORE
        shadow = shadow_of(lambda: None, extra_tags=("platform.kernel",))
        assert pointcut.matches(shadow)

    def test_advice_dataclass_accepts_pointcut_string(self):
        advice = Advice(
            kind=AdviceKind.BEFORE,
            pointcut="tagged('platform.kernel')",
            body=lambda jp: None,
        )
        shadow = shadow_of(lambda: None, extra_tags=("platform.kernel",))
        assert advice.applies_to(shadow)

    def test_decorator_stacks_declarations(self):
        @before(tagged("a"))
        @after_returning(tagged("b"))
        def advice(self, jp):
            return None

        kinds = {k for k, _pc, _o in advice.__aop_advice__}
        assert kinds == {AdviceKind.BEFORE, AdviceKind.AFTER_RETURNING}

    def test_three_advice_kinds(self):
        # AspectType I-III are all before / after_returning / around advice.
        assert [k.value for k in AdviceKind] == ["before", "after_returning", "around"]

    @pytest.mark.parametrize("decorator", [before, after_returning, around])
    def test_each_decorator_records_its_kind(self, decorator):
        func = decorator("tagged('a')", order=3)(lambda self, jp: None)
        ((kind, pointcut, order),) = func.__aop_advice__
        assert kind.value == decorator.__name__
        assert order == 3
        assert pointcut.description == tagged("a").description


class TestAspectCollection:
    def test_advices_are_bound_to_instance(self):
        class Counting(Aspect):
            def __init__(self):
                super().__init__()
                self.count = 0

            @before(execution())
            def tick(self, jp):
                self.count += 1

        aspect = Counting()
        advices = aspect.advices()
        assert len(advices) == 1
        shadow = shadow_of(lambda x: x)
        from repro.aop.joinpoint import JoinPoint

        advices[0].invoke(JoinPoint(shadow, None, (), {}))
        assert aspect.count == 1

    def test_inherited_advice_collected(self):
        class BaseAspect(Aspect):
            @before(execution())
            def base_advice(self, jp):
                pass

        class Derived(BaseAspect):
            @after_returning(execution())
            def extra(self, jp):
                pass

        names = {a.name for a in Derived().advices()}
        assert any("base_advice" in n for n in names)
        assert any("extra" in n for n in names)

    def test_order_scales_with_aspect_order(self):
        class Low(Aspect):
            order = 1

            @before(execution())
            def a(self, jp):
                pass

        class High(Aspect):
            order = 2

            @before(execution())
            def a(self, jp):
                pass

        assert Low().advices()[0].order < High().advices()[0].order

    def test_describe_mentions_order(self):
        class Something(Aspect):
            order = 7

            @before(execution())
            def a(self, jp):
                pass

        assert "7" in Something().describe()


class TestAnnotations:
    def test_annotate_class_and_function(self):
        @annotate("tag.one", "tag.two")
        class Thing:
            @annotate("tag.method")
            def method(self):
                pass

        assert {"tag.one", "tag.two"}.issubset(Thing.__aop_tags__)
        assert "tag.method" in Thing.method.__aop_tags__

    def test_annotate_requires_tags(self):
        with pytest.raises(AopError):
            annotate()

    def test_tags_inherited_through_mro(self):
        @annotate("base.tag")
        class Base:
            def method(self):
                pass

        class Child(Base):
            pass

        assert "base.tag" in shadow_of(Child.method, cls=Child).tags

    def test_shadow_collects_method_tags_from_bases(self):
        class Base:
            @annotate("platform.processing")
            def processing(self):
                pass

        class Child(Base):
            def processing(self):  # override, no annotation
                pass

        shadow = shadow_of(Child.processing, cls=Child)
        assert "platform.processing" in shadow.tags

    def test_shadow_kind_and_names(self):
        def func():
            pass

        shadow = shadow_of(func)
        assert shadow.qualname == "func"
        assert shadow.full_name.endswith(".func")

