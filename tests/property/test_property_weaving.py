"""Property-based tests for the AOP engine: weaving must preserve behaviour."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.aop import (
    Aspect,
    Weaver,
    annotate,
    around,
    before,
    after_returning,
    tagged,
)
from repro.aop.joinpoint import JoinPointShadow


shadow_names = st.sampled_from(["refresh", "get_blocks", "processing", "main", "step"])
shadow_classes = st.sampled_from(["Env", "Target", "App", None])
tag_sets = st.sets(st.sampled_from(["a", "b", "c", "memory.refresh"]), max_size=3)


@st.composite
def shadows(draw):
    return JoinPointShadow(
        module=draw(st.sampled_from(["m1", "m2.sub"])),
        cls=draw(shadow_classes),
        name=draw(shadow_names),
        tags=frozenset(draw(tag_sets)),
    )


class TestPointcutAlgebraProperties:
    @given(shadows(), tag_sets)
    def test_complement_is_exact(self, shadow, tags):
        if not tags:
            return
        pc = tagged(*tags)
        assert pc.matches(shadow) != (~pc).matches(shadow)

    @given(shadows())
    def test_and_or_consistency(self, shadow):
        a = tagged("a")
        b = tagged("memory.refresh")
        assert (a & b).matches(shadow) == (a.matches(shadow) and b.matches(shadow))
        assert (a | b).matches(shadow) == (a.matches(shadow) or b.matches(shadow))

    @given(shadows())
    def test_double_negation(self, shadow):
        pc = tagged("*.refresh")
        assert (~~pc).matches(shadow) == pc.matches(shadow)


@annotate("prop.cls")
class Arith:
    @annotate("prop.op")
    def compute(self, x, y):
        return 3 * x - y

    @annotate("prop.op")
    def accumulate(self, values):
        return sum(values)


class Observer(Aspect):
    def __init__(self):
        super().__init__()
        self.seen = []

    @before(tagged("prop.op"))
    def observe(self, jp):
        self.seen.append(jp.shadow.name)

    @after_returning(tagged("prop.op"))
    def observe_after(self, jp):
        self.seen.append("after:" + jp.shadow.name)


class PassthroughAround(Aspect):
    @around(tagged("prop.op"))
    def passthrough(self, jp):
        return jp.proceed()


class TestWeavingPreservesSemantics:
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=60, deadline=None)
    def test_nop_weave_is_identity_on_results(self, x, y):
        woven = Weaver([]).weave_class(Arith)
        assert woven().compute(x, y) == Arith().compute(x, y)

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=60, deadline=None)
    def test_passthrough_around_is_identity_on_results(self, x, y):
        woven = Weaver([PassthroughAround()]).weave_class(Arith)
        assert woven().compute(x, y) == Arith().compute(x, y)

    @given(st.lists(st.integers(-100, 100), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_observer_sees_every_invocation_in_order(self, values):
        observer = Observer()
        woven = Weaver([observer]).weave_class(Arith)
        instance = woven()
        instance.accumulate(values)
        instance.compute(1, 2)
        assert observer.seen == [
            "accumulate",
            "after:accumulate",
            "compute",
            "after:compute",
        ]

    @given(st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_weaving_is_idempotent_on_behaviour(self, times):
        cls = Arith
        for _ in range(times):
            cls = Weaver([PassthroughAround()]).weave_class(cls)
        assert cls().compute(2, 1) == Arith().compute(2, 1)
