"""Unit tests for pointcut expressions and their boolean algebra."""

from __future__ import annotations

import pytest

from repro.aop import PointcutSyntaxError, execution, tagged
from repro.aop.joinpoint import JoinPointShadow


def make_shadow(name="refresh", cls="Env", module="repro.memory.env", tags=()):
    return JoinPointShadow(module=module, cls=cls, name=name, tags=frozenset(tags))


SHADOWS = [
    make_shadow(),
    make_shadow(name="Processing", cls="JacobiSGrid", module="repro.apps.jacobi"),
    make_shadow(tags={"platform.kernel"}),
    make_shadow(tags={"a", "b"}),
    make_shadow(name="main", cls=None, module="repro.annotation.driver", tags={"platform.entry"}),
]

#: (pattern, tags of the shadow, selected?): ``tagged`` globs each pattern
#: against a whole tag or its last dotted component, and nothing else.
TAG_GLOB_CASES = [
    ("platform.kernel", {"platform.kernel"}, True),
    ("kernel", {"platform.kernel"}, True),
    ("platform.*", {"platform.kernel"}, True),
    ("*.kernel", {"platform.kernel"}, True),
    ("ker*", {"platform.kernel"}, True),
    ("k?rnel", {"platform.kernel"}, True),
    ("[kp]ernel", {"platform.kernel"}, True),
    ("*", {"platform.kernel"}, True),
    ("refresh", {"platform.kernel", "memory.refresh"}, True),
    ("platform", {"platform.kernel"}, False),
    ("memory", {"platform.memory.refresh"}, False),
    ("memory.refresh", {"platform.memory.refresh"}, False),
    ("Kernel", {"platform.kernel"}, False),
    ("*", set(), False),
]


class TestSemanticPointcuts:
    def test_tagged_single(self):
        shadow = make_shadow(tags={"memory.refresh"})
        assert tagged("memory.refresh").matches(shadow)
        assert not tagged("memory.get_blocks").matches(shadow)

    def test_tagged_requires_all(self):
        shadow = make_shadow(tags={"a", "b"})
        assert tagged("a", "b").matches(shadow)
        assert not tagged("a", "c").matches(shadow)

    def test_tagged_requires_at_least_one_tag(self):
        with pytest.raises(PointcutSyntaxError):
            tagged()

    def test_tagged_globs_the_full_tag_or_its_last_component(self):
        shadow = make_shadow(tags={"platform.kernel"})
        assert tagged("kernel").matches(shadow)
        assert tagged("platform.*").matches(shadow)
        assert tagged("ker*").matches(shadow)
        assert not tagged("platform").matches(shadow)
        assert not tagged("memory.*").matches(shadow)

    @pytest.mark.parametrize(
        "pattern, tags, selected",
        TAG_GLOB_CASES,
        ids=[
            f"{pattern}-{'+'.join(sorted(tags)) or 'untagged'}-{'hit' if hit else 'miss'}"
            for pattern, tags, hit in TAG_GLOB_CASES
        ],
    )
    def test_tag_glob_table(self, pattern, tags, selected):
        assert tagged(pattern).matches(make_shadow(tags=tags)) is selected

    def test_execution_matches_every_shadow(self):
        pc = execution()
        assert all(pc.matches(shadow) for shadow in SHADOWS)


#: Pointcuts the ``execution()`` identities are checked against.
OPERANDS = {
    "tagged": tagged("kernel"),
    "not-tagged": ~tagged("a"),
    "or": tagged("a") | tagged("memory.*"),
}


class TestExecutionPointcut:
    @pytest.mark.parametrize("operand", OPERANDS.values(), ids=OPERANDS.keys())
    def test_is_the_identity_of_and(self, operand):
        pc = execution() & operand
        for shadow in SHADOWS:
            assert pc.matches(shadow) == operand.matches(shadow), shadow

    @pytest.mark.parametrize("operand", OPERANDS.values(), ids=OPERANDS.keys())
    def test_absorbs_or(self, operand):
        pc = operand | execution()
        assert all(pc.matches(shadow) for shadow in SHADOWS)

    def test_complement_matches_no_shadow(self):
        pc = ~execution()
        assert not any(pc.matches(shadow) for shadow in SHADOWS)
        assert pc.description == "!execution()"

    def test_takes_no_pattern(self):
        # The execution(pattern) form is gone: tags select join points.
        with pytest.raises(TypeError):
            execution("Env.refresh")


class TestPointcutAlgebra:
    def test_and(self):
        pc = execution() & tagged("memory.refresh")
        assert pc.matches(make_shadow(tags={"memory.refresh"}))
        assert not pc.matches(make_shadow())

    def test_or(self):
        pc = tagged("memory.refresh") | tagged("memory.get_blocks")
        assert pc.matches(make_shadow(tags={"memory.get_blocks"}))
        assert not pc.matches(make_shadow(tags={"platform.initialize"}))

    def test_not(self):
        pc = ~tagged("memory.refresh")
        assert not pc.matches(make_shadow(tags={"memory.refresh"}))
        assert pc.matches(make_shadow(tags={"other"}))

    def test_de_morgan_like_composition(self):
        a = tagged("memory.refresh")
        b = tagged("x")
        shadow = make_shadow(tags={"x"})
        assert (~(a & b)).matches(shadow) == (not (a & b).matches(shadow))

    def test_description_strings(self):
        pc = execution() & ~tagged("x")
        assert "execution()" in pc.description
        assert "tagged(x)" in pc.description
