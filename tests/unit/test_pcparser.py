"""Unit tests for the textual pointcut language (tokenizer + parser).

Covers grammar round-trips, operator precedence (`!` > `&&` > `||`),
glob matching in tagged(), syntax-error positions reported by
PointcutSyntaxError, the nesting cap, and a fuzz over the grammar's
tokens: any such text parses or raises PointcutSyntaxError, nothing else.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.aop import (
    Aspect,
    PointcutSyntaxError,
    Weaver,
    annotate,
    as_pointcut,
    before,
    parse_pointcut,
    tagged,
)
from repro.aop.joinpoint import JoinPointShadow
from repro.aop.pcparser import MAX_NESTING, PRIMITIVES


def make_shadow(name="refresh", cls="Env", module="repro.memory.env", tags=()):
    return JoinPointShadow(module=module, cls=cls, name=name, tags=frozenset(tags))


class TestPrimitives:
    def test_bare_execution_matches_any_execution(self):
        pc = parse_pointcut("execution()")
        assert pc.matches(make_shadow())
        assert pc.matches(make_shadow(name="anything", cls="Other"))

    def test_tagged_exact(self):
        pc = parse_pointcut("tagged('memory.refresh')")
        assert pc.matches(make_shadow(tags={"memory.refresh"}))
        assert not pc.matches(make_shadow(tags={"memory.get_blocks"}))

    def test_tagged_suffix_shorthand(self):
        # 'kernel' matches the platform tag 'platform.kernel' by its last
        # dotted component, the way AC++ match expressions elide namespaces.
        pc = parse_pointcut("tagged('kernel')")
        assert pc.matches(make_shadow(tags={"platform.kernel"}))
        assert not pc.matches(make_shadow(tags={"platform.entry"}))

    def test_tagged_multiple_requires_all(self):
        pc = parse_pointcut("tagged('a', 'b')")
        assert pc.matches(make_shadow(tags={"a", "b"}))
        assert not pc.matches(make_shadow(tags={"a"}))

    def test_whitespace_is_insignificant(self):
        pc = parse_pointcut("  execution(  )   &&\n tagged( 'memory.refresh' ) ")
        assert pc.matches(make_shadow(tags={"memory.refresh"}))

    def test_only_execution_and_tagged_are_primitives(self):
        assert sorted(PRIMITIVES) == ["execution", "tagged"]

    @pytest.mark.parametrize(
        "pattern",
        [
            "kernel",
            "platform.kernel",
            "platform.*",
            "*.refresh",
            "ker*",
            "k?rnel",
            "[kp]ernel",
            "*",
            "platform",
            "memory",
            "memory.refresh",
            "Kernel",
        ],
    )
    def test_textual_tagged_is_the_python_tagged(self, pattern):
        shadows = [
            make_shadow(),
            make_shadow(tags={"platform.kernel"}),
            make_shadow(tags={"memory.refresh"}),
            make_shadow(tags={"platform.memory.refresh"}),
            make_shadow(tags={"a", "b"}),
        ]
        text_pc = parse_pointcut(f"tagged('{pattern}')")
        python_pc = tagged(pattern)
        assert text_pc.description == python_pc.description
        for shadow in shadows:
            assert text_pc.matches(shadow) == python_pc.matches(shadow), shadow


class TestPrecedence:
    shadow_a = staticmethod(lambda: make_shadow(tags={"a"}))

    def test_not_binds_tighter_than_and(self):
        # !tagged(a) && tagged(b)  ==  (!tagged(a)) && tagged(b)
        pc = parse_pointcut("!tagged('a') && tagged('b')")
        assert pc.matches(make_shadow(tags={"b"}))
        assert not pc.matches(make_shadow(tags={"a", "b"}))

    def test_and_binds_tighter_than_or(self):
        # tagged(a) || tagged(b) && tagged(c)  ==  a || (b && c)
        pc = parse_pointcut("tagged('a') || tagged('b') && tagged('c')")
        assert pc.matches(make_shadow(tags={"a"}))
        assert pc.matches(make_shadow(tags={"b", "c"}))
        assert not pc.matches(make_shadow(tags={"b"}))

    def test_parentheses_override(self):
        pc = parse_pointcut("(tagged('a') || tagged('b')) && tagged('c')")
        assert pc.matches(make_shadow(tags={"a", "c"}))
        assert not pc.matches(make_shadow(tags={"a"}))

    def test_double_negation(self):
        pc = parse_pointcut("!!tagged('a')")
        assert pc.matches(make_shadow(tags={"a"}))
        assert not pc.matches(make_shadow(tags={"b"}))

    def test_not_of_group(self):
        pc = parse_pointcut("!(tagged('a') && tagged('b'))")
        assert pc.matches(make_shadow(tags={"a"}))
        assert not pc.matches(make_shadow(tags={"a", "b"}))


class TestRoundTrips:
    """A parsed pointcut's description must itself parse to an equivalent
    pointcut (the textual language is closed under its own output)."""

    SHADOWS = [
        make_shadow(),
        make_shadow(name="Processing", cls="JacobiSGrid", module="repro.apps.jacobi"),
        make_shadow(tags={"platform.kernel"}),
        make_shadow(tags={"memory.refresh"}),
        make_shadow(tags={"a", "b"}),
    ]

    @pytest.mark.parametrize(
        "text",
        [
            "execution()",
            "tagged(kernel)",
            "tagged(a, b)",
            "execution() && tagged('kernel')",
            "!tagged('a') && (tagged('kernel') || tagged('memory.*'))",
            "!execution()",
            "tagged('memory.*')",
            'tagged("platform.kernel")',
            "!!tagged(a)",
            "tagged(a) || tagged(b) && tagged(kernel)",
            "(tagged('a') || tagged('kernel')) && !tagged('b')",
        ],
    )
    def test_description_round_trips(self, text):
        first = parse_pointcut(text)
        second = parse_pointcut(first.description)
        for shadow in self.SHADOWS:
            assert first.matches(shadow) == second.matches(shadow), (
                text,
                first.description,
                shadow,
            )


class TestSyntaxErrors:
    def assert_error_at(self, text, position, match=None):
        with pytest.raises(PointcutSyntaxError) as excinfo:
            parse_pointcut(text)
        error = excinfo.value
        assert error.text == text
        assert error.position == position, str(error)
        if match:
            assert match in str(error)
        return error

    def test_empty_expression(self):
        self.assert_error_at("", 0, "empty pointcut")
        self.assert_error_at("   ", 3, "empty pointcut")

    def test_unknown_primitive_position(self):
        self.assert_error_at("tagged('a') && frobnicate('b')", 15, "unknown pointcut primitive")
        # Primitives the language no longer has fail at their first character.
        for text in ("call()", "within(x)", "named(x)", "subtype_of(X)", "ref(x)", "any()", "none()"):
            name = text.partition("(")[0]
            self.assert_error_at(text, 0, f"unknown pointcut primitive {name!r}")

    def test_single_ampersand(self):
        self.assert_error_at("tagged('a') & tagged('b')", 12, "use '&&'")

    def test_single_pipe(self):
        self.assert_error_at("tagged('a') | tagged('b')", 12, "use '||'")

    def test_unterminated_string(self):
        self.assert_error_at("tagged('a", 7, "unterminated string")

    def test_missing_closing_paren(self):
        self.assert_error_at("(tagged('a') && tagged('b')", 27, "')'")

    def test_missing_argument_paren(self):
        self.assert_error_at("execution(Env.refresh", 21)

    def test_trailing_garbage(self):
        self.assert_error_at("tagged('a') tagged('b')", 12)

    def test_dangling_operator(self):
        self.assert_error_at("tagged('a') &&", 14)

    def test_primitive_without_parens(self):
        self.assert_error_at("execution", 9, "expected '('")

    def test_wrong_arity_reports_primitive_position(self):
        self.assert_error_at("execution(a, b)", 0, "takes no arguments")
        self.assert_error_at("tagged('a') && execution('Env.refresh')", 15, "takes no arguments")
        # The combinator-level error is re-raised with position info.
        self.assert_error_at("tagged()", 0, "at least one tag")

    def test_caret_rendering(self):
        with pytest.raises(PointcutSyntaxError) as excinfo:
            parse_pointcut("tagged('a') & tagged('b')")
        lines = str(excinfo.value).splitlines()
        assert lines[1].strip() == "tagged('a') & tagged('b')"
        assert lines[2].index("^") - 2 == 12  # two-space indent before text

    def test_non_string_input(self):
        with pytest.raises(PointcutSyntaxError):
            parse_pointcut(42)

    def test_nesting_past_the_cap_is_a_syntax_error_at_the_token_past_it(self):
        # Regression: these raised RecursionError.
        deep = "(" * 250 + "execution()" + ")" * 250
        self.assert_error_at(deep, MAX_NESTING, "nested deeper")
        self.assert_error_at("!" * 1000 + "execution()", MAX_NESTING, "nested deeper")
        self.assert_error_at("!(" * 60 + "execution()" + ")" * 60, MAX_NESTING, "nested deeper")

    def test_nesting_up_to_the_cap_parses(self):
        inner = "tagged('memory.refresh')"
        shadow = make_shadow(tags={"memory.refresh"})
        pc = parse_pointcut("(" * MAX_NESTING + inner + ")" * MAX_NESTING)
        assert pc.matches(shadow)
        even = parse_pointcut("!" * MAX_NESTING + inner)
        assert even.matches(shadow)
        half = MAX_NESTING // 2
        assert parse_pointcut("!(" * half + inner + ")" * half).matches(shadow)


#: Fragments of the grammar: every token, every primitive name, patterns,
#: broken forms, and runs long enough to cross the nesting cap.
FRAGMENTS = [
    "(", ")", ",", "!", "&&", "||", "&", "|", "'", '"', " ", "\t",
    "'kernel'", '"Env.refresh"', "Env.refresh", "Env.", "*", "?", "[", "x.y.z",
    *PRIMITIVES, "frobnicate",
    "(" * (MAX_NESTING + 1), ")" * (MAX_NESTING + 1), "!" * (MAX_NESTING + 1),
]


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=30))
    def test_token_text_parses_or_raises_syntax_error(self, parts):
        text = "".join(parts)
        try:
            pc = parse_pointcut(text)
        except PointcutSyntaxError as error:
            assert error.text == text and 0 <= error.position <= len(text)
        else:
            assert pc.description


class TestCoercion:
    def test_as_pointcut_passthrough(self):
        pc = tagged("x")
        assert as_pointcut(pc) is pc

    def test_as_pointcut_parses_strings(self):
        assert as_pointcut("tagged('x')").matches(make_shadow(tags={"x"}))

    def test_as_pointcut_rejects_other_types(self):
        with pytest.raises(PointcutSyntaxError):
            as_pointcut(3.14)

    def test_aspect_with_string_pointcuts_weaves(self):
        @annotate("test.cls")
        class Target:
            @annotate("test.step")
            def step(self, value):
                return value * 2

        events = []

        class StringAspect(Aspect):
            @before("execution() && tagged('test.step')")
            def record(self, jp):
                events.append(jp.args)

        woven = Weaver([StringAspect()]).weave_class(Target)
        assert woven().step(4) == 8
        assert events == [(4,)]

    def test_bad_string_fails_at_declaration_time(self):
        with pytest.raises(PointcutSyntaxError):

            class Broken(Aspect):
                @before("tagged('unclosed")
                def advice(self, jp):
                    pass
