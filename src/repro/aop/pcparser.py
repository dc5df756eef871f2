"""Textual pointcut language: tokenizer, parser and compiler.

The paper's platform writes its pointcuts as AspectC++ *match
expressions* — strings such as ``execution("% Env::refresh(...)")`` —
which is precisely what makes the aspect language separable from the
host language and approachable for non-expert HPC users (the ANTAREX
DSL makes the same argument).  This module gives the Python
reproduction the same string-level surface:

    >>> from repro.aop import parse_pointcut
    >>> pc = parse_pointcut("execution() && tagged('processing')")

Grammar (``!`` binds tighter than ``&&``, which binds tighter than
``||``; parentheses group)::

    expr      := or
    or        := and ( '||' and )*
    and       := unary ( '&&' unary )*
    unary     := '!' unary | atom
    atom      := '(' expr ')' | primitive
    primitive := NAME '(' [ arg ( ',' arg )* ] ')'
    arg       := STRING | BAREWORD

Arguments may be quoted (``'…'`` or ``"…"``) or bare words
(``tagged(processing)``); bare words may contain the usual glob
metacharacters.  The primitives compile 1:1 onto the combinators in
:mod:`repro.aop.pointcut`:

===================  ====================================================
``execution()``      every join point (the weaver builds only execution
                     shadows)
``tagged(p, …)``     every pattern matches some annotation tag (full tag
                     or its last dotted component, globs allowed)
===================  ====================================================

Syntax errors raise :class:`~repro.aop.errors.PointcutSyntaxError`
carrying the source text and the exact 0-based offset of the problem —
so does nesting ``(`` groups and ``!`` prefixes deeper than
:data:`MAX_NESTING`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from .errors import PointcutSyntaxError
from . import pointcut as _pc
from .pointcut import Pointcut

__all__ = ["parse_pointcut", "as_pointcut", "PRIMITIVES"]

#: Deepest nesting of ``(`` groups and ``!`` prefixes an expression may
#: have.  Each level costs the recursive-descent parser a few stack
#: frames, so past this a text is a syntax error, not a RecursionError.
MAX_NESTING = 100


# ----------------------------------------------------------------------
# tokenizer
# ----------------------------------------------------------------------

_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", "!": "NOT"}
#: Characters that terminate a bare-word argument.
_BARE_STOP = set("(),!&|'\"")


@dataclass(frozen=True)
class Token:
    kind: str  # AND OR NOT LPAREN RPAREN COMMA NAME STRING BAREWORD EOF
    value: str
    pos: int


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        if ch in "&|":
            if i + 1 < n and text[i + 1] == ch:
                tokens.append(Token("AND" if ch == "&" else "OR", ch * 2, i))
                i += 2
                continue
            raise PointcutSyntaxError(
                f"single {ch!r} is not an operator; use {ch * 2!r}",
                text=text,
                position=i,
            )
        if ch in "'\"":
            end = text.find(ch, i + 1)
            if end < 0:
                raise PointcutSyntaxError(
                    "unterminated string literal", text=text, position=i
                )
            tokens.append(Token("STRING", text[i + 1 : end], i))
            i = end + 1
            continue
        # NAME (primitive) or BAREWORD (unquoted argument) — disambiguated
        # by the parser from context; lexically they are the same run of
        # characters up to whitespace/punctuation.
        j = i
        while j < n and not text[j].isspace() and text[j] not in _BARE_STOP:
            j += 1
        if j == i:
            raise PointcutSyntaxError(
                f"unexpected character {ch!r}", text=text, position=i
            )
        tokens.append(Token("WORD", text[i:j], i))
        i = j
    tokens.append(Token("EOF", "", n))
    return tokens


# ----------------------------------------------------------------------
# primitive compilers
# ----------------------------------------------------------------------

def _compile_execution(args: List[str]) -> Pointcut:
    if args:
        raise ValueError("execution() takes no arguments")
    return _pc.execution()


#: Primitive name → compiler taking the (string) argument list.
PRIMITIVES = {
    "execution": _compile_execution,
    "tagged": lambda args: _pc.tagged(*args),
}


# ----------------------------------------------------------------------
# recursive-descent parser
# ----------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    # -- token helpers --------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, kind: str, what: str) -> Token:
        if self.current.kind != kind:
            self.fail(f"expected {what}")
        return self.advance()

    def descend(self) -> None:
        """Enter one ``(`` group or ``!`` prefix (the current token)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels")

    def fail(self, message: str, pos: Optional[int] = None) -> None:
        position = self.current.pos if pos is None else pos
        raise PointcutSyntaxError(message, text=self.text, position=position)

    # -- grammar --------------------------------------------------------
    def parse(self) -> Pointcut:
        if self.current.kind == "EOF":
            self.fail("empty pointcut expression")
        result = self.parse_or()
        if self.current.kind != "EOF":
            self.fail(f"unexpected {self.current.value!r} after expression")
        return result

    def parse_or(self) -> Pointcut:
        result = self.parse_and()
        while self.current.kind == "OR":
            self.advance()
            result = result | self.parse_and()
        return result

    def parse_and(self) -> Pointcut:
        result = self.parse_unary()
        while self.current.kind == "AND":
            self.advance()
            result = result & self.parse_unary()
        return result

    def parse_unary(self) -> Pointcut:
        if self.current.kind == "NOT":
            self.descend()
            self.advance()
            result = ~self.parse_unary()
            self.depth -= 1
            return result
        return self.parse_atom()

    def parse_atom(self) -> Pointcut:
        if self.current.kind == "LPAREN":
            self.descend()
            self.advance()
            inner = self.parse_or()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            return inner
        if self.current.kind == "WORD":
            return self.parse_primitive()
        self.fail(
            f"expected a pointcut primitive, got {self.current.value or 'end of input'!r}"
        )
        raise AssertionError("unreachable")  # pragma: no cover

    def parse_primitive(self) -> Pointcut:
        name_token = self.advance()
        name = name_token.value
        compiler = PRIMITIVES.get(name)
        if compiler is None:
            self.fail(
                f"unknown pointcut primitive {name!r} "
                f"(expected one of: {', '.join(sorted(PRIMITIVES))})",
                pos=name_token.pos,
            )
        if self.current.kind != "LPAREN":
            self.fail(f"expected '(' after {name!r}")
        self.advance()
        args: List[str] = []
        if self.current.kind != "RPAREN":
            args.append(self.parse_argument())
            while self.current.kind == "COMMA":
                self.advance()
                args.append(self.parse_argument())
        self.expect("RPAREN", "')'")
        try:
            return compiler(args)
        except (ValueError, PointcutSyntaxError) as exc:
            message = getattr(exc, "message", None) or str(exc)
            raise PointcutSyntaxError(
                message, text=self.text, position=name_token.pos
            ) from None

    def parse_argument(self) -> str:
        if self.current.kind in ("STRING", "WORD"):
            return self.advance().value
        self.fail("expected a pattern argument")
        raise AssertionError("unreachable")  # pragma: no cover


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def parse_pointcut(text: str) -> Pointcut:
    """Compile a textual pointcut expression into a :class:`Pointcut`.

    Raises :class:`PointcutSyntaxError` (with the source text and exact
    position) when ``text`` is not a valid expression.
    """
    if not isinstance(text, str):
        raise PointcutSyntaxError(
            f"pointcut expression must be a string, got {text!r}"
        )
    return _Parser(text).parse()


def as_pointcut(value: Union[Pointcut, str]) -> Pointcut:
    """Coerce ``value`` — a :class:`Pointcut` or a pointcut expression
    string — into a :class:`Pointcut`.

    This is the single coercion point the advice decorators,
    :class:`~repro.aop.advice.Advice` and any future API taking "a
    pointcut" funnel through.
    """
    if isinstance(value, Pointcut):
        return value
    if isinstance(value, str):
        return parse_pointcut(value)
    raise PointcutSyntaxError(
        f"expected a Pointcut or a pointcut expression string, got {value!r}"
    )
