"""Exception hierarchy for the AOP (aspect weaving) engine.

The weaving engine mirrors AspectC++'s behaviour of failing loudly at
weave time whenever an aspect is malformed (bad pointcut expression,
advice with the wrong signature, ...) rather than silently producing a
program with missing advice.
"""

from __future__ import annotations

from typing import Optional


class AopError(Exception):
    """Base class for all errors raised by :mod:`repro.aop`."""


class PointcutSyntaxError(AopError):
    """A pointcut expression could not be parsed.

    When raised by the textual pointcut parser
    (:mod:`repro.aop.pcparser`) the error carries the offending source
    ``text`` and the 0-based ``position`` of the error, and renders a
    caret diagnostic::

        unknown pointcut primitive 'exeuction'
          exeuction() && tagged('processing')
          ^

    Errors raised by the pointcut *combinators* (``tagged()`` without a
    pattern) have ``text``/``position`` set to ``None``.
    """

    def __init__(
        self,
        message: str,
        *,
        text: Optional[str] = None,
        position: Optional[int] = None,
    ) -> None:
        self.message = message
        self.text = text
        self.position = position
        rendered = message
        if text is not None and position is not None:
            rendered = (
                f"{message} (at position {position})\n"
                f"  {text}\n"
                f"  {' ' * position}^"
            )
        super().__init__(rendered)


class WeaveError(AopError):
    """A weave operation could not be completed, or an advice of a
    platform run matched no join point shadow (a misspelt tag)."""


class WeaveWarning(UserWarning):
    """A weave completed but probably not as intended (e.g. no join
    point matched any aspect's pointcuts — often a pointcut typo)."""


class AdviceSignatureError(AopError):
    """An advice body does not accept the required parameters."""


class AspectDefinitionError(AopError):
    """An :class:`~repro.aop.aspect.Aspect` subclass is malformed."""
