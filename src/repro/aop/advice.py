"""Advice declarations.

Advice is the behaviour an aspect injects at matched join points.  As in
AspectC++ there are several insertion positions (§III-A1: "There are
several ways to insert Advice: before, after, or replacing the entire
process"):

* ``before``          — runs before the intercepted body;
* ``after_returning`` — runs after a normal return (an exception from the
  body propagates without running it);
* ``around``          — replaces the body; the advice decides whether and
  how often to call :meth:`JoinPoint.proceed`.

Advice bodies are plain callables receiving the :class:`JoinPoint`.
Inside an :class:`~repro.aop.aspect.Aspect` subclass they are declared
with the :func:`before` / :func:`after_returning` / :func:`around`
decorators and receive ``(self, jp)``.

Each decorator (and :class:`Advice` itself) accepts either a
:class:`~repro.aop.pointcut.Pointcut` object or a *textual pointcut
expression* compiled by :func:`repro.aop.pcparser.parse_pointcut`::

    @before("execution() && tagged('processing')")
    def count(self, jp): ...
"""

from __future__ import annotations

import copy
import enum
import functools
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Union

from .errors import AdviceSignatureError
from .joinpoint import JoinPoint
from .pcparser import as_pointcut
from .pointcut import Pointcut

__all__ = ["AdviceKind", "Advice", "before", "after_returning", "around"]


class AdviceKind(enum.Enum):
    """Insertion position of an advice relative to the join point body."""

    BEFORE = "before"
    AFTER_RETURNING = "after_returning"
    AROUND = "around"


@dataclass
class Advice:
    """A single advice: *what* to run (``body``), *where* (``pointcut``),
    *when* (``kind``) and in what relative ``order``.

    Lower ``order`` runs first for every kind: ``before`` advice runs
    in ascending order, ``around`` advice nests with the lowest order
    outermost, and ``after_returning`` advice also runs in ascending
    order (lower order first), unlike AspectJ, where the outer
    advice's after runs last.
    """

    kind: AdviceKind
    pointcut: Union[Pointcut, str]
    body: Callable[..., Any]
    order: int = 0
    name: str = field(default="")

    def __post_init__(self) -> None:
        if isinstance(self.pointcut, str):
            self.pointcut = as_pointcut(self.pointcut)
        if not callable(self.body):
            raise AdviceSignatureError(f"advice body must be callable, got {self.body!r}")
        if not self.name:
            self.name = getattr(self.body, "__name__", "<advice>")
        try:
            params = inspect.signature(self.body).parameters
        except (TypeError, ValueError):  # pragma: no cover - builtins
            params = {}
        if params is not None and len(params) == 0:
            raise AdviceSignatureError(
                f"advice {self.name!r} must accept the join point as a parameter"
            )

    # ------------------------------------------------------------------
    def bind(self, instance: Any) -> "Advice":
        """Return a copy of this advice with ``body`` bound to ``instance``.

        Used by :class:`~repro.aop.aspect.Aspect` so that advice methods
        declared on an aspect class receive the aspect instance as
        ``self`` (aspects are stateful in this platform: e.g. the MPI
        aspect stores the simulated communicator).
        """
        bound = functools.partial(self.body, instance)
        functools.update_wrapper(bound, self.body)
        # The declaration was checked when this advice was made; binding
        # only fills ``self`` (no second ``inspect.signature``).
        bound_advice = copy.copy(self)
        bound_advice.body = bound
        return bound_advice

    def applies_to(self, shadow) -> bool:
        """Return True when this advice's pointcut selects ``shadow``."""
        return self.pointcut.matches(shadow)

    def invoke(self, jp: JoinPoint) -> Any:
        """Invoke the advice body with the join point."""
        return self.body(jp)


# ----------------------------------------------------------------------
# decorators for declaring advice inside Aspect subclasses
# ----------------------------------------------------------------------

def _make_decorator(kind: AdviceKind):
    def decorator(pointcut: Union[Pointcut, str], *, order: int = 0):
        if isinstance(pointcut, str):
            # Compiled at declaration time so a typo fails at import with
            # the caret diagnostic, not silently at weave time.
            pointcut = as_pointcut(pointcut)
        elif not isinstance(pointcut, Pointcut):
            raise AdviceSignatureError(
                f"@{kind.value} expects a Pointcut or a pointcut expression "
                f"string, got {pointcut!r}"
            )

        def wrap(func: Callable) -> Callable:
            declarations = list(getattr(func, "__aop_advice__", ()))
            declarations.append((kind, pointcut, order))
            func.__aop_advice__ = tuple(declarations)
            return func

        return wrap

    decorator.__name__ = kind.value
    decorator.__doc__ = f"Declare a method of an Aspect as '{kind.value}' advice."
    return decorator


before = _make_decorator(AdviceKind.BEFORE)
after_returning = _make_decorator(AdviceKind.AFTER_RETURNING)
around = _make_decorator(AdviceKind.AROUND)
