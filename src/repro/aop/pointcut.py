"""Pointcut expressions.

A *pointcut* is a predicate over :class:`~repro.aop.joinpoint.JoinPointShadow`
objects.  Pointcuts form a small boolean algebra (``&``, ``|``, ``~``) so
aspect modules can compose the platform's annotation tags, as the
paper's Aspect Module Library does for its three advice groups
(AspectType I/II/III, §III-B7).

Two primitives are provided, the ones the platform's aspects use:

* :func:`execution` matches every join point shadow (the weaver only
  builds execution shadows, AspectC++'s ``execution("% ...::%(...)")``);
* :func:`tagged` matches the annotation tags the platform libraries
  attach to their classes, which is how the platform avoids unintended
  join points in end-user code.
"""

from __future__ import annotations

import fnmatch
from typing import Callable

from .errors import PointcutSyntaxError
from .joinpoint import JoinPointShadow

__all__ = ["Pointcut", "execution", "tagged"]


class Pointcut:
    """Predicate over join point shadows, composable with ``& | ~``."""

    def __init__(self, predicate: Callable[[JoinPointShadow], bool], description: str) -> None:
        self._predicate = predicate
        self.description = description

    # ------------------------------------------------------------------
    def matches(self, shadow: JoinPointShadow) -> bool:
        """Return True when ``shadow`` is selected by this pointcut."""
        return bool(self._predicate(shadow))

    __call__ = matches

    # -- boolean algebra ------------------------------------------------
    def __and__(self, other: "Pointcut") -> "Pointcut":
        return Pointcut(
            lambda s: self.matches(s) and other.matches(s),
            f"({self.description} && {other.description})",
        )

    def __or__(self, other: "Pointcut") -> "Pointcut":
        return Pointcut(
            lambda s: self.matches(s) or other.matches(s),
            f"({self.description} || {other.description})",
        )

    def __invert__(self) -> "Pointcut":
        return Pointcut(lambda s: not self.matches(s), f"!{self.description}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pointcut<{self.description}>"


# ----------------------------------------------------------------------
# primitive pointcuts
# ----------------------------------------------------------------------

def execution() -> Pointcut:
    """Match every join point shadow.

    The weaver only builds *execution* shadows (the wrapped function
    body), so this is AspectC++'s ``execution("% ...::%(...)")``: the
    neutral operand of ``&&``, as in ``execution() && tagged('processing')``.
    """
    return Pointcut(lambda s: True, "execution()")


def tagged(*patterns: str) -> Pointcut:
    """Match join points where every pattern matches *some* annotation tag.

    Annotation tags are attached by the platform's annotation/memory
    libraries via :func:`repro.aop.registry.annotate`; this is the main
    mechanism the paper uses to ensure aspects only apply to
    platform-defined join points (§III-B5).  Each pattern is matched
    with shell-style wildcards against the full tag **or** its last
    dotted component, so ``tagged('kernel')`` selects the platform tag
    ``platform.kernel`` the way AspectC++ match expressions elide
    namespaces.
    """
    if not patterns:
        raise PointcutSyntaxError("tagged() requires at least one tag pattern")

    def tag_hit(pattern: str, tags: frozenset) -> bool:
        for tag in tags:
            if fnmatch.fnmatchcase(tag, pattern):
                return True
            if fnmatch.fnmatchcase(tag.rpartition(".")[2], pattern):
                return True
        return False

    return Pointcut(
        lambda s: all(tag_hit(p, s.tags) for p in patterns),
        f"tagged({', '.join(patterns)})",
    )
