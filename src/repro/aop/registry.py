"""Annotation tags and the named-pointcut registry.

The paper avoids unintended join points by only defining pointcuts for
classes in the platform's annotation and memory libraries (§III-B5).
This module provides the two mechanisms that make that possible in the
Python port:

* :func:`annotate` attaches *tags* to classes and functions.  Tags are
  inherited: a pointcut written against a tag on the platform's virtual
  class also selects end-user subclasses, because
  :func:`repro.aop.joinpoint.shadow_of` walks the MRO.
* :class:`PointcutRegistry` maps symbolic names (``"platform.entry"``,
  ``"memory.get_blocks"``, ...) to pointcut expressions.  Aspect
  modules reference these names instead of hard-coding patterns, which
  is what makes them reusable across DSLs — the DSL part can re-bind a
  name if it renames a method, without touching the aspect modules.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, TypeVar

from .errors import AopError
from .pointcut import Pointcut, tagged

__all__ = ["annotate", "tags_of", "PointcutRegistry", "platform_pointcuts"]

T = TypeVar("T")


def annotate(*tags: str) -> Callable[[T], T]:
    """Class/function decorator attaching AOP annotation tags.

    Examples
    --------
    >>> @annotate("platform.target")
    ... class MyTarget: ...
    """
    if not tags:
        raise AopError("annotate() requires at least one tag")

    def decorator(obj: T) -> T:
        existing = set(getattr(obj, "__aop_tags__", ()))
        existing.update(tags)
        try:
            obj.__aop_tags__ = frozenset(existing)
        except (AttributeError, TypeError) as exc:  # pragma: no cover
            raise AopError(f"cannot annotate {obj!r}: {exc}") from exc
        return obj

    return decorator


def tags_of(obj) -> frozenset:
    """Return all tags attached to ``obj`` (including inherited ones)."""
    tags = set(getattr(obj, "__aop_tags__", ()))
    for base in getattr(obj, "__mro__", ()):
        tags.update(getattr(base, "__aop_tags__", ()))
    return frozenset(tags)


class PointcutRegistry:
    """Mapping from symbolic pointcut names to :class:`Pointcut` objects."""

    def __init__(self) -> None:
        self._pointcuts: Dict[str, Pointcut] = {}

    def define(self, name: str, pointcut: Pointcut, *, override: bool = False) -> None:
        """Register ``pointcut`` under ``name``.

        Redefinition is an error unless ``override=True``; accidental
        shadowing of a platform pointcut by a DSL would otherwise be a
        silent source of missing advice.
        """
        if name in self._pointcuts and not override:
            raise AopError(f"pointcut {name!r} is already defined")
        self._pointcuts[name] = pointcut

    def get(self, name: str) -> Pointcut:
        try:
            return self._pointcuts[name]
        except KeyError:
            raise AopError(f"unknown named pointcut: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._pointcuts

    def names(self) -> Iterable[str]:
        return sorted(self._pointcuts)


#: Tags used by the platform libraries.  DSL and App code never needs to
#: use these directly; they inherit them from the platform base classes.
TAG_ENTRY = "platform.entry"
TAG_TARGET = "platform.target"
TAG_INITIALIZE = "platform.initialize"
TAG_PROCESSING = "platform.processing"
TAG_FINALIZE = "platform.finalize"
TAG_GET_BLOCKS = "memory.get_blocks"
TAG_REFRESH = "memory.refresh"
TAG_KERNEL = "platform.kernel"
TAG_FORGET_ACCESSES = "platform.forget_accesses"


def platform_pointcuts() -> PointcutRegistry:
    """Return the registry of named pointcuts the aspect modules rely on.

    These correspond one-to-one to the pointcuts the paper lists for
    its three advice groups (§III-B7):

    * AspectType I  — ``platform.entry``, ``platform.initialize``,
      ``platform.processing``, ``platform.finalize``;
    * AspectType II — ``memory.get_blocks``;
    * AspectType III — ``memory.refresh``.
    """
    registry = PointcutRegistry()
    registry.define("platform.entry", tagged(TAG_ENTRY))
    registry.define("platform.initialize", tagged(TAG_INITIALIZE))
    registry.define("platform.processing", tagged(TAG_PROCESSING))
    registry.define("platform.finalize", tagged(TAG_FINALIZE))
    registry.define("platform.kernel", tagged(TAG_KERNEL))
    registry.define("platform.forget_accesses", tagged(TAG_FORGET_ACCESSES))
    registry.define("memory.get_blocks", tagged(TAG_GET_BLOCKS))
    registry.define("memory.refresh", tagged(TAG_REFRESH))
    return registry
