"""Annotation tags: the join points the platform defines.

The paper avoids unintended join points by only defining pointcuts for
classes in the platform's annotation and memory libraries (§III-B5).
:func:`annotate` is how the Python port does that: it attaches *tags* to
classes and functions, and aspects select them with ``tagged('…')``.
Tags are inherited: a pointcut written against a tag on the platform's
virtual class also selects end-user subclasses, because
:func:`repro.aop.joinpoint.shadow_of` walks the MRO.

The ``TAG_*`` constants are the tags the platform libraries attach; they
correspond to the paper's three advice groups (§III-B7):

* AspectType I  — ``platform.entry``, ``platform.initialize``,
  ``platform.processing``, ``platform.finalize``;
* AspectType II — ``platform.assign_blocks``, ``memory.get_blocks``;
* AspectType III — ``memory.refresh``.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .errors import AopError

__all__ = ["annotate"]

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


#: Tags used by the platform libraries.  DSL and App code never needs to
#: use these directly; they inherit them from the platform base classes.
TAG_ENTRY = "platform.entry"
TAG_TARGET = "platform.target"
TAG_INITIALIZE = "platform.initialize"
TAG_PROCESSING = "platform.processing"
TAG_FINALIZE = "platform.finalize"
TAG_ASSIGN_BLOCKS = "platform.assign_blocks"
TAG_GET_BLOCKS = "memory.get_blocks"
TAG_REFRESH = "memory.refresh"
TAG_KERNEL = "platform.kernel"
TAG_FORGET_ACCESSES = "platform.forget_accesses"
