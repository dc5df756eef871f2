"""Aspect-Oriented Programming engine (the platform's weaving substrate).

This package is the Python counterpart of the paper's use of AspectC++:
it implements the JoinPoint Model — pointcuts selecting join point
shadows, advice (before/after_returning/around) executed at those join
points, aspects grouping advice, and a weaver that produces woven
classes and functions.

Public API
----------

* pointcuts: :func:`execution`, :func:`tagged`, combined with
  ``& | ~``
* the textual pointcut language: :func:`parse_pointcut` /
  :func:`as_pointcut` (``"execution() && tagged('processing')"``)
* advice decorators: :func:`before`, :func:`after_returning`,
  :func:`around` — each accepting a :class:`Pointcut` or a pointcut
  expression string
* :class:`Aspect`, :class:`Weaver`, :class:`WeavePlan`, :class:`JoinPoint`
* annotations: :func:`annotate` and the ``TAG_*`` constants
"""

from .advice import Advice, AdviceKind, after_returning, around, before
from .aspect import Aspect
from .errors import (
    AdviceSignatureError,
    AopError,
    AspectDefinitionError,
    PointcutSyntaxError,
    WeaveError,
    WeaveWarning,
)
from .joinpoint import JoinPoint, JoinPointShadow, shadow_of
from .pcparser import as_pointcut, parse_pointcut
from .pointcut import Pointcut, execution, tagged
from .registry import (
    TAG_ENTRY,
    TAG_FINALIZE,
    TAG_GET_BLOCKS,
    TAG_INITIALIZE,
    TAG_KERNEL,
    TAG_PROCESSING,
    TAG_REFRESH,
    TAG_TARGET,
    annotate,
)
from .weaver import PlanEntry, WeavePlan, Weaver, is_woven

__all__ = [
    "Advice",
    "AdviceKind",
    "Aspect",
    "JoinPoint",
    "JoinPointShadow",
    "Pointcut",
    "Weaver",
    "WeavePlan",
    "PlanEntry",
    "AopError",
    "PointcutSyntaxError",
    "WeaveError",
    "WeaveWarning",
    "AdviceSignatureError",
    "AspectDefinitionError",
    "annotate",
    "shadow_of",
    "is_woven",
    "parse_pointcut",
    "as_pointcut",
    "execution",
    "tagged",
    "before",
    "after_returning",
    "around",
    "TAG_ENTRY",
    "TAG_TARGET",
    "TAG_INITIALIZE",
    "TAG_PROCESSING",
    "TAG_FINALIZE",
    "TAG_GET_BLOCKS",
    "TAG_REFRESH",
    "TAG_KERNEL",
]
