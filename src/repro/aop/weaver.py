"""The weaver: applies aspects to classes and functions.

AspectC++ is a source-to-source *transcompiler*: it takes the
application code plus the selected aspect modules and emits new C++
code in which every matched join point is wrapped by the advice.  The
Python equivalent implemented here performs the same transformation at
class-object level, split into two phases that mirror AspectC++'s
"match then transform" pipeline:

* :meth:`Weaver.plan_class` performs the *match* phase: it scans the
  class for join point shadows and resolves which advice applies to
  each, producing an inspectable :class:`WeavePlan`.
* :meth:`Weaver.weave_class` performs the *transform* phase: it
  executes the plan, returning a **new subclass** whose matched methods
  are replaced with wrappers that drive the advice chain.  The original
  class is left untouched (it corresponds to the paper's "Platform"
  configuration, compiled directly by the C++ compiler).  The woven
  class is cached per class, so repeated builds of the same application
  reuse it.
* :meth:`Weaver.weave_function` does the same for a free function
  (used for the program entry point, the ``main`` of C++ programs).

Every woven class or function carries the plan it executed as
``__aop_woven__``; a woven function's plan has one entry.

Weaving with an empty aspect list is permitted and still produces the
wrapper shell around every *taggable* method — this reproduces the
paper's "Platform NOP" configuration ("transcompiled through the AC++
compiler without aspects module"), whose cost the evaluation shows to
be a few percent.  Shadows with no matching advice get a minimal
pass-through wrapper (no join point object, no advice chain), so that
NOP overhead stays as close to a plain method call as Python allows.

Advice dispatch order
---------------------

For one join point activation the wrapper executes, in order:

1. all matching ``before`` advice (ascending ``order``);
2. the ``around`` chain: matching ``around`` advice sorted by ascending
   ``order`` nests outermost-first; the innermost ``proceed`` runs the
   original body;
3. ``after_returning`` advice (ascending ``order``), once the chain
   returned; an exception propagates without running it.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from .advice import Advice, AdviceKind
from .aspect import Aspect
from .errors import WeaveError, WeaveWarning
from .joinpoint import JoinPoint, JoinPointShadow, shadow_of

__all__ = ["Weaver", "WeavePlan", "PlanEntry", "is_woven"]


@dataclass(frozen=True)
class PlanEntry:
    """One join point shadow of a plan and the advice resolved for it."""

    attr_name: str
    shadow: JoinPointShadow
    advice: Tuple[Advice, ...]

    @property
    def advised(self) -> bool:
        return bool(self.advice)

    def describe(self) -> str:
        names = ", ".join(a.name for a in self.advice) or "<no advice>"
        return f"{self.shadow.qualname}: {names}"


@dataclass(frozen=True)
class WeavePlan:
    """The match-phase result for one class or function: shadow → matched advice.

    Plans are immutable and inspectable — benchmarks and tests can ask a
    platform what it *would* weave without actually weaving — and every
    woven class or function carries the plan it executed as
    ``__aop_woven__``.  ``target`` is the class or function the plan
    weaves.
    """

    target: Any
    entries: Tuple[PlanEntry, ...]

    @property
    def wrapped_sites(self) -> int:
        """Number of join point shadows the weave wraps."""
        return len(self.entries)

    @property
    def advised_sites(self) -> int:
        """Number of wrapped shadows that at least one advice matched."""
        return sum(1 for entry in self.entries if entry.advised)

    def describe(self) -> str:
        """Multi-line human-readable description of the plan."""
        header = (
            f"WeavePlan for {self.target.__name__}: "
            f"{self.wrapped_sites} shadow(s), {self.advised_sites} advised"
        )
        return "\n".join([header] + [f"  {entry.describe()}" for entry in self.entries])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WeavePlan({self.target.__name__}, wrapped={self.wrapped_sites}, "
            f"advised={self.advised_sites})"
        )


def is_woven(obj) -> bool:
    """Return True if ``obj`` (class or function) was produced by a Weaver."""
    return getattr(obj, "__aop_woven__", None) is not None


class Weaver:
    """Applies a set of aspect modules to classes and functions."""

    def __init__(self, aspects: Iterable[Aspect] = ()) -> None:
        self.aspects: List[Aspect] = list(aspects)
        for aspect in self.aspects:
            if not isinstance(aspect, Aspect):
                raise WeaveError(
                    f"Weaver expects Aspect instances, got {aspect!r}; "
                    "did you pass the class instead of an instance?"
                )
        self._advices: List[Advice] = []
        for aspect in self.aspects:
            self._advices.extend(aspect.advices())
        # Stable overall ordering by (order, declaration position).
        self._advices.sort(key=lambda a: a.order)
        #: class → woven class, so repeated builds (e.g. a Platform
        #: building the same app twice) return the same transformed class
        #: instead of re-synthesising it.
        self._woven: Dict[type, type] = {}

    # ------------------------------------------------------------------
    @property
    def advices(self) -> List[Advice]:
        """Every advice of this weaver's aspects, in ascending ``order``."""
        return list(self._advices)

    def matching_advice(self, shadow: JoinPointShadow) -> List[Advice]:
        """Return the advice (already ordered) applying to ``shadow``."""
        return [a for a in self._advices if a.applies_to(shadow)]

    def require_matched(self, *woven: Any) -> None:
        """Raise :class:`WeaveError` naming every advice that matched no
        shadow of the ``woven`` classes and functions.

        Weaving an advice whose pointcut selects nothing is legal, but on
        a platform run it is a mistake — usually a misspelt tag, such as
        ``tagged('platform.procesing')`` — that would otherwise leave the
        advice silently unfired.
        """
        plans = [obj.__aop_woven__ for obj in woven]
        matched = {id(a) for plan in plans for entry in plan.entries for a in entry.advice}
        idle = [a.name for a in self._advices if id(a) not in matched]
        if idle:
            targets = ", ".join(plan.target.__name__ for plan in plans)
            raise WeaveError(
                f"advice matched no join point shadow of {targets}: "
                f"{', '.join(idle)} (is a tag misspelt?)"
            )

    # ------------------------------------------------------------------
    # match phase
    # ------------------------------------------------------------------
    def plan_class(self, cls: type) -> WeavePlan:
        """Compute the :class:`WeavePlan` for ``cls``.

        Every method reachable on the class (own or inherited) that
        carries platform annotation tags becomes a join point shadow;
        the plan records the advice each shadow attracts.
        """
        if not isinstance(cls, type):
            raise WeaveError(f"weave_class() expects a class, got {cls!r}")

        # Collect candidate method names across the whole MRO: a method is a
        # join point shadow if *any* definition of that name in the class
        # hierarchy carries annotation tags (so an end-user override of the
        # platform's tagged ``Processing`` is still woven).
        candidates: set = set()
        for klass in cls.__mro__:
            if klass is object:
                continue
            for attr_name, attr in vars(klass).items():
                if attr_name.startswith("__") and attr_name.endswith("__"):
                    continue
                if callable(attr) and getattr(attr, "__aop_tags__", ()):
                    candidates.add(attr_name)

        entries: List[PlanEntry] = []
        for attr_name in sorted(candidates):
            func = getattr(cls, attr_name, None)
            if func is None or not callable(func):
                continue
            shadow = shadow_of(func, cls=cls)
            advice = tuple(self.matching_advice(shadow))
            entries.append(PlanEntry(attr_name=attr_name, shadow=shadow, advice=advice))

        if not entries and self._advices:
            # Aspects were supplied but the class exposes no join point
            # shadow at all (no tagged method anywhere in its MRO).  That is
            # a legal weave, but it usually means the wrong class — or a
            # class that forgot the platform annotations — was handed to the
            # weaver, so surface it the way AC++ warns that it did not weave
            # anything.
            warnings.warn(
                f"weaving {cls.__name__} with {len(self._advices)} advice(s) "
                f"found no join point shadow: {cls.__name__} has no "
                "annotated (tagged) method",
                WeaveWarning,
                stacklevel=3,
            )
        return WeavePlan(target=cls, entries=tuple(entries))

    # ------------------------------------------------------------------
    # transform phase
    # ------------------------------------------------------------------
    def weave_class(self, cls: type) -> type:
        """Return a woven subclass of ``cls`` executing this weaver's plan.

        The subclass is named ``cls.__name__ + "__woven"`` and cached per
        class (see :meth:`plan_class` for shadow selection).
        """
        cached = self._woven.get(cls)
        if cached is not None:
            return cached
        plan = self.plan_class(cls)
        overrides: dict = {
            entry.attr_name: _make_wrapper(
                getattr(cls, entry.attr_name), entry.shadow, entry.advice, is_method=True
            )
            for entry in plan.entries
        }
        woven = type(f"{cls.__name__}__woven", (cls,), overrides)
        woven.__aop_woven__ = plan
        woven.__module__ = cls.__module__
        woven.__doc__ = cls.__doc__
        self._woven[cls] = woven
        return woven

    def weave_function(self, func: Callable, *, tags: Tuple[str, ...] = ()) -> Callable:
        """Return a woven wrapper around a free function (e.g. ``main``)."""
        shadow = shadow_of(func, extra_tags=tags)
        advice = tuple(self.matching_advice(shadow))
        wrapper = _make_wrapper(func, shadow, advice, is_method=False)
        wrapper.__aop_woven__ = WeavePlan(
            target=func, entries=(PlanEntry(func.__name__, shadow, advice),)
        )
        return wrapper


# ----------------------------------------------------------------------
# wrapper construction and advice dispatch
# ----------------------------------------------------------------------

def _make_wrapper(
    func: Callable, shadow: JoinPointShadow, advice: Sequence[Advice], *, is_method: bool
) -> Callable:
    """Wrap ``func`` so a call runs the advice chain of ``shadow``.

    A shadow with no advice gets a minimal pass-through shell: the fast
    path behind the paper's "Platform NOP" numbers.  The wrapper exists
    (the site *was* transcompiled) but no join point object or advice
    chain is materialised, so the residual overhead is one extra Python
    call frame.
    """
    if not advice:
        if is_method:

            @functools.wraps(func)
            def wrapper(self, *args: Any, **kwargs: Any) -> Any:
                return func(self, *args, **kwargs)

        else:

            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return func(*args, **kwargs)

        wrapper.__aop_fastpath__ = True
        return wrapper

    dispatch = _build_dispatch(func, shadow, advice, is_method=is_method)
    if is_method:

        @functools.wraps(func)
        def wrapper(self, *args: Any, **kwargs: Any) -> Any:
            return dispatch(self, args, kwargs)

    else:

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return dispatch(None, args, kwargs)

    return wrapper


def _build_dispatch(
    func: Callable,
    shadow: JoinPointShadow,
    advice: Sequence[Advice],
    *,
    is_method: bool,
) -> Callable[[Any, tuple, dict], Any]:
    """Build the closure that executes the advice chain for one shadow."""
    befores = [a for a in advice if a.kind is AdviceKind.BEFORE]
    arounds = [a for a in advice if a.kind is AdviceKind.AROUND]
    after_ret = [a for a in advice if a.kind is AdviceKind.AFTER_RETURNING]

    def dispatch(target: Any, args: tuple, kwargs: dict) -> Any:
        jp = JoinPoint(shadow, target, args, kwargs)

        def call_body(*call_args: Any, **call_kwargs: Any) -> Any:
            if is_method:
                return func(target, *call_args, **call_kwargs)
            return func(*call_args, **call_kwargs)

        # Build the around chain from the innermost (original body) out.
        proceed = call_body
        for adv in reversed(arounds):
            proceed = _wrap_around(adv, jp, proceed)

        for adv in befores:
            adv.invoke(jp)
        jp._proceed = proceed
        jp.result = proceed(*jp.args, **jp.kwargs)
        for adv in after_ret:
            adv.invoke(jp)
        return jp.result

    return dispatch


def _wrap_around(adv: Advice, jp: JoinPoint, inner: Callable) -> Callable:
    """Wrap ``inner`` with one level of around advice.

    Argument rebinding semantics (pinned by ``tests/unit/test_weaver.py``):
    calling ``proceed(new_args)`` rebinds ``jp.args``/``jp.kwargs`` for
    the remainder of the activation, so inner around advice and the
    ``after_returning`` advice observe the rebound arguments — matching
    AspectC++, where mutating ``tjp->arg<i>()`` changes the arguments
    the join point reports from then on.  Advice that must not perturb
    the shared join point state should use ``jp.continuation()``.
    """

    def around_call(*args: Any, **kwargs: Any) -> Any:
        if args or kwargs:
            jp.args = args
            jp.kwargs = kwargs
        saved = jp._proceed
        jp._proceed = inner
        try:
            return adv.invoke(jp)
        finally:
            jp._proceed = saved

    return around_call
