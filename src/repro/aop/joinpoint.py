"""Join points for the JoinPoint Model (JPM).

The paper's platform relies on AspectC++'s JoinPoint Model: *pointcuts*
(pattern matches over the static program structure) select *join point
shadows*; at run time, every activation of a shadow produces a *join
point*, and *advice* bodies receive the join point so they can inspect
and alter the intercepted call.

In this Python reproduction:

* A :class:`JoinPointShadow` is the static description of a weavable
  site — a function or method, identified by module, class, name and a
  set of *annotation tags* (the equivalent of the paper's "Pointcuts
  defined for the classes in the annotation library and memory
  library", §III-B5).
* A :class:`JoinPoint` is the dynamic record passed to advice.  For
  ``around`` advice it also exposes :meth:`JoinPoint.proceed`, which
  invokes the next advice in the chain (or the original body).

Of AspectC++'s ``call`` and ``execution`` join points only the latter
exists here: a woven wrapper replaces the function body itself, which
is all the platform's aspect modules need (entry point,
``Initialize``/``Processing``/``Finalize``, ``Env.get_blocks``,
``Env.refresh``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple


@dataclass(frozen=True)
class JoinPointShadow:
    """Static description of a weavable program point.

    Attributes
    ----------
    module:
        Dotted module name in which the callable is defined.
    cls:
        Name of the class owning the method, or ``None`` for a free
        function (e.g. the program entry point).
    name:
        Unqualified function/method name.
    tags:
        Annotation tags attached by the platform libraries (see
        :func:`repro.aop.registry.annotate`).  Pointcuts can match tags
        to avoid accidental join points in user code.
    signature:
        Human-readable signature used in diagnostics.
    """

    module: str
    cls: Optional[str]
    name: str
    tags: frozenset = field(default_factory=frozenset)
    signature: str = ""

    @property
    def qualname(self) -> str:
        """Return ``Class.method`` or plain ``function`` name."""
        if self.cls:
            return f"{self.cls}.{self.name}"
        return self.name

    @property
    def full_name(self) -> str:
        """Return ``module.Class.method`` (or ``module.function``)."""
        return f"{self.module}.{self.qualname}"


class JoinPoint:
    """Dynamic join point handed to advice bodies.

    A :class:`JoinPoint` wraps one activation of a woven callable.  It
    carries the target object (``self`` for methods, ``None`` for free
    functions), the positional and keyword arguments, and — once the
    wrapped body or an ``around`` advice has run — the result.

    ``around`` advice receives a join point whose :meth:`proceed`
    method continues the advice chain.  Calling :meth:`proceed` more
    than once re-executes the remainder of the chain, which matches
    AspectC++'s ``tjp->proceed()`` semantics and is occasionally useful
    (e.g. the platform uses it to re-run a step whose ``refresh``
    failed).
    """

    __slots__ = (
        "shadow",
        "target",
        "args",
        "kwargs",
        "result",
        "_proceed",
        "context",
    )

    def __init__(
        self,
        shadow: JoinPointShadow,
        target: Any,
        args: Tuple[Any, ...],
        kwargs: dict,
        proceed: Optional[Callable[..., Any]] = None,
    ) -> None:
        self.shadow = shadow
        self.target = target
        self.args = args
        self.kwargs = kwargs
        self.result: Any = None
        self._proceed = proceed
        #: Scratch dict shared by all advice applied to one activation.
        #: Aspect modules use it to pass data between their before/after
        #: advice without polluting the target object.
        self.context: dict = {}

    # ------------------------------------------------------------------
    def proceed(self, *args: Any, **kwargs: Any) -> Any:
        """Run the rest of the advice chain (and ultimately the body).

        If positional or keyword arguments are supplied they replace
        the intercepted ones for the remainder of the chain; otherwise
        the original arguments are forwarded unchanged.
        """
        if self._proceed is None:
            raise RuntimeError(
                f"proceed() is not available for {self.shadow.full_name}: "
                "only 'around' advice may proceed"
            )
        if args or kwargs:
            self.args = args
            self.kwargs = kwargs
        self.result = self._proceed(*self.args, **self.kwargs)
        return self.result

    def continuation(self) -> Callable[..., Any]:
        """Return the rest of the advice chain as a plain callable.

        ``around`` advice that needs to execute the continuation on
        *other threads or tasks* (e.g. the distributed-memory aspect
        running the program once per rank) should use this instead of
        :meth:`proceed`, because the returned callable does not mutate
        this join point's shared ``args``/``result`` fields.
        """
        if self._proceed is None:
            raise RuntimeError(
                f"continuation() is not available for {self.shadow.full_name}: "
                "only 'around' advice may proceed"
            )
        return self._proceed

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JoinPoint({self.shadow.full_name}, "
            f"args={self.args!r}, kwargs={self.kwargs!r})"
        )


def shadow_of(
    func: Callable,
    *,
    cls: Optional[type] = None,
    extra_tags: Tuple[str, ...] = (),
) -> JoinPointShadow:
    """Build a :class:`JoinPointShadow` describing ``func``.

    Tags previously attached via :func:`repro.aop.registry.annotate`
    are collected from the function itself and from the owning class
    (including base classes), so that a pointcut written against the
    platform's virtual class matches all user subclasses, exactly as
    the paper prescribes ("inherits classes of them to avoid the
    [unintended join point] problem", §III-B5).
    """
    tags = set(extra_tags)
    tags.update(getattr(func, "__aop_tags__", ()))
    cls_name = None
    module = getattr(func, "__module__", "<unknown>") or "<unknown>"
    if cls is not None:
        cls_name = cls.__name__
        for base in cls.__mro__:
            tags.update(getattr(base, "__aop_tags__", ()))
            base_func = base.__dict__.get(func.__name__)
            if base_func is not None:
                tags.update(getattr(base_func, "__aop_tags__", ()))
    try:
        import inspect

        signature = str(inspect.signature(func))
    except (TypeError, ValueError):  # pragma: no cover - builtins
        signature = "(...)"
    return JoinPointShadow(
        module=module,
        cls=cls_name,
        name=func.__name__,
        tags=frozenset(tags),
        signature=signature,
    )
