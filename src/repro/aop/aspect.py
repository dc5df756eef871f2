"""Aspect base class.

An *aspect module* groups the pointcut/advice pairs that implement one
cross-cutting concern.  In the paper each aspect module corresponds to
one layer of the HPC system (MPI layer, OpenMP layer, ...) and bundles
its AspectType I/II/III advice; the platform-independent machinery —
collecting advice declarations, binding them to the aspect instance,
precedence — lives here.

Usage::

    class TraceAspect(Aspect):
        order = 10                       # precedence (lower = outer)

        @before("tagged('platform.processing')")   # textual pointcut …
        def log_enter(self, jp):
            print("entering", jp.shadow.qualname)

        @before(tagged("platform.finalize"))       # … or a Pointcut object
        def log_done(self, jp):
            print("done")

Aspects are *instantiated* before weaving so they may carry state (the
MPI aspect owns the simulated communicator, the OpenMP aspect owns the
thread team).
"""

from __future__ import annotations

from typing import Any, Dict, List

from .advice import Advice, AdviceKind
from .errors import AspectDefinitionError

__all__ = ["Aspect"]


class Aspect:
    """Base class for aspect modules.

    Subclasses declare advice methods with the decorators from
    :mod:`repro.aop.advice`.  The class attribute :attr:`order` sets
    the aspect's precedence (lower = applied "outside" other aspects).
    """

    #: Aspect precedence; lower values wrap higher values.
    order: int = 100

    #: Human readable name used in diagnostics and bench reports.
    name: str = ""

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__
        #: The Platform this aspect is attached to (set by on_attach).
        self.platform = None

    # ------------------------------------------------------------------
    def advices(self) -> List[Advice]:
        """Collect this aspect's advice, bound to this instance.

        Advice declared on base classes is included (so an aspect module
        may extend another and inherit its advice), with subclasses able
        to override an advice method by redefining it under the same
        name.
        """
        collected: Dict[str, Any] = {}
        for klass in reversed(type(self).__mro__):
            for attr_name, attr in vars(klass).items():
                if hasattr(attr, "__aop_advice__"):
                    collected[attr_name] = attr
        advices: List[Advice] = []
        for attr_name, func in collected.items():
            declarations = getattr(func, "__aop_advice__", ())
            if not declarations:
                continue
            for kind, pointcut, order in declarations:
                if not isinstance(kind, AdviceKind):
                    raise AspectDefinitionError(
                        f"{type(self).__name__}.{attr_name}: bad advice kind {kind!r}"
                    )
                advices.append(
                    Advice(
                        kind=kind,
                        pointcut=pointcut,
                        body=func,
                        order=self.order * 1000 + order,
                        name=f"{self.name}.{attr_name}",
                    ).bind(self)
                )
        if not advices:
            raise AspectDefinitionError(
                f"aspect {type(self).__name__} declares no advice; "
                "did you forget the @before/@after_returning/@around decorators?"
            )
        return advices

    # ------------------------------------------------------------------
    # Lifecycle hooks invoked by the Platform driver (not by the weaver).
    # They let aspect modules allocate/release per-run resources without
    # needing an extra join point on the driver itself.
    def on_attach(self, platform) -> None:
        """Called when the aspect is attached to a Platform (before weaving)."""
        self.platform = platform

    def on_detach(self, platform) -> None:
        """Called when the Platform run finishes."""
        self.platform = None

    def describe(self) -> str:
        """Return a one-line description used in benchmark reports."""
        return f"{self.name}(order={self.order})"
