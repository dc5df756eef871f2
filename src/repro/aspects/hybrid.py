"""A diagnostic aspect woven beside the layer modules.

The paper's platform makes aspect modules *combinable*: "developers can
build DSL processing systems for specific HPC systems by combining AOP
modules corresponding to the target HPC system hierarchy."  The
standard combinations of the evaluation (Fig. 3) are
:data:`repro.annotation.PRESETS`; this module holds
:class:`PhaseTraceAspect`, which composes with any of them.
"""

from __future__ import annotations

from typing import Optional

from ..aop.advice import after_returning, before
from ..aop.aspect import Aspect

__all__ = ["PhaseTraceAspect"]


class PhaseTraceAspect(Aspect):
    """Diagnostic aspect recording the sequence of platform phases.

    Not part of the paper's evaluation; used by the test suite to verify
    that weaving preserves the Initialize → Processing → Finalize order
    and that refresh join points fire, and available to users as a
    template for writing their own aspects (e.g. timers, logging).
    """

    order = 5

    def __init__(self, sink: Optional[list] = None) -> None:
        super().__init__()
        self.events: list = sink if sink is not None else []

    @before("tagged('platform.initialize')")
    def on_initialize(self, jp):
        self.events.append(("initialize", type(jp.target).__name__))

    @before("tagged('platform.processing')")
    def on_processing(self, jp):
        self.events.append(("processing", type(jp.target).__name__))

    @before("tagged('platform.finalize')")
    def on_finalize(self, jp):
        self.events.append(("finalize", type(jp.target).__name__))

    @after_returning("tagged('memory.refresh')")
    def on_refresh(self, jp):
        self.events.append(("refresh", bool(jp.result)))
