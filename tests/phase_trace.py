"""Test aspect: records the platform's phases as they fire.

The tests weave :class:`PhaseTraceAspect` beside the layer modules to
check that weaving keeps the Initialize → Processing → Finalize order and
that refresh join points fire.
"""

from __future__ import annotations

from typing import Optional

from repro.aop import Aspect, after_returning, before


class PhaseTraceAspect(Aspect):
    """Appends ``(phase, detail)`` to ``events`` at each platform phase and
    after each refresh."""

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
