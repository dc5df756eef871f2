"""MonitoringAspect: phase spans woven through the platform's own AOP core.

ANTAREX's thesis — separation of *monitoring* concerns from application
code via aspects — is exactly the shape this platform already has, so
the observability layer dogfoods it: the phase timeline is produced by
an ordinary :class:`~repro.aop.aspect.Aspect` woven alongside the
layer modules, not by edits to application code.

The aspect has the lowest ``order`` in the stack (outermost), so its
phase spans *contain* everything the layer aspects add: a ``refresh``
span covers the barrier, the allreduce and the halo exchange the
distributed-memory module wraps around ``Env.refresh``.  Sites no
advice can reach (block-kernel sweeps, the comm receiver thread, the
weaver itself) are instrumented with direct hooks instead; the
README's *Observability* section lists them.
"""

from __future__ import annotations

from ..aop.advice import around
from ..aop.aspect import Aspect
from .spans import global_tracer

__all__ = ["MonitoringAspect"]


class MonitoringAspect(Aspect):
    """Record phase spans around the platform join points.

    Appended automatically by ``Platform(..., tracing=True)``; harmless
    (single flag check per join point) if woven while tracing is off.
    """

    order = 1  # outermost: phase spans contain the layer aspects' work

    @around("tagged('platform.initialize')")
    def time_initialize(self, jp):
        with global_tracer().span("phase.initialize"):
            return jp.proceed()

    @around("tagged('platform.processing')")
    def time_processing(self, jp):
        with global_tracer().span("phase.processing"):
            return jp.proceed()

    @around("tagged('platform.finalize')")
    def time_finalize(self, jp):
        with global_tracer().span("phase.finalize"):
            return jp.proceed()

    @around("tagged('memory.refresh')")
    def time_refresh(self, jp):
        # Warm-up refreshes (MMAT search passes) are a distinct phase in
        # the paper's cost story; apps call ``env.refresh(warmup)``.
        warmup = jp.args[0] if jp.args else jp.kwargs.get("warmup", False)
        with global_tracer().span("refresh.warmup" if warmup else "refresh"):
            return jp.proceed()

    @around("tagged('memory.get_blocks')")
    def time_get_blocks(self, jp):
        with global_tracer().span("memory.get_blocks"):
            return jp.proceed()
