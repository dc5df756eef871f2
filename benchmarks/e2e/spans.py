"""Benchmark-side span tracer: wraps the layers' public functions.

The platform is not edited; a traced run replaces the functions named in
``LAYER_FUNCTIONS`` with wrappers that record ``(name, start, end,
parent)`` in memory.  Rules the wrappers keep, each learnt the hard way:

* ``functools.wraps`` on every wrapper: the weaver finds join points by
  the ``__aop_tags__`` in a function's ``__dict__``; a bare wrapper on
  ``Env.refresh`` silently un-weaves the MPI aspect (the run gets 4x
  faster and wrong);
* install before ``Platform.builder()`` -- woven subclasses capture the
  tagged methods when they are built;
* rebind by-name imports too (``dsl/base.py`` does ``from ..memory.mmat
  import compile_offsets_plan``);
* never wrap ``aspects/*`` advice (the weaver collects advice by
  attribute); their time shows up as the self time of the ``app.step`` /
  ``app.warmup`` spans the timed application opens around each step;
* wrap ``allreduce``, not ``allreduce_and`` (the latter calls the former).

Only rank 0 in the launching process is recorded: forked ranks switch the
tracer off, other ranks' threads are skipped.  Helper threads that run
without a task scope (the process transport's receiver, the threads
backend's fetchers) report as rank 0 too; their spans count as busy time
but are kept off the timeline, so they never enter a self-time sum that
is compared with wall-clock.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, owner class or None for a module-level function, attribute, span name)
LAYER_FUNCTIONS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.aop.weaver", "Weaver", "weave_class", "aop.weave_class"),
    ("repro.aop.weaver", "Weaver", "weave_function", "aop.weave_function"),
    ("repro.dsl.base", "DslTarget", "initialize", "dsl.initialize"),
    ("repro.dsl.sgrid", "SGrid2DTarget", "finalize", "dsl.finalize"),
    ("repro.dsl.usgrid", "USGrid2DTarget", "finalize", "dsl.finalize"),
    ("repro.dsl.base", "BlockKernel", "sweep", "dsl.sweep"),
    ("repro.dsl.base", "BlockKernel", "gather", "dsl.gather"),
    ("repro.dsl.base", "BlockKernel", "gather_global", "dsl.gather_global"),
    ("repro.dsl.base", "BlockKernel", "scatter", "dsl.scatter"),
    ("repro.memory.mmat", None, "compile_offsets_plan", "memory.compile_offsets_plan"),
    ("repro.memory.mmat", None, "compile_address_plan", "memory.compile_address_plan"),
    ("repro.memory.mmat", "AccessPlan", "execute", "memory.plan_execute"),
    ("repro.memory.env", "Env", "dense_read", "memory.dense_read"),
    ("repro.memory.env", "Env", "refresh", "memory.env_refresh"),
    ("repro.memory.env", "Env", "page_install_many", "memory.page_install_many"),
    ("repro.memory.env", "Env", "page_export", "memory.page_export"),
    ("repro.kernels.fused", None, "fused_kernel_for", "kernels.fuse"),
    ("repro.runtime.backends.base", "CommHandle", "wait", "runtime.comm_wait"),
)

#: Methods wrapped on every execution world class that defines them.
WORLD_METHODS: Tuple[Tuple[str, str], ...] = (
    ("run_spmd", "runtime.run_spmd"),
    ("commit_registration", "runtime.commit_registration"),
    ("finalize", "runtime.finalize"),
    ("barrier", "runtime.barrier"),
    ("allreduce", "runtime.allreduce"),
    ("fetch_pages_bulk", "runtime.fetch_pages_bulk"),
    ("fetch_pages_bulk_async", "runtime.fetch_pages_bulk_async"),
)

#: Spans the timed application opens itself (see ``workloads.TimedApp``).
APP_SPANS = ("app.warmup", "app.step")

SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys([s for *_, s in LAYER_FUNCTIONS] + [s for _, s in WORLD_METHODS])
)
#: What every span ``X`` reports as ``X.<field>``, with units.
SPAN_FIELDS = {"n": "count", "self_s": "s", "steady_self_s_per_step": "s"}


class Span:
    """One recorded interval; ``parent`` is the span that caused it."""

    __slots__ = ("name", "start", "end", "parent", "timeline")

    def __init__(self, name: str, parent: Optional["Span"], timeline: bool) -> None:
        self.name = name
        self.parent = parent
        self.timeline = timeline
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    """In-memory span recorder for rank 0 of the launching process."""

    def __init__(self) -> None:
        from repro.runtime.task import current_task

        self._current_task = current_task
        self.spans: List[Span] = []
        self.enabled = True
        self._main = threading.get_ident()
        self._main_stack: List[Span] = []
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _begin(self, name: str) -> Optional[Tuple[List[Span], Span]]:
        task = self._current_task()
        if not self.enabled or task.mpi_rank != 0:
            return None
        if threading.get_ident() == self._main:
            stack, timeline = self._main_stack, True
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            # A thread with a task scope is rank 0's own thread (threads
            # backend); one without is a transport helper.
            timeline = task.mpi_size > 1
        if stack:
            parent = stack[-1]
        elif timeline and self._main_stack:
            # Rank 0's thread was started by the span open on the main
            # thread (``run_spmd``), which is blocked joining it.
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(name, parent, timeline)
        self.spans.append(span)
        stack.append(span)
        return stack, span

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        opened = self._begin(name)
        try:
            yield
        finally:
            if opened is not None:
                stack, span = opened
                span.end = time.perf_counter()
                stack.pop()

    def wrap(self, func: Callable, name: str) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            opened = self._begin(name)
            if opened is None:
                return func(*args, **kwargs)
            stack, span = opened
            try:
                return func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer function; call before ``Platform.builder()``."""
        import importlib

        for module_name, owner, attr, name in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            if owner is not None:
                cls = getattr(module, owner)
                setattr(cls, attr, self.wrap(vars(cls)[attr], name))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and (
                    getattr(other, attr, None) is original
                ):
                    setattr(other, attr, wrapped)

        from repro.runtime.backends import get_backend
        from repro.runtime.backends.base import ExecutionWorld

        for backend in ("serial", "threads", "process"):
            get_backend(backend)  # imports the module that defines its world
        worlds, pending = [], [ExecutionWorld]
        while pending:
            cls = pending.pop()
            worlds.append(cls)
            pending.extend(cls.__subclasses__())
        for cls in worlds:
            for attr, name in WORLD_METHODS:
                func = vars(cls).get(attr)
                if func is not None and not getattr(func, "__isabstractmethod__", False):
                    setattr(cls, attr, self.wrap(func, name))

    # ------------------------------------------------------------------
    def layer_table(self, steady: Tuple[float, float], steps: int) -> Dict[str, float]:
        """Per-span ``n`` / ``self_s`` / ``steady_self_s_per_step`` plus the
        residuals and the timeline's total self time.

        A span's self time is its duration minus its direct children's;
        it is *steady* when it starts inside the ``steady`` window (after
        the cold steps, before the end of the last step).
        """
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                children[key] = children.get(key, 0.0) + (span.end - span.start)
        table = {f"{name}.{field}": 0.0 for name in SPAN_NAMES for field in SPAN_FIELDS}
        residual = {name: 0.0 for name in APP_SPANS}
        timeline_self = 0.0
        lo, hi = steady
        for span in self.spans:
            own = (span.end - span.start) - children.get(id(span), 0.0)
            if span.timeline:
                timeline_self += own
            in_steady = lo <= span.start < hi
            if span.name in residual:
                if span.name == "app.warmup" or in_steady:
                    residual[span.name] += own
                continue
            table[f"{span.name}.n"] += 1
            table[f"{span.name}.self_s"] += own
            if in_steady:
                table[f"{span.name}.steady_self_s_per_step"] += own / steps
        table["aspects.step_residual_s"] = residual["app.step"] / steps
        table["aspects.warmup_residual_s"] = residual["app.warmup"]
        table["timeline_self_s"] = timeline_self
        return table
