"""Annotation Library: the virtual class end-user applications inherit.

"In the virtual class provided by the annotation library, three
functions are defined: Initialize, Processing, and Finalize. […] In
turn, the platform executes these three functions in the class
implemented by end-users by inheriting the virtual class." (§III-B5)

The class also provides the two step-loop helpers the paper's Listing 1
uses (``WarmUp(Kernel)`` and ``Run(Kernel)``): a *kernel* is a callable
taking a single boolean ``warmup`` argument and returning the value of
``env.refresh`` — ``run`` re-executes the kernel until the refresh
succeeds, ``warm_up`` executes it in dry-run mode to collect the
communication pattern (and clears MMAT first, as the paper specifies).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..aop.registry import (
    TAG_ASSIGN_BLOCKS,
    TAG_FINALIZE,
    TAG_FORGET_ACCESSES,
    TAG_INITIALIZE,
    TAG_PROCESSING,
    TAG_TARGET,
    annotate,
)
from ..memory.env import Env
from ..runtime.task import current_task
from ..runtime.tracing import global_trace

__all__ = ["TargetApplication", "KernelFn"]

#: A kernel receives ``warmup`` and returns the refresh success flag.
KernelFn = Callable[[bool], bool]


@annotate(TAG_TARGET)
class TargetApplication:
    """Virtual base class of every application running on the platform.

    End users (or, one level below, DSL developers) subclass this and
    implement :meth:`initialize`, :meth:`processing` and
    :meth:`finalize`.  The :class:`~repro.annotation.driver.Platform`
    executes the three in order, after weaving the selected aspect
    modules into the class.
    """

    #: Safety bound on step re-execution (a step failing more often than
    #: this indicates a communication bug rather than missing data).
    MAX_STEP_RETRIES = 8
    #: Safety bound on warm-up passes.
    MAX_WARMUP_PASSES = 8

    def __init__(self, config: Optional[dict] = None) -> None:
        self.config: dict = dict(config or {})
        #: Set by the Platform before ``initialize`` runs.
        self.platform = None
        #: The Env built by the DSL layer during ``initialize``.
        self.env: Optional[Env] = None
        #: Result slot: whatever the application wants to expose after the run.
        self.result: Any = None

    # ------------------------------------------------------------------
    # wiring done by the Platform driver
    # ------------------------------------------------------------------
    def bind_platform(self, platform) -> None:
        """Attach the Platform (gives access to the woven Env class, pools, …)."""
        self.platform = platform

    def make_env(self, **kwargs) -> Env:
        """Create an Env using the Platform's (possibly woven) Env class."""
        env_class = Env if self.platform is None else self.platform.env_class
        defaults = {}
        if self.platform is not None:
            defaults["pool_bytes"] = self.platform.pool_bytes
            defaults["mmat_enabled"] = self.platform.mmat
        defaults.update(kwargs)
        env = env_class(**defaults)
        self.env = env
        return env

    @property
    def total_tasks(self) -> int:
        """Total number of leaf tasks of the attached layer hierarchy."""
        if self.platform is None:
            return 1
        return self.platform.total_tasks

    @property
    def task(self):
        """The task context this instance is currently executing under."""
        return current_task()

    # ------------------------------------------------------------------
    # the three functions of the virtual class (join point shadows)
    # ------------------------------------------------------------------
    @annotate(TAG_INITIALIZE)
    def initialize(self) -> None:
        """Initialise the data for the computation domain."""
        raise NotImplementedError

    @annotate(TAG_PROCESSING)
    def processing(self) -> None:
        """Perform the steps of the calculation."""
        raise NotImplementedError

    @annotate(TAG_FINALIZE)
    def finalize(self) -> None:
        """Post-process / release resources."""
        # Default: nothing to do.

    @annotate(TAG_ASSIGN_BLOCKS)
    def assign_tasks(self, specs: list) -> list:
        """Deal Block specs to tasks as ``(spec, task_id)`` pairs; a DSL
        layer overrides it (the join point of Block dealing)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # step-loop helpers (Listing 1's WarmUp / Run macros)
    # ------------------------------------------------------------------
    def warm_up(self, kernel: KernelFn) -> None:
        """Dry-run the kernel to gather communication info; clears MMAT first."""
        self.forget_accesses()
        for _ in range(self.MAX_WARMUP_PASSES):
            if kernel(True):
                return
        raise RuntimeError(
            "warm-up did not converge: refresh kept failing, which means the "
            "communication advice never satisfied the kernel's remote accesses"
        )

    @annotate(TAG_FORGET_ACCESSES)
    def forget_accesses(self) -> None:
        """Reset the Env's MMAT at the start of a warm-up: the scalar access
        memo and every compiled plan go (the paper's "previously collected
        information at MMAT is cleared when the warm-up macro is called")
        and are rebuilt by the warm-up passes.  A join point: a
        shared-memory team shares one Env and resets it once per team.
        """
        if self.env is not None:
            self.env.mmat.reset()

    def run(self, kernel: KernelFn) -> None:
        """Execute one step: re-run the kernel until its refresh succeeds.

        The successful attempt's work and traffic deltas are credited to
        the ``productive_*`` trace counters: they represent the
        steady-state cost per step (what dominates a long run), which is
        what the scaling cost model uses.
        """
        trace = global_trace().for_task()
        for attempt in range(self.MAX_STEP_RETRIES):
            before = (trace.updates, trace.bytes_fetched, trace.messages)
            if kernel(False):
                trace.steps += 1
                trace.productive_updates += trace.updates - before[0]
                trace.productive_bytes += trace.bytes_fetched - before[1]
                trace.productive_messages += trace.messages - before[2]
                if attempt:
                    trace.recomputed_steps += attempt
                return
        raise RuntimeError(
            f"step failed {self.MAX_STEP_RETRIES} times in a row; "
            "remote data never became available"
        )
