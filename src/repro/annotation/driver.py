"""The Platform driver: weaves aspects and executes applications.

This module plays the role of the paper's build/run pipeline (Fig. 3):

* "Platform" (direct C++ compile)           → ``Platform(transcompile=False)``
* "Platform NOP" (AC++ weave, no aspects)   → ``Platform(aspects=[])``
* "Platform MPI" / "Platform OMP" / hybrid  → ``Platform(aspects=[...])``

``Platform.run(AppClass)`` corresponds to compiling the end-user's
Application Code together with the selected Aspect Modules and running
the resulting binary: the driver weaves the application class and the
Env class, wraps its own execution entry point (the ``main`` join
point, AspectType I's pointcut), and then runs Initialize → Processing
→ Finalize.

Three equivalent ways to obtain a configured Platform:

* the original constructor — ``Platform(aspects=hybrid_aspects(4, 2))``;
* the fluent builder — ``Platform.builder().mpi(4).omp(2).mmat().build()``;
* a named preset reproducing one of Fig. 3's configurations —
  ``Platform.preset("hybrid", ranks=4, threads=2)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Type

from ..aop.aspect import Aspect
from ..aop.registry import TAG_ENTRY
from ..aop.weaver import Weaver
from ..memory.env import Env, EnvStats
from ..obs import (
    MonitoringAspect,
    env_tracing_default,
    global_metrics,
    global_tracer,
    phase_report,
    save_chrome_trace,
    widest_spans,
)
from ..runtime.machine import OAKBRIDGE_CX_LIKE, MachineSpec
from ..runtime.tracing import TaskCounters, global_trace
from .target import TargetApplication

__all__ = ["Platform", "PlatformBuilder", "PlatformRun", "PRESETS"]


@dataclass
class PlatformRun:
    """Everything a benchmark needs to know about one platform execution."""

    #: The application instance of the master task (rank 0 / thread 0).
    app: TargetApplication
    #: Wall-clock of the whole run (seconds, measured with perf_counter).
    elapsed: float
    #: Per-task work/traffic counters captured during the run.
    counters: Dict[tuple, TaskCounters] = field(default_factory=dict)
    #: Env statistics of the master task's Env.
    env_stats: Optional[EnvStats] = None
    #: Aggregate network traffic (empty when no distributed layer attached).
    network: dict = field(default_factory=dict)
    #: Parallelism of the run, e.g. {"mpi": 4, "omp": 2}.
    layers: Dict[str, int] = field(default_factory=dict)
    #: Memory report of the master task's Env (Fig. 12).
    memory: dict = field(default_factory=dict)
    #: Whether the run went through the weaver ("Platform NOP" and up);
    #: False for the plain "Platform" (serial) configuration.
    transcompiled: bool = False
    #: Name of the execution backend that ran the distributed layer
    #: ("serial" | "threads" | "process" | custom); None when no
    #: distributed-memory world was created.
    backend: Optional[str] = None
    #: MMAT / access-plan statistics of the master task's Env
    #: (``MMAT.stats()``: memo hit-rate, compiled plans, coverage).
    mmat_stats: dict = field(default_factory=dict)
    #: Whether the run was traced (``Platform(tracing=True)`` / REPRO_TRACE).
    tracing: bool = False
    #: Span events captured during a traced run (epoch-aligned dicts,
    #: see :meth:`repro.obs.Tracer.snapshot`); empty when not tracing.
    span_events: List[dict] = field(default_factory=list)
    #: Metrics snapshot of a traced run (``MetricsRegistry.snapshot()``
    #: shape: histograms with p50/p95/p99 + counters, per rank and overall).
    metric_data: dict = field(default_factory=dict)
    #: Recovery events of a resilient run: one entry per diagnosed rank
    #: failure (:class:`repro.resilience.RecoveryEvent`); empty when no
    #: resilience policy was configured or nothing failed.
    recovery_events: List[Any] = field(default_factory=list)

    @property
    def result(self) -> Any:
        """The application's declared result (``app.result``)."""
        return self.app.result

    @property
    def restarts(self) -> int:
        """How many times the world was rebuilt after a diagnosed failure."""
        return len(self.recovery_events)

    def recovery_report(self) -> str:
        """Human-readable recovery summary (one line per diagnosed failure)."""
        if not self.recovery_events:
            return "no failures recovered"
        return "\n".join(event.summary() for event in self.recovery_events)

    # -- observability ---------------------------------------------------
    def timeline(self) -> List[dict]:
        """The traced span events, sorted by start time.

        Each event is a dict with ``ph`` (``"X"`` complete span or
        ``"b"``/``"e"`` async begin/end), ``name``, ``ts_ns``, ``rank``,
        ``thread`` and (for complete spans) ``dur_ns`` and the
        flamegraph ``path``.  Empty unless the run was traced.
        """
        return sorted(self.span_events, key=lambda e: e["ts_ns"])

    def metrics(self) -> dict:
        """Metric snapshot of the run: named histograms and counters.

        Shape: ``{"histograms": {name: {"all": stats, "per_rank":
        {rank: stats}}}, "counters": ...}`` where stats carry count,
        sum, mean, min/max and p50/p95/p99.  Empty unless traced.
        """
        return self.metric_data

    def save_trace(self, path: str) -> str:
        """Write the run's Chrome trace-event JSON to ``path``.

        The file loads in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``: one process track per rank, one thread
        track per (rank, thread), async halo flights as arrows.
        """
        if not self.span_events:
            raise ValueError(
                "no span events recorded — run the platform with tracing "
                "enabled (Platform(tracing=True) or REPRO_TRACE=1)"
            )
        return save_chrome_trace(
            path,
            self.span_events,
            metadata={"backend": self.backend, "layers": dict(self.layers)},
        )

    def phase_report(self, *, limit: Optional[int] = None) -> str:
        """Plain-text flamegraph-style phase table of the traced run."""
        return phase_report(self.span_events, limit=limit)

    def widest_spans(self, n: int = 5) -> Dict[int, List[dict]]:
        """Top-``n`` longest spans per rank (duration descending)."""
        return widest_spans(self.span_events, n)

    def imbalance(self) -> dict:
        """Per-rank load-imbalance summary: max/mean updates and halo wait.

        Updates come from the task counters; wait time prefers the
        traced ``halo.wait_ns`` histogram (per-rank observations) and
        falls back to the ``overlap_wait_ns`` counters, so the figure is
        available with or without tracing.  Ratios are ``max/mean``
        (1.0 = perfectly balanced).
        """
        updates: Dict[int, float] = {}
        wait: Dict[int, float] = {}
        for (rank, _thread), counters in self.counters.items():
            updates[rank] = updates.get(rank, 0) + counters.updates
            wait[rank] = wait.get(rank, 0) + counters.overlap_wait_ns
        wait_hist = (self.metric_data.get("histograms") or {}).get("halo.wait_ns")
        if wait_hist:
            wait = {rank: s["sum"] for rank, s in wait_hist["per_rank"].items()}

        def stats(values: Dict[int, float]) -> tuple:
            if not values:
                return 0.0, 0.0, 1.0
            peak = max(values.values())
            mean = sum(values.values()) / len(values)
            return peak, mean, (peak / mean if mean else 1.0)

        updates_max, updates_mean, updates_ratio = stats(updates)
        wait_max, wait_mean, wait_ratio = stats(wait)
        return {
            "ranks": len(updates),
            "updates_max": updates_max,
            "updates_mean": updates_mean,
            "updates_imbalance": updates_ratio,
            "wait_max_ns": wait_max,
            "wait_mean_ns": wait_mean,
            "wait_imbalance": wait_ratio,
        }

    def summary(self) -> str:
        """One-line report of the run, for benchmark tables and logs.

        Example::

            mpi=2,omp=2 tasks=4 elapsed=0.041s steps=8 updates=4096
            fetched=12pg/3.1KiB collectives=10 plans=16/7680sites vec=100% img=pool asm=4
            tiles=2×8(budget) comm=2ex/12pg agg=6.0x saved=20msg push=6ex/192sites links=2
        """
        layers = ",".join(f"{k}={v}" for k, v in sorted(self.layers.items()))
        if not layers:
            layers = "nop" if self.transcompiled else "serial"
        if self.backend is not None:
            layers += f" backend={self.backend}"
        tasks = max(len(self.counters), 1)
        steps = sum(c.steps for c in self.counters.values())
        updates = sum(c.updates for c in self.counters.values())
        pages = sum(c.pages_fetched for c in self.counters.values())
        nbytes = sum(c.bytes_fetched for c in self.counters.values())
        collectives = sum(c.collectives for c in self.counters.values())
        line = (
            f"{layers} tasks={tasks} elapsed={self.elapsed:.3f}s "
            f"steps={steps} updates={updates} "
            f"fetched={pages}pg/{nbytes / 1024:.1f}KiB collectives={collectives}"
        )
        plan_sites = sum(c.plan_sites for c in self.counters.values())
        fallback = sum(c.plan_fallback_sites for c in self.counters.values())
        if plan_sites or fallback:
            # Summed trace counters, like plan_sites: mmat_stats covers
            # only the master rank's Env and would under-count plans on
            # multi-rank runs.
            plans = sum(c.plan_compiles for c in self.counters.values())
            vectorized = plan_sites / (plan_sites + fallback)
            line += f" plans={plans}/{plan_sites}sites vec={vectorized:.0%}"
            # Per-call (uncached) gather_global compiles are not part of
            # the cached-plan coverage; report them as their own count.
            uncached = sum(c.plan_compiles_uncached for c in self.counters.values())
            if uncached:
                line += f" dyn={uncached}"
            if fallback:
                line += f" fallback={fallback}"
            if self.env_stats is not None:
                # The master rank's owned image is the page memory (anything
                # but ``pool`` is a bug), how often and why its rows moved,
                # Buffer-only Blocks copied into the halo mirror.
                stats = self.env_stats
                line += " img=" + ("DETACHED" if self.memory.get("image_error") else "pool")
                if stats.image_rehomes:
                    line += f" rehomes={stats.image_rehomes}(late block {stats.rehomes_late_block},"
                    line += f" class grew {stats.rehomes_class_grew})"
                line += f" asm={stats.dense_assemblies}"
        fused_calls = sum(c.kernel_fused_calls for c in self.counters.values())
        if fused_calls:
            fusions = sum(c.kernel_fuse for c in self.counters.values())
            line += f" fused={fused_calls}calls/{fusions}kern"
        tiles = self.mmat_stats.get("tiles")
        if tiles:
            # The master rank's tiles x Blocks per tile, and why tiles end.
            why = ", ".join(sorted(self.mmat_stats["tile_splits"]))
            line += f" tiles={tiles}×{self.mmat_stats['tile_blocks'] / tiles:g}"
            line += f"({why})" if why else ""
        line += self._comm_plan_summary()
        line += self._overlap_summary()
        line += self._shm_summary()
        line += self._imbalance_summary()
        return line

    def _imbalance_summary(self) -> str:
        """The ``imb=…`` section of :meth:`summary` (per-rank skew).

        Shows the max/mean ratio of element updates and halo wait time
        across ranks (1.00x = perfectly balanced); omitted for
        single-rank runs where the ratio is definitionally 1.
        """
        imbalance = self.imbalance()
        if imbalance["ranks"] <= 1:
            return ""
        part = f" imb=upd:{imbalance['updates_imbalance']:.2f}x"
        if imbalance["wait_mean_ns"]:
            part += f",wait:{imbalance['wait_imbalance']:.2f}x"
        return part

    def _comm_plan_summary(self) -> str:
        """The ``comm=…`` section of :meth:`summary` (halo traffic by protocol).

        Reports how many bulk page exchanges moved how many halo pages,
        the aggregation ratio (pages per message pair), the number of
        request/reply message pairs saved against one pair per page,
        how many halo slots the owners published with how many element
        rows (``push=``), and the number of directed neighbor links the
        run exercised.  ``open:`` names why steps of a run that can
        publish went through the page exchange instead.
        """
        exchanges = sum(c.comm_plan_exchanges for c in self.counters.values())
        pages = sum(c.comm_plan_pages for c in self.counters.values())
        pushes = self.network.get("halo_pushes", 0)
        if not exchanges and not pushes:
            return ""
        part = " comm="
        if exchanges:
            ratio = pages / exchanges
            saved = 2 * (pages - exchanges)
            part += f"{exchanges}ex/{pages}pg agg={ratio:.1f}x saved={saved}msg"
        if pushes:
            part += f"{' ' if exchanges else ''}push={pushes}ex/{self.network['halo_sites']}sites"
        neighbors = self.comm_neighbor_links()
        if neighbors:
            part += f" links={neighbors}"
        open_steps = self.network.get("open_steps") or {}
        if open_steps:
            part += " open: " + ", ".join(
                f"{reason} x{count}" for reason, count in sorted(open_steps.items())
            )
        return part

    def _overlap_summary(self) -> str:
        """The ``overlap=…`` section of :meth:`summary` (hidden halo latency).

        Reports how many page exchanges ran, the overlap efficiency (the
        fraction of the halo flight time that hid behind interior
        computation, ``1 - wait/flight``), and how many exchanges were
        merely drained at a synchronisation point (no compute overlapped
        them).
        """
        exchanges = sum(c.comm_plan_exchanges for c in self.counters.values())
        if not exchanges:
            return ""
        part = f" overlap={exchanges}ex eff={self.overlap_efficiency():.0%}"
        drained = sum(c.overlap_drained for c in self.counters.values())
        if drained:
            part += f" drained={drained}"
        return part

    def _shm_summary(self) -> str:
        """The ``shm=…`` section of :meth:`summary` (zero-copy data plane).

        Reports how many pages arrived as shared-memory descriptors and
        how many bytes therefore never crossed a pipe; present only when
        the process backend ran with the shm page transport.  A
        ``fallback=…`` tail counts pages that had to take the packed
        pipe path while in shm mode (object dtype or empty pages).
        """
        fetches = sum(c.shm_fetches for c in self.counters.values())
        if not fetches:
            return ""
        nbytes = sum(c.shm_bytes for c in self.counters.values())
        part = f" shm={fetches}pg/{nbytes / 1024:.1f}KiB"
        fallbacks = sum(c.shm_fallbacks for c in self.counters.values())
        if fallbacks:
            part += f" fallback={fallbacks}pg"
        return part

    def overlap_efficiency(self) -> float:
        """Fraction of the overlapped halo flight time hidden behind compute.

        ``1.0`` means every exchange had fully completed by the time a
        sweep waited on it (the whole round-trip hid behind interior
        computation); ``0.0`` means every wait blocked for the full
        flight time — or that no overlapped exchange ran at all.
        """
        wait = sum(c.overlap_wait_ns for c in self.counters.values())
        flight = sum(c.overlap_flight_ns for c in self.counters.values())
        return 1.0 - wait / flight if flight else 0.0

    def comm_neighbor_links(self) -> int:
        """Directed rank pairs that exchanged page traffic (0 when untracked)."""
        per_neighbor = self.network.get("per_neighbor") or {}
        return len(per_neighbor)

    def comm_aggregation_ratio(self) -> float:
        """Average pages moved per bulk page exchange (0.0 when none ran)."""
        exchanges = sum(c.comm_plan_exchanges for c in self.counters.values())
        pages = sum(c.comm_plan_pages for c in self.counters.values())
        return pages / exchanges if exchanges else 0.0


class PlatformBuilder:
    """Fluent builder for :class:`Platform` configurations.

    Every method returns the builder, so a full configuration reads as
    one chain::

        platform = (Platform.builder()
                    .mpi(4).omp(2)
                    .mmat()
                    .pool_bytes(32 * 1024 * 1024)
                    .aspect(StepTimerAspect())
                    .build())

    ``build()`` may be called repeatedly; each call produces a fresh
    Platform.  Layer aspects added via :meth:`mpi`/:meth:`omp` are
    instantiated *per build* (layer modules are stateful), whereas an
    instance handed to :meth:`aspect` is attached as-is — sharing that
    instance between several built platforms is the caller's
    responsibility.
    """

    def __init__(self) -> None:
        #: Factories producing the aspect stack; None means "no
        #: transcompilation requested", [] means "Platform NOP".
        self._aspect_factories: Optional[List[Any]] = None
        self._mmat = False
        self._pool_bytes: Optional[int] = None
        self._machine: Optional[MachineSpec] = None
        self._transcompile: Optional[bool] = None
        self._backend: Optional[str] = None
        self._tracing: Optional[bool] = None
        self._resilience: Any = None
        self._comm_timeout: Optional[float] = None

    # -- layers ---------------------------------------------------------
    def _factories(self) -> List[Any]:
        if self._aspect_factories is None:
            self._aspect_factories = []
        return self._aspect_factories

    def aspect(self, aspect: Aspect) -> "PlatformBuilder":
        """Attach one aspect module instance (custom or platform)."""
        if not isinstance(aspect, Aspect):
            raise TypeError(f"aspect() expects an Aspect instance, got {aspect!r}")
        self._factories().append(lambda: aspect)
        return self

    def aspects(self, aspects: Sequence[Aspect]) -> "PlatformBuilder":
        """Attach several aspect module instances at once."""
        for aspect in aspects:
            self.aspect(aspect)
        return self

    def mpi(self, ranks: int, **kwargs: Any) -> "PlatformBuilder":
        """Attach the distributed-memory layer with ``ranks`` processes."""
        from ..aspects.mpi_aspect import DistributedMemoryAspect

        self._factories().append(
            lambda: DistributedMemoryAspect(processes=ranks, **kwargs)
        )
        return self

    def omp(self, threads: int, **kwargs: Any) -> "PlatformBuilder":
        """Attach the shared-memory layer with ``threads`` threads."""
        from ..aspects.openmp_aspect import SharedMemoryAspect

        self._factories().append(lambda: SharedMemoryAspect(threads=threads, **kwargs))
        return self

    def nop(self) -> "PlatformBuilder":
        """Transcompile with no aspect modules (the paper's "Platform NOP")."""
        self._factories()
        return self

    # -- knobs ----------------------------------------------------------
    def mmat(self, enabled: bool = True) -> "PlatformBuilder":
        """Enable (or disable) MMAT on every Env the application builds."""
        self._mmat = bool(enabled)
        return self

    def pool_bytes(self, nbytes: int) -> "PlatformBuilder":
        """Size of the memory pool backing each Env."""
        self._pool_bytes = int(nbytes)
        return self

    def machine(self, spec: MachineSpec) -> "PlatformBuilder":
        """Machine description used by the benchmarks' cost model."""
        self._machine = spec
        return self

    def transcompile(self, enabled: bool = True) -> "PlatformBuilder":
        """Force the transcompile decision instead of inferring it."""
        self._transcompile = bool(enabled)
        return self

    def backend(self, name: str) -> "PlatformBuilder":
        """Execution backend for the distributed-memory layer.

        ``"serial"`` runs inline, ``"threads"`` is the simulated runtime
        (default), ``"process"`` forks one real process per rank; custom
        backends registered via
        :func:`repro.runtime.backends.register_backend` are accepted by
        name.  The name is validated at :meth:`build` time.
        """
        self._backend = str(name)
        return self

    def tracing(self, enabled: bool = True) -> "PlatformBuilder":
        """Record a span timeline + metrics for every run of the platform.

        Traced runs expose ``run.timeline()`` / ``run.metrics()`` /
        ``run.save_trace(path)``; overhead on untraced paths is a
        single flag check per instrumentation site.
        """
        self._tracing = bool(enabled)
        return self

    def resilience(self, policy: Any = True) -> "PlatformBuilder":
        """Make runs elastic under rank failure (checkpoints + recovery).

        ``policy`` is a :class:`repro.resilience.ResiliencePolicy` (or
        ``True`` for the defaults: checkpoint every epoch, up to two
        restarts, auto-selected store).  Weaves a
        :class:`~repro.resilience.CheckpointAspect` and delegates the
        distributed world lifecycle to a recovery manager that shrinks
        the world and resumes from the last checkpoint epoch after a
        diagnosed rank death.
        """
        self._resilience = policy
        return self

    def comm_timeout(self, seconds: float) -> "PlatformBuilder":
        """Communication timeout of the distributed layer's world.

        Forwarded to ``create_world(timeout=)`` for every backend;
        bounds how long collectives and page waits may block — and
        therefore how long a dead rank can go undetected.
        """
        self._comm_timeout = float(seconds)
        return self

    # -- terminal -------------------------------------------------------
    def build(self) -> "Platform":
        """Materialise the configured :class:`Platform` (weaves Env).

        Only knobs that were explicitly set are forwarded, so builder
        output always tracks ``Platform.__init__``'s own defaults.
        """
        kwargs: Dict[str, Any] = {"mmat": self._mmat}
        if self._pool_bytes is not None:
            kwargs["env_pool_bytes"] = self._pool_bytes
        if self._machine is not None:
            kwargs["machine"] = self._machine
        if self._transcompile is not None:
            kwargs["transcompile"] = self._transcompile
        if self._backend is not None:
            kwargs["backend"] = self._backend
        if self._tracing is not None:
            kwargs["tracing"] = self._tracing
        if self._resilience is not None:
            kwargs["resilience"] = self._resilience
        if self._comm_timeout is not None:
            kwargs["comm_timeout"] = self._comm_timeout
        aspects = None
        if self._aspect_factories is not None:
            aspects = [factory() for factory in self._aspect_factories]
        return Platform(aspects=aspects, **kwargs)

    def run(
        self, app_cls: Type[TargetApplication], *, config: Optional[dict] = None
    ) -> PlatformRun:
        """Shorthand for ``builder.build().run(app_cls, config=config)``."""
        return self.build().run(app_cls, config=config)


def _preset_serial(builder: PlatformBuilder, ranks: int, threads: int) -> None:
    if ranks != 1 or threads != 1:
        raise ValueError("the 'serial' preset runs exactly one task")


def _preset_nop(builder: PlatformBuilder, ranks: int, threads: int) -> None:
    if ranks != 1 or threads != 1:
        raise ValueError("the 'nop' preset runs exactly one task")
    builder.nop()


def _preset_mpi(builder: PlatformBuilder, ranks: int, threads: int) -> None:
    if threads != 1:
        raise ValueError("the 'mpi' preset takes only ranks; use 'hybrid' for threads")
    builder.mpi(ranks)


def _preset_omp(builder: PlatformBuilder, ranks: int, threads: int) -> None:
    if ranks != 1:
        raise ValueError("the 'omp' preset takes only threads; use 'hybrid' for ranks")
    builder.omp(threads)


def _preset_hybrid(builder: PlatformBuilder, ranks: int, threads: int) -> None:
    # List order is cosmetic; nesting is fixed by each aspect's `order`
    # (shared-memory outside distributed-memory, see aspects/hybrid.py).
    builder.omp(threads).mpi(ranks)


#: Named presets reproducing the paper's Fig. 3 build configurations.
PRESETS = {
    "serial": _preset_serial,
    "nop": _preset_nop,
    "mpi": _preset_mpi,
    "omp": _preset_omp,
    "hybrid": _preset_hybrid,
}


class Platform:
    """Builds (weaves) and executes platform applications.

    Parameters
    ----------
    aspects:
        Aspect module instances to weave, ordered by their own
        precedence.  ``None`` (the default) means "do not transcompile
        at all" — the application runs exactly as written, which is the
        paper's plain "Platform" configuration.  An empty list means
        "transcompile with no aspect modules" ("Platform NOP").
    mmat:
        Enable MMAT on every Env the application builds.
    env_pool_bytes:
        Size of the memory pool backing each Env.
    machine:
        Machine description used by benchmarks' cost model (not used for
        functional execution).
    backend:
        Execution backend the distributed-memory layer should use
        (``"serial"`` | ``"threads"`` | ``"process"`` | a registered
        custom backend).  ``None`` lets each layer aspect decide (the
        default is the ``threads`` simulation).
    tracing:
        Record a span timeline and metrics for every run
        (:mod:`repro.obs`); adds a :class:`~repro.obs.MonitoringAspect`
        to transcompiled stacks.  ``None`` (default) defers to the
        ``REPRO_TRACE`` environment variable; tracing is otherwise off.
    """

    def __init__(
        self,
        aspects: Optional[Sequence[Aspect]] = None,
        *,
        mmat: bool = False,
        env_pool_bytes: int = 64 * 1024 * 1024,
        machine: MachineSpec = OAKBRIDGE_CX_LIKE,
        transcompile: Optional[bool] = None,
        backend: Optional[str] = None,
        tracing: Optional[bool] = None,
        resilience: Any = None,
        comm_timeout: Optional[float] = None,
    ) -> None:
        if transcompile is None:
            transcompile = aspects is not None
        if tracing is None:
            tracing = env_tracing_default()
        self.tracing = bool(tracing)
        if backend is not None:
            from ..runtime.backends import BackendError, get_backend

            try:
                get_backend(backend)
            except BackendError as exc:
                raise ValueError(str(exc)) from None
        self.backend = backend
        self.transcompile = transcompile
        #: Communication timeout (seconds) forwarded to the distributed
        #: layer's ``create_world(timeout=)``; None keeps the 60s default.
        self.comm_timeout = None if comm_timeout is None else float(comm_timeout)
        self.aspects: List[Aspect] = list(aspects or [])
        if self.tracing and self.transcompile:
            # Dogfood the AOP core: phase spans come from an ordinary
            # aspect woven with the stack (lowest order ⇒ outermost).
            self.aspects.append(MonitoringAspect())
        #: Recovery manager of a resilient platform (None otherwise).
        self.resilience = None
        if resilience is not None and resilience is not False:
            if not self.transcompile:
                raise ValueError(
                    "resilience requires a transcompiled platform "
                    "(checkpoints are woven as an aspect module)"
                )
            from ..resilience import CheckpointAspect, RecoveryManager, ResiliencePolicy

            policy = ResiliencePolicy() if resilience is True else resilience
            self.resilience = RecoveryManager(policy)
            self.aspects.append(CheckpointAspect(self.resilience))
        self.mmat_enabled = bool(mmat)
        self.env_pool_bytes = int(env_pool_bytes)
        self.machine = machine
        #: Shared scratch space aspect modules use to exchange run-level
        #: objects (e.g. the MPI world), keyed by aspect-defined names.
        self.context: Dict[str, Any] = {}

        if self.transcompile:
            self.weaver: Optional[Weaver] = Weaver(self.aspects)
            self.env_class: Type[Env] = self.weaver.weave_class(Env)
        else:
            if self.aspects:
                raise ValueError(
                    "aspect modules require transcompilation; "
                    "pass transcompile=True (or leave it unset)"
                )
            self.weaver = None
            self.env_class = Env

    # ------------------------------------------------------------------
    # construction sugar
    # ------------------------------------------------------------------
    @classmethod
    def builder(cls) -> PlatformBuilder:
        """Start a fluent :class:`PlatformBuilder` chain."""
        return PlatformBuilder()

    @classmethod
    def preset(
        cls,
        name: str,
        *,
        ranks: int = 1,
        threads: int = 1,
        mmat: bool = False,
        pool_bytes: Optional[int] = None,
        machine: Optional[MachineSpec] = None,
        backend: Optional[str] = None,
        mpi: Optional[int] = None,
        omp: Optional[int] = None,
        tracing: Optional[bool] = None,
    ) -> "Platform":
        """Build one of the paper's named configurations (Fig. 3).

        ===========  ====================================================
        ``serial``   no transcompilation at all ("Platform")
        ``nop``      transcompiled, no aspect modules ("Platform NOP")
        ``mpi``      distributed-memory layer, ``ranks`` processes
        ``omp``      shared-memory layer, ``threads`` threads
        ``hybrid``   both layers, ``ranks`` × ``threads`` tasks
        ===========  ====================================================

        ``mpi``/``omp`` are layer-named aliases of ``ranks``/``threads``
        (``Platform.preset("mpi", mpi=2)``), and ``backend`` selects the
        execution backend of the distributed layer
        (``Platform.preset("mpi", mpi=2, backend="process")``).
        """
        configure = PRESETS.get(name)
        if configure is None:
            raise ValueError(
                f"unknown platform preset {name!r} "
                f"(expected one of: {', '.join(sorted(PRESETS))})"
            )
        if mpi is not None:
            ranks = mpi
        if omp is not None:
            threads = omp
        builder = cls.builder().mmat(mmat)
        if pool_bytes is not None:
            builder.pool_bytes(pool_bytes)
        if machine is not None:
            builder.machine(machine)
        if backend is not None:
            builder.backend(backend)
        if tracing is not None:
            builder.tracing(tracing)
        configure(builder, int(ranks), int(threads))
        return builder.build()

    # ------------------------------------------------------------------
    @property
    def total_tasks(self) -> int:
        """Total task count: the product of every layer's parallelism."""
        total = 1
        for aspect in self.aspects:
            total *= getattr(aspect, "parallelism", 1)
        return total

    def layer_parallelism(self) -> Dict[str, int]:
        """Map of layer name (``"mpi"``, ``"omp"``, …) to its parallelism."""
        layers: Dict[str, int] = {}
        for aspect in self.aspects:
            layer = getattr(aspect, "layer", None)
            if layer:
                layers[layer] = getattr(aspect, "parallelism", 1)
        return layers

    def parallelism_of(self, layer: str) -> int:
        """Parallelism of one layer; 1 when the layer is not woven."""
        return self.layer_parallelism().get(layer, 1)

    # ------------------------------------------------------------------
    def build(self, app_cls: Type[TargetApplication]) -> Type[TargetApplication]:
        """Weave (or pass through) the application class.

        Corresponds to the compile/transcompile step of Fig. 3; exposed
        separately so the binary-size benchmark (Table I) can inspect
        the woven artefact without running it.
        """
        if not issubclass(app_cls, TargetApplication):
            raise TypeError(
                f"{app_cls.__name__} must inherit TargetApplication (the annotation "
                "library's virtual class)"
            )
        if not self.transcompile:
            return app_cls
        assert self.weaver is not None
        return self.weaver.weave_class(app_cls)

    # ------------------------------------------------------------------
    def run(
        self, app_cls: Type[TargetApplication], *, config: Optional[dict] = None
    ) -> PlatformRun:
        """Weave and execute an application; return the run record."""
        trace = global_trace()
        trace.reset()
        self.context.clear()

        tracer = global_tracer()
        was_tracing = tracer.enabled
        if self.tracing:
            tracer.reset()
            global_metrics().reset()
            tracer.set_enabled(True)

        try:
            # Direct hook: the weave itself has no join point to advise
            # (it *creates* them), so the driver times it explicitly.
            with tracer.span("platform.weave"):
                woven_cls = self.build(app_cls)

            for aspect in self.aspects:
                aspect.on_attach(self)

            def execute() -> TargetApplication:
                """The program entry point — AspectType I's outermost join point."""
                app = woven_cls(config)
                app.bind_platform(self)
                app.initialize()
                app.processing()
                app.finalize()
                return app

            if self.transcompile:
                assert self.weaver is not None
                entry = self.weaver.weave_function(execute, tags=(TAG_ENTRY,))
            else:
                entry = execute

            start = time.perf_counter()
            try:
                with tracer.span("platform.run"):
                    app = entry()
            finally:
                for aspect in self.aspects:
                    aspect.on_detach(self)
            elapsed = time.perf_counter() - start
        finally:
            if self.tracing:
                tracer.set_enabled(was_tracing)

        env_stats = app.env.stats if app.env is not None else None
        memory = app.env.memory_report() if app.env is not None else {}
        mmat_stats = app.env.mmat.stats() if app.env is not None else {}
        network = {}
        backend_name = None
        world = self.context.get("mpi_world")
        if world is not None:
            # Every backend's world exposes the same NetworkStats keys, so
            # run.network reads uniformly across serial/threads/process.
            network = world.traffic_summary()
            backend_name = getattr(world, "backend_name", None)
        return PlatformRun(
            app=app,
            elapsed=elapsed,
            counters=trace.all_counters(),
            env_stats=env_stats,
            network=network,
            layers=self.layer_parallelism(),
            memory=memory,
            transcompiled=self.transcompile,
            backend=backend_name,
            mmat_stats=mmat_stats,
            tracing=self.tracing,
            span_events=tracer.snapshot() if self.tracing else [],
            metric_data=global_metrics().snapshot() if self.tracing else {},
            recovery_events=list(self.resilience.events) if self.resilience else [],
        )
