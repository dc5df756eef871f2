"""The Platform driver: weaves aspects and executes applications.

This module plays the role of the paper's build/run pipeline (Fig. 3):

* "Platform" (direct C++ compile)           → ``Platform()``
* "Platform NOP" (AC++ weave, no aspects)   → ``Platform(aspects=[])``
* "Platform MPI" / "Platform OMP" / hybrid  → ``Platform(aspects=[...])``

``Platform.run(AppClass)`` corresponds to compiling the end-user's
Application Code together with the selected Aspect Modules and running
the resulting binary: the driver weaves the application class and the
Env class, wraps its own execution entry point (the ``main`` join
point, AspectType I's pointcut), and then runs Initialize → Processing
→ Finalize.

Every run option is one keyword of ``Platform.__init__``, with its one
default there.  Two constructors forward to it:

* the fluent builder —
  ``Platform.builder().mpi(4, backend="process").omp(2).mmat().build()``;
* a named preset reproducing one of Fig. 3's configurations —
  ``Platform.preset("hybrid", ranks=4, threads=2, backend="process")``.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..aop.aspect import Aspect
from ..aop.registry import TAG_ENTRY
from ..aop.weaver import Weaver
from ..memory.env import Env, EnvStats
from ..obs import (
    MonitoringAspect,
    env_tracing_default,
    global_tracer,
    phase_report,
    save_chrome_trace,
    span_metrics,
    widest_spans,
)
from ..runtime.backends import DEFAULT_BACKEND, DEFAULT_TIMEOUT, BackendError, get_backend
from ..runtime.network import NetworkStats
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
    #: Whether the run went through the weaver ("Platform NOP" and up);
    #: False for the plain "Platform" (serial) configuration.
    transcompiled: bool = False
    #: Name of the execution backend the distributed layer ran on
    #: ("serial" | "threads" | "process" | custom; a world of one rank
    #: is the serial world whatever the name); None when no
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
    #: Recovery events of a resilient run: one entry per diagnosed rank
    #: failure (:class:`repro.resilience.RecoveryEvent`); empty when no
    #: resilience policy was configured or nothing failed.
    recovery_events: List[Any] = field(default_factory=list)

    @property
    def result(self) -> Any:
        """The application's declared result (``app.result``)."""
        return self.app.result

    @functools.cached_property
    def memory(self) -> dict:
        """Memory report of the master task's Env (Fig. 12,
        :meth:`~repro.memory.env.Env.memory_report`), dense-image check
        included: taken when first read, so a run whose caller never reads
        it does not pay for its page-by-page check."""
        env = self.app.env
        return env.memory_report() if env is not None else {}

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

        Each event is a complete span: a dict with ``ph`` (``"X"``),
        ``name``, ``ts_ns``, ``dur_ns``, the flamegraph ``path``,
        ``rank``, ``thread`` and ``args``.  Empty unless the run was traced.
        """
        return sorted(self.span_events, key=lambda e: e["ts_ns"])

    def metrics(self) -> dict:
        """Distributions of the traced spans (:func:`repro.obs.span_metrics`):
        ``"<span>.ns"`` durations and ``"<span>.<attr>"`` numeric attributes
        (``halo.wait.ns``, ``halo.wait.pages``, ``refresh.ns``, …), per rank
        and overall, over the recorded timeline.

        Shape: ``{"histograms": {name: {"all": stats, "per_rank":
        {rank: stats}}}}`` where stats carry count, sum, mean, min/max and
        p50/p95/p99.  Empty unless traced.
        """
        return span_metrics(self.span_events)

    def save_trace(self, path: str) -> str:
        """Write the run's Chrome trace-event JSON to ``path``.

        The file loads in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``: one process track per rank, one thread
        track per (rank, thread).
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

        Both come from the task counters (``updates``, ``halo_wait_ns``),
        so the figure is available with or without tracing.  Ratios are
        ``max/mean`` (1.0 = perfectly balanced).
        """
        updates: Dict[int, float] = {}
        wait: Dict[int, float] = {}
        for (rank, _thread), counters in self.counters.items():
            updates[rank] = updates.get(rank, 0) + counters.updates
            wait[rank] = wait.get(rank, 0) + counters.halo_wait_ns

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
            tiles=2×8(budget) comm=2ex/12pg push=6ex/192sites
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
                # Buffer-only Blocks copied into the ghost tail from pages.
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
        line += self._comm_summary()
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

    def _comm_summary(self) -> str:
        """The ``comm=…`` section of :meth:`summary` (halo traffic by protocol).

        Reports how many bulk page exchanges moved how many halo pages
        and how many halo slots the owners published with how many
        element rows (``push=``).  ``open:`` names why steps of a run
        that can publish went through the page exchange instead.
        """
        exchanges = self.network.get("bulk_fetches", 0)
        pushes = self.network.get("halo_pushes", 0)
        if not exchanges and not pushes:
            return ""
        part = " comm="
        if exchanges:
            part += f"{exchanges}ex/{self.network['bulk_pages']}pg"
        if pushes:
            part += f"{' ' if exchanges else ''}push={pushes}ex/{self.network['halo_sites']}sites"
        open_steps = self.network.get("open_steps") or {}
        if open_steps:
            part += " open: " + ", ".join(
                f"{reason} x{count}" for reason, count in sorted(open_steps.items())
            )
        return part

    def _shm_summary(self) -> str:
        """The ``shm=…`` section of :meth:`summary` (zero-copy data plane).

        Reports how many pages arrived as shared-memory descriptors and
        how many bytes therefore never crossed a pipe; present only when
        a multi-rank process world fetched pages.
        """
        fetches = self.network.get("shm_fetches", 0)
        if not fetches:
            return ""
        return f" shm={fetches}pg/{self.network['shm_bytes'] / 1024:.1f}KiB"


class PlatformBuilder:
    """Fluent builder for :class:`Platform` configurations.

    Every method returns the builder, so a full configuration reads as
    one chain::

        platform = (Platform.builder()
                    .mpi(4, backend="process").omp(2)
                    .mmat()
                    .pool_bytes(32 * 1024 * 1024)
                    .aspect(StepTimerAspect())
                    .build())

    Each option method records one ``Platform`` keyword, and
    :meth:`build` passes exactly the recorded ones: an option left unset
    keeps ``Platform.__init__``'s default, the only one it has.

    ``build()`` may be called repeatedly; each call produces a fresh
    Platform.  Layer aspects added via :meth:`mpi`/:meth:`omp` are
    instantiated *per build* (layer modules are stateful), whereas an
    instance handed to :meth:`aspect` is attached as-is — sharing that
    instance between several built platforms is the caller's
    responsibility.
    """

    def __init__(self) -> None:
        #: Factories producing the aspect stack; None means "do not
        #: transcompile", [] means "Platform NOP".
        self._aspect_factories: Optional[List[Callable[[], Aspect]]] = None
        #: The ``Platform`` keywords set so far.
        self._options: Dict[str, Any] = {}

    def _set(self, **options: Any) -> "PlatformBuilder":
        self._options.update(options)
        return self

    # -- layers ---------------------------------------------------------
    def _factories(self) -> List[Callable[[], Aspect]]:
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

    def mpi(self, ranks: int, *, backend: Optional[str] = None) -> "PlatformBuilder":
        """Attach the distributed-memory layer with ``ranks`` processes.

        ``backend`` sets ``Platform(backend=)``, the execution backend
        the layer runs on.
        """
        from ..aspects.mpi_aspect import DistributedMemoryAspect

        self._factories().append(lambda: DistributedMemoryAspect(processes=ranks))
        return self if backend is None else self._set(backend=backend)

    def omp(self, threads: int) -> "PlatformBuilder":
        """Attach the shared-memory layer with ``threads`` threads."""
        from ..aspects.openmp_aspect import SharedMemoryAspect

        self._factories().append(lambda: SharedMemoryAspect(threads=threads))
        return self

    def nop(self) -> "PlatformBuilder":
        """Transcompile with no aspect modules (the paper's "Platform NOP")."""
        self._factories()
        return self

    # -- options --------------------------------------------------------
    def mmat(self, enabled: bool = True) -> "PlatformBuilder":
        """Enable (or disable) MMAT on every Env the application builds."""
        return self._set(mmat=enabled)

    def pool_bytes(self, nbytes: int) -> "PlatformBuilder":
        """Size of the memory pool backing each Env."""
        return self._set(pool_bytes=nbytes)

    def tracing(self, enabled: bool = True) -> "PlatformBuilder":
        """Record a span timeline for every run of the platform.

        Traced runs expose ``run.timeline()`` / ``run.metrics()`` /
        ``run.save_trace(path)``; overhead on untraced paths is a
        single flag check per instrumentation site.
        """
        return self._set(tracing=enabled)

    def resilience(self, policy: Any = True) -> "PlatformBuilder":
        """Make runs elastic under rank failure (checkpoints + recovery).

        ``policy`` is a :class:`repro.resilience.ResiliencePolicy` (or
        ``True`` for the defaults); weaves a
        :class:`~repro.resilience.RecoveryAspect`.
        """
        return self._set(resilience=policy)

    def comm_timeout(self, seconds: float) -> "PlatformBuilder":
        """Bound (seconds) on every wait of both layers: the distributed
        world's collectives and page waits, and the thread team's
        barriers — and therefore how long a dead rank can go undetected.
        """
        return self._set(comm_timeout=seconds)

    # -- terminal -------------------------------------------------------
    def build(self) -> "Platform":
        """Materialise the configured :class:`Platform` (weaves Env)."""
        aspects = None
        if self._aspect_factories is not None:
            aspects = [factory() for factory in self._aspect_factories]
        return Platform(aspects=aspects, **self._options)

    def run(
        self, app_cls: Type[TargetApplication], *, config: Optional[dict] = None
    ) -> PlatformRun:
        """Shorthand for ``builder.build().run(app_cls, config=config)``."""
        return self.build().run(app_cls, config=config)


#: The paper's Fig. 3 build configurations — the one table from a
#: configuration label to the layers it weaves (None: not transcompiled).
#: Layers nest by each aspect's ``order``, not by their order here.
PRESETS: Dict[str, Optional[Tuple[str, ...]]] = {
    "serial": None,
    "nop": (),
    "mpi": ("mpi",),
    "omp": ("omp",),
    "hybrid": ("omp", "mpi"),
}


class Platform:
    """Builds (weaves) and executes platform applications.

    Every run option has its one home and its one default here; the
    builder and :meth:`preset` only forward keywords to it.  A bad value
    raises here, naming the option.

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
    pool_bytes:
        Size of the memory pool backing each Env.
    backend:
        Execution backend of the distributed-memory layer (``"serial"``
        | ``"threads"`` | ``"process"`` | a backend registered via
        :func:`repro.runtime.backends.register_backend`) of a world of
        two or more ranks; one rank always runs the serial world.
        ``None`` runs the default ``threads`` simulation; naming one
        requires a distributed-memory (``layer == "mpi"``) aspect.
    tracing:
        Record a span timeline for every run
        (:mod:`repro.obs`); adds a :class:`~repro.obs.MonitoringAspect`
        to transcompiled stacks.  ``None`` (default) defers to the
        ``REPRO_TRACE`` environment variable; tracing is otherwise off.
    resilience:
        A :class:`repro.resilience.ResiliencePolicy` (or ``True`` for
        the defaults) making runs elastic under rank failure.
    comm_timeout:
        Bound (seconds) on every wait of both layers: the distributed
        world's collectives and page waits, and the thread team's
        barriers.
    """

    def __init__(
        self,
        aspects: Optional[Sequence[Aspect]] = None,
        *,
        mmat: bool = False,
        pool_bytes: int = 64 * 1024 * 1024,
        backend: Optional[str] = None,
        tracing: Optional[bool] = None,
        resilience: Any = None,
        comm_timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        if not (isinstance(comm_timeout, (int, float)) and 0 < comm_timeout < math.inf):
            raise ValueError(
                f"comm_timeout must be a positive, finite number of seconds, got {comm_timeout!r}"
            )
        if int(pool_bytes) <= 0:
            raise ValueError(f"pool_bytes must be positive, got {pool_bytes!r}")
        if backend is not None:
            try:
                get_backend(backend)
            except BackendError as exc:
                raise ValueError(str(exc)) from None
            if not any(getattr(a, "layer", None) == "mpi" for a in aspects or ()):
                raise ValueError(
                    f"backend={backend!r} needs a distributed-memory layer to run on "
                    "(add .mpi(n) or use the 'mpi' / 'hybrid' preset)"
                )
        if tracing is None:
            tracing = env_tracing_default()
        transcompile = aspects is not None
        self.mmat = bool(mmat)
        self.pool_bytes = int(pool_bytes)
        self.backend = backend
        self.tracing = bool(tracing)
        self.comm_timeout = float(comm_timeout)
        self.aspects: List[Aspect] = list(aspects or [])
        if self.tracing and transcompile:
            # Dogfood the AOP core: phase spans come from an ordinary
            # aspect woven with the stack (lowest order ⇒ outermost).
            self.aspects.append(MonitoringAspect())
        #: Recovery manager of a resilient platform (None otherwise).
        self.resilience = None
        if resilience is not None and resilience is not False:
            if not transcompile:
                raise ValueError(
                    "resilience requires a transcompiled platform "
                    "(checkpoints are woven as an aspect module)"
                )
            from ..resilience import RecoveryAspect, RecoveryManager, ResiliencePolicy

            policy = ResiliencePolicy() if resilience is True else resilience
            self.resilience = RecoveryManager(policy)
            self.aspects.append(RecoveryAspect(self.resilience))
        #: Shared scratch space aspect modules use to exchange run-level
        #: objects (e.g. the MPI world), keyed by aspect-defined names.
        self.context: Dict[str, Any] = {}

        self.weaver: Optional[Weaver] = None
        self.env_class: Type[Env] = Env
        if transcompile:
            self.weaver = Weaver(self.aspects)
            self.env_class = self.weaver.weave_class(Env)

    # ------------------------------------------------------------------
    # construction sugar
    # ------------------------------------------------------------------
    @classmethod
    def builder(cls) -> PlatformBuilder:
        """Start a fluent :class:`PlatformBuilder` chain."""
        return PlatformBuilder()

    @classmethod
    def preset(cls, name: str, *, ranks: int = 1, threads: int = 1, **options: Any) -> "Platform":
        """Build one of the paper's named configurations (Fig. 3).

        ===========  ====================================================
        ``serial``   no transcompilation at all ("Platform")
        ``nop``      transcompiled, no aspect modules ("Platform NOP")
        ``mpi``      distributed-memory layer, ``ranks`` processes
        ``omp``      shared-memory layer, ``threads`` threads
        ``hybrid``   both layers, ``ranks`` × ``threads`` tasks
        ===========  ====================================================

        ``options`` are ``Platform`` keywords, forwarded unchanged
        (``Platform.preset("mpi", ranks=2, backend="process", mmat=True)``).
        """
        if name not in PRESETS:
            raise ValueError(
                f"unknown platform preset {name!r} "
                f"(expected one of: {', '.join(sorted(PRESETS))})"
            )
        layers = PRESETS[name]
        builder = cls.builder()
        if layers is not None:
            builder.nop()
        for layer, tasks, count in (("omp", "threads", threads), ("mpi", "ranks", ranks)):
            if layer in (layers or ()):
                getattr(builder, layer)(int(count))
            elif count != 1:
                raise ValueError(f"the {name!r} preset weaves no {layer} layer; {tasks} must be 1")
        return builder._set(**options).build()

    # ------------------------------------------------------------------
    @property
    def transcompile(self) -> bool:
        """Whether the platform weaves (every configuration but "Platform")."""
        return self.weaver is not None

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
        """Weave and execute an application; return the run record.

        Raises :class:`~repro.aop.errors.WeaveError`, before any aspect is
        attached, when an advice matches no join point of the run (a
        misspelt tag).
        """
        trace = global_trace()
        trace.reset()
        self.context.clear()

        tracer = global_tracer()
        was_tracing = tracer.enabled
        if self.tracing:
            tracer.reset()
            tracer.set_enabled(True)

        try:
            # Direct hook: the weave itself has no join point to advise
            # (it *creates* them), so the driver times it explicitly.
            with tracer.span("platform.weave"):
                woven_cls = self.build(app_cls)

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
                # An advice no shadow of the run selects would never fire.
                self.weaver.require_matched(self.env_class, woven_cls, entry)
            else:
                entry = execute

            for aspect in self.aspects:
                aspect.on_attach(self)

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
        mmat_stats = app.env.mmat.stats() if app.env is not None else {}
        network = {}
        backend_name = None
        world = self.context.get("mpi_world")
        if world is not None:
            # Every backend's world exposes the same NetworkStats keys, so
            # run.network reads uniformly across serial/threads/process; a
            # recovered run adds the traffic of the worlds it gave up.
            network = world.traffic_summary()
            if self.resilience is not None and self.resilience.events:
                traffic = NetworkStats(**network)
                traffic.merge(self.resilience.lost_traffic)
                network = traffic.as_dict()
            backend_name = self.backend or DEFAULT_BACKEND
        return PlatformRun(
            app=app,
            elapsed=elapsed,
            counters=trace.all_counters(),
            env_stats=env_stats,
            network=network,
            layers=self.layer_parallelism(),
            transcompiled=self.transcompile,
            backend=backend_name,
            mmat_stats=mmat_stats,
            tracing=self.tracing,
            span_events=tracer.snapshot() if self.tracing else [],
            recovery_events=list(self.resilience.events) if self.resilience else [],
        )
