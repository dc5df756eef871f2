"""Property test: one lattice oracle for the whole platform.

Weaving the distributed- and shared-memory aspect modules into a DSL
program must not change its answer.  One hypothesis strategy draws a
point of the configuration lattice and runs it:

* the app: SGrid (Dirichlet or Neumann ring; Block side × page size,
  ragged pages included; a stencil — Jacobi's five points, a 9-point, a
  one-sided, a radius-2 cross or a drawn one, a float32 Block, a
  constant ``fn``, ``1/x`` after another stencil used the padded
  field), USGrid (CaseC or CaseR; Block size, page size and a tile
  budget small enough to cut every run of Blocks) or Particle;
* the world: serial, 2 and 3 thread or process ranks, 2 × 2 hybrid, a
  team of two threads (and, at a default point, teams of three threads
  and of two and three in forked ranks);
* MMAT on or off, and what disturbs the run: a mid-run ``MMAT.reset()``,
  MMAT switched off mid-run, a scalar read of a halo element (once on
  rank 1, or on every rank at every step: the run stays on the page
  protocol), a key-less ``gather_global`` (of rank 0's own cells; at the
  default point on two ranks also of a cell one row past the line they
  split the region at), Blocks dealt round-robin so
  that owners interleave, late Blocks (Buffer-only, owned off the data
  joint, and for USGrid a swept float32 one), a whole-Block ``scatter``
  overwritten by scalar ``set`` calls, an install into an owned page.

Besides the drawn points, every world runs every app at a default point
and with each axis varied alone, so that no axis depends on a draw to
meet any world.

Every point runs under ``REPRO_CHECK`` (the refresh advice asserts the
push invariants and ``Env.check_dense_image()`` at every step) with
RuntimeWarnings as errors, and its assembled ``run.result`` — every
rank's answer — must equal the serial reference bit for bit: the scalar
kernel's for the Jacobi apps, the gather route's (MMAT off: each
operand read site by site) for the other stencils, the vectorized
kernel's for Particle (whose scalar kernel sums in another order).

Rank 0's log of every step then pins the protocol: a step is closed
(one agreement, no page, one push per owner it reads) exactly when no
disturbance opened it, the reasons the world records are the model's,
the page traffic adds up per exchange, and the plans, fused kernels and
tiles are what the point asks for.
"""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.apps.jacobi_sgrid import STENCIL
from repro.dsl import base
from repro.memory import ArithmeticBlock, BufferOnlyBlock, DataBlock, PageKey, ReferenceBlock
from repro.memory.address import GlobalAddress
from repro.runtime import get_backend
from repro.runtime.shm import set_protocol_checks
from repro.runtime.tracing import global_trace

from page_protocol import read_remote_scalar

LOOPS = 6
REGION = 16
LATE_ORIGIN = 10**6
#: What every ghost row holds before the warm-up: a row read before any
#: install or push filled it spoils the answer.
SENTINEL = -12345.0
#: What a key-less ``gather_global`` reads: rank 0's own cells, or also
#: ``[0, 9]`` and ``[9, 0]``.  Two ranks split the default point's region
#: at 8, so one of those is rank 0's and the other lies one row past the
#: line, in a page the plans prefetch but a row no rank pushes.  Only the
#: default point on one or two ranks of one thread reads them: elsewhere
#: the page may be one no plan reads, which joins the Dry-run record and
#: keeps every later step open, and a team member reading ahead of its
#: master would spoil the master's per-step log.
KEYLESS_CELLS = {"own": [[0, 0], [1, 1]], "behind": [[0, 0], [1, 1], [0, 9], [9, 0]]}


def _init(x, y):
    return 0.03 * x - 0.05 * y + 2.0  # positive on the region: ``1/x`` is defined


@pytest.fixture(autouse=True)
def checked():
    """``REPRO_CHECK`` on (before a process world forks) and
    RuntimeWarnings as errors (a forked rank inherits the filter)."""
    previous = set_protocol_checks(True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield
    set_protocol_checks(previous)


# ----------------------------------------------------------------------
# stencils
# ----------------------------------------------------------------------
NINE_POINT = tuple((dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1))
ONE_SIDED = ((0, 0), (0, 1), (0, 2))
CROSS_R2 = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1), (-2, 0), (2, 0), (0, -2), (0, 2))


def weighted(*values):
    """A stencil update that weighs every offset differently."""
    return sum((0.5 / (i + 1)) * v for i, v in enumerate(values))


def reciprocal(e, *nb):
    return 1.0 / e + sum(1.0 / v for v in nb)


def constant(*_values):
    return np.float64(0.5)


#: Named sweeps of :class:`LatticeSGrid`; "jacobi" is the app's own kernel.
STENCILS = {
    "jacobi": None,
    "9-point": [(weighted, NINE_POINT)],
    "one-sided": [(weighted, ONE_SIDED)],
    "cross-r2": [(weighted, CROSS_R2)],
    "float32": [(weighted, STENCIL)],
    "constant": [(constant, NINE_POINT)],
    # The second kernel computes in the padded field the first one used.
    "reciprocal": [(weighted, NINE_POINT), (reciprocal, STENCIL)],
}


# ----------------------------------------------------------------------
# the apps, with the lattice's disturbances scripted into their runs
# ----------------------------------------------------------------------
class Disturbed:
    """Mixin scripting a lattice point's disturbances into an app's run,
    and logging, per step, what the step cost rank 0's master thread."""

    def assign_tasks(self, specs):
        pairs = super().assign_tasks(specs)
        if self.config["interleave"]:
            total = self.task.mpi_size * self.omp_threads()
            pairs = [(spec, k % total) for k, (spec, _) in enumerate(pairs)]
        return pairs

    def processing(self) -> None:
        point, rank, master = self.config, self.task.mpi_rank, self.task.omp_thread == 0
        if master:
            self.read_scalar = self.keyless = self.scatter_then_set = False
            self.log, self.layouts, self.interleaved, self.far_log = [], set(), 0, []
            for image in self.env._images.values():
                for slab in image.slabs:
                    slab[image.ghost_base :] = SENTINEL
        self.warm_up(self.kernel)
        trace = global_trace().for_task()
        for step in range(self.loops):
            if step == point["reset_at"]:
                self.forget_accesses()  # MMAT.reset(), once per team
            if step == point["off_at"]:
                self.env.mmat.enabled = False
            # A team shares the app: every member sets the same flags.
            self.read_scalar = point["read"] == "always" or (
                point["read"] == "once" and step == 2 and rank == 1)
            self.keyless = point["keyless"] and step == 3 and rank == 0
            mine = self.env.get_blocks(False)  # a Particle rank may own none
            if point["hazards"] and step == 3:
                self.scatter_then_set = bool(mine)
            if point["hazards"] and step == 4 and mine:
                self.install_on_an_owned_block()
            if step == point["grow_at"] and mine:
                self.grow()
            before = self.costs(trace)
            self.run(self.kernel)
            if master:
                self.log.append(tuple(b - a for a, b in zip(before, self.costs(trace)))
                                + (self.owners(),))

    def costs(self, trace) -> tuple:
        return (trace.collectives, trace.pages_fetched, trace.recomputed_steps,
                trace.halo_pushes, self.env.stats.dense_assemblies)

    def owners(self) -> int:
        """How many owners the rows rank 0's plans read belong to."""
        env, owners = self.env, set()
        for image, rows in env.plan_halo_rows():
            blocks, which, _ = env.halo_row_blocks(image, rows)
            owners |= {blocks[b].owner_tid for b in np.unique(which).tolist()}
        return len(owners)

    def kernel(self, warmup: bool) -> bool:
        if self.read_scalar and not warmup:
            read_remote_scalar(self.env)
        if self.config.get("far") and self.task.mpi_rank == 0:
            # Cells of the diagonal quadrant, whose owner reads nothing of
            # rank 0's, through a keyed (negotiated) gather_global.
            k = next(iter(self.block_kernels(warmup)))[1]
            far = k.gather_global(np.array([[15, 15], [12, 14], [9, 13]]), key="far")
            if not warmup:
                self.far_log.append(far.reshape(-1).copy())
        if self.keyless and not warmup:
            # A plan compiled per call: no negotiation can have covered it.
            k = next(iter(self.block_kernels(warmup)))[1]
            cells = np.array(KEYLESS_CELLS[self.config["keyless"]])
            self.keyless_cells = k.gather_global(cells).reshape(-1).copy()
        return super().kernel(warmup)

    def refresh(self, warmup: bool = False) -> bool:
        if self.scatter_then_set and not warmup:
            self.scatter_then_set = False
            self.overwrite_through_both_paths()
        done = super().refresh(warmup)
        for image in self.env._images.values():
            if image.pushed and self.task.omp_thread == 0:
                # Where the pushed halo rows sit, in sorted halo-row order.
                places = image.ghost_index(np.arange(image.halo_rows)) - image.ghost_base
                ghosts = places[places < image.pushed]
                self.interleaved += bool(np.any(np.diff(ghosts) < 0))
                self.layouts.add(image.layout)
        return done

    # -- the hazards ----------------------------------------------------
    def overwrite_through_both_paths(self) -> None:
        """Scatter garbage over a swept Block, then ``set`` it back."""
        block = self.env.get_blocks(False)[0]
        k = self.kernel_for(block)
        swept = block.buffer.write_buffer.dense().copy()
        k.scatter(np.full((block.element_count, block.components), -7.0))
        for index, local in enumerate(np.ndindex(*block.shape)):
            k.set(local, swept[index] if block.components > 1 else swept[index, 0])

    def install_on_an_owned_block(self) -> None:
        """A page install on an owned Block is written straight into its rows."""
        env = self.env
        block = env.get_blocks(False)[0]
        key = PageKey(block.block_id, 0)
        page = env.page_snapshot(key)
        env.page_install(key, np.full_like(page, -3.0))
        assert np.all(env.dense_read(block)[: block.page_elements] == -3.0)
        env.page_install(key, page)
        assert np.shares_memory(env.dense_read(block), env.page_export(key)[0])

    def grow(self) -> None:
        """A Buffer-only Block outgrowing the ghost tail and an owned Block
        off the data joint: the slabs are re-allocated twice, the owned
        rows kept."""
        env = self.env
        like = env.get_blocks(False)[0]
        image = env.image_slot(like)[0]
        sizes = dict(components=like.components, page_elements=like.page_elements,
                     allocator=env.allocator, dtype=like.buffer.read_buffer.dtype)
        late = BufferOnlyBlock((LATE_ORIGIN,) * len(like.shape), like.shape,
                               name="late-arrival", **sizes)
        late.load_dense(np.full((late.element_count, late.components), 9.0))
        env.add_data_block(late)
        assert np.all(env.dense_read(late) == 9.0)
        held = image.local_rows
        kept = image.read[:held].copy(), image.next[:held].copy()
        mine = DataBlock((2 * LATE_ORIGIN,) * len(like.shape), like.shape,
                         name="late-owned", **sizes)
        mine.load_dense(np.full((mine.element_count, mine.components), 6.0))
        mine.load_dense(np.full((mine.element_count, mine.components), 5.0), into_write=True)
        env.add_data_block(mine, parent=env.root)
        assert np.array_equal(image.read[:held], kept[0])
        assert np.array_equal(image.next[:held], kept[1])
        self.late_owned = mine

    def owned_part(self):
        if hasattr(self, "late_owned"):
            # The late owned Block swapped with its class ever since.
            value = 6.0 if (self.loops - self.config["grow_at"]) % 2 == 0 else 5.0
            assert np.all(self.env.dense_read(self.late_owned) == value)
        cells = [b for b in self.env.data_blocks() if not b.name.startswith("late")]
        with mock.patch.object(self.env, "data_blocks", lambda **kw: cells):
            return super().owned_part()


class LatticeSGrid(Disturbed, JacobiSGrid):
    """SGrid sweeping the point's stencils (Jacobi's own kernel for
    ``"jacobi"``) inside a two-cell ring: a positive Arithmetic ring for a
    Dirichlet point, a Neumann mirror otherwise; ``fn`` records the
    operands it saw."""

    def build_env(self):
        if self.config["sweeps"] is None:
            return super().build_env()
        env = self.make_env(name=f"stencil{self.region}")
        blocks = self.materialize_blocks(
            env, self.block_specs(), components=1, page_elements=self.page_elements,
            dtype=np.float32 if self.config["stencil"] == "float32" else np.float64,
        )
        n = self.region
        if self.boundary_kind == "dirichlet":
            ring = ArithmeticBlock((-2, -2), (n + 4, n + 4),
                                   lambda a: 1.5 + 0.01 * a[0] - 0.02 * a[1], name="ring")
        else:
            def mirror(a):
                return GlobalAddress((min(max(a[0], 0), n - 1), min(max(a[1], 0), n - 1)))
            ring = ReferenceBlock((-2, -2), (n + 4, n + 4), mirror, name="ring")
        env.add_boundary_block(ring)
        self._initialise_field(blocks)
        return env

    def kernel_vectorized(self, warmup: bool) -> bool:
        if self.config["sweeps"] is None:
            return super().kernel_vectorized(warmup)
        self.operands = getattr(self, "operands", set())
        for _block, k in self.block_kernels(warmup):
            for fn, stencil in self.config["sweeps"]:
                k.sweep(self.recording(fn), stencil)  # the last sweep's store wins
        return self.refresh(warmup)

    def recording(self, fn):
        def recorded(*values):
            self.operands |= {(v.ndim, v.shape, v.flags.c_contiguous) for v in values}
            return fn(*values)
        return recorded


class LatticeUSGrid(Disturbed, JacobiUSGrid):
    def grow(self) -> None:
        super().grow()
        self.add_a_swept_float32_block()

    def add_a_swept_float32_block(self) -> None:
        """A float32 Block of this task, closed under its neighbour table:
        the Block list changes and the tile ends at an image-class change."""
        env = self.env
        like = env.get_blocks(False)[0]
        late = DataBlock((3 * LATE_ORIGIN,), (8,), components=1, page_elements=4,
                         allocator=env.allocator, dtype=np.float32, name="late-swept")
        late.dm_tid, late.ch_tid = like.dm_tid, like.ch_tid
        late.static_fields["neighbors"] = 3 * LATE_ORIGIN + (
            np.arange(8)[:, None] + np.array([1, 2, 3, 5])
        ) % 8
        for buf in late.buffer.buffers:
            buf.load_dense(np.arange(8.0))
        env.add_data_block(late)
        self.late_swept = late

    def owned_part(self):
        if hasattr(self, "late_swept"):
            self.late = self.env.dense_read(self.late_swept).reshape(-1).copy()
        return super().owned_part()


class LatticeParticle(Disturbed, ParticleSimulation):
    pass


def expected_late(steps: int) -> np.ndarray:
    values = np.arange(8.0, dtype=np.float32)
    table = (np.arange(8)[:, None] + np.array([1, 2, 3, 5])) % 8
    for _ in range(steps):
        n = values[table]
        values = 0.2 * values + 0.2 * (n[:, 1] + n[:, 0] + n[:, 3] + n[:, 2])
    return values


# ----------------------------------------------------------------------
# the references
# ----------------------------------------------------------------------
_references: dict = {}


def reference(point: dict, loops: int = LOOPS) -> np.ndarray:
    """The serial answer of ``point``'s app, independent of how it is
    blocked, dealt or disturbed."""
    app, config = point["app"], app_config(point)
    key = (app, config.get("boundary"), config.get("case"), config.get("stencil"),
           str(config.get("sweeps")), loops)
    if key not in _references:
        plain = dict(config, loops=loops, far=False, **UNDISTURBED)
        if app == "particle":
            vectorized = Platform(mmat=True).run(LatticeParticle, config=plain).result
            scalar = Platform().run(LatticeParticle, config=dict(plain, kernel="scalar")).result
            np.testing.assert_allclose(scalar, vectorized, atol=1e-10)
            _references[key] = vectorized
        elif config.get("sweeps") is None:
            app_cls = LatticeSGrid if app == "sgrid" else LatticeUSGrid
            _references[key] = Platform().run(app_cls, config=dict(plain, kernel="scalar")).result
        else:  # MMAT off: every operand read site by site
            _references[key] = Platform().run(LatticeSGrid, config=plain).result
    return _references[key]


# ----------------------------------------------------------------------
# the lattice
# ----------------------------------------------------------------------
UNDISTURBED = dict(interleave=False, reset_at=None, off_at=None, read=None, keyless=False,
                   grow_at=None, hazards=False)
WORLDS = [("serial", 1, 1), ("threads", 2, 1), ("threads", 3, 1), ("threads", 2, 2),
          ("threads", 1, 2), ("process", 2, 1), ("process", 3, 1)]
#: Teams beside the lattice's 2 × 2: of three threads, and in forked ranks.
TEAMS = [("threads", 2, 3), ("process", 2, 2), ("process", 2, 3)]
if not get_backend("process").available():
    WORLDS = [w for w in WORLDS if w[0] != "process"]
    TEAMS = [w for w in TEAMS if w[0] != "process"]
#: SGrid's Block side × page size, ragged pages included.
SGRID_GEOMETRIES = [(4, 8), (2, 4), (8, 16), (4, 6), (8, 2)]
USGRID_AXES = dict(case=["R", "C"], block_cells=[16, 8, 32], page_elements=[8, 5],
                   # Gathered bytes a tile may hold: the constant, or two Blocks' table.
                   budget=[None, 2])


@st.composite
def lattice(draw):
    app = draw(st.sampled_from(["sgrid", "usgrid", "particle"]))
    backend, ranks, omp = draw(st.sampled_from(WORLDS))
    point = dict(app=app, backend=backend, ranks=ranks, omp=omp, mmat=draw(st.booleans()),
                 interleave=draw(st.booleans()),
                 reset_at=draw(st.sampled_from([None, 1, 3])),
                 off_at=draw(st.sampled_from([None, 4])),
                 read=draw(st.sampled_from([None, "once", "always"])),
                 keyless=app == "sgrid" and draw(st.sampled_from([False, "own"])),
                 # Growing an Env its team is sweeping is not something apps may do.
                 grow_at=draw(st.sampled_from([None, 2])) if omp == 1 else None,
                 hazards=omp == 1 and draw(st.booleans()))
    if app == "sgrid":
        stencil = draw(st.sampled_from(sorted(STENCILS) + ["drawn"]))
        sweeps = STENCILS.get(stencil)
        if stencil == "drawn":  # around the five-point cross: every rank reads a halo
            offsets = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
            drawn = draw(st.lists(offsets, max_size=5, unique=True))
            sweeps = [(weighted, tuple(dict.fromkeys(STENCIL + tuple(drawn))))]
        if stencil == "one-sided":  # some ranks read no halo: nothing to read by scalar
            point["read"] = None
        block, page = draw(st.sampled_from(SGRID_GEOMETRIES))
        point.update(stencil=stencil, sweeps=sweeps, block_size=block, page_elements=page,
                     boundary=draw(st.sampled_from(["dirichlet", "neumann"])))
    elif app == "usgrid":
        point.update({axis: draw(st.sampled_from(values)) for axis, values in USGRID_AXES.items()})
    return point


def app_config(point: dict) -> dict:
    config = {k: point[k] for k in UNDISTURBED}
    config["far"] = point.get("far", False)
    if point["app"] == "sgrid":
        return dict(config, region=REGION, init=_init, boundary=point["boundary"],
                    block_size=point["block_size"], page_elements=point["page_elements"],
                    sweeps=point["sweeps"], stencil=point["stencil"])
    if point["app"] == "usgrid":
        return dict(config, region=REGION, init=_init, case=point["case"],
                    block_cells=point["block_cells"], page_elements=point["page_elements"])
    return dict(config, particles=128, block_buckets=2, page_elements=2)


APPS = {"sgrid": LatticeSGrid, "usgrid": LatticeUSGrid, "particle": LatticeParticle}


def run_point(point: dict, app_cls=None):
    builder = Platform.builder().mpi(point["ranks"], backend=point["backend"])
    builder.mmat(point["mmat"]).comm_timeout(30.0)
    if point["omp"] > 1:
        builder.omp(point["omp"])
    budget = base.TILE_BYTES
    if point.get("budget") is not None:
        budget = point["budget"] * point["block_cells"] * 4 * 8
    with mock.patch.object(base, "TILE_BYTES", budget):
        return builder.run(app_cls or APPS[point["app"]],
                           config=dict(app_config(point), loops=LOOPS))


def counter(run, name) -> int:
    return sum(getattr(c, name) for c in run.counters.values())


def check(point: dict, run) -> None:
    """Everything a point's run must show."""
    assert_every_rank_answers(point, run)
    if point["keyless"]:  # read at step 3: the field of three steps
        cells = np.array(KEYLESS_CELLS[point["keyless"]]).T
        assert np.array_equal(run.app.keyless_cells, reference(point, loops=3)[tuple(cells)])
    for step, far in enumerate(run.app.far_log):  # read before the step's sweep
        assert np.array_equal(far, reference(point, loops=step)[[15, 12, 9], [15, 14, 13]])
    check_protocol(point, run)
    check_traffic(point, run)
    check_kernels(point, run)
    check_image(point, run)


def open_reason(point: dict, rank: int, step: int):
    """Why ``rank`` cannot close ``step``, in the refresh advice's order."""
    if step == point["reset_at"] or (step == point["grow_at"] and point["app"] == "usgrid"):
        return "plan generation changed"  # a reset, or the float32 Block's new plans
    if point["off_at"] is not None and step >= point["off_at"]:
        return "MMAT disabled"
    if point["keyless"] and step == 3 and rank == 0:
        return "key-less gather_global"
    if point["read"] == "always" or (point["read"] == "once" and step == 2 and rank == 1):
        return "scalar halo read"
    return None


def assert_every_rank_answers(point: dict, run) -> None:
    """The oracle: every rank's answer, assembled, is the reference."""
    result = run.result
    assert not np.isnan(result).any() and np.array_equal(result, reference(point))


def expected_open(point: dict) -> tuple:
    """The steps that run open, and the reasons the world records: each
    rank's, for every open step after the run first closed one."""
    if not point["mmat"] or point["read"] == "always":
        return set(range(LOOPS)), {}  # never closed: nothing recorded
    opened, recorded, closed_once = set(), {}, False
    for step in range(LOOPS):
        reasons = [open_reason(point, rank, step) for rank in range(point["ranks"])]
        if not any(reasons):
            closed_once = True
            continue
        opened.add(step)
        for reason in filter(None, reasons):
            if closed_once:
                recorded[reason] = recorded.get(reason, 0) + 1
    return opened, recorded


def check_protocol(point: dict, run) -> None:
    log = run.app.log
    if point["ranks"] == 1:
        assert run.network.get("halo_pushes", 0) == 0
        return
    agreement = 2 if point["omp"] > 1 else 1  # + the shared-memory layer's barrier
    closed = [collectives == agreement and not redone
              for collectives, _, redone, *_ in log]
    opened, recorded = expected_open(point)
    assert {step for step, was in enumerate(closed) if not was} == opened, log
    assert run.network["open_steps"] == recorded
    for step, (_, pages, _, pushes, assembled, owners) in enumerate(log):
        if closed[step]:
            # The agreement alone: no page, one push per owner read, and
            # after a closed step a published halo is stored straight into
            # the image rows.
            assert pages == 0 and pushes == owners, (step, log)
            assert assembled == 0 or not step or not closed[step - 1], (step, log)
        else:
            assert pushes == 0, (step, log)
    if point["read"] == "once" and 1 not in opened:
        assert log[2][2] == 1  # rank 1 read an unpushed page: every rank recomputed
    if point["keyless"] == "behind" and point["ranks"] == 2:
        assert log[3][2] == 1  # rank 0 read a row nobody pushed: repair, recompute
    # Dealt round-robin, a one-sided stencil's Blocks may read no remote
    # row: then nothing is pushed to rank 0 and nothing it reads goes stale.
    reads = any(owners for *_, owners in log)
    off = point["off_at"]
    if off is not None and point["mmat"] and point["read"] != "always" \
            and off - 1 not in opened and reads:
        assert log[off][2] == 1  # the scalar reads find the pushed halo's pages invalid
    reset = point["reset_at"]
    if reset in opened and reset - 1 not in opened and not (point["keyless"] and reset == 3):
        assert log[reset][2] == 0  # the recompiled tables read pushed rows
    if not opened:
        assert " open: " not in run.summary()
        assert not reads or (" push=" in run.summary() and counter(run, "halo_wait_ns") > 0)
    if point["interleave"] and point["app"] == "usgrid" and point["case"] == "R" \
            and point["ranks"] >= 3 and point["reset_at"] and point["mmat"] \
            and point["read"] is None and point["off_at"] is None:
        # Rank 0 read interleaved owners through their pushes, under two
        # negotiations (the reset renumbered the tail).
        assert run.app.interleaved > 0 and len(run.app.layouts) >= 2


def check_traffic(point: dict, run) -> None:
    net = run.network
    if point["ranks"] == 1:
        return
    # Pages move only in bulk exchanges of one message pair each, a push
    # is one message on its link, and what the consumers installed and
    # copied is what the world moved.
    links = net["per_neighbor"].values()
    assert sum(link["messages"] for link in links) == 2 * net["bulk_fetches"] + net["halo_pushes"]
    assert counter(run, "pages_fetched") == net["bulk_pages"]
    assert net["halo_pushes"] == counter(run, "halo_pushes")


def check_kernels(point: dict, run) -> None:
    stats = run.mmat_stats
    if not point["mmat"]:
        assert stats["plans"] == 0 and counter(run, "plan_compiles") == 0
        assert stats["fallback_sites"] > 0 and counter(run, "kernel_fused_calls") == 0
        if point["app"] == "sgrid" and point["sweeps"] is not None:  # gather·fn·scatter
            assert {shape for _, shape, _ in run.app.operands} == {(point["block_size"],) * 2}
        return
    assert counter(run, "plan_sites") > 0
    assert stats["resets"] >= 1 + (point["reset_at"] is not None)
    if point["off_at"] is None:
        assert stats["fallback_sites"] == 0
    elif point["app"] != "particle" or point["ranks"] == 1:
        assert counter(run, "plan_fallback_sites") > 0
    if point["app"] == "sgrid":
        # Every sweep, warm-up included, ran fused up to MMAT off: a sweep
        # on the gather route counts its updates without a fused call.
        calls, sweeps = counter(run, "kernel_fused_calls"), len(point["sweeps"] or [None])
        blocks = (REGION // point["block_size"]) ** 2
        fused_steps = 1 + (point["off_at"] or LOOPS)
        assert calls >= sweeps * blocks * fused_steps
        if point["off_at"] is None and not point["hazards"]:
            assert counter(run, "updates") == calls * point["block_size"] ** 2
        if point["reset_at"] is not None:  # a second fusion pass per kernel
            assert counter(run, "kernel_fuse") >= 2 * blocks // (point["ranks"] * point["omp"])
        if point["sweeps"] is not None and point["off_at"] is None:
            assert {(ndim, contiguous) for ndim, _, contiguous in run.app.operands} == {(1, True)}
    if point["app"] == "usgrid":
        blocks = REGION * REGION // point["block_cells"]
        tasks = point["ranks"] * point["omp"]
        assert stats["tile_blocks"] >= (-(-blocks // tasks) if tasks > 1 else blocks)
        assert stats["tiles"] <= stats["tile_blocks"]
        assert stats["plans"] <= 2 * stats["tiles"]  # one owned + one halo table a tile
        if point["grow_at"] is not None:
            assert run.app.late.dtype == np.float32
            assert np.array_equal(run.app.late, expected_late(LOOPS - point["grow_at"]))


def check_image(point: dict, run) -> None:
    env = run.app.env
    assert run.memory["image_error"] is None
    rehomes = 0 if point["grow_at"] is None else 2 + (point["app"] == "usgrid")
    assert env.stats.image_rehomes == rehomes
    assert " img=pool " in run.summary()
    for block in env.data_blocks():
        image, lo, hi, _ = env.image_slot(block)
        assert np.shares_memory(block.buffer.read_buffer.pages[-1].array, image.read[lo:hi])
        assert np.shares_memory(block.buffer.write_buffer.pages[0].array, image.next[lo:hi])
    undisturbed = not any(point[k] for k in UNDISTURBED if k != "interleave")
    if point["ranks"] > 1 and point["mmat"] and undisturbed:
        # The warm-up and the closed steps wrote the ghost rows of the
        # pages the plans read and the pushed run, no other tail row.
        for image in env._images.values():
            written = np.zeros(image.tail, dtype=bool)
            written[: image.pushed] = True
            for key in env.plan_page_requirements():
                block = env.block(key.block_id)
                if env.image_slot(block)[0] is image:
                    first = env.image_slot(block)[1] + key.page_index * block.page_elements
                    written[first : first + block.buffer.read_buffer.pages[key.page_index].elements] = True
            for slab in image.slabs:
                assert np.all(slab[image.ghost_base :][~written] == SENTINEL)
    if point["read"] == "always" and point["mmat"] and point["ranks"] > 1 \
            and point["omp"] == 1 and point["keyless"] != "behind":
        # On the page protocol each sweep of a step re-assembles at most
        # the Buffer-only Blocks it installed pages into (a read past the
        # line installs one no plan reads).
        installed = {key.block_id for key in env.plan_page_requirements()}
        assert all(isinstance(env.block(b), BufferOnlyBlock) for b in installed)
        per_step = [assembled for *_, assembled, _ in run.app.log]
        sweeps = len(point.get("sweeps") or [None])
        assert 0 < max(per_step) <= sweeps * len(installed), (per_step, installed)
    if point["grow_at"] is None and point["ranks"] == 1:
        # No owned Block is ever assembled, and the pool holds the slabs
        # and nothing else: what the pages took before.
        assert env.stats.dense_assemblies == 0
        assert env.allocator.used_bytes == sum(b.buffer.nbytes for b in env.data_blocks())
    if point["app"] == "sgrid" and point["mmat"] and point["sweeps"] is None:
        # One padded field per kernel signature and thread.
        padded = [key for key in env.mmat._scratch if key[1] == "padded"]
        assert 1 <= len(padded) <= point["omp"] * len({key[2:] for key in padded})


def lattice_point(**point) -> dict:
    defaults = dict(UNDISTURBED, backend="threads", ranks=2, omp=1, mmat=True)
    apps = dict(sgrid=dict(stencil="jacobi", sweeps=None, block_size=4, page_elements=8,
                           boundary="dirichlet"),
                usgrid={axis: values[0] for axis, values in USGRID_AXES.items()},
                particle={})
    return {**defaults, **apps[point["app"]], **point}


def axes_alone() -> list:
    """Every world × app at the default point and with each lattice axis
    varied alone: the spine the drawn points' combinations grow from;
    the other teams at the default point alone."""
    shared = [dict(mmat=False), dict(interleave=True), dict(reset_at=1), dict(reset_at=3),
              dict(off_at=4), dict(read="once"), dict(read="always"),
              dict(grow_at=2), dict(hazards=True)]
    own = dict(
        sgrid=[dict(keyless="own"), dict(keyless="behind"), dict(boundary="neumann")]
        + [dict(stencil=name, sweeps=sweeps) for name, sweeps in STENCILS.items() if sweeps]
        + [dict(block_size=b, page_elements=p) for b, p in SGRID_GEOMETRIES[1:]],
        usgrid=[{axis: value} for axis, values in USGRID_AXES.items() for value in values[1:]],
        particle=[])
    points = []
    for backend, ranks, omp in WORLDS + TEAMS:
        for app in APPS:
            for change in [{}] + (shared + own[app] if (backend, ranks, omp) in WORLDS else []):
                if omp > 1 and ("grow_at" in change or "hazards" in change):
                    continue  # a team may not grow or overwrite an Env it sweeps
                if change.get("keyless") == "behind" and (ranks > 2 or omp > 1):
                    continue  # see KEYLESS_CELLS
                axes = "-".join(f"{k}={v}" for k, v in change.items() if k != "sweeps")
                points.append(pytest.param(
                    lattice_point(app=app, backend=backend, ranks=ranks, omp=omp, **change),
                    id=f"{app}-{backend}-{ranks}x{omp}-{axes or 'default'}"))
    return points


@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@given(point=lattice())
# Owners interleaved in halo-row order, renumbered by a renegotiation.
@example(lattice_point(app="usgrid", ranks=3, interleave=True, reset_at=1, grow_at=2,
                       block_cells=8))
@example(lattice_point(app="usgrid", backend="process", ranks=3, interleave=True, reset_at=3,
                       grow_at=2))
# Closed from the first step; on the page protocol for good.
@example(lattice_point(app="sgrid", backend="process", hazards=True))
@example(lattice_point(app="particle", backend="process", ranks=3, read="always"))
@example(lattice_point(app="particle", omp=2, reset_at=3))
def test_every_rank_answers_what_serial_does(point):
    check(point, run_point(point))


@pytest.mark.parametrize("point", axes_alone())
def test_each_axis_alone_on_every_world(point):
    check(point, run_point(point))


@pytest.mark.parametrize("backend", [w[0] for w in WORLDS if w[1:] == (2, 1)])
@pytest.mark.parametrize("app", ["sgrid", "usgrid", "particle"])
def test_four_ranks(app, backend):
    """Four ranks.  SGrid's rank 0 also reads, through a keyed
    ``gather_global``, cells of the diagonal quadrant, whose owner reads
    nothing of rank 0's: an asymmetric neighbour graph."""
    extra = dict(sgrid=dict(far=True), particle={},
                 usgrid=dict(interleave=True, reset_at=1, grow_at=2, block_cells=8))
    point = lattice_point(app=app, backend=backend, ranks=4, **extra[app])
    run = run_point(point)
    check(point, run)
    if app == "sgrid":  # rank 3 pushes to rank 0 every step, never the other way
        links = run.network["per_neighbor"]
        assert links["3->0"]["messages"] >= LOOPS > links["0->3"]["messages"]


@pytest.mark.parametrize("ranks,omp", [(1, 1), (2, 1), (2, 2)])
def test_why_a_tile_ends(ranks, omp):
    """The run reports its tiles and each boundary's reason."""
    point = lattice_point(app="usgrid", backend="threads" if ranks > 1 else "serial",
                          ranks=ranks, omp=omp)
    whole = run_point(point)
    mine = 16 // (ranks * omp)
    assert whole.mmat_stats["tiles"] == omp and whole.mmat_stats["tile_blocks"] == mine * omp
    assert whole.mmat_stats["tile_splits"] == {}
    assert f"tiles={omp}×{mine}" in whole.summary()

    cut = run_point(dict(point, budget=2))
    assert cut.mmat_stats["tiles"] == mine * omp // 2
    assert cut.mmat_stats["tile_splits"] == {"budget": (mine // 2 - 1) * omp}
    assert "(budget)" in cut.summary()

    if omp > 1:  # round-robin: a thread's rows never follow each other
        dealt = run_point(dict(point, interleave=True))
        assert dealt.mmat_stats["tiles"] == dealt.mmat_stats["tile_blocks"] == mine * omp
        assert set(dealt.mmat_stats["tile_splits"]) == {"ownership"}
    else:
        grown = run_point(dict(point, grow_at=2))
        assert grown.mmat_stats["tile_splits"] == {"image class": 1}

    off = run_point(dict(point, mmat=False))
    assert off.mmat_stats["tile_splits"] == {"mmat off": mine * omp - omp}


@pytest.mark.parametrize("backend", [w[0] for w in WORLDS if w[1:] == (2, 1)])
@pytest.mark.parametrize("app,app_cls,constant", [
    ("sgrid", JacobiSGrid, "alpha"),
    ("usgrid", JacobiUSGrid, "alpha"),
    ("particle", ParticleSimulation, "stiffness"),
])
def test_the_oracle_reads_every_rank(app, app_cls, constant, backend):
    """Rank 1 alone runs its last step with a perturbed constant: the
    assembled answer holds every rank's part and the oracle rejects it."""

    class RankOnePerturbed(app_cls):
        def processing(self) -> None:
            self.warm_up(self.kernel)
            for step in range(self.loops):
                if step == self.loops - 1 and self.task.mpi_rank == 1:
                    setattr(self, constant, getattr(self, constant) + 1e-3)
                self.run(self.kernel)

    point = lattice_point(app=app, backend=backend)
    run = run_point(point, RankOnePerturbed)
    assert np.shape(run.result) == np.shape(reference(point))
    assert not np.isnan(run.result).any()
    with pytest.raises(AssertionError):
        assert_every_rank_answers(point, run)
